#include "features/comparator.h"

#include <algorithm>

#include "text/similarity_registry.h"
#include "util/logging.h"

namespace transer {

Result<PairComparator> PairComparator::Create(const Schema& left_schema,
                                              const Schema& right_schema,
                                              ComparatorOptions options) {
  if (!left_schema.CompatibleWith(right_schema)) {
    return Status::InvalidArgument(
        "left and right schemas are not feature-space compatible");
  }
  std::vector<std::string> names;
  std::vector<SimilarityFn> fns;
  names.reserve(left_schema.size());
  fns.reserve(left_schema.size());
  for (const auto& attr : left_schema.attributes()) {
    auto fn = SimilarityRegistry::Global().Lookup(attr.similarity);
    if (!fn.ok()) return fn.status();
    names.push_back(attr.name + ":" + attr.similarity);
    fns.push_back(std::move(fn.value()));
  }
  return PairComparator(std::move(names), std::move(fns), options);
}

std::vector<double> PairComparator::Compare(const Record& left,
                                            const Record& right) const {
  std::vector<double> features(similarity_fns_.size(), 0.0);
  CompareInto(left, right, std::span<double>(features));
  return features;
}

void PairComparator::CompareInto(const Record& left, const Record& right,
                                 std::span<double> out) const {
  TRANSER_CHECK_EQ(left.values.size(), similarity_fns_.size());
  TRANSER_CHECK_EQ(right.values.size(), similarity_fns_.size());
  TRANSER_CHECK_EQ(out.size(), similarity_fns_.size());
  for (size_t q = 0; q < similarity_fns_.size(); ++q) {
    const std::string a = NormalizeValue(left.values[q], options_.normalize);
    const std::string b = NormalizeValue(right.values[q], options_.normalize);
    if (a.empty() || b.empty()) {
      out[q] = options_.missing_value_similarity;
    } else {
      out[q] = similarity_fns_[q](a, b);
    }
  }
}

Result<FeatureMatrix> PairComparator::CompareAll(
    const Dataset& left, const Dataset& right,
    const std::vector<PairRef>& pairs, const ExecutionContext& context,
    const ParallelOptions& options) const {
  FeatureMatrix out(feature_names_);
  out.Resize(pairs.size());
  ParallelOptions chunk_options = options;
  chunk_options.min_items_per_chunk =
      std::max<size_t>(chunk_options.min_items_per_chunk, 64);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "compare", pairs.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t i = begin; i < end; ++i) {
          const PairRef& pair = pairs[i];
          const Record& l = left.record(pair.left_index);
          const Record& r = right.record(pair.right_index);
          CompareInto(l, r, out.MutableRow(i));
          out.set_label(i, (l.entity_id >= 0 && l.entity_id == r.entity_id)
                               ? kMatch
                               : kNonMatch);
          out.set_pair(i, pair);
        }
        return Status::OK();
      },
      chunk_options));
  return out;
}

}  // namespace transer
