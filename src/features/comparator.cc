#include "features/comparator.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "text/similarity_registry.h"
#include "text/tokenize.h"
#include "util/logging.h"

namespace transer {

namespace {

constexpr uint32_t kUnreferenced = std::numeric_limits<uint32_t>::max();

/// The records of `dataset` that `slots` marks (anything but
/// kUnreferenced), in record order; rewrites each mark to its slot.
std::vector<const Record*> SlotReferenced(const Dataset& dataset,
                                          std::vector<uint32_t>* slots) {
  std::vector<const Record*> records;
  for (size_t i = 0; i < slots->size(); ++i) {
    if ((*slots)[i] == kUnreferenced) continue;
    (*slots)[i] = static_cast<uint32_t>(records.size());
    records.push_back(&dataset.record(i));
  }
  return records;
}

}  // namespace

Result<PairComparator> PairComparator::Create(const Schema& left_schema,
                                              const Schema& right_schema,
                                              ComparatorOptions options) {
  if (!left_schema.CompatibleWith(right_schema)) {
    return Status::InvalidArgument(
        "left and right schemas are not feature-space compatible");
  }
  std::vector<std::string> names;
  std::vector<PreparedSimilarityFn> fns;
  names.reserve(left_schema.size());
  fns.reserve(left_schema.size());
  for (const auto& attr : left_schema.attributes()) {
    auto fn = SimilarityRegistry::Global().LookupPrepared(attr.similarity);
    if (!fn.ok()) return fn.status();
    names.push_back(attr.name + ":" + attr.similarity);
    fns.push_back(std::move(fn.value()));
  }
  return PairComparator(std::move(names), std::move(fns), options);
}

Result<PreparedRecords> PairComparator::PrepareAll(
    std::span<const Record* const> records, const ExecutionContext& context,
    const ParallelOptions& options) const {
  const size_t width = similarity_fns_.size();
  const size_t num_values = records.size() * width;
  PreparedRecords prepared;
  prepared.width_ = width;

  // Normalisation never lengthens a value, so each record's raw bytes
  // bound its stretch of the text buffer.
  std::vector<size_t> text_begin(records.size() + 1, 0);
  for (size_t s = 0; s < records.size(); ++s) {
    TRANSER_CHECK_EQ(records[s]->values.size(), width);
    size_t bytes = 0;
    for (const std::string& value : records[s]->values) bytes += value.size();
    text_begin[s + 1] = text_begin[s] + bytes;
  }
  TRANSER_RETURN_IF_ERROR(prepared.memory_.Acquire(
      context, "compare",
      text_begin.back() + num_values * sizeof(PreparedValue),
      options.diagnostics));
  prepared.text_.resize(text_begin.back());
  prepared.values_.resize(num_values);

  ParallelOptions chunk_options = options;
  chunk_options.min_items_per_chunk =
      std::max<size_t>(chunk_options.min_items_per_chunk, 16);

  // Pass 1: normalise every value into the text buffer and count its
  // words. word_begin[v] holds value v's word count until the prefix sum.
  std::vector<size_t> word_begin(num_values + 1, 0);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "compare", records.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t s = begin; s < end; ++s) {
          char* out = prepared.text_.data() + text_begin[s];
          for (size_t q = 0; q < width; ++q) {
            const std::string& raw = records[s]->values[q];
            PreparedValue& value = prepared.values_[s * width + q];
            value.text = std::string_view(
                out, NormalizeInto(raw, options_.normalize, out));
            ForEachWord(value.text,
                        [&](std::string_view) { ++word_begin[s * width + q]; });
            out += raw.size();
          }
        }
        return Status::OK();
      },
      chunk_options));

  // Each value owns 2 * words views: its words, then its word set.
  size_t total_words = 0;
  for (size_t v = 0; v < num_values; ++v) {
    const size_t count = word_begin[v];
    word_begin[v] = total_words;
    total_words += count;
  }
  word_begin[num_values] = total_words;
  TRANSER_RETURN_IF_ERROR(prepared.memory_.Grow(
      2 * total_words * sizeof(std::string_view), options.diagnostics));
  prepared.words_.resize(2 * total_words);

  // Pass 2: split each value into its words and sorted unique word set.
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "compare", records.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t v = begin * width; v < end * width; ++v) {
          PreparedValue& value = prepared.values_[v];
          const size_t count = word_begin[v + 1] - word_begin[v];
          std::string_view* words = prepared.words_.data() + 2 * word_begin[v];
          std::string_view* set = words + count;
          size_t k = 0;
          ForEachWord(value.text, [&](std::string_view word) {
            words[k] = word;
            set[k] = word;
            ++k;
          });
          value.words = std::span<const std::string_view>(words, count);
          value.word_set = std::span<const std::string_view>(
              set, SortUniqueWords(std::span<std::string_view>(set, count)));
        }
        return Status::OK();
      },
      chunk_options));
  return prepared;
}

PreparedRecords PairComparator::Prepare(const Record& record) const {
  const Record* records[] = {&record};
  // One or two records are never worth a parallel region. The unlimited
  // context never interrupts and has no budget, so value() cannot abort.
  return PrepareAll(records, ExecutionContext::Unlimited(),
                    {.num_threads = 1})
      .value();
}

std::vector<double> PairComparator::Compare(const Record& left,
                                            const Record& right) const {
  const Record* records[] = {&left, &right};
  const PreparedRecords prepared =
      PrepareAll(records, ExecutionContext::Unlimited(), {.num_threads = 1})
          .value();
  std::vector<double> features(similarity_fns_.size(), 0.0);
  CompareInto(prepared[0], prepared[1], std::span<double>(features));
  return features;
}

void PairComparator::CompareInto(std::span<const PreparedValue> left,
                                 std::span<const PreparedValue> right,
                                 std::span<double> out) const {
  TRANSER_CHECK_EQ(left.size(), similarity_fns_.size());
  TRANSER_CHECK_EQ(right.size(), similarity_fns_.size());
  TRANSER_CHECK_EQ(out.size(), similarity_fns_.size());
  for (size_t q = 0; q < similarity_fns_.size(); ++q) {
    if (left[q].text.empty() || right[q].text.empty()) {
      out[q] = options_.missing_value_similarity;
    } else {
      out[q] = similarity_fns_[q](left[q], right[q]);
    }
  }
}

Result<FeatureMatrix> PairComparator::CompareAll(
    const Dataset& left, const Dataset& right,
    const std::vector<PairRef>& pairs, const ExecutionContext& context,
    const ParallelOptions& options) const {
  // Each record some pair references is prepared once, in record order.
  std::vector<uint32_t> left_slot(left.size(), kUnreferenced);
  std::vector<uint32_t> right_slot(right.size(), kUnreferenced);
  for (const PairRef& pair : pairs) {
    TRANSER_CHECK_LT(pair.left_index, left.size());
    TRANSER_CHECK_LT(pair.right_index, right.size());
    left_slot[pair.left_index] = 0;
    right_slot[pair.right_index] = 0;
  }
  TRANSER_ASSIGN_OR_RETURN(
      const PreparedRecords left_prepared,
      PrepareAll(SlotReferenced(left, &left_slot), context, options));
  TRANSER_ASSIGN_OR_RETURN(
      const PreparedRecords right_prepared,
      PrepareAll(SlotReferenced(right, &right_slot), context, options));

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
          CompareInto(left_prepared[left_slot[pair.left_index]],
                      right_prepared[right_slot[pair.right_index]],
                      out.MutableRow(i));
          const int64_t l = left.record(pair.left_index).entity_id;
          const int64_t r = right.record(pair.right_index).entity_id;
          out.set_label(i, (l >= 0 && l == r) ? kMatch : kNonMatch);
          out.set_pair(i, pair);
        }
        return Status::OK();
      },
      chunk_options));
  return out;
}

}  // namespace transer
