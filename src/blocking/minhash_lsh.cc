#include "blocking/minhash_lsh.h"

#include <algorithm>
#include <limits>
#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "text/normalize.h"
#include "util/logging.h"
#include "util/random.h"

namespace transer {

namespace {

uint64_t HashBytes(std::string_view bytes, uint64_t seed) {
  uint64_t h = 14695981039346656037ULL ^ seed;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  // Final avalanche.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  return h;
}

uint64_t MixHash(uint64_t value, uint64_t seed) {
  uint64_t h = value ^ seed;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// One band's buckets: every record grouped by its band key. Groups are
/// numbered in first-seen order (lefts, then rights, each ascending) and
/// `order` lists them in the iteration order of the std::unordered_map
/// that numbered them — the order pairs are emitted in. Group g's left
/// members are lefts[left_begin[g], left_begin[g + 1]), ascending; its
/// right members likewise.
struct BandBuckets {
  std::vector<uint32_t> order;
  std::vector<uint32_t> left_begin;
  std::vector<uint32_t> lefts;
  std::vector<uint32_t> right_begin;
  std::vector<uint32_t> rights;
};

/// Fills `begin` (groups + 1 offsets) and `members` with the indices
/// [0, group_of.size()) grouped by group_of, ascending within a group.
void GroupMembers(std::span<const uint32_t> group_of, size_t groups,
                  std::vector<uint32_t>* begin,
                  std::vector<uint32_t>* members) {
  begin->assign(groups + 1, 0);
  for (uint32_t g : group_of) ++(*begin)[g + 1];
  for (size_t g = 0; g < groups; ++g) (*begin)[g + 1] += (*begin)[g];
  std::vector<uint32_t> cursor(begin->begin(), begin->end() - 1);
  members->resize(group_of.size());
  for (size_t i = 0; i < group_of.size(); ++i) {
    (*members)[cursor[group_of[i]]++] = static_cast<uint32_t>(i);
  }
}

}  // namespace

MinHashLshBlocker::MinHashLshBlocker(MinHashLshOptions options)
    : options_(std::move(options)) {
  TRANSER_CHECK_GT(options_.num_bands, 0u);
  TRANSER_CHECK_GT(options_.rows_per_band, 0u);
  TRANSER_CHECK_GT(options_.shingle_q, 0u);
  Rng rng(options_.seed);
  const size_t rows = options_.num_bands * options_.rows_per_band;
  hash_seeds_.reserve(rows);
  for (size_t i = 0; i < rows; ++i) hash_seeds_.push_back(rng.NextUint64());
}

void MinHashLshBlocker::SignInto(const Record& record, std::string* scratch,
                                 uint64_t* signature) const {
  const size_t rows = hash_seeds_.size();
  std::fill(signature, signature + rows, std::numeric_limits<uint64_t>::max());
  const auto add_shingle = [&](std::string_view gram) {
    const uint64_t shingle = HashBytes(gram, /*seed=*/0);
    for (size_t r = 0; r < rows; ++r) {
      signature[r] = std::min(signature[r], MixHash(shingle, hash_seeds_[r]));
    }
  };
  // The shingles are the character q-grams of each normalised value
  // (QGrams without padding: a value shorter than q is one shingle),
  // hashed in place.
  const size_t q = options_.shingle_q;
  const auto add_value = [&](const std::string& value) {
    scratch->resize(value.size());
    const std::string_view norm(
        scratch->data(),
        NormalizeInto(value, NormalizeOptions(), scratch->data()));
    if (norm.empty()) return;
    if (norm.size() < q) {
      add_shingle(norm);
      return;
    }
    for (size_t i = 0; i + q <= norm.size(); ++i) {
      add_shingle(norm.substr(i, q));
    }
  };
  if (options_.attributes.empty()) {
    for (const auto& value : record.values) add_value(value);
  } else {
    for (size_t index : options_.attributes) {
      if (index < record.values.size()) add_value(record.values[index]);
    }
  }
}

std::vector<uint64_t> MinHashLshBlocker::Signature(
    const Record& record) const {
  std::vector<uint64_t> signature(hash_seeds_.size());
  std::string scratch;
  SignInto(record, &scratch, signature.data());
  return signature;
}

Result<std::vector<PairRef>> MinHashLshBlocker::Block(
    const Dataset& left, const Dataset& right,
    const ExecutionContext& context, RunDiagnostics* diagnostics,
    const ParallelOptions& options) const {
  TRANSER_RETURN_IF_ERROR(context.Check("minhash_lsh", diagnostics));
  ParallelOptions parallel = options;
  if (parallel.diagnostics == nullptr) parallel.diagnostics = diagnostics;

  // Record r is left.record(r) for r < |L|, else right.record(r - |L|).
  const size_t num_left = left.size();
  const size_t n = num_left + right.size();
  const size_t rows = hash_seeds_.size();
  const size_t bands = options_.num_bands;

  // Signatures and band keys dominate resident memory.
  ScopedReservation signature_memory;
  TRANSER_RETURN_IF_ERROR(signature_memory.Acquire(
      context, "minhash_lsh", n * (rows + bands) * sizeof(uint64_t),
      diagnostics));
  std::vector<uint64_t> signatures(n * rows);
  std::vector<uint64_t> band_keys(n * bands);
  ParallelOptions sign_options = parallel;
  sign_options.min_items_per_chunk =
      std::max<size_t>(sign_options.min_items_per_chunk, 16);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "minhash_lsh", n,
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        std::string scratch;
        for (size_t r = begin; r < end; ++r) {
          const Record& record =
              r < num_left ? left.record(r) : right.record(r - num_left);
          uint64_t* signature = &signatures[r * rows];
          SignInto(record, &scratch, signature);
          for (size_t band = 0; band < bands; ++band) {
            uint64_t key = 0x9e3779b97f4a7c15ULL + band;
            for (size_t i = 0; i < options_.rows_per_band; ++i) {
              key = MixHash(signature[band * options_.rows_per_band + i], key);
            }
            band_keys[r * bands + band] = key;
          }
        }
        return Status::OK();
      },
      sign_options));

  // Group each band's keys. Keys enter the map lefts first, then rights,
  // each in index order, so its iteration order — and with it the pair
  // order below — depends on the keys and the standard library's hash
  // table, never on the lane count.
  std::vector<BandBuckets> buckets(bands);
  ParallelOptions band_options = parallel;
  band_options.min_items_per_chunk = 1;
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "minhash_lsh", bands,
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t band = begin; band < end; ++band) {
          std::unordered_map<uint64_t, uint32_t> groups;
          std::vector<uint32_t> group_of(n);
          for (size_t r = 0; r < n; ++r) {
            group_of[r] = groups
                              .try_emplace(band_keys[r * bands + band],
                                           static_cast<uint32_t>(groups.size()))
                              .first->second;
          }
          BandBuckets& out = buckets[band];
          out.order.reserve(groups.size());
          for (const auto& entry : groups) out.order.push_back(entry.second);
          const std::span<const uint32_t> all(group_of);
          GroupMembers(all.first(num_left), groups.size(), &out.left_begin,
                       &out.lefts);
          GroupMembers(all.subspan(num_left), groups.size(),
                       &out.right_begin, &out.rights);
        }
        return Status::OK();
      },
      band_options));

  // Emit serially in band order, keeping each pair's first occurrence.
  std::unordered_set<uint64_t> emitted;  // dedup (left_index, right_index)
  std::vector<PairRef> pairs;
  for (const BandBuckets& band : buckets) {
    TRANSER_RETURN_IF_ERROR(context.Check("minhash_lsh", diagnostics));
    for (uint32_t group : band.order) {
      const size_t left_count =
          band.left_begin[group + 1] - band.left_begin[group];
      const size_t right_count =
          band.right_begin[group + 1] - band.right_begin[group];
      if (left_count == 0 || right_count == 0) continue;
      if (left_count > options_.max_bucket_size ||
          right_count > options_.max_bucket_size) {
        continue;
      }
      for (size_t a = band.left_begin[group]; a < band.left_begin[group + 1];
           ++a) {
        const size_t li = band.lefts[a];
        for (size_t b = band.right_begin[group];
             b < band.right_begin[group + 1]; ++b) {
          const size_t rj = band.rights[b];
          const uint64_t id =
              (static_cast<uint64_t>(li) << 32) | static_cast<uint64_t>(rj);
          if (emitted.insert(id).second) {
            pairs.push_back(PairRef{li, rj});
          }
        }
      }
    }
  }
  return pairs;
}

}  // namespace transer
