#include "blocking/minhash_lsh.h"

#include <limits>
#include <unordered_map>
#include <unordered_set>

#include "text/normalize.h"
#include "text/tokenize.h"
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

}  // namespace

MinHashLshBlocker::MinHashLshBlocker(MinHashLshOptions options)
    : options_(std::move(options)) {
  TRANSER_CHECK_GT(options_.num_bands, 0u);
  TRANSER_CHECK_GT(options_.rows_per_band, 0u);
  Rng rng(options_.seed);
  const size_t rows = options_.num_bands * options_.rows_per_band;
  hash_seeds_.reserve(rows);
  for (size_t i = 0; i < rows; ++i) hash_seeds_.push_back(rng.NextUint64());
}

std::vector<uint64_t> MinHashLshBlocker::ShingleHashes(
    const Record& record) const {
  std::vector<uint64_t> hashes;
  auto add_value = [&](const std::string& value) {
    const std::string norm = NormalizeValue(value);
    for (const auto& gram : QGrams(norm, options_.shingle_q)) {
      hashes.push_back(HashBytes(gram, /*seed=*/0));
    }
  };
  if (options_.attributes.empty()) {
    for (const auto& value : record.values) add_value(value);
  } else {
    for (size_t index : options_.attributes) {
      if (index < record.values.size()) add_value(record.values[index]);
    }
  }
  return hashes;
}

std::vector<uint64_t> MinHashLshBlocker::Signature(
    const Record& record) const {
  const std::vector<uint64_t> shingles = ShingleHashes(record);
  const size_t rows = hash_seeds_.size();
  std::vector<uint64_t> signature(rows,
                                  std::numeric_limits<uint64_t>::max());
  for (uint64_t shingle : shingles) {
    for (size_t r = 0; r < rows; ++r) {
      const uint64_t h = MixHash(shingle, hash_seeds_[r]);
      if (h < signature[r]) signature[r] = h;
    }
  }
  return signature;
}

Result<std::vector<PairRef>> MinHashLshBlocker::Block(
    const Dataset& left, const Dataset& right,
    const ExecutionContext& context, RunDiagnostics* diagnostics) const {
  TRANSER_RETURN_IF_ERROR(context.Check("minhash_lsh", diagnostics));

  // For each band, bucket both sides by the band slice of the signature.
  struct Bucket {
    std::vector<size_t> lefts;
    std::vector<size_t> rights;
  };

  // Signatures dominate resident memory: one row set per record.
  ScopedReservation signature_memory;
  TRANSER_RETURN_IF_ERROR(signature_memory.Acquire(
      context, "minhash_lsh",
      (left.size() + right.size()) * hash_seeds_.size() * sizeof(uint64_t),
      diagnostics));

  std::vector<std::vector<uint64_t>> left_sigs(left.size());
  std::vector<std::vector<uint64_t>> right_sigs(right.size());
  for (size_t i = 0; i < left.size(); ++i) {
    TRANSER_RETURN_IF_ERROR(context.Check("minhash_lsh", diagnostics));
    left_sigs[i] = Signature(left.record(i));
  }
  for (size_t j = 0; j < right.size(); ++j) {
    TRANSER_RETURN_IF_ERROR(context.Check("minhash_lsh", diagnostics));
    right_sigs[j] = Signature(right.record(j));
  }

  std::unordered_set<uint64_t> emitted;  // dedup (left_index, right_index)
  std::vector<PairRef> pairs;

  for (size_t band = 0; band < options_.num_bands; ++band) {
    TRANSER_RETURN_IF_ERROR(context.Check("minhash_lsh", diagnostics));
    std::unordered_map<uint64_t, Bucket> buckets;
    auto band_key = [&](const std::vector<uint64_t>& sig) {
      uint64_t key = 0x9e3779b97f4a7c15ULL + band;
      for (size_t r = 0; r < options_.rows_per_band; ++r) {
        key = MixHash(sig[band * options_.rows_per_band + r], key);
      }
      return key;
    };
    for (size_t i = 0; i < left.size(); ++i) {
      buckets[band_key(left_sigs[i])].lefts.push_back(i);
    }
    for (size_t j = 0; j < right.size(); ++j) {
      buckets[band_key(right_sigs[j])].rights.push_back(j);
    }
    for (const auto& [key, bucket] : buckets) {
      if (bucket.lefts.empty() || bucket.rights.empty()) continue;
      if (bucket.lefts.size() > options_.max_bucket_size ||
          bucket.rights.size() > options_.max_bucket_size) {
        continue;
      }
      for (size_t li : bucket.lefts) {
        for (size_t rj : bucket.rights) {
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
