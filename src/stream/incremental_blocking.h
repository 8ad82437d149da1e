#ifndef TRANSER_STREAM_INCREMENTAL_BLOCKING_H_
#define TRANSER_STREAM_INCREMENTAL_BLOCKING_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "data/record.h"

namespace transer {
namespace stream {

/// \brief Options for the incremental blocking index.
struct IncrementalBlockingOptions {
  /// Attribute whose value derives the blocking key.
  size_t key_attribute = 0;
  /// Lower-cased prefix length of the key attribute.
  size_t prefix_length = 3;
  /// Blocks past this size stop emitting candidate pairs (a key shared
  /// by thousands of records is non-discriminative and would make ingest
  /// cost quadratic).
  size_t max_block_size = 256;
};

/// \brief Streaming key blocking: records are inserted one at a time and
/// each insert returns the candidate partners the new record must be
/// compared against. This is the long-lived index the ingest loop owns.
/// Inserts are deterministic in insert order, which is the
/// replay-determinism requirement (DESIGN.md §11).
class IncrementalBlockingIndex {
 public:
  explicit IncrementalBlockingIndex(IncrementalBlockingOptions options = {})
      : options_(options) {}

  /// The blocking key of `record` (lower-cased attribute prefix; records
  /// missing the key attribute key as the empty string).
  std::string KeyOf(const Record& record) const;

  /// Inserts the record under index `record_index` and returns the
  /// indices of previously inserted records in the same block, ascending.
  /// Once the block exceeds max_block_size the record is still inserted
  /// (the block keeps counting) but no candidates are emitted.
  std::vector<size_t> InsertAndCollect(size_t record_index,
                                       const Record& record);

  size_t size() const { return inserted_; }
  size_t block_count() const { return blocks_.size(); }
  /// Inserts whose block was over the cap (no candidates emitted).
  size_t suppressed_inserts() const { return suppressed_; }

  /// Order-insensitive-free digest of the full index state (keys and
  /// member indices, in key order) for the bit-identity checks.
  uint64_t Digest() const;

 private:
  IncrementalBlockingOptions options_;
  /// std::map, not unordered: Digest() iterates in key order so the
  /// digest is a pure function of the content.
  std::map<std::string, std::vector<size_t>> blocks_;
  size_t inserted_ = 0;
  size_t suppressed_ = 0;
};

}  // namespace stream
}  // namespace transer

#endif  // TRANSER_STREAM_INCREMENTAL_BLOCKING_H_
