#include "core/sweep_checkpoint.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "util/artifact_io.h"
#include "util/string_util.h"

namespace transer {

namespace {

/// FrameJournal flavour magic of a sweep checkpoint.
constexpr char kCheckpointMagic[4] = {'T', 'S', 'C', 'K'};

/// Payload version inside a frame, so the record layout can evolve
/// independently of the framing. Version 2 added the cell limits;
/// version-1 journals are refused.
constexpr uint8_t kRecordVersion = 2;

}  // namespace

std::vector<uint8_t> EncodeSweepCellRecord(const SweepCellRecord& record) {
  artifact::Encoder encoder;
  encoder.PutU8(kRecordVersion);
  encoder.PutString(record.key.method);
  encoder.PutString(record.key.scenario);
  encoder.PutString(record.key.classifier);
  encoder.PutU64(record.seed);
  encoder.PutDouble(record.limits.time_limit_seconds);
  encoder.PutU64(record.limits.memory_limit_bytes);
  encoder.PutString(record.failure);
  encoder.PutDouble(record.quality.precision);
  encoder.PutDouble(record.quality.recall);
  encoder.PutDouble(record.quality.f1);
  encoder.PutDouble(record.quality.f_star);
  encoder.PutDouble(record.runtime_seconds);
  return encoder.TakeBytes();
}

Result<SweepCellRecord> DecodeSweepCellRecord(
    std::span<const uint8_t> payload) {
  artifact::Decoder decoder(payload);
  uint8_t version = 0;
  TRANSER_RETURN_IF_ERROR(decoder.GetU8(&version));
  if (version != kRecordVersion) {
    return Status::InvalidArgument(
        StrFormat("unsupported sweep cell record version %u", version));
  }
  SweepCellRecord record;
  TRANSER_RETURN_IF_ERROR(decoder.GetString(&record.key.method));
  TRANSER_RETURN_IF_ERROR(decoder.GetString(&record.key.scenario));
  TRANSER_RETURN_IF_ERROR(decoder.GetString(&record.key.classifier));
  TRANSER_RETURN_IF_ERROR(decoder.GetU64(&record.seed));
  TRANSER_RETURN_IF_ERROR(
      decoder.GetDouble(&record.limits.time_limit_seconds));
  uint64_t memory_limit_bytes = 0;
  TRANSER_RETURN_IF_ERROR(decoder.GetU64(&memory_limit_bytes));
  record.limits.memory_limit_bytes = static_cast<size_t>(memory_limit_bytes);
  TRANSER_RETURN_IF_ERROR(decoder.GetString(&record.failure));
  TRANSER_RETURN_IF_ERROR(decoder.GetDouble(&record.quality.precision));
  TRANSER_RETURN_IF_ERROR(decoder.GetDouble(&record.quality.recall));
  TRANSER_RETURN_IF_ERROR(decoder.GetDouble(&record.quality.f1));
  TRANSER_RETURN_IF_ERROR(decoder.GetDouble(&record.quality.f_star));
  TRANSER_RETURN_IF_ERROR(decoder.GetDouble(&record.runtime_seconds));
  TRANSER_RETURN_IF_ERROR(decoder.ExpectEnd());
  return record;
}

std::string SweepCheckpoint::IndexKey(const SweepCellKey& key) {
  // '\x1f' (unit separator) cannot appear in the component names.
  return key.method + '\x1f' + key.scenario + '\x1f' + key.classifier;
}

Result<SweepCheckpoint> SweepCheckpoint::Open(const std::string& path,
                                              RunDiagnostics* diagnostics) {
  if (path.empty()) {
    return Status::InvalidArgument("sweep checkpoint path is empty");
  }
  // Torn-tail truncation and mid-file refusal are FrameJournal's, the
  // policy the ingest WAL shares.
  SweepCheckpoint checkpoint;
  journal::FrameRecovery recovery;
  TRANSER_ASSIGN_OR_RETURN(
      checkpoint.journal_,
      journal::FrameJournal::Open(path, kCheckpointMagic, &recovery));
  for (size_t i = 0; i < recovery.frames.size(); ++i) {
    auto record = DecodeSweepCellRecord(recovery.frames[i]);
    if (!record.ok()) {
      // The frame CRC passed, so this is not bit rot: the payload layout
      // itself is wrong. That is never a torn tail — refuse.
      return Status::FailedPrecondition(StrFormat(
          "%s: frame %zu is not a sweep cell record: %s", path.c_str(),
          i + 1, record.status().message().c_str()));
    }
    checkpoint.Apply(std::move(record).value());
  }
  if (recovery.tail_dropped && diagnostics != nullptr) {
    diagnostics->Add(DegradationKind::kCheckpointTailDropped, "sweep",
                     StrFormat("truncated %zu torn byte(s) after frame %zu "
                               "of %s; the cell will be re-run",
                               recovery.dropped_bytes,
                               recovery.frames.size(), path.c_str()),
                     0.0, static_cast<double>(recovery.dropped_bytes));
  }
  return checkpoint;
}

const SweepCellRecord* SweepCheckpoint::Find(const SweepCellKey& key) const {
  auto it = index_.find(IndexKey(key));
  return it == index_.end() ? nullptr : &records_[it->second];
}

void SweepCheckpoint::Apply(SweepCellRecord record) {
  const auto [it, inserted] =
      index_.try_emplace(IndexKey(record.key), records_.size());
  if (inserted) {
    records_.push_back(std::move(record));
  } else {
    records_[it->second] = std::move(record);
  }
}

Status SweepCheckpoint::Record(const SweepCellRecord& record) {
  // Durable before visible: the in-memory view only holds journaled
  // cells, so a failed append leaves nothing to roll back.
  TRANSER_RETURN_IF_ERROR(journal_.Append(EncodeSweepCellRecord(record)));
  Apply(record);
  return Status::OK();
}

Status SweepCheckpoint::Canonicalize() {
  std::sort(records_.begin(), records_.end(),
            [](const SweepCellRecord& a, const SweepCellRecord& b) {
              return std::tie(a.key.scenario, a.key.method,
                              a.key.classifier) <
                     std::tie(b.key.scenario, b.key.method,
                              b.key.classifier);
            });
  index_.clear();
  std::vector<std::vector<uint8_t>> frames;
  frames.reserve(records_.size());
  for (size_t i = 0; i < records_.size(); ++i) {
    index_[IndexKey(records_[i].key)] = i;
    frames.push_back(EncodeSweepCellRecord(records_[i]));
  }
  // Rewrite publishes the old journal or the new one, never a mix;
  // reopen either way so Record keeps appending to whichever is in
  // place.
  const std::string path = journal_.path();
  journal_.Close();
  const Status rewritten =
      journal::FrameJournal::Rewrite(path, kCheckpointMagic, frames);
  TRANSER_ASSIGN_OR_RETURN(journal_,
                           journal::FrameJournal::Open(path, kCheckpointMagic));
  return rewritten;
}

}  // namespace transer
