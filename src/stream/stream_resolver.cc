#include "stream/stream_resolver.h"

#include <algorithm>
#include <utility>

#include "linalg/covariance.h"
#include "linalg/matrix.h"
#include "ml/threshold_classifier.h"
#include "util/artifact_io.h"
#include "util/string_util.h"

namespace transer {
namespace stream {

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t FnvBytes(const std::vector<uint8_t>& bytes) {
  uint64_t hash = kFnvOffset;
  for (uint8_t b : bytes) {
    hash ^= b;
    hash *= kFnvPrime;
  }
  return hash;
}

/// How many of the newest records the digest probes through the k-NN
/// index, and with how many neighbours. A full all-rows probe would make
/// digesting quadratic; the rolling window still pins the index content
/// because every row was inside the window when it was digested upstream
/// of a snapshot/compare at least once during the crash matrix.
constexpr size_t kDigestProbeWindow = 32;
constexpr size_t kDigestProbeK = 4;

// Snapshot section names.
constexpr char kMetaSection[] = "meta";
constexpr char kRecordsSection[] = "records";
constexpr char kMatchesSection[] = "matches";
constexpr char kPairsSection[] = "pairs";
constexpr char kQuarantineSection[] = "quarantine";
constexpr char kClassifierSection[] = "classifier";

Status MissingSection(const std::string& name) {
  return Status::InvalidArgument("stream snapshot is missing section '" +
                                 name + "'");
}

/// Clones a classifier through its own serialisation (the only generic
/// copy the Classifier interface offers).
Result<std::unique_ptr<Classifier>> CloneClassifier(
    const std::string& family, const Classifier& classifier) {
  artifact::Encoder encoder;
  TRANSER_RETURN_IF_ERROR(classifier.SaveState(&encoder));
  TRANSER_ASSIGN_OR_RETURN(std::unique_ptr<Classifier> clone,
                           MakeClassifierByName(family));
  artifact::Decoder decoder(encoder.bytes());
  TRANSER_RETURN_IF_ERROR(clone->LoadState(&decoder));
  return clone;
}

}  // namespace

StreamResolver::StreamResolver(StreamResolverOptions options,
                               PairComparator comparator,
                               std::vector<std::string> feature_names)
    : options_(std::move(options)),
      comparator_(std::move(comparator)),
      feature_names_(std::move(feature_names)),
      embedder_(options_.embedding),
      blocking_(options_.blocking),
      knn_(options_.knn) {}

Result<StreamResolver> StreamResolver::Create(
    const StreamResolverOptions& options, RunDiagnostics* diagnostics) {
  if (options.schema.size() == 0) {
    return Status::InvalidArgument("stream resolver schema is empty");
  }
  if (options.match_threshold < 0.0 || options.match_threshold > 1.0) {
    return Status::InvalidArgument("match_threshold must be in [0, 1]");
  }
  TRANSER_ASSIGN_OR_RETURN(
      PairComparator comparator,
      PairComparator::Create(options.schema, options.schema));
  std::vector<std::string> feature_names = comparator.feature_names();
  StreamResolver resolver(options, std::move(comparator),
                          std::move(feature_names));

  if (!options.warm_start_path.empty()) {
    // A replica that silently cold-starts after failing to read its
    // warm-start model would resolve differently from its peers, so an
    // unusable artifact is an error, not a degradation.
    TRANSER_ASSIGN_OR_RETURN(
        TransERPipelineState state,
        LoadTransERPipelineState(options.warm_start_path));
    if (state.feature_names != resolver.feature_names_) {
      return Status::FailedPrecondition(
          "warm-start artifact was trained on a different feature schema "
          "than this stream produces");
    }
    resolver.classifier_family_ = state.classifier_name;
    resolver.classifier_ = state.classifier_v != nullptr
                               ? std::move(state.classifier_v)
                               : std::move(state.classifier_u);
    if (diagnostics != nullptr) {
      diagnostics->Add(DegradationKind::kModelWarmStarted, "stream",
                       "classifier warm-started from " +
                           options.warm_start_path);
    }
  } else {
    resolver.classifier_family_ = "threshold";
    resolver.classifier_ = std::make_unique<ThresholdClassifier>();
  }
  return resolver;
}

std::string StreamResolver::PoisonReason(const Record& record) const {
  if (record.id.empty()) return "record id is empty";
  if (record.values.size() != options_.schema.size()) {
    return StrFormat("record has %zu values, schema has %zu",
                     record.values.size(), options_.schema.size());
  }
  return std::string();
}

Status StreamResolver::Apply(const IngestEntry& entry,
                             RunDiagnostics* diagnostics) {
  if (entry.sequence != applied_sequence_ + 1) {
    return Status::FailedPrecondition(StrFormat(
        "stream entry sequence %llu does not follow applied sequence %llu "
        "(journal gap — state and journal disagree)",
        static_cast<unsigned long long>(entry.sequence),
        static_cast<unsigned long long>(applied_sequence_)));
  }
  const std::string poison = PoisonReason(entry.record);
  if (!poison.empty()) {
    quarantined_.push_back(entry.sequence);
    if (diagnostics != nullptr) {
      diagnostics->Add(DegradationKind::kStreamRecordQuarantined, "stream",
                       StrFormat("sequence %llu quarantined: %s",
                                 static_cast<unsigned long long>(
                                     entry.sequence),
                                 poison.c_str()),
                       0.0, static_cast<double>(quarantined_.size()));
    }
    applied_sequence_ = entry.sequence;
    return Status::OK();
  }
  TRANSER_RETURN_IF_ERROR(ApplyRecord(entry.record, diagnostics));
  applied_sequence_ = entry.sequence;
  ++applied_records_;
  MaybeRefresh(diagnostics);
  return Status::OK();
}

Status StreamResolver::ApplyRecord(const Record& record,
                                   RunDiagnostics* diagnostics) {
  (void)diagnostics;
  const size_t index = records_.size();
  TRANSER_RETURN_IF_ERROR(knn_.Insert(embedder_.EmbedFields(record.values)));
  const std::vector<size_t> candidates =
      blocking_.InsertAndCollect(index, record);
  PreparedRecords arriving = comparator_.Prepare(record);
  std::vector<double> features(comparator_.num_features());
  for (size_t candidate : candidates) {
    comparator_.CompareInto(prepared_[candidate][0], arriving[0],
                            std::span<double>(features));
    const double score = classifier_->PredictProba(features);
    const int label = score >= options_.match_threshold ? 1 : 0;
    pair_features_.insert(pair_features_.end(), features.begin(),
                          features.end());
    pair_labels_.push_back(label);
    pair_confidences_.push_back(score);
    ++comparisons_;
    if (label == 1) {
      matches_.push_back(StreamMatch{candidate, index, score});
    }
  }
  records_.push_back(record);
  prepared_.push_back(std::move(arriving));
  return Status::OK();
}

void StreamResolver::MaybeRefresh(RunDiagnostics* diagnostics) {
  if (options_.refresh_interval == 0 || applied_records_ == 0 ||
      applied_records_ % options_.refresh_interval != 0) {
    return;
  }
  const size_t rows = pair_labels_.size();
  const bool has_match =
      std::find(pair_labels_.begin(), pair_labels_.end(), 1) !=
      pair_labels_.end();
  const bool has_non_match =
      std::find(pair_labels_.begin(), pair_labels_.end(), 0) !=
      pair_labels_.end();
  if (rows < options_.min_refresh_pairs || !has_match || !has_non_match) {
    if (diagnostics != nullptr) {
      diagnostics->Add(
          DegradationKind::kStreamRefreshSkipped, "stream",
          StrFormat("refresh due at %llu records skipped: %zu pair(s), "
                    "single-class=%d",
                    static_cast<unsigned long long>(applied_records_), rows,
                    has_match != has_non_match ? 1 : 0),
          static_cast<double>(options_.min_refresh_pairs),
          static_cast<double>(rows));
    }
    return;
  }
  const Matrix x = Matrix::FromRowMajor(rows, feature_names_.size(),
                                        pair_features_);
  classifier_->Fit(x, pair_labels_);
  ++refresh_count_;
}

uint64_t StreamResolver::StateDigest() const {
  artifact::Encoder encoder;
  encoder.PutU64(applied_sequence_);
  encoder.PutU64(applied_records_);
  encoder.PutU64(refresh_count_);
  encoder.PutU64(comparisons_);
  encoder.PutU64(records_.size());
  for (const Record& record : records_) {
    encoder.PutString(record.id);
    encoder.PutI64(record.entity_id);
    encoder.PutStringVec(record.values);
  }
  encoder.PutU64(blocking_.Digest());
  encoder.PutU64(matches_.size());
  for (const StreamMatch& match : matches_) {
    encoder.PutU64(match.left);
    encoder.PutU64(match.right);
    encoder.PutDouble(match.score);
  }
  encoder.PutIntVec(pair_labels_);
  encoder.PutDoubleVec(pair_confidences_);
  encoder.PutDoubleVec(pair_features_);
  encoder.PutU64Vec(quarantined_);

  artifact::Encoder classifier_state;
  if (classifier_ != nullptr &&
      classifier_->SaveState(&classifier_state).ok()) {
    encoder.PutU64(classifier_state.bytes().size());
    for (uint8_t b : classifier_state.bytes()) encoder.PutU8(b);
  } else {
    encoder.PutU64(0);
  }

  // Probe the k-NN index through its public query path so the digest
  // covers the index the stream actually answers from (tree + tail),
  // not just the raw embeddings.
  const size_t total = knn_.size();
  const size_t window = std::min(kDigestProbeWindow, total);
  for (size_t row = total - window; row < total; ++row) {
    const std::vector<Neighbour> neighbours = knn_.Query(
        knn_.Point(row), kDigestProbeK, static_cast<ptrdiff_t>(row));
    encoder.PutU64(neighbours.size());
    for (const Neighbour& n : neighbours) {
      encoder.PutU64(n.index);
      encoder.PutDouble(n.distance);
    }
  }
  return FnvBytes(encoder.bytes());
}

uint64_t StreamResolver::OptionsFingerprint() const {
  artifact::Encoder encoder;
  for (const AttributeSpec& attr : options_.schema.attributes()) {
    encoder.PutString(attr.name);
    encoder.PutString(attr.similarity);
  }
  encoder.PutU64(options_.blocking.key_attribute);
  encoder.PutU64(options_.blocking.prefix_length);
  encoder.PutU64(options_.blocking.max_block_size);
  encoder.PutU64(options_.knn.rebuild_interval);
  encoder.PutU64(options_.embedding.dimension);
  encoder.PutU64(options_.embedding.min_n);
  encoder.PutU64(options_.embedding.max_n);
  encoder.PutU64(options_.embedding.seed);
  encoder.PutDouble(options_.match_threshold);
  encoder.PutU64(options_.refresh_interval);
  encoder.PutU64(options_.min_refresh_pairs);
  return FnvBytes(encoder.bytes());
}

Status StreamResolver::SaveSnapshot(const std::string& path) const {
  artifact::Header header;
  header.kind = kStreamSnapshotKind;
  header.schema_fingerprint =
      artifact::FingerprintFeatureSchema(feature_names_);

  artifact::Encoder meta;
  meta.PutU64(OptionsFingerprint());
  meta.PutU64(applied_sequence_);
  meta.PutU64(applied_records_);
  meta.PutU64(refresh_count_);
  meta.PutU64(comparisons_);
  meta.PutString(classifier_family_);

  artifact::Encoder records;
  records.PutU64(records_.size());
  for (const Record& record : records_) {
    records.PutString(record.id);
    records.PutI64(record.entity_id);
    records.PutStringVec(record.values);
  }

  artifact::Encoder matches;
  matches.PutU64(matches_.size());
  for (const StreamMatch& match : matches_) {
    matches.PutU64(match.left);
    matches.PutU64(match.right);
    matches.PutDouble(match.score);
  }

  artifact::Encoder pairs;
  pairs.PutU64(feature_names_.size());
  pairs.PutDoubleVec(pair_features_);
  pairs.PutIntVec(pair_labels_);
  pairs.PutDoubleVec(pair_confidences_);

  artifact::Encoder quarantine;
  quarantine.PutU64Vec(quarantined_);

  artifact::Encoder classifier;
  TRANSER_RETURN_IF_ERROR(classifier_->SaveState(&classifier));

  std::vector<artifact::Section> sections;
  sections.push_back({kMetaSection, meta.TakeBytes()});
  sections.push_back({kRecordsSection, records.TakeBytes()});
  sections.push_back({kMatchesSection, matches.TakeBytes()});
  sections.push_back({kPairsSection, pairs.TakeBytes()});
  sections.push_back({kQuarantineSection, quarantine.TakeBytes()});
  sections.push_back({kClassifierSection, classifier.TakeBytes()});
  return artifact::WriteArtifact(path, header, sections);
}

Result<StreamResolver> StreamResolver::LoadSnapshot(
    const std::string& path, const StreamResolverOptions& options,
    RunDiagnostics* diagnostics) {
  TRANSER_ASSIGN_OR_RETURN(const artifact::Artifact snapshot,
                           artifact::ReadArtifact(path));
  if (snapshot.header.kind != kStreamSnapshotKind) {
    return Status::InvalidArgument("artifact at " + path +
                                   " is not a stream snapshot (kind '" +
                                   snapshot.header.kind + "')");
  }

  // The classifier state is restored from the snapshot, so the resolver
  // skeleton is built without re-reading the warm-start artifact (which
  // may legitimately be gone by now).
  StreamResolverOptions skeleton = options;
  skeleton.warm_start_path.clear();
  TRANSER_ASSIGN_OR_RETURN(StreamResolver resolver,
                           Create(skeleton, diagnostics));
  resolver.options_ = options;

  if (snapshot.header.schema_fingerprint !=
      artifact::FingerprintFeatureSchema(resolver.feature_names_)) {
    return Status::FailedPrecondition(
        "stream snapshot was taken under a different feature schema");
  }

  const artifact::Section* meta = snapshot.Find(kMetaSection);
  if (meta == nullptr) return MissingSection(kMetaSection);
  artifact::Decoder meta_in(meta->payload);
  uint64_t options_fingerprint = 0;
  TRANSER_RETURN_IF_ERROR(meta_in.GetU64(&options_fingerprint));
  if (options_fingerprint != resolver.OptionsFingerprint()) {
    return Status::FailedPrecondition(
        "stream snapshot was taken under different resolver options; "
        "replaying it would produce a different stream");
  }
  uint64_t refresh_count = 0;
  uint64_t comparisons = 0;
  TRANSER_RETURN_IF_ERROR(meta_in.GetU64(&resolver.applied_sequence_));
  TRANSER_RETURN_IF_ERROR(meta_in.GetU64(&resolver.applied_records_));
  TRANSER_RETURN_IF_ERROR(meta_in.GetU64(&refresh_count));
  TRANSER_RETURN_IF_ERROR(meta_in.GetU64(&comparisons));
  TRANSER_RETURN_IF_ERROR(meta_in.GetString(&resolver.classifier_family_));
  TRANSER_RETURN_IF_ERROR(meta_in.ExpectEnd());
  resolver.refresh_count_ = refresh_count;
  resolver.comparisons_ = comparisons;

  const artifact::Section* records = snapshot.Find(kRecordsSection);
  if (records == nullptr) return MissingSection(kRecordsSection);
  artifact::Decoder records_in(records->payload);
  uint64_t record_count = 0;
  TRANSER_RETURN_IF_ERROR(records_in.GetU64(&record_count));
  resolver.records_.reserve(record_count);
  for (uint64_t i = 0; i < record_count; ++i) {
    Record record;
    TRANSER_RETURN_IF_ERROR(records_in.GetString(&record.id));
    TRANSER_RETURN_IF_ERROR(records_in.GetI64(&record.entity_id));
    TRANSER_RETURN_IF_ERROR(records_in.GetStringVec(&record.values));
    if (record.values.size() != options.schema.size()) {
      return Status::InvalidArgument(
          "stream snapshot record disagrees with the schema width");
    }
    resolver.records_.push_back(std::move(record));
  }
  TRANSER_RETURN_IF_ERROR(records_in.ExpectEnd());

  const artifact::Section* matches = snapshot.Find(kMatchesSection);
  if (matches == nullptr) return MissingSection(kMatchesSection);
  artifact::Decoder matches_in(matches->payload);
  uint64_t match_count = 0;
  TRANSER_RETURN_IF_ERROR(matches_in.GetU64(&match_count));
  resolver.matches_.reserve(match_count);
  for (uint64_t i = 0; i < match_count; ++i) {
    StreamMatch match;
    TRANSER_RETURN_IF_ERROR(matches_in.GetU64(&match.left));
    TRANSER_RETURN_IF_ERROR(matches_in.GetU64(&match.right));
    TRANSER_RETURN_IF_ERROR(matches_in.GetDouble(&match.score));
    if (match.left >= match.right || match.right >= record_count) {
      return Status::InvalidArgument(
          "stream snapshot match indices are out of range");
    }
    resolver.matches_.push_back(match);
  }
  TRANSER_RETURN_IF_ERROR(matches_in.ExpectEnd());

  const artifact::Section* pairs = snapshot.Find(kPairsSection);
  if (pairs == nullptr) return MissingSection(kPairsSection);
  artifact::Decoder pairs_in(pairs->payload);
  uint64_t pair_width = 0;
  TRANSER_RETURN_IF_ERROR(pairs_in.GetU64(&pair_width));
  TRANSER_RETURN_IF_ERROR(pairs_in.GetDoubleVec(&resolver.pair_features_));
  TRANSER_RETURN_IF_ERROR(pairs_in.GetIntVec(&resolver.pair_labels_));
  TRANSER_RETURN_IF_ERROR(
      pairs_in.GetDoubleVec(&resolver.pair_confidences_));
  TRANSER_RETURN_IF_ERROR(pairs_in.ExpectEnd());
  if (pair_width != resolver.feature_names_.size() ||
      resolver.pair_features_.size() !=
          pair_width * resolver.pair_labels_.size() ||
      resolver.pair_confidences_.size() != resolver.pair_labels_.size()) {
    return Status::InvalidArgument(
        "stream snapshot pair buffers are inconsistent");
  }

  const artifact::Section* quarantine = snapshot.Find(kQuarantineSection);
  if (quarantine == nullptr) return MissingSection(kQuarantineSection);
  artifact::Decoder quarantine_in(quarantine->payload);
  TRANSER_RETURN_IF_ERROR(
      quarantine_in.GetU64Vec(&resolver.quarantined_));
  TRANSER_RETURN_IF_ERROR(quarantine_in.ExpectEnd());

  const artifact::Section* classifier = snapshot.Find(kClassifierSection);
  if (classifier == nullptr) return MissingSection(kClassifierSection);
  TRANSER_ASSIGN_OR_RETURN(
      resolver.classifier_,
      MakeClassifierByName(resolver.classifier_family_));
  artifact::Decoder classifier_in(classifier->payload);
  TRANSER_RETURN_IF_ERROR(resolver.classifier_->LoadState(&classifier_in));

  // The blocking and k-NN indexes and the prepared records are not
  // serialised: re-inserting the records in order rebuilds them
  // bit-identically (inserts are deterministic in insert order, the k-NN
  // rebuild points are a pure function of the insert count, and
  // preparing a record reads only the record).
  for (size_t i = 0; i < resolver.records_.size(); ++i) {
    const Record& record = resolver.records_[i];
    TRANSER_RETURN_IF_ERROR(
        resolver.knn_.Insert(resolver.embedder_.EmbedFields(record.values)));
    resolver.blocking_.InsertAndCollect(i, record);
    resolver.prepared_.push_back(resolver.comparator_.Prepare(record));
  }
  return resolver;
}

Result<TransERPipelineState> StreamResolver::ExportPipelineState() const {
  TransERPipelineState state;
  state.feature_names = feature_names_;
  state.seed = options_.embedding.seed;
  state.source_rows = applied_records_;
  state.target_rows = pair_labels_.size();
  state.pseudo_labels = pair_labels_;
  state.pseudo_confidences = pair_confidences_;
  if (!pair_labels_.empty()) {
    // Domain profile: per-feature mean of the compared pairs, the same
    // probe the serving repository uses for schema-less fallback.
    state.target_centroid = ColumnMeans(pair_features_, pair_labels_.size(),
                                        feature_names_.size());
  }
  state.classifier_name = classifier_family_;
  TRANSER_ASSIGN_OR_RETURN(
      state.classifier_u, CloneClassifier(classifier_family_, *classifier_));
  return state;
}

Status StreamResolver::PublishTo(const std::string& path) const {
  TRANSER_ASSIGN_OR_RETURN(const TransERPipelineState state,
                           ExportPipelineState());
  return SaveTransERPipelineState(state, path);
}

}  // namespace stream
}  // namespace transer
