#include "serve/model_repository.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "core/transer.h"
#include "util/artifact_io.h"
#include "util/string_util.h"

namespace transer {
namespace serve {

namespace fs = std::filesystem;

namespace {

/// Deterministic preference order among fingerprint-equal candidates:
/// an artifact with C^V beats one with C^U alone, newer beats older,
/// and the id breaks exact ties so two scans always agree.
bool BetterCandidate(const RepositoryModel& a, const RepositoryModel& b) {
  if (a.has_classifier_v != b.has_classifier_v) return a.has_classifier_v;
  if (a.mtime_ticks != b.mtime_ticks) return a.mtime_ticks > b.mtime_ticks;
  return a.id < b.id;
}

double L2Distance(std::span<const double> a, std::span<const double> b) {
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sum += d * d;
  }
  return std::sqrt(sum);
}

}  // namespace

ModelRepository::ModelRepository(RepositoryOptions options, SleepFn sleep)
    : options_(std::move(options)), sleep_(std::move(sleep)) {}

RefreshReport ModelRepository::ForceRescan() {
  RefreshReport report;

  // Enumerate candidate files outside the lock (directory IO), sorted
  // so retries and diagnostics arrive in a stable order.
  std::vector<std::pair<std::string, FileSignature>> found;
  std::error_code ec;
  for (fs::directory_iterator it(options_.directory, ec), end;
       !ec && it != end; it.increment(ec)) {
    const fs::directory_entry& entry = *it;
    std::error_code entry_ec;
    if (!entry.is_regular_file(entry_ec) || entry_ec) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() < options_.extension.size() ||
        name.compare(name.size() - options_.extension.size(),
                     options_.extension.size(), options_.extension) != 0) {
      continue;
    }
    FileSignature sig;
    sig.mtime_ticks =
        entry.last_write_time(entry_ec).time_since_epoch().count();
    if (entry_ec) continue;
    sig.file_size = entry.file_size(entry_ec);
    if (entry_ec) continue;
    found.emplace_back(entry.path().string(), sig);
  }
  if (ec) {
    report.diagnostics.Add(
        DegradationKind::kModelArtifactRejected, "repository",
        StrFormat("cannot scan %s: %s", options_.directory.c_str(),
                  ec.message().c_str()));
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  report.files_seen = found.size();

  std::lock_guard<std::mutex> lock(mutex_);
  ++refresh_count_;
  ever_refreshed_ = true;
  since_refresh_.Restart();

  // Drop index/quarantine entries whose file vanished.
  for (auto it = models_.begin(); it != models_.end();) {
    const bool present = std::any_of(
        found.begin(), found.end(),
        [&](const auto& f) { return f.first == it->first; });
    if (present) {
      ++it;
    } else {
      it = models_.erase(it);
      ++report.removed;
    }
  }
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    const bool present = std::any_of(
        found.begin(), found.end(),
        [&](const auto& f) { return f.first == it->first; });
    it = present ? std::next(it) : quarantine_.erase(it);
  }

  for (const auto& [path, sig] : found) {
    const auto indexed = models_.find(path);
    if (indexed != models_.end() &&
        indexed->second->mtime_ticks == sig.mtime_ticks &&
        indexed->second->file_size == sig.file_size) {
      ++report.unchanged;
      continue;
    }
    const auto poisoned = quarantine_.find(path);
    if (poisoned != quarantine_.end() && poisoned->second == sig) {
      ++report.still_quarantined;
      continue;  // same bytes that already failed; wait for a change
    }

    TransERPipelineState loaded;
    const size_t retries_before = report.diagnostics.CountKind(
        DegradationKind::kServeArtifactRetried);
    const Status status = RetryWithBackoff(
        options_.retry, "repository",
        [&]() -> Status {
          if (options_.before_load_hook) options_.before_load_hook(path);
          auto result = LoadTransERPipelineState(path, &options_.knn);
          if (!result.ok()) return result.status();
          loaded = std::move(result).value();
          return Status::OK();
        },
        IsTransientArtifactError, sleep_, &report.diagnostics);
    load_retry_count_ += report.diagnostics.CountKind(
                             DegradationKind::kServeArtifactRetried) -
                         retries_before;
    if (!status.ok()) {
      // A file that vanished between the directory scan and the open is
      // not a corrupt artifact — a publisher replaced or removed it
      // while we raced it. Quarantining the path would poison the NEXT
      // artifact published under the same name; skip it instead and let
      // the next scan index whatever is there by then.
      if (status.code() == StatusCode::kNotFound &&
          !fs::exists(path, ec)) {
        if (models_.erase(path) > 0) ++report.removed;
        report.diagnostics.Add(
            DegradationKind::kServeArtifactRetried, "repository",
            StrFormat("%s vanished during the scan (deleted or replaced "
                      "mid-rescan); skipped, not quarantined",
                      path.c_str()));
        continue;
      }
      quarantine_[path] = sig;
      models_.erase(path);
      ++report.quarantined;
      report.diagnostics.Add(
          DegradationKind::kModelArtifactRejected, "repository",
          StrFormat("%s quarantined after %d attempt(s): %s", path.c_str(),
                    std::max(options_.retry.max_attempts, 1),
                    status.ToString().c_str()));
      continue;
    }

    auto model = std::make_shared<RepositoryModel>();
    model->path = path;
    model->id = fs::path(path).filename().string();
    model->schema_fingerprint =
        artifact::FingerprintFeatureSchema(loaded.feature_names);
    model->classifier_kind = loaded.classifier_name;
    model->has_classifier_v = loaded.classifier_v != nullptr;
    model->feature_names = loaded.feature_names;
    model->centroid = loaded.target_centroid;
    model->mtime_ticks = sig.mtime_ticks;
    model->file_size = sig.file_size;
    model->state = std::make_shared<const TransERPipelineState>(
        std::move(loaded));
    quarantine_.erase(path);
    if (indexed != models_.end()) {
      ++report.reloaded;
    } else {
      ++report.loaded;
    }
    models_[path] = std::move(model);
  }
  return report;
}

bool ModelRepository::MaybeRefresh() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The debounce floor bounds how often per-request freshness checks
    // can hit the filesystem, even with refresh_interval_seconds = 0.
    const double interval = std::max(options_.refresh_interval_seconds,
                                     options_.min_rescan_interval_seconds);
    if (ever_refreshed_ && since_refresh_.ElapsedSeconds() < interval) {
      return false;
    }
  }
  ForceRescan();
  return true;
}

Result<ModelRepository::Selection> ModelRepository::Select(
    const std::vector<std::string>& feature_names,
    std::span<const double> request_centroid) const {
  const uint64_t fingerprint =
      artifact::FingerprintFeatureSchema(feature_names);
  std::vector<std::shared_ptr<const RepositoryModel>> candidates;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    candidates.reserve(models_.size());
    for (const auto& [path, model] : models_) candidates.push_back(model);
  }

  // Exact schema match first: the model was trained on precisely this
  // feature space, so no probe can beat it.
  std::shared_ptr<const RepositoryModel> best;
  for (const auto& model : candidates) {
    if (model->schema_fingerprint != fingerprint) continue;
    if (best == nullptr || BetterCandidate(*model, *best)) best = model;
  }
  if (best != nullptr) {
    Selection selection;
    selection.model = std::move(best);
    selection.by_fingerprint = true;
    return selection;
  }

  // Fallback: SEL-style structural-similarity probe against the stored
  // domain profiles (Eq. 2's exp(-5x) decay over the centroid gap).
  double best_similarity = -1.0;
  if (!request_centroid.empty()) {
    for (const auto& model : candidates) {
      if (model->centroid.size() != request_centroid.size()) continue;
      const double similarity = TransER::StructuralSimilarityFromDistance(
          L2Distance(request_centroid, model->centroid),
          request_centroid.size());
      if (similarity < options_.min_probe_similarity) continue;
      if (similarity > best_similarity ||
          (similarity == best_similarity && best != nullptr &&
           BetterCandidate(*model, *best))) {
        best_similarity = similarity;
        best = model;
      }
    }
  }
  if (best != nullptr) {
    Selection selection;
    selection.model = std::move(best);
    selection.probe_similarity = best_similarity;
    return selection;
  }
  return Status::NotFound(StrFormat(
      "no artifact serves schema %016llx (%zu features): %zu indexed, "
      "none within probe similarity %.2f",
      static_cast<unsigned long long>(fingerprint), feature_names.size(),
      candidates.size(), options_.min_probe_similarity));
}

std::vector<std::shared_ptr<const RepositoryModel>> ModelRepository::Models()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::shared_ptr<const RepositoryModel>> out;
  out.reserve(models_.size());
  for (const auto& [path, model] : models_) out.push_back(model);
  return out;
}

size_t ModelRepository::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return models_.size();
}

size_t ModelRepository::quarantined_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return quarantine_.size();
}

uint64_t ModelRepository::refresh_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return refresh_count_;
}

uint64_t ModelRepository::load_retry_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return load_retry_count_;
}

}  // namespace serve
}  // namespace transer
