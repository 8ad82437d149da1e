#include "core/experiment.h"

#include <mutex>
#include <optional>

#include "core/transer.h"
#include "transfer/coral.h"
#include "transfer/dr_transfer.h"
#include "transfer/dtal.h"
#include "transfer/locit.h"
#include "transfer/naive_transfer.h"
#include "transfer/tca.h"
#include "util/parallel.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace transer {

std::string FailureShorthand(const Status& status) {
  if (status.message().find("(TE)") != std::string::npos) return "TE";
  if (status.message().find("(ME)") != std::string::npos) return "ME";
  return status.ToString();
}

MethodScenarioResult RunMethodOnScenario(
    const TransferMethod& method, const TransferScenario& scenario,
    const std::vector<NamedClassifierFactory>& suite,
    const TransferRunOptions& base_options) {
  MethodScenarioResult result;
  result.method = method.name();
  result.scenario = scenario.name;

  const FeatureMatrix unlabeled_target = scenario.target.WithoutLabels();
  const std::vector<int>& truth = scenario.target.labels();

  Stopwatch total;
  uint64_t run_index = 0;
  for (const auto& family : suite) {
    TransferRunOptions run_options = base_options;
    run_options.seed = base_options.seed + 1000 * (run_index++);
    auto predicted =
        method.Run(scenario.source, unlabeled_target, family.make,
                   run_options);
    if (!predicted.ok()) {
      result.failure = FailureShorthand(predicted.status());
      break;  // the next classifier would fail the same way
    }
    result.per_classifier.push_back(
        EvaluateLinkage(truth, predicted.value()));
    ++result.completed_runs;
  }
  result.total_runtime_seconds = total.ElapsedSeconds();
  result.quality = AggregateQuality(result.per_classifier);
  return result;
}

namespace {

/// One (scenario, method) group of the sweep grid, the unit of parallel
/// work: cells inside a group stay sequential so a TE/ME on the first
/// classifier short-circuits the rest exactly as the serial sweep did.
struct SweepGroup {
  size_t scenario_index = 0;
  size_t method_index = 0;
};

/// Filesystem-safe rendering of a cell key for its model snapshot file.
std::string SnapshotFileName(const SweepCellKey& key) {
  std::string name = key.method + "_" + key.scenario + "_" + key.classifier;
  for (char& c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!safe) c = '_';
  }
  return name + ".tera";
}

}  // namespace

Result<std::vector<MethodScenarioResult>> RunCheckpointedSweep(
    const std::vector<std::unique_ptr<TransferMethod>>& methods,
    const std::vector<TransferScenario>& scenarios,
    const std::vector<NamedClassifierFactory>& suite,
    const SweepOptions& options) {
  std::optional<SweepCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    TRANSER_ASSIGN_OR_RETURN(
        SweepCheckpoint opened,
        SweepCheckpoint::Open(options.checkpoint_path, options.diagnostics));
    checkpoint.emplace(std::move(opened));
  }
  // The optional sweep-level context is only *checked* here, between
  // groups; per-cell time/memory limits in base_options keep their
  // per-run semantics (each Run resolves its own context from them).
  const ExecutionContext* sweep_context = options.base_options.context;

  // Workers share the checkpoint through one mutex: a lookup copies the
  // record out under it, and Record (append + fsync) runs under it, so
  // frames never interleave.
  std::mutex journal_mutex;
  auto journaled = [&](const SweepCellKey& key) {
    std::optional<SweepCellRecord> found;
    if (!checkpoint.has_value()) return found;
    std::lock_guard<std::mutex> lock(journal_mutex);
    if (const SweepCellRecord* record = checkpoint->Find(key)) {
      found = *record;
    }
    return found;
  };
  auto journal = [&](const SweepCellRecord& record) {
    if (!checkpoint.has_value()) return Status::OK();
    std::lock_guard<std::mutex> lock(journal_mutex);
    return checkpoint->Record(record);
  };

  // Grid in scenario-major, method-minor order — the result order and,
  // via the ordered diagnostics merge below, the event order too.
  std::vector<SweepGroup> grid;
  grid.reserve(scenarios.size() * methods.size());
  std::vector<FeatureMatrix> unlabeled_targets;
  unlabeled_targets.reserve(scenarios.size());
  for (size_t s = 0; s < scenarios.size(); ++s) {
    unlabeled_targets.push_back(scenarios[s].target.WithoutLabels());
    for (size_t m = 0; m < methods.size(); ++m) {
      grid.push_back(SweepGroup{s, m});
    }
  }

  // Per-group outcomes land in pre-sized slots; diagnostics accumulate in
  // group-local sinks and merge in grid order after the join, so the
  // caller-visible event sequence matches the single-threaded sweep.
  std::vector<MethodScenarioResult> results(grid.size());
  std::vector<RunDiagnostics> group_run_diag(grid.size());
  std::vector<RunDiagnostics> group_sweep_diag(grid.size());

  auto run_group = [&](size_t g) -> Status {
    const SweepGroup& group = grid[g];
    const TransferScenario& scenario = scenarios[group.scenario_index];
    const TransferMethod& method = *methods[group.method_index];
    const FeatureMatrix& unlabeled_target =
        unlabeled_targets[group.scenario_index];
    const std::vector<int>& truth = scenario.target.labels();
    if (sweep_context != nullptr) {
      sweep_context->BeginStage(method.name() + "/" + scenario.name);
    }

    MethodScenarioResult result;
    result.method = method.name();
    result.scenario = scenario.name;

    uint64_t run_index = 0;
    for (const auto& family : suite) {
      const uint64_t cell_seed = options.base_options.seed + 1000 * run_index;
      ++run_index;
      const SweepCellKey key{method.name(), scenario.name, family.name};
      const std::optional<SweepCellRecord> existing = journaled(key);
      if (existing.has_value() && existing->seed != cell_seed) {
        return Status::FailedPrecondition(StrFormat(
            "sweep checkpoint %s holds cell %s/%s/%s at seed %llu but "
            "this sweep would run it at seed %llu; the journal belongs "
            "to a different sweep configuration",
            options.checkpoint_path.c_str(), key.method.c_str(),
            key.scenario.c_str(), key.classifier.c_str(),
            static_cast<unsigned long long>(existing->seed),
            static_cast<unsigned long long>(cell_seed)));
      }
      if (existing.has_value()) {
        if (existing->failure.empty()) {
          // Completed cell: reuse the journaled result verbatim.
          result.per_classifier.push_back(existing->quality);
          result.total_runtime_seconds += existing->runtime_seconds;
          ++result.completed_runs;
          continue;
        }
        if (existing->failure == "TE" || existing->failure == "ME") {
          // Budget failures are deterministic: re-running would burn
          // the same budget to the same end. Short-circuit the group
          // exactly as the live path does.
          result.failure = existing->failure;
          break;
        }
        // Anything else is treated as transient (I/O, flaky
        // environment): one bounded retry on resume.
        group_sweep_diag[g].Add(
            DegradationKind::kCheckpointCellRetried, "sweep",
            StrFormat("retrying cell %s/%s/%s once (journaled "
                      "transient failure: %s)",
                      key.method.c_str(), key.scenario.c_str(),
                      key.classifier.c_str(), existing->failure.c_str()),
            0.0, 1.0);
      }

      TransferRunOptions run_options = options.base_options;
      run_options.seed = cell_seed;
      run_options.diagnostics = &group_run_diag[g];
      if (!options.warm_start_dir.empty()) {
        run_options.model_snapshot_path =
            options.warm_start_dir + "/" + SnapshotFileName(key);
      }
      Stopwatch cell_watch;
      auto predicted = method.Run(scenario.source, unlabeled_target,
                                  family.make, run_options);
      SweepCellRecord record;
      record.key = key;
      record.seed = cell_seed;
      record.runtime_seconds = cell_watch.ElapsedSeconds();
      if (!predicted.ok()) {
        if (sweep_context != nullptr && sweep_context->Interrupted()) {
          // The sweep itself was cancelled / timed out mid-cell. The
          // cell is incomplete, not failed — leave it out of the
          // journal so a resume re-runs it fresh.
          return predicted.status();
        }
        record.failure = FailureShorthand(predicted.status());
        result.failure = record.failure;
        TRANSER_RETURN_IF_ERROR(journal(record));
        break;  // the next classifier would fail the same way
      }
      record.quality = EvaluateLinkage(truth, predicted.value());
      result.per_classifier.push_back(record.quality);
      result.total_runtime_seconds += record.runtime_seconds;
      ++result.completed_runs;
      TRANSER_RETURN_IF_ERROR(journal(record));
    }
    result.quality = AggregateQuality(result.per_classifier);
    results[g] = std::move(result);
    return Status::OK();
  };

  ParallelOptions par;
  par.num_threads = options.base_options.num_threads;
  par.diagnostics = options.diagnostics;
  const Status swept = ParallelFor(
      sweep_context != nullptr ? *sweep_context
                               : ExecutionContext::Unlimited(),
      "sweep", grid.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t g = begin; g < end; ++g) {
          if (g != begin && sweep_context != nullptr) {
            // Between-group check within a chunk; ParallelFor itself
            // checks at chunk boundaries. Workers poll without the
            // diagnostics sink (it is not thread-safe) — on error the
            // post-join re-check records the outcome once.
            TRANSER_RETURN_IF_ERROR(sweep_context->Check(
                "sweep",
                InParallelRegion() ? nullptr : options.diagnostics));
          }
          TRANSER_RETURN_IF_ERROR(run_group(g));
        }
        return Status::OK();
      },
      par);

  // Merge group-local diagnostics in grid order — identical event order
  // at any thread count, and on error the groups that did run still
  // surface their events, as the serial sweep did.
  for (size_t g = 0; g < grid.size(); ++g) {
    if (options.base_options.diagnostics != nullptr) {
      options.base_options.diagnostics->Merge(group_run_diag[g]);
    }
    if (options.diagnostics != nullptr) {
      options.diagnostics->Merge(group_sweep_diag[g]);
    }
  }

  TRANSER_RETURN_IF_ERROR(swept);
  if (checkpoint.has_value()) {
    // Journal order is completion order, which parallel scheduling makes
    // nondeterministic; canonicalise so the finished journal is the same
    // file whatever thread count ran the sweep.
    TRANSER_RETURN_IF_ERROR(checkpoint->Canonicalize());
  }
  return results;
}

std::vector<std::unique_ptr<TransferMethod>> DefaultMethodLineup() {
  std::vector<std::unique_ptr<TransferMethod>> methods;
  methods.push_back(std::make_unique<TransER>());
  methods.push_back(std::make_unique<NaiveTransfer>());
  methods.push_back(std::make_unique<DtalTransfer>());
  methods.push_back(std::make_unique<DrTransfer>());
  methods.push_back(std::make_unique<LocItTransfer>());
  methods.push_back(std::make_unique<TcaTransfer>());
  methods.push_back(std::make_unique<CoralTransfer>());
  return methods;
}

}  // namespace transer
