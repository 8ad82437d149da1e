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

namespace {

/// One (scenario, method) group of the sweep grid, the unit of parallel
/// work: cells inside a group stay sequential so a TE/ME on the first
/// classifier short-circuits the rest exactly as the serial sweep did.
struct SweepGroup {
  size_t scenario_index = 0;
  size_t method_index = 0;
};

std::string DescribeLimits(const ExecutionLimits& limits) {
  return StrFormat("a %gs / %zu-byte cell budget", limits.time_limit_seconds,
                   limits.memory_limit_bytes);
}

/// The sweep over non-owning method and scenario lists: the one cell
/// loop behind RunCheckpointedSweep and RunMethodOnScenario.
Result<std::vector<MethodScenarioResult>> RunSweep(
    const std::vector<const TransferMethod*>& methods,
    const std::vector<const TransferScenario*>& scenarios,
    const std::vector<NamedClassifierFactory>& suite,
    const SweepOptions& options) {
  const ExecutionContext& sweep_context = *options.base_options.context;
  std::optional<SweepCheckpoint> checkpoint;
  if (!options.checkpoint_path.empty()) {
    TRANSER_ASSIGN_OR_RETURN(
        SweepCheckpoint opened,
        SweepCheckpoint::Open(options.checkpoint_path, options.diagnostics));
    checkpoint.emplace(std::move(opened));
  }
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
    unlabeled_targets.push_back(scenarios[s]->target.WithoutLabels());
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
    const TransferScenario& scenario = *scenarios[group.scenario_index];
    const TransferMethod& method = *methods[group.method_index];
    const FeatureMatrix& unlabeled_target =
        unlabeled_targets[group.scenario_index];
    const std::vector<int>& truth = scenario.target.labels();
    sweep_context.BeginStage(method.name() + "/" + scenario.name);

    MethodScenarioResult result;
    result.method = method.name();
    result.scenario = scenario.name;

    uint64_t run_index = 0;
    for (const auto& family : suite) {
      const uint64_t cell_seed = options.base_options.seed + 1000 * run_index;
      ++run_index;
      const SweepCellKey key{method.name(), scenario.name, family.name};
      const std::optional<SweepCellRecord> existing = journaled(key);
      if (existing.has_value() && (existing->seed != cell_seed ||
                                   existing->limits != options.cell_limits)) {
        return Status::FailedPrecondition(StrFormat(
            "sweep checkpoint %s holds cell %s/%s/%s at seed %llu under "
            "%s but this sweep would run it at seed %llu under %s; the "
            "journal belongs to a different sweep configuration",
            options.checkpoint_path.c_str(), key.method.c_str(),
            key.scenario.c_str(), key.classifier.c_str(),
            static_cast<unsigned long long>(existing->seed),
            DescribeLimits(existing->limits).c_str(),
            static_cast<unsigned long long>(cell_seed),
            DescribeLimits(options.cell_limits).c_str()));
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

      // A sweep deadline stops the sweep here, at a cell boundary. Lanes
      // poll without the diagnostics sink (it is not thread-safe);
      // ParallelFor records the outcome once after the join.
      TRANSER_RETURN_IF_ERROR(sweep_context.Check(
          "sweep", InParallelRegion() ? nullptr : options.diagnostics));
      const ExecutionContext cell_context(options.cell_limits,
                                          sweep_context.cancellation_token());
      TransferRunOptions run_options = options.base_options;
      run_options.seed = cell_seed;
      run_options.context = &cell_context;
      run_options.diagnostics = &group_run_diag[g];
      Stopwatch cell_watch;
      auto predicted = method.Run(scenario.source, unlabeled_target,
                                  family.make, run_options);
      SweepCellRecord record;
      record.key = key;
      record.seed = cell_seed;
      record.limits = options.cell_limits;
      record.runtime_seconds = cell_watch.ElapsedSeconds();
      if (!predicted.ok()) {
        if (sweep_context.Cancelled()) {
          // The sweep itself was cancelled mid-cell. The cell is
          // incomplete, not failed — leave it out of the journal so a
          // resume re-runs it fresh.
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
      sweep_context, "sweep", grid.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t g = begin; g < end; ++g) {
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

}  // namespace

Result<std::vector<MethodScenarioResult>> RunCheckpointedSweep(
    const std::vector<std::unique_ptr<TransferMethod>>& methods,
    const std::vector<TransferScenario>& scenarios,
    const std::vector<NamedClassifierFactory>& suite,
    const SweepOptions& options) {
  std::vector<const TransferMethod*> method_list;
  for (const auto& method : methods) method_list.push_back(method.get());
  std::vector<const TransferScenario*> scenario_list;
  for (const TransferScenario& scenario : scenarios) {
    scenario_list.push_back(&scenario);
  }
  return RunSweep(method_list, scenario_list, suite, options);
}

MethodScenarioResult RunMethodOnScenario(
    const TransferMethod& method, const TransferScenario& scenario,
    const std::vector<NamedClassifierFactory>& suite,
    const TransferRunOptions& base_options) {
  SweepOptions options;
  options.base_options = base_options;
  auto swept = RunSweep({&method}, {&scenario}, suite, options);
  if (swept.ok()) return std::move(swept.value().front());
  // Only the caller's context can stop a sweep without a checkpoint:
  // its deadline or cancellation, seen at a cell boundary.
  MethodScenarioResult result;
  result.method = method.name();
  result.scenario = scenario.name;
  result.failure = FailureShorthand(swept.status());
  return result;
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
