#include "core/transer.h"

#include <algorithm>
#include <cmath>

#include "knn/kd_tree.h"
#include "knn/neighbourhood.h"
#include "linalg/covariance.h"
#include "linalg/vector_ops.h"
#include "ml/model_store.h"
#include "ml/sampling.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/string_util.h"

namespace transer {

namespace {

/// Sample covariance of the neighbour rows (for the sim_v ablation).
Matrix NeighbourhoodCovariance(const Matrix& points,
                               const std::vector<Neighbour>& neighbours) {
  std::vector<size_t> rows;
  rows.reserve(neighbours.size());
  for (const auto& nb : neighbours) rows.push_back(nb.index);
  return SampleCovarianceOfRows(points, rows);
}

/// A snapshot may only replace training when it was taken by an
/// equivalent run: same seed, same domain sizes, same feature schema.
/// Anything else would silently change the experiment's results.
Status SnapshotCompatibleWithRun(const TransERPipelineState& state,
                                 const FeatureMatrix& source,
                                 const FeatureMatrix& target, uint64_t seed) {
  if (state.seed != seed) {
    return Status::FailedPrecondition(
        StrFormat("snapshot was taken under seed %llu, run uses %llu",
                  static_cast<unsigned long long>(state.seed),
                  static_cast<unsigned long long>(seed)));
  }
  if (state.source_rows != source.size() ||
      state.target_rows != target.size()) {
    return Status::FailedPrecondition(StrFormat(
        "snapshot domains (%llu source / %llu target rows) differ from the "
        "run's (%zu / %zu)",
        static_cast<unsigned long long>(state.source_rows),
        static_cast<unsigned long long>(state.target_rows), source.size(),
        target.size()));
  }
  if (state.feature_names != target.feature_names()) {
    return Status::FailedPrecondition(
        "snapshot feature schema differs from the run's data");
  }
  return Status::OK();
}

/// SEL's parallel schedule: `num_threads` lanes (0 = process default),
/// chunks of at least 8 source instances, budget outcomes recorded in
/// `diagnostics` (may be null).
ParallelOptions SelParallelOptions(int num_threads,
                                   RunDiagnostics* diagnostics) {
  ParallelOptions par;
  par.num_threads = num_threads;
  par.min_items_per_chunk = 8;
  par.diagnostics = diagnostics;
  return par;
}

/// Both neighbourhoods of every source instance (Algorithm 1, phase i):
/// N_x^S over the source with the instance itself excluded, and N_x^T
/// over the target. Only t_c / t_l change between the steps of the
/// relaxation ladder, so a run computes these once and re-filters.
struct SelNeighbourhoods {
  Matrix x_source;
  Matrix x_target;
  std::vector<std::vector<Neighbour>> source;
  std::vector<std::vector<Neighbour>> target;
};

/// Builds both indexes on the backend requested by `knn` (exact KD-tree
/// by default; the approximate graph trades a bounded selection
/// difference for sub-linear scans — see TransferRunOptions::knn_backend)
/// and answers both neighbourhood scans through the batched query path.
/// The indexes are released on return; only the answers are kept.
Result<SelNeighbourhoods> ComputeSelNeighbourhoods(
    size_t k, const FeatureMatrix& source, const FeatureMatrix& target,
    const ExecutionContext& context, RunDiagnostics* diagnostics,
    const KnnBackendOptions& knn, const ParallelOptions& par) {
  TRANSER_RETURN_IF_ERROR(context.Check("transer", diagnostics));

  SelNeighbourhoods out;
  out.x_source = source.ToMatrix();
  out.x_target = target.ToMatrix();

  // k is clamped so the self-excluded source query stays satisfiable.
  const size_t k_source =
      std::min(k, source.size() > 1 ? source.size() - 1 : size_t{1});
  const size_t k_target = std::min(k, target.size());
  if (k_target == 0) {
    return Status::InvalidArgument("target domain is empty");
  }

  // The two neighbourhood indexes are the phase's dominant allocation;
  // build them against the budget so a tiny limit surfaces as 'ME' here.
  TRANSER_ASSIGN_OR_RETURN(
      const std::unique_ptr<KnnBackend> source_index,
      CreateKnnBackend(out.x_source, knn, context, "transer", diagnostics));
  TRANSER_ASSIGN_OR_RETURN(
      const std::unique_ptr<KnnBackend> target_index,
      CreateKnnBackend(out.x_target, knn, context, "transer", diagnostics));

  TRANSER_ASSIGN_OR_RETURN(
      out.source,
      source_index->QueryBatch(out.x_source, k_source, context, "transer",
                               par, /*skip_self=*/true));
  TRANSER_ASSIGN_OR_RETURN(
      out.target, target_index->QueryBatch(out.x_source, k_target, context,
                                           "transer", par));
  return out;
}

/// SEL's per-instance filter under thresholds `t_c` / `t_l` (plus the
/// sim_v ablation's t_v). Instances are filtered over the parallel
/// runtime; chunks fill private index lists that concatenate in chunk
/// order, so the selection matches the serial scan exactly at any
/// thread count. Workers observe `context` per chunk.
Result<std::vector<size_t>> FilterSelInstances(
    const TransEROptions& options, const FeatureMatrix& source,
    const SelNeighbourhoods& neighbourhoods, const ExecutionContext& context,
    const ParallelOptions& par, double t_c, double t_l) {
  const Matrix& x_source = neighbourhoods.x_source;
  const Matrix& x_target = neighbourhoods.x_target;
  const size_t m = source.num_features();
  const ChunkPlan plan = PlanChunks(source.size(), par.min_items_per_chunk);
  std::vector<std::vector<size_t>> chunk_selected(plan.num_chunks);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "transer", source.size(),
      [&](size_t begin, size_t end, size_t chunk) -> Status {
        std::vector<size_t>& kept = chunk_selected[chunk];
        // Centroid scratch lives across the chunk's instances — the
        // sim_l filter allocates nothing per instance.
        std::vector<double> centroid_s, centroid_t;
        for (size_t s = begin; s < end; ++s) {
          if (!InParallelRegion()) {
            // Heartbeat only from the single driving thread.
            context.ReportProgress(static_cast<double>(s) /
                                   static_cast<double>(source.size()));
          }
          const std::vector<Neighbour>& n_s = neighbourhoods.source[s];
          const std::vector<Neighbour>& n_t = neighbourhoods.target[s];

          // Equation (1): fraction of source neighbours sharing the label.
          if (options.use_sim_c) {
            size_t same_label = 0;
            for (const auto& nb : n_s) {
              if (source.label(nb.index) == source.label(s)) ++same_label;
            }
            const double sim_c = n_s.empty()
                                     ? 0.0
                                     : static_cast<double>(same_label) /
                                           static_cast<double>(n_s.size());
            if (sim_c < t_c) continue;
          }

          // Equation (2): decayed distance between neighbourhood centroids.
          if (options.use_sim_l) {
            NeighbourhoodCentroidInto(x_source, n_s, &centroid_s);
            NeighbourhoodCentroidInto(x_target, n_t, &centroid_t);
            const double sim_l = TransER::StructuralSimilarityFromDistance(
                L2Distance(centroid_s, centroid_t), m);
            if (sim_l < t_l) continue;
          }

          // Optional covariance filter (the "+ sim_v" ablation).
          if (options.use_sim_v) {
            const Matrix cov_s = NeighbourhoodCovariance(x_source, n_s);
            const Matrix cov_t = NeighbourhoodCovariance(x_target, n_t);
            const double sim_v =
                std::exp(-5.0 * cov_s.Subtract(cov_t).FrobeniusNorm() /
                         static_cast<double>(m));
            if (sim_v < options.t_v) continue;
          }

          kept.push_back(s);
        }
        return Status::OK();
      },
      par));

  std::vector<size_t> selected;
  selected.reserve(source.size());
  for (const std::vector<size_t>& kept : chunk_selected) {
    selected.insert(selected.end(), kept.begin(), kept.end());
  }
  return selected;
}

}  // namespace

TransER::TransER(TransEROptions options) : options_(options) {
  TRANSER_CHECK_GT(options_.k, 0u);
  TRANSER_CHECK_GT(options_.b, 0.0);
}

double TransER::StructuralSimilarityFromDistance(double distance,
                                                 size_t num_features) {
  TRANSER_CHECK_GT(num_features, 0u);
  // Normalise by the maximum possible distance sqrt(m) (features in
  // [0, 1]), then apply the e^{-5x} decay chosen in Figure 5.
  const double normalized =
      distance / std::sqrt(static_cast<double>(num_features));
  return std::exp(-5.0 * normalized);
}

Result<std::vector<size_t>> TransER::SelectInstances(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const TransferRunOptions& run_options) const {
  std::optional<ExecutionContext> local_context;
  const ExecutionContext& context =
      ResolveExecutionContext(run_options, &local_context);
  const ParallelOptions par =
      SelParallelOptions(run_options.num_threads, run_options.diagnostics);
  TRANSER_ASSIGN_OR_RETURN(
      const SelNeighbourhoods neighbourhoods,
      ComputeSelNeighbourhoods(
          options_.k, source, target, context, run_options.diagnostics,
          ResolveKnnBackendOptions(run_options, run_options.num_threads),
          par));
  return FilterSelInstances(options_, source, neighbourhoods, context, par,
                            options_.t_c, options_.t_l);
}

Result<std::vector<int>> TransER::RunWithReport(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options, TransERReport* report) const {
  std::optional<ExecutionContext> local_context;
  const ExecutionContext& context =
      ResolveExecutionContext(run_options, &local_context);
  // Budget outcomes go straight to the caller's sink: failure returns
  // bypass publish(), and the context's dedup latches prevent repeats.
  RunDiagnostics* budget_diag = run_options.diagnostics;
  TRANSER_RETURN_IF_ERROR(context.Check("transer", budget_diag));
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(working_set.Acquire(
      context, "transer",
      transfer_internal::DomainWorkingSetBytes(source, target), budget_diag));

  TRANSER_RETURN_IF_ERROR(ValidateDomainPair(source, target));
  // Non-finite inputs would propagate silently through every distance
  // and classifier; reject them here. Callers with dirty data repair it
  // first via FeatureMatrix::Validate (as the pipeline does).
  ValidationOptions strict;
  if (auto checked = source.Validate(strict); !checked.ok()) {
    return Status::InvalidArgument("source " + checked.status().message());
  }
  strict.check_label_domain = false;  // target is legitimately unlabeled
  if (auto checked = target.Validate(strict); !checked.ok()) {
    return Status::InvalidArgument("target " + checked.status().message());
  }

  TransERReport local_report;
  local_report.source_instances = source.size();
  RunDiagnostics& diag = local_report.diagnostics;
  // Publishes the report (and merges events into the caller's sink) on
  // every return path.
  auto publish = [&]() {
    if (run_options.diagnostics != nullptr) {
      run_options.diagnostics->Merge(diag);
    }
    if (report != nullptr) *report = local_report;
  };

  // A selection must keep at least one neighbourhood's worth of
  // instances of both classes to be trainable.
  const size_t min_selected = std::max(options_.k, size_t{4});
  auto trainable = [&](const FeatureMatrix& m) {
    return m.size() >= min_selected && m.CountMatches() > 0 &&
           m.CountNonMatches() > 0;
  };

  const Matrix x_target = target.ToMatrix();
  const std::string& snapshot_path = run_options.model_snapshot_path;

  // `snap` accumulates the run's durable state: the snapshot of record
  // after GEN (selection, pseudo labels, C^U) and after TCL (plus C^V).
  TransERPipelineState snap;
  snap.feature_names = target.feature_names();
  snap.seed = run_options.seed;
  snap.source_rows = source.size();
  snap.target_rows = target.size();
  // Domain profile: the per-feature target mean, stored in the snapshot
  // so the serving repository can run its SEL-style similarity probe
  // against incoming domains without the training data.
  const std::vector<double> target_centroid = ColumnMeans(x_target);
  snap.target_centroid = target_centroid;
  // Persists the current state atomically; a failed write degrades (the
  // run's answer is unaffected) rather than failing the run.
  auto save_snapshot = [&](const char* phase) {
    if (snapshot_path.empty()) return;
    snap.classifier_name =
        snap.classifier_u != nullptr ? snap.classifier_u->name() : "";
    const Status saved = SaveTransERPipelineState(snap, snapshot_path);
    if (!saved.ok()) {
      diag.Add(DegradationKind::kModelSaveFailed, phase,
               StrFormat("snapshot save to %s failed: %s",
                         snapshot_path.c_str(), saved.message().c_str()),
               0.0, 0.0);
    }
  };

  // --- Optional warm start from a previous run's snapshot ---
  bool resume_after_gen = false;
  if (!snapshot_path.empty()) {
    auto loaded = LoadTransERPipelineState(snapshot_path);
    if (!loaded.ok()) {
      // A missing snapshot is the normal cold-start case; anything else
      // is a rejected artifact the run recovers from by retraining.
      if (loaded.status().code() != StatusCode::kNotFound) {
        diag.Add(DegradationKind::kModelArtifactRejected, "warm_start",
                 StrFormat("snapshot at %s rejected: %s",
                           snapshot_path.c_str(),
                           loaded.status().ToString().c_str()),
                 0.0, 0.0);
      }
    } else {
      const Status compatible = SnapshotCompatibleWithRun(
          loaded.value(), source, target, run_options.seed);
      if (!compatible.ok()) {
        diag.Add(DegradationKind::kModelArtifactRejected, "warm_start",
                 StrFormat("snapshot at %s is incompatible: %s",
                           snapshot_path.c_str(),
                           compatible.message().c_str()),
                 0.0, 0.0);
      } else {
        snap = std::move(loaded).value();
        // Older snapshots carry no domain profile; refresh it so any
        // snapshot this run re-saves is probe-eligible.
        snap.target_centroid = target_centroid;
        local_report.selected_instances = snap.selected_indices.size();
        local_report.warm_started = true;
        if (snap.classifier_v != nullptr && options_.use_gen_tcl) {
          // Fully trained snapshot: serve C^V's predictions directly.
          size_t pseudo_matches = 0;
          for (int label : snap.pseudo_labels) {
            if (label == kMatch) ++pseudo_matches;
          }
          local_report.pseudo_matches = pseudo_matches;
          local_report.tcl_trained = true;
          local_report.served_from_snapshot = true;
          diag.Add(DegradationKind::kModelWarmStarted, "warm_start",
                   "serving predictions from the snapshot's C^V", 0.0, 0.0);
          publish();
          return snap.classifier_v->PredictAll(x_target);
        }
        diag.Add(DegradationKind::kModelWarmStarted, "warm_start",
                 "resuming after GEN from the snapshot", 0.0, 0.0);
        resume_after_gen = true;
      }
    }
  }

  std::vector<int> pseudo_labels;
  std::vector<double> confidence;
  if (resume_after_gen) {
    pseudo_labels = snap.pseudo_labels;
    confidence = snap.pseudo_confidences;
  } else {
    // --- Phase (i): instance selector (SEL), with relaxation ladder ---
    context.BeginStage("sel");
    FeatureMatrix transferred;  // X^U with labels Y^U
    std::vector<size_t> kept_indices;
    // Identity selection for the no-SEL and fallback exits.
    auto all_source_rows = [&]() {
      std::vector<size_t> all(source.size());
      for (size_t s = 0; s < all.size(); ++s) all[s] = s;
      return all;
    };
    if (options_.use_sel) {
      const ParallelOptions par =
          SelParallelOptions(run_options.num_threads, budget_diag);
      TRANSER_ASSIGN_OR_RETURN(
          const SelNeighbourhoods neighbourhoods,
          ComputeSelNeighbourhoods(
              options_.k, source, target, context, budget_diag,
              ResolveKnnBackendOptions(run_options, run_options.num_threads),
              par));
      double t_c = options_.t_c;
      double t_l = options_.t_l;
      for (size_t step = 0;; ++step) {
        auto selected = FilterSelInstances(options_, source, neighbourhoods,
                                           context, par, t_c, t_l);
        if (!selected.ok()) return selected.status();
        transferred = source.Select(selected.value());
        if (trainable(transferred)) {
          kept_indices = std::move(selected).value();
          break;
        }
        if (step >= options_.max_sel_relax_steps) {
          // Degenerate selections cannot train a two-class model; fall
          // back to the full source (naive transfer for this run).
          diag.Add(DegradationKind::kSelFallbackNaive, "sel",
                   StrFormat("SEL kept %zu usable instances after %zu "
                             "relaxations; using the full source",
                             transferred.size(), step),
                   static_cast<double>(transferred.size()),
                   static_cast<double>(source.size()));
          transferred = source;
          kept_indices = all_source_rows();
          break;
        }
        const double next_t_c = t_c * options_.sel_relax_factor;
        const double next_t_l = t_l * options_.sel_relax_factor;
        diag.Add(DegradationKind::kSelThresholdRelaxed, "sel",
                 StrFormat("SEL kept %zu usable instances (< %zu); relaxing "
                           "t_c/t_l",
                           transferred.size(), min_selected),
                 t_c, next_t_c);
        t_c = next_t_c;
        t_l = next_t_l;
      }
    } else {
      transferred = source;
      kept_indices = all_source_rows();
    }
    local_report.selected_instances = transferred.size();
    snap.selected_indices.assign(kept_indices.begin(), kept_indices.end());

    // --- Phase (ii): pseudo-label generator (GEN) ---
    context.BeginStage("gen");
    snap.classifier_u = make_classifier();
    snap.classifier_u->set_execution_context(&context);
    FitClassifierWithRunOptions(snap.classifier_u.get(), transferred,
                                transfer_internal::RequireLabels(transferred),
                                /*weights=*/{}, run_options);
    // An interrupted Fit stops early with a partial model; surface the
    // TE / cancellation status rather than predict from it.
    TRANSER_RETURN_IF_ERROR(context.Check("transer", budget_diag));

    const std::vector<double> proba =
        snap.classifier_u->PredictProbaAll(x_target);
    pseudo_labels.resize(proba.size());
    confidence.resize(proba.size());
    for (size_t i = 0; i < proba.size(); ++i) {
      pseudo_labels[i] = proba[i] >= 0.5 ? kMatch : kNonMatch;
      confidence[i] = proba[i] >= 0.5 ? proba[i] : 1.0 - proba[i];
    }
    snap.pseudo_labels = pseudo_labels;
    snap.pseudo_confidences = confidence;
    // The GEN state is the expensive part of the run; snapshot it so a
    // later run (or a crash recovery) can resume at TCL.
    save_snapshot("gen");
  }

  if (!options_.use_gen_tcl) {
    // Ablation "without GEN & TCL": classify the target directly with the
    // classifier trained on the transferred instances.
    publish();
    return pseudo_labels;
  }

  // --- Phase (iii): target domain classifier (TCL), with t_p ladder ---
  context.BeginStage("tcl");
  TRANSER_RETURN_IF_ERROR(context.Check("transer", budget_diag));
  double t_p = options_.t_p;
  FeatureMatrix x_vb;
  for (size_t step = 0;; ++step) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < confidence.size(); ++i) {
      if (confidence[i] >= t_p) candidates.push_back(i);
    }
    local_report.candidate_instances = candidates.size();

    FeatureMatrix x_v = target.Select(candidates).WithLabels([&] {
      std::vector<int> labels;
      labels.reserve(candidates.size());
      for (size_t index : candidates) labels.push_back(pseudo_labels[index]);
      return labels;
    }());
    local_report.pseudo_matches = x_v.CountMatches();

    // Balance classes to 1 : b by under-sampling non-matches.
    Rng rng(run_options.seed + 71);
    const std::vector<size_t> balanced_rows =
        UndersampleNonMatches(x_v.labels(), options_.b, &rng);
    x_vb = x_v.Select(balanced_rows);
    local_report.balanced_instances = x_vb.size();
    if (trainable(x_vb)) break;

    constexpr double kMinTp = 0.5;  // below 0.5 the filter means nothing
    if (step >= options_.max_gen_relax_steps || t_p <= kMinTp) {
      // Degenerate candidate sets cannot train C^V; the pseudo labels
      // are the best available answer.
      diag.Add(DegradationKind::kTclSkipped, "tcl",
               StrFormat("confident pseudo-label set degenerate (%zu "
                         "instances) at t_p=%.2f; returning pseudo labels",
                         x_vb.size(), t_p),
               static_cast<double>(x_vb.size()), 0.0);
      publish();
      return pseudo_labels;
    }
    const double next_t_p = std::max(kMinTp, t_p - options_.gen_relax_step);
    diag.Add(DegradationKind::kGenThresholdLowered, "gen",
             StrFormat("t_p filter left %zu usable candidates (< %zu); "
                       "lowering t_p",
                       x_vb.size(), min_selected),
             t_p, next_t_p);
    t_p = next_t_p;
  }

  snap.classifier_v = make_classifier();
  snap.classifier_v->set_execution_context(&context);
  FitClassifierWithRunOptions(snap.classifier_v.get(), x_vb, x_vb.labels(),
                              /*weights=*/{}, run_options);
  TRANSER_RETURN_IF_ERROR(context.Check("transer", budget_diag));
  local_report.tcl_trained = true;
  // Snapshot of record now carries C^V: later runs serve directly.
  save_snapshot("tcl");
  publish();
  return snap.classifier_v->PredictAll(x_target);
}

Result<std::vector<int>> TransER::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  return RunWithReport(source, target, make_classifier, run_options,
                       nullptr);
}

}  // namespace transer
