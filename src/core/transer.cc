#include "core/transer.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "core/active_transer.h"
#include "core/source_selection.h"
#include "knn/knn_backend.h"
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

/// Both neighbourhoods of the scanned source instances (Algorithm 1,
/// phase i): N_x^S over the source with the instance itself excluded,
/// and N_x^T over the target. Only t_c / t_l change between the steps of
/// the relaxation ladder, so a run computes these once and re-filters.
struct SelNeighbourhoods {
  Matrix x_source;
  Matrix x_target;
  /// Source row of each scanned instance; empty = every row, in order.
  std::vector<size_t> rows;
  std::vector<std::vector<Neighbour>> source;
  std::vector<std::vector<Neighbour>> target;

  size_t Row(size_t p) const { return rows.empty() ? p : rows[p]; }
};

/// Builds both indexes on the backend requested by `knn` (exact KD-tree
/// by default; the approximate graph trades a bounded selection
/// difference for sub-linear scans — see TransferRunOptions::knn_backend)
/// and scans the neighbourhoods of every source instance through the
/// batched query path, or of the source rows in `sample` when it is not
/// null. The indexes are released on return; only the answers are kept.
Result<SelNeighbourhoods> ComputeSelNeighbourhoods(
    size_t k, const FeatureMatrix& source, const FeatureMatrix& target,
    const std::vector<size_t>* sample, const ExecutionContext& context,
    RunDiagnostics* diagnostics, const KnnBackendOptions& knn,
    const ParallelOptions& par) {
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

  if (sample == nullptr) {
    TRANSER_ASSIGN_OR_RETURN(
        out.source,
        source_index->QueryBatch(out.x_source, k_source, context, "transer",
                                 par, /*skip_self=*/true));
    TRANSER_ASSIGN_OR_RETURN(
        out.target, target_index->QueryBatch(out.x_source, k_target,
                                             context, "transer", par));
    return out;
  }
  out.rows = *sample;
  out.source.resize(out.rows.size());
  out.target.resize(out.rows.size());
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "transer", out.rows.size(),
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        for (size_t p = begin; p < end; ++p) {
          const size_t s = out.rows[p];
          const std::span<const double> row(out.x_source.Row(s),
                                            out.x_source.cols());
          out.source[p] =
              source_index->Query(row, k_source, static_cast<ptrdiff_t>(s));
          out.target[p] = target_index->Query(row, k_target);
        }
        return Status::OK();
      },
      par));
  return out;
}

/// Equation (2): the decayed distance between the centroids of scanned
/// instance p's two neighbourhoods. The centroids accumulate into the
/// caller's scratch, so a scan allocates nothing per instance.
double StructuralSimilarity(const SelNeighbourhoods& neighbourhoods,
                            size_t p, std::vector<double>* centroid_s,
                            std::vector<double>* centroid_t) {
  NeighbourhoodCentroidInto(neighbourhoods.x_source,
                            neighbourhoods.source[p], centroid_s);
  NeighbourhoodCentroidInto(neighbourhoods.x_target,
                            neighbourhoods.target[p], centroid_t);
  return TransER::StructuralSimilarityFromDistance(
      L2Distance(*centroid_s, *centroid_t), neighbourhoods.x_source.cols());
}

/// SEL's per-instance filter under thresholds `t_c` / `t_l` (plus the
/// sim_v ablation's t_v); returns the source rows that pass. Instances
/// are filtered over the parallel runtime; chunks fill private row lists
/// that concatenate in chunk order, so the selection matches the serial
/// scan exactly at any thread count. Workers observe `context` per chunk.
Result<std::vector<size_t>> FilterSelInstances(
    const TransEROptions& options, const FeatureMatrix& source,
    const SelNeighbourhoods& neighbourhoods, const ExecutionContext& context,
    const ParallelOptions& par, double t_c, double t_l) {
  const size_t count = neighbourhoods.source.size();
  const ChunkPlan plan = PlanChunks(count, par.min_items_per_chunk);
  std::vector<std::vector<size_t>> chunk_selected(plan.num_chunks);
  TRANSER_RETURN_IF_ERROR(ParallelFor(
      context, "transer", count,
      [&](size_t begin, size_t end, size_t chunk) -> Status {
        std::vector<size_t>& kept = chunk_selected[chunk];
        std::vector<double> centroid_s, centroid_t;
        for (size_t p = begin; p < end; ++p) {
          if (!InParallelRegion()) {
            // Heartbeat only from the single driving thread.
            context.ReportProgress(static_cast<double>(p) /
                                   static_cast<double>(count));
          }
          const size_t s = neighbourhoods.Row(p);
          const std::vector<Neighbour>& n_s = neighbourhoods.source[p];

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

          if (options.use_sim_l &&
              StructuralSimilarity(neighbourhoods, p, &centroid_s,
                                   &centroid_t) < t_l) {
            continue;
          }

          // Optional covariance filter (the "+ sim_v" ablation).
          if (options.use_sim_v) {
            const Matrix cov_s =
                NeighbourhoodCovariance(neighbourhoods.x_source, n_s);
            const Matrix cov_t = NeighbourhoodCovariance(
                neighbourhoods.x_target, neighbourhoods.target[p]);
            const double sim_v =
                std::exp(-5.0 * cov_s.Subtract(cov_t).FrobeniusNorm() /
                         static_cast<double>(source.num_features()));
            if (sim_v < options.t_v) continue;
          }
          kept.push_back(s);
        }
        return Status::OK();
      },
      par));

  std::vector<size_t> selected;
  selected.reserve(count);
  for (const std::vector<size_t>& kept : chunk_selected) {
    selected.insert(selected.end(), kept.begin(), kept.end());
  }
  return selected;
}

/// The entry checks of every Algorithm 1 run: the budget, the domains'
/// working set (held in `working_set` for the run) and a valid domain
/// pair. Non-finite inputs would propagate silently through every
/// distance and classifier, so they are rejected; callers with dirty data
/// repair it first via FeatureMatrix::Validate (as the pipeline does).
Status CheckRunInputs(const FeatureMatrix& source, const FeatureMatrix& target,
                      const ExecutionContext& context,
                      RunDiagnostics* budget_diag,
                      ScopedReservation* working_set) {
  TRANSER_RETURN_IF_ERROR(context.Check("transer", budget_diag));
  TRANSER_RETURN_IF_ERROR(working_set->Acquire(
      context, "transer",
      transfer_internal::DomainWorkingSetBytes(source, target), budget_diag));
  TRANSER_RETURN_IF_ERROR(ValidateDomainPair(source, target));
  ValidationOptions strict;
  if (auto checked = source.Validate(strict); !checked.ok()) {
    return Status::InvalidArgument("source " + checked.status().message());
  }
  strict.check_label_domain = false;  // target is legitimately unlabeled
  if (auto checked = target.Validate(strict); !checked.ok()) {
    return Status::InvalidArgument("target " + checked.status().message());
  }
  return Status::OK();
}

/// What the three phases of one Algorithm 1 run share.
struct AlgorithmRun {
  const TransEROptions& options;
  const FeatureMatrix& source;
  const FeatureMatrix& target;
  const Matrix& x_target;
  const ClassifierFactory& make_classifier;
  const TransferRunOptions& run_options;
  const ExecutionContext& context;
  /// Phase counts and degradation events, published by the caller. Budget
  /// outcomes skip it for run_options.diagnostics: failure returns bypass
  /// publishing, and the context's dedup latches prevent repeats.
  TransERReport* report;

  Status CheckBudget() const {
    return context.Check("transer", run_options.diagnostics);
  }

  /// A training set must keep at least one neighbourhood's worth of
  /// instances of both classes.
  size_t min_trainable() const { return std::max(options.k, size_t{4}); }
  bool Trainable(const FeatureMatrix& m) const {
    return m.size() >= min_trainable() && m.CountMatches() > 0 &&
           m.CountNonMatches() > 0;
  }
};

/// Phase (i), SEL, with its relaxation ladder: an untrainable selection
/// relaxes t_c / t_l, and when the ladder runs out SEL falls back to the
/// full source (naive transfer for this run). Returns X^U with labels
/// Y^U; its source rows become `state`'s SEL output.
Result<FeatureMatrix> SelectTransferable(const AlgorithmRun& run,
                                         TransERPipelineState* state) {
  run.context.BeginStage("sel");
  const TransEROptions& options = run.options;
  RunDiagnostics* budget_diag = run.run_options.diagnostics;
  if (options.use_sel) {
    const ParallelOptions par =
        SelParallelOptions(run.run_options.num_threads, budget_diag);
    TRANSER_ASSIGN_OR_RETURN(
        const SelNeighbourhoods neighbourhoods,
        ComputeSelNeighbourhoods(
            options.k, run.source, run.target, /*sample=*/nullptr,
            run.context, budget_diag,
            ResolveKnnBackendOptions(run.run_options,
                                     run.run_options.num_threads),
            par));
    double t_c = options.t_c;
    double t_l = options.t_l;
    for (size_t step = 0;; ++step) {
      TRANSER_ASSIGN_OR_RETURN(
          const std::vector<size_t> rows,
          FilterSelInstances(options, run.source, neighbourhoods,
                             run.context, par, t_c, t_l));
      FeatureMatrix transferred = run.source.Select(rows);
      if (run.Trainable(transferred)) {
        state->selected_indices.assign(rows.begin(), rows.end());
        run.report->selected_instances = transferred.size();
        return transferred;
      }
      if (step >= options.max_sel_relax_steps) {
        run.report->diagnostics.Add(
            DegradationKind::kSelFallbackNaive, "sel",
            StrFormat("SEL kept %zu usable instances after %zu "
                      "relaxations; using the full source",
                      transferred.size(), step),
            static_cast<double>(transferred.size()),
            static_cast<double>(run.source.size()));
        break;
      }
      const double next_t_c = t_c * options.sel_relax_factor;
      const double next_t_l = t_l * options.sel_relax_factor;
      run.report->diagnostics.Add(
          DegradationKind::kSelThresholdRelaxed, "sel",
          StrFormat("SEL kept %zu usable instances (< %zu); relaxing "
                    "t_c/t_l",
                    transferred.size(), run.min_trainable()),
          t_c, next_t_c);
      t_c = next_t_c;
      t_l = next_t_l;
    }
  }
  // No SEL, or its ladder ran out: the full source.
  state->selected_indices.resize(run.source.size());
  std::iota(state->selected_indices.begin(), state->selected_indices.end(),
            uint64_t{0});
  run.report->selected_instances = run.source.size();
  return run.source;
}

/// Phase (ii), GEN: trains C^U on X^U and gives every target instance a
/// pseudo label with its confidence, C^U's probability of that label —
/// `state`'s GEN output.
Status GeneratePseudoLabels(const AlgorithmRun& run,
                            const FeatureMatrix& transferred,
                            TransERPipelineState* state) {
  run.context.BeginStage("gen");
  state->classifier_u = run.make_classifier();
  state->classifier_u->set_execution_context(&run.context);
  state->classifier_u->Fit(transferred.ToMatrix(),
                           transfer_internal::RequireLabels(transferred));
  // An interrupted Fit stops early with a partial model; surface the
  // TE / cancellation status rather than predict from it.
  TRANSER_RETURN_IF_ERROR(run.CheckBudget());

  const std::vector<double> proba =
      state->classifier_u->PredictProbaAll(run.x_target);
  state->pseudo_labels.resize(proba.size());
  state->pseudo_confidences.resize(proba.size());
  for (size_t i = 0; i < proba.size(); ++i) {
    state->pseudo_labels[i] = proba[i] >= 0.5 ? kMatch : kNonMatch;
    state->pseudo_confidences[i] =
        proba[i] >= 0.5 ? proba[i] : 1.0 - proba[i];
  }
  return Status::OK();
}

/// Phase (iii), TCL, with its t_p ladder: trains C^V on the target
/// instances whose pseudo labels are confident, non-matches
/// under-sampled to 1 : b. An untrainable candidate set lowers t_p; when
/// the ladder runs out TCL is skipped and C^V is null — the pseudo labels
/// are then the best available answer.
Result<std::unique_ptr<Classifier>> TrainTargetClassifier(
    const AlgorithmRun& run, const std::vector<int>& labels,
    const std::vector<double>& confidence) {
  run.context.BeginStage("tcl");
  TRANSER_RETURN_IF_ERROR(run.CheckBudget());
  TransERReport& report = *run.report;
  double t_p = run.options.t_p;
  FeatureMatrix x_vb;
  for (size_t step = 0;; ++step) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < confidence.size(); ++i) {
      if (confidence[i] >= t_p) candidates.push_back(i);
    }
    report.candidate_instances = candidates.size();

    FeatureMatrix x_v = run.target.Select(candidates).WithLabels([&] {
      std::vector<int> candidate_labels;
      candidate_labels.reserve(candidates.size());
      for (size_t index : candidates) candidate_labels.push_back(labels[index]);
      return candidate_labels;
    }());
    report.pseudo_matches = x_v.CountMatches();

    // Balance classes to 1 : b by under-sampling non-matches.
    Rng rng(run.run_options.seed + 71);
    x_vb = x_v.Select(UndersampleNonMatches(x_v.labels(), run.options.b, &rng));
    report.balanced_instances = x_vb.size();
    if (run.Trainable(x_vb)) break;

    constexpr double kMinTp = 0.5;  // below 0.5 the filter means nothing
    if (step >= run.options.max_gen_relax_steps || t_p <= kMinTp) {
      report.diagnostics.Add(
          DegradationKind::kTclSkipped, "tcl",
          StrFormat("confident pseudo-label set degenerate (%zu "
                    "instances) at t_p=%.2f; returning pseudo labels",
                    x_vb.size(), t_p),
          static_cast<double>(x_vb.size()), 0.0);
      return std::unique_ptr<Classifier>();
    }
    const double next_t_p =
        std::max(kMinTp, t_p - run.options.gen_relax_step);
    report.diagnostics.Add(
        DegradationKind::kGenThresholdLowered, "gen",
        StrFormat("t_p filter left %zu usable candidates (< %zu); "
                  "lowering t_p",
                  x_vb.size(), run.min_trainable()),
        t_p, next_t_p);
    t_p = next_t_p;
  }

  std::unique_ptr<Classifier> classifier = run.make_classifier();
  classifier->set_execution_context(&run.context);
  classifier->Fit(x_vb.ToMatrix(), x_vb.labels());
  TRANSER_RETURN_IF_ERROR(run.CheckBudget());
  report.tcl_trained = true;
  return classifier;
}

/// Writes the finished run's pipeline artifact atomically to
/// run_options.model_snapshot_path: SEL's selection, GEN's pseudo labels
/// and C^U, C^V when TCL trained, and the domain it was adapted to. A
/// failed write degrades (the run's answer is unaffected) rather than
/// failing the run.
void SavePipelineArtifact(const AlgorithmRun& run,
                          TransERPipelineState* state) {
  const std::string& path = run.run_options.model_snapshot_path;
  state->feature_names = run.target.feature_names();
  state->seed = run.run_options.seed;
  state->source_rows = run.source.size();
  state->target_rows = run.target.size();
  // Domain profile: the per-feature target mean, so the serving
  // repository can run its SEL-style similarity probe against incoming
  // domains without the training data.
  state->target_centroid = ColumnMeans(run.x_target);
  state->classifier_name = state->classifier_u->name();
  const Status saved = SaveTransERPipelineState(*state, path);
  if (!saved.ok()) {
    run.report->diagnostics.Add(
        DegradationKind::kModelSaveFailed, "save",
        StrFormat("snapshot save to %s failed: %s", path.c_str(),
                  saved.message().c_str()),
        0.0, 0.0);
  }
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
  const ExecutionContext& context = *run_options.context;
  const ParallelOptions par =
      SelParallelOptions(run_options.num_threads, run_options.diagnostics);
  TRANSER_ASSIGN_OR_RETURN(
      const SelNeighbourhoods neighbourhoods,
      ComputeSelNeighbourhoods(
          options_.k, source, target, /*sample=*/nullptr, context,
          run_options.diagnostics,
          ResolveKnnBackendOptions(run_options, run_options.num_threads),
          par));
  return FilterSelInstances(options_, source, neighbourhoods, context, par,
                            options_.t_c, options_.t_l);
}

Result<std::vector<int>> TransER::RunWithReport(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options, TransERReport* report) const {
  const ExecutionContext& context = *run_options.context;
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(CheckRunInputs(
      source, target, context, run_options.diagnostics, &working_set));

  TransERReport local_report;
  local_report.source_instances = source.size();
  const Matrix x_target = target.ToMatrix();
  const AlgorithmRun run{options_, source, target, x_target,
                         make_classifier, run_options, context,
                         &local_report};

  // The run's pipeline state: SEL's selection, GEN's pseudo labels and
  // C^U, then C^V when TCL trains. A failure returns before anything is
  // saved or published.
  TransERPipelineState state;
  TRANSER_ASSIGN_OR_RETURN(const FeatureMatrix transferred,
                           SelectTransferable(run, &state));
  TRANSER_RETURN_IF_ERROR(GeneratePseudoLabels(run, transferred, &state));
  if (options_.use_gen_tcl) {
    TRANSER_ASSIGN_OR_RETURN(
        state.classifier_v,
        TrainTargetClassifier(run, state.pseudo_labels,
                              state.pseudo_confidences));
  }
  // Without GEN & TCL (the ablation), or when TCL's ladder ran out, C^U's
  // pseudo labels are the answer.
  std::vector<int> predicted = state.classifier_v != nullptr
                                   ? state.classifier_v->PredictAll(x_target)
                                   : state.pseudo_labels;
  if (!run_options.model_snapshot_path.empty()) {
    SavePipelineArtifact(run, &state);
  }
  if (run_options.diagnostics != nullptr) {
    run_options.diagnostics->Merge(local_report.diagnostics);
  }
  if (report != nullptr) *report = std::move(local_report);
  return predicted;
}

Result<std::vector<int>> TransER::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier,
    const TransferRunOptions& run_options) const {
  return RunWithReport(source, target, make_classifier, run_options,
                       nullptr);
}

Result<ActiveTransERResult> ActiveTransER::Run(
    const FeatureMatrix& source, const FeatureMatrix& target,
    const ClassifierFactory& make_classifier, const LabelOracle& oracle,
    const TransferRunOptions& run_options) const {
  const ExecutionContext& context = *run_options.context;
  ScopedReservation working_set;
  TRANSER_RETURN_IF_ERROR(CheckRunInputs(
      source, target, context, run_options.diagnostics, &working_set));
  const Matrix x_target = target.ToMatrix();
  TransERReport report;  // only its events reach the caller
  const AlgorithmRun run{options_.transer, source, target, x_target,
                         make_classifier, run_options, context, &report};

  TransERPipelineState state;  // SEL and GEN output, never saved
  TRANSER_ASSIGN_OR_RETURN(const FeatureMatrix transferred,
                           SelectTransferable(run, &state));
  TRANSER_RETURN_IF_ERROR(GeneratePseudoLabels(run, transferred, &state));
  std::vector<int>& labels = state.pseudo_labels;
  std::vector<double>& confidence = state.pseudo_confidences;

  // --- Active step: the least-confident pseudo labels go to the oracle
  // in (confidence, index) order, the tie rule of NeighbourBefore ---
  ActiveTransERResult result;
  std::vector<size_t> order(confidence.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return confidence[a] < confidence[b];
  });
  const size_t budget = std::min(options_.budget, order.size());
  for (size_t q = 0; q < budget; ++q) {
    const size_t index = order[q];
    labels[index] = oracle(index) == kMatch ? kMatch : kNonMatch;
    confidence[index] = 1.0;  // oracle labels are ground truth
    result.queried_indices.push_back(index);
  }

  // --- TCL over confident pseudo labels + oracle labels ---
  std::unique_ptr<Classifier> classifier_v;
  if (options_.transer.use_gen_tcl) {
    TRANSER_ASSIGN_OR_RETURN(classifier_v,
                             TrainTargetClassifier(run, labels, confidence));
  }
  if (classifier_v == nullptr) {
    result.predicted = std::move(labels);
  } else {
    result.predicted = classifier_v->PredictAll(x_target);
    // Oracle answers are authoritative; never overrule them.
    for (size_t index : result.queried_indices) {
      result.predicted[index] = labels[index];
    }
  }
  if (run_options.diagnostics != nullptr) {
    run_options.diagnostics->Merge(report.diagnostics);
  }
  return result;
}

Result<SourceScore> ScoreSourceDomain(const FeatureMatrix& source,
                                      const FeatureMatrix& target,
                                      const SourceSelectionOptions& options) {
  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(
        "candidate source does not share the target's feature space");
  }
  if (source.empty() || target.empty()) {
    return Status::InvalidArgument("empty domain");
  }

  Rng rng(options.seed);
  const std::vector<size_t> sample = rng.SampleWithoutReplacement(
      source.size(), std::min(options.sample_size, source.size()));
  const ExecutionContext& context = ExecutionContext::Unlimited();
  const ParallelOptions par = SelParallelOptions(/*num_threads=*/0, nullptr);
  TRANSER_ASSIGN_OR_RETURN(
      const SelNeighbourhoods neighbourhoods,
      ComputeSelNeighbourhoods(options.transer.k, source, target, &sample,
                               context, nullptr, KnnBackendOptions{}, par));
  TRANSER_ASSIGN_OR_RETURN(
      const std::vector<size_t> transferable,
      FilterSelInstances(options.transer, source, neighbourhoods, context,
                         par, options.transer.t_c, options.transer.t_l));
  double structural_total = 0.0;
  std::vector<double> centroid_s, centroid_t;
  for (size_t p = 0; p < sample.size(); ++p) {
    structural_total +=
        StructuralSimilarity(neighbourhoods, p, &centroid_s, &centroid_t);
  }

  SourceScore score;
  score.transferable_fraction = static_cast<double>(transferable.size()) /
                                static_cast<double>(sample.size());
  score.mean_structural_similarity =
      structural_total / static_cast<double>(sample.size());
  return score;
}

Result<std::vector<SourceScore>> RankSourceDomains(
    const std::vector<const FeatureMatrix*>& sources,
    const FeatureMatrix& target, const SourceSelectionOptions& options) {
  if (sources.empty()) {
    return Status::InvalidArgument("no candidate source domains");
  }
  std::vector<SourceScore> scores;
  scores.reserve(sources.size());
  for (size_t i = 0; i < sources.size(); ++i) {
    auto score = ScoreSourceDomain(*sources[i], target, options);
    if (!score.ok()) return score.status();
    score.value().source_index = i;
    scores.push_back(score.value());
  }
  std::sort(scores.begin(), scores.end(),
            [](const SourceScore& a, const SourceScore& b) {
              return a.Score() > b.Score();
            });
  return scores;
}

}  // namespace transer
