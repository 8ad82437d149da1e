#include "core/pipeline.h"

namespace transer {

Result<FeatureMatrix> BuildDomainFeatures(const LinkageProblem& problem,
                                          const PipelineOptions& options,
                                          PipelineBuildInfo* info,
                                          const ExecutionContext& context,
                                          RunDiagnostics* diagnostics) {
  if (!problem.left.schema().CompatibleWith(problem.right.schema())) {
    return Status::InvalidArgument(
        "left and right database schemas are incompatible");
  }
  ParallelOptions parallel;
  parallel.num_threads = options.num_threads;
  parallel.diagnostics = diagnostics;
  const MinHashLshBlocker blocker(options.blocking);
  TRANSER_ASSIGN_OR_RETURN(const std::vector<PairRef> pairs,
                           blocker.Block(problem.left, problem.right, context,
                                         diagnostics, parallel));
  TRANSER_RETURN_IF_ERROR(context.Check("pipeline", diagnostics));

  auto comparator = PairComparator::Create(problem.left.schema(),
                                           problem.right.schema(),
                                           options.comparison);
  if (!comparator.ok()) return comparator.status();
  TRANSER_ASSIGN_OR_RETURN(
      FeatureMatrix features,
      comparator.value().CompareAll(problem.left, problem.right, pairs,
                                    context, parallel));

  if (info != nullptr) {
    info->candidate_pairs = pairs.size();
    // CompareAll labels each pair by the same entity-id rule.
    info->true_matches_in_candidates = features.CountMatches();
    info->true_matches_total = problem.CountTrueMatches();
  }
  return features;
}

Result<EndToEndResult> RunTransferPipeline(
    const LinkageProblem& source_problem,
    const LinkageProblem& target_problem, const TransferMethod& method,
    const ClassifierFactory& make_classifier, const PipelineOptions& options,
    const TransferRunOptions& run_options) {
  EndToEndResult result;
  // One shared context bounds the whole linkage: blocking + comparison on
  // both domains and the transfer run all draw from the same budget.
  const ExecutionContext& context = *run_options.context;
  // The run's thread count governs both build stages and the method.
  PipelineOptions build_options = options;
  if (build_options.num_threads == 0) {
    build_options.num_threads = run_options.num_threads;
  }
  context.BeginStage("build_source");
  TRANSER_ASSIGN_OR_RETURN(
      FeatureMatrix source,
      BuildDomainFeatures(source_problem, build_options, &result.source_info,
                          context, &result.diagnostics));
  context.BeginStage("build_target");
  TRANSER_ASSIGN_OR_RETURN(
      FeatureMatrix target,
      BuildDomainFeatures(target_problem, build_options, &result.target_info,
                          context, &result.diagnostics));

  if (source.num_features() != target.num_features()) {
    return Status::InvalidArgument(
        "source and target pipelines produced different feature spaces");
  }

  // Validate (and, under the default policy, repair) both domains before
  // they reach the transfer method; every repair lands in diagnostics.
  TRANSER_ASSIGN_OR_RETURN(
      source, source.Validate(options.validation, nullptr,
                              &result.diagnostics));
  TRANSER_ASSIGN_OR_RETURN(
      target, target.Validate(options.validation, nullptr,
                              &result.diagnostics));
  result.source_instances = source.size();
  result.target_instances = target.size();

  // Route the method's degradation events into the result (preserving a
  // caller-provided sink as well).
  context.BeginStage("transfer");
  TransferRunOptions method_options = run_options;
  method_options.diagnostics = &result.diagnostics;
  TRANSER_ASSIGN_OR_RETURN(
      std::vector<int> predicted,
      method.Run(source, target.WithoutLabels(), make_classifier,
                 method_options));
  if (run_options.diagnostics != nullptr) {
    run_options.diagnostics->Merge(result.diagnostics);
  }
  if (predicted.size() != target.size()) {
    return Status::Internal(
        "transfer method returned a prediction per-instance count that "
        "does not match the target");
  }

  result.quality = EvaluateLinkage(target.labels(), predicted);
  return result;
}

}  // namespace transer
