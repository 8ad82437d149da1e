#include "knn/knn_backend.h"

#include <utility>

#include "knn/ann_graph.h"
#include "knn/brute_force.h"
#include "knn/kd_tree.h"

namespace transer {

const char* KnnBackendKindName(KnnBackendKind kind) {
  switch (kind) {
    case KnnBackendKind::kKdTree:
      return "kd_tree";
    case KnnBackendKind::kBruteForce:
      return "brute_force";
    case KnnBackendKind::kAnnGraph:
      return "ann_graph";
  }
  return "unknown";
}

bool ParseKnnBackendKind(const std::string& text, KnnBackendKind* out) {
  if (text == "kd_tree" || text == "kdtree") {
    *out = KnnBackendKind::kKdTree;
    return true;
  }
  if (text == "brute_force" || text == "brute") {
    *out = KnnBackendKind::kBruteForce;
    return true;
  }
  if (text == "ann_graph" || text == "ann") {
    *out = KnnBackendKind::kAnnGraph;
    return true;
  }
  return false;
}

Result<std::unique_ptr<KnnBackend>> CreateKnnBackend(
    const Matrix& points, const KnnBackendOptions& options,
    const ExecutionContext& context, const std::string& scope,
    RunDiagnostics* diagnostics) {
  KnnBackendKind kind = options.kind;
  if (kind == KnnBackendKind::kAnnGraph &&
      options.ann.recall_target >= 1.0 && options.ann.ef_search == 0) {
    // A recall target of 1.0 asks for exactness; the graph cannot
    // promise it at any beam width, so answer with the exact index.
    if (diagnostics != nullptr) {
      diagnostics->Add(DegradationKind::kAnnExactFallback, scope,
                       "recall_target 1.0 served by exact kd_tree backend",
                       options.ann.recall_target, 1.0);
    }
    kind = KnnBackendKind::kKdTree;
  }
  switch (kind) {
    case KnnBackendKind::kKdTree: {
      TRANSER_ASSIGN_OR_RETURN(
          KdTree tree, KdTree::Create(points, context, scope, diagnostics,
                                      options.num_threads));
      return std::unique_ptr<KnnBackend>(
          std::make_unique<KdTree>(std::move(tree)));
    }
    case KnnBackendKind::kBruteForce: {
      TRANSER_ASSIGN_OR_RETURN(
          BruteForceKnn knn,
          BruteForceKnn::Create(points, context, scope, diagnostics));
      return std::unique_ptr<KnnBackend>(
          std::make_unique<BruteForceKnn>(std::move(knn)));
    }
    case KnnBackendKind::kAnnGraph: {
      TRANSER_ASSIGN_OR_RETURN(
          AnnGraph graph,
          AnnGraph::Create(points, options.ann, context, scope, diagnostics,
                           options.num_threads));
      return std::unique_ptr<KnnBackend>(
          std::make_unique<AnnGraph>(std::move(graph)));
    }
  }
  return Status::InvalidArgument("unknown knn backend kind");
}

Result<std::unique_ptr<KnnBackend>> CreateKnnBackend(
    const Matrix& points, const KnnBackendOptions& options) {
  return CreateKnnBackend(points, options, ExecutionContext::Unlimited());
}

}  // namespace transer
