#include "ml/random_forest.h"

#include <cmath>
#include <memory>

#include "util/artifact_io.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"

namespace transer {

void RandomForest::Fit(const Matrix& x, const std::vector<int>& y,
                       const std::vector<double>& weights) {
  TRANSER_CHECK_EQ(x.rows(), y.size());
  TRANSER_CHECK(weights.empty() || weights.size() == y.size());
  trees_.clear();
  if (x.rows() == 0) return;

  Rng rng(options_.seed);
  const size_t n = x.rows();

  DecisionTreeOptions tree_options = options_.tree;
  if (tree_options.max_features == 0) {
    tree_options.max_features = static_cast<size_t>(
        std::max(1.0, std::floor(std::sqrt(static_cast<double>(x.cols())))));
  }

  // Bags and per-tree seeds are drawn up front from the single forest
  // stream — exactly the draws (and order) the serial loop made — so
  // every tree's training inputs are fixed before any tree fits and the
  // forest is bit-identical at any thread count. A bag is kept as
  // bootstrap counts; each tree turns its counts into weights on its own
  // lane.
  struct TreePlan {
    std::vector<uint32_t> bag_counts;
    uint64_t seed = 0;
  };
  std::vector<TreePlan> plans(options_.num_trees);
  for (size_t t = 0; t < options_.num_trees; ++t) {
    plans[t].bag_counts.assign(n, 0);
    for (size_t draw = 0; draw < n; ++draw) {
      ++plans[t].bag_counts[rng.NextUint64Below(n)];
    }
    plans[t].seed = rng.NextUint64();
  }

  // Every tree reads the same presorted columns.
  const PresortedColumns presorted(x, options_.num_threads);
  std::vector<std::unique_ptr<DecisionTree>> slots(options_.num_trees);
  ParallelOptions par;
  par.num_threads = options_.num_threads;
  const Status fitted = ParallelFor(
      ExecutionContext::Unlimited(), "random_forest", options_.num_trees,
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        std::vector<double> bag_weights(n);
        for (size_t t = begin; t < end; ++t) {
          // Interruption is graceful, not an error: unfitted slots stay
          // empty and the caller surfaces the status via Check.
          if (FitInterrupted()) return Status::OK();
          // Bootstrap sample expressed through multiplicative sample
          // weights so user-provided weights compose with bagging.
          const std::vector<uint32_t>& counts = plans[t].bag_counts;
          for (size_t i = 0; i < n; ++i) {
            bag_weights[i] = weights.empty()
                                 ? static_cast<double>(counts[i])
                                 : static_cast<double>(counts[i]) * weights[i];
          }
          DecisionTreeOptions slot_options = tree_options;
          slot_options.seed = plans[t].seed;
          auto tree = std::make_unique<DecisionTree>(slot_options);
          tree->set_execution_context(execution_context());
          tree->FitPresorted(x, y, bag_weights, presorted);
          slots[t] = std::move(tree);
        }
        return Status::OK();
      },
      par);
  TRANSER_CHECK(fitted.ok());

  // Keep the longest filled prefix, mirroring the serial loop's
  // stop-at-interruption behaviour.
  trees_.reserve(options_.num_trees);
  for (auto& slot : slots) {
    if (slot == nullptr) break;
    trees_.push_back(std::move(*slot));
  }
}

Status RandomForest::SaveState(artifact::Encoder* out) const {
  out->PutU64(options_.num_trees);
  out->PutU64(options_.seed);
  out->PutU64(trees_.size());
  for (const DecisionTree& tree : trees_) {
    TRANSER_RETURN_IF_ERROR(tree.SaveState(out));
  }
  return Status::OK();
}

Status RandomForest::LoadState(artifact::Decoder* in) {
  RandomForestOptions options = options_;
  uint64_t num_trees = 0;
  TRANSER_RETURN_IF_ERROR(in->GetU64(&num_trees));
  TRANSER_RETURN_IF_ERROR(in->GetU64(&options.seed));
  uint64_t tree_count = 0;
  TRANSER_RETURN_IF_ERROR(in->GetU64(&tree_count));
  // Each serialised tree costs at least its fixed fields (~60 bytes).
  if (num_trees > 1u << 20 || tree_count > num_trees ||
      tree_count > in->remaining() / 56) {
    return Status::InvalidArgument("random forest tree count is implausible");
  }
  options.num_trees = static_cast<size_t>(num_trees);
  std::vector<DecisionTree> trees;
  trees.reserve(tree_count);
  for (uint64_t t = 0; t < tree_count; ++t) {
    DecisionTree tree;
    TRANSER_RETURN_IF_ERROR(tree.LoadState(in));
    trees.push_back(std::move(tree));
  }
  options_ = options;
  trees_ = std::move(trees);
  return Status::OK();
}

double RandomForest::PredictProba(std::span<const double> features) const {
  if (trees_.empty()) return 0.5;
  double total = 0.0;
  for (const auto& tree : trees_) total += tree.PredictProba(features);
  return total / static_cast<double>(trees_.size());
}

}  // namespace transer
