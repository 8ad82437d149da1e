#ifndef TRANSER_ML_DECISION_TREE_H_
#define TRANSER_ML_DECISION_TREE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ml/classifier.h"

namespace transer {

/// \brief Every row of a feature matrix listed once per feature, in
/// ascending (x(row, f), row) order. Built once per Fit (once per forest,
/// then read by all of its trees at the same time), so growing a tree
/// never sorts: each split stably partitions the node's slice of every
/// column, which keeps both children's slices in this order.
class PresortedColumns {
 public:
  /// Sorts the columns of `x`, one column per ParallelFor item on
  /// `num_threads` lanes (0 = process default). Requires fewer than
  /// 2^32 rows.
  PresortedColumns(const Matrix& x, int num_threads);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  /// Column-major: column f is [f * rows(), (f + 1) * rows()).
  const std::vector<uint32_t>& order() const { return order_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<uint32_t> order_;
};

/// \brief Hyper-parameters for the CART decision tree.
struct DecisionTreeOptions {
  int max_depth = 12;
  size_t min_samples_split = 4;
  double min_impurity_decrease = 1e-7;
  /// Features considered per split: 0 = all; otherwise a random subset of
  /// this size (used by the random forest).
  size_t max_features = 0;
  uint64_t seed = 3;
};

/// \brief CART binary decision tree with weighted Gini impurity splits,
/// grown over presorted columns (SLIQ's attribute lists). Leaf
/// probabilities are the raw (weighted) match fraction, so pure leaves
/// report exactly 0 or 1 — matching sklearn's behaviour, which the
/// paper's t_p = 0.99 pseudo-label confidence threshold presumes.
///
/// Each node sums its (weight, match weight) census over its rows in
/// feature 0's (value, row) order, and sweeps a candidate feature's
/// split points in that feature's (value, row) order. Integer weights
/// (unweighted fits and bootstrap counts) give exact sums in any order.
class DecisionTree : public Classifier {
 public:
  explicit DecisionTree(DecisionTreeOptions options = {})
      : options_(options) {}

  void Fit(const Matrix& x, const std::vector<int>& y,
           const std::vector<double>& weights) override;
  using Classifier::Fit;

  double PredictProba(std::span<const double> features) const override;

  std::string name() const override { return "decision_tree"; }

  Status SaveState(artifact::Encoder* out) const override;
  Status LoadState(artifact::Decoder* in) override;

  /// Number of nodes in the fitted tree (0 before Fit).
  size_t node_count() const { return nodes_.size(); }

  /// Depth of the fitted tree.
  size_t Depth() const;

 private:
  struct Node {
    bool is_leaf = true;
    size_t feature = 0;
    double threshold = 0.0;
    ptrdiff_t left = -1;
    ptrdiff_t right = -1;
    double match_probability = 0.5;
  };

  friend class RandomForest;

  /// Per-Fit working state: the copy of the presorted columns and the
  /// partition buffers (defined in decision_tree.cc).
  struct GrowState;

  /// Fits on `presorted` (built from `x`) with one weight per row.
  void FitPresorted(const Matrix& x, const std::vector<int>& y,
                    const std::vector<double>& w,
                    const PresortedColumns& presorted);

  /// Recursively grows the subtree over positions [begin, end) of every
  /// column; returns the new node's index. Draws per-node feature
  /// subsets from rng_state_.
  ptrdiff_t Grow(GrowState* state, size_t begin, size_t end, int depth);

  DecisionTreeOptions options_;
  std::vector<Node> nodes_;
  ptrdiff_t root_ = -1;
  size_t num_features_ = 0;
  uint64_t rng_state_ = 0;  ///< per-Fit stream for feature subsets
};

}  // namespace transer

#endif  // TRANSER_ML_DECISION_TREE_H_
