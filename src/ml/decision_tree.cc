#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>

#include "util/artifact_io.h"
#include "util/logging.h"
#include "util/parallel.h"
#include "util/random.h"
#include "util/string_util.h"

namespace transer {

namespace {

// Weighted Gini impurity of a (match_weight, total_weight) census.
double Gini(double match_w, double total_w) {
  if (total_w <= 0.0) return 0.0;
  const double p = match_w / total_w;
  return 2.0 * p * (1.0 - p);
}

// Leaf probability is the raw weighted match fraction (as in sklearn);
// pure leaves report exactly 0 or 1, which the pseudo-label confidence
// threshold t_p of TransER's TCL phase relies on.
double LeafProbability(double match_w, double total_w) {
  if (total_w <= 0.0) return 0.5;
  return match_w / total_w;
}

}  // namespace

PresortedColumns::PresortedColumns(const Matrix& x, int num_threads)
    : rows_(x.rows()), cols_(x.cols()), order_(x.rows() * x.cols()) {
  TRANSER_CHECK_LE(rows_, static_cast<size_t>(UINT32_MAX));
  ParallelOptions par;
  par.num_threads = num_threads;
  const Status sorted = ParallelFor(
      ExecutionContext::Unlimited(), "presort_columns", cols_,
      [&](size_t begin, size_t end, size_t /*chunk*/) -> Status {
        std::vector<std::pair<double, uint32_t>> keyed(rows_);
        for (size_t f = begin; f < end; ++f) {
          for (size_t row = 0; row < rows_; ++row) {
            keyed[row] = {x(row, f), static_cast<uint32_t>(row)};
          }
          std::sort(keyed.begin(), keyed.end());  // (value, row) order
          uint32_t* column = order_.data() + f * rows_;
          for (size_t i = 0; i < rows_; ++i) column[i] = keyed[i].second;
        }
        return Status::OK();
      },
      par);
  TRANSER_CHECK(sorted.ok());
}

struct DecisionTree::GrowState {
  const Matrix& x;
  const std::vector<int>& y;
  const std::vector<double>& w;
  /// Column-major working copy of the presorted order. A node owns
  /// positions [begin, end) of every column, and they hold the same rows
  /// in each column's (value, row) order.
  std::vector<uint32_t> columns;
  std::vector<uint8_t> goes_left;    ///< per row, for the node being split
  std::vector<uint32_t> right_rows;  ///< stable-partition buffer
};

void DecisionTree::Fit(const Matrix& x, const std::vector<int>& y,
                       const std::vector<double>& weights) {
  std::vector<double> w = weights;
  if (w.empty()) w.assign(x.rows(), 1.0);
  FitPresorted(x, y, w, PresortedColumns(x, 1));
}

void DecisionTree::FitPresorted(const Matrix& x, const std::vector<int>& y,
                                const std::vector<double>& w,
                                const PresortedColumns& presorted) {
  TRANSER_CHECK_GE(options_.min_samples_split, 1u);
  TRANSER_CHECK_EQ(x.rows(), y.size());
  TRANSER_CHECK_EQ(w.size(), y.size());
  TRANSER_CHECK(presorted.rows() == x.rows() && presorted.cols() == x.cols());
  nodes_.clear();
  root_ = -1;
  num_features_ = x.cols();
  rng_state_ = options_.seed;
  if (x.rows() == 0) return;

  GrowState state{x, y, w, presorted.order(),
                  std::vector<uint8_t>(x.rows()),
                  std::vector<uint32_t>(x.rows())};
  if (num_features_ == 0) {
    // Nothing to split on: the root's census runs over the rows in
    // index order.
    state.columns.resize(x.rows());
    for (size_t row = 0; row < x.rows(); ++row) {
      state.columns[row] = static_cast<uint32_t>(row);
    }
  }
  nodes_.reserve(2 * x.rows() / options_.min_samples_split + 4);
  root_ = Grow(&state, 0, x.rows(), 0);
}

ptrdiff_t DecisionTree::Grow(GrowState* state, size_t begin, size_t end,
                             int depth) {
  const Matrix& x = state->x;
  const std::vector<int>& y = state->y;
  const std::vector<double>& w = state->w;
  const size_t rows = x.rows();

  // The census runs in feature 0's order.
  const uint32_t* census = state->columns.data();
  double total_w = 0.0;
  double match_w = 0.0;
  for (size_t i = begin; i < end; ++i) {
    const size_t row = census[i];
    total_w += w[row];
    match_w += y[row] == 1 ? w[row] : 0.0;
  }

  Node node;
  node.match_probability = LeafProbability(match_w, total_w);

  const double parent_impurity = Gini(match_w, total_w);
  const bool can_split = depth < options_.max_depth &&
                         end - begin >= options_.min_samples_split &&
                         parent_impurity > 0.0;

  size_t best_feature = 0;
  double best_threshold = 0.0;
  double best_decrease = options_.min_impurity_decrease;
  size_t best_mid = begin;  // first position of the right child
  bool found = false;

  // An interrupted Fit stops splitting: the subtree collapses to a leaf
  // with the census probability, and the caller surfaces the status.
  if (can_split && !FitInterrupted()) {
    // Candidate features: all, or a random subset for forests.
    std::vector<size_t> candidates;
    if (options_.max_features == 0 ||
        options_.max_features >= num_features_) {
      candidates.resize(num_features_);
      for (size_t f = 0; f < num_features_; ++f) candidates[f] = f;
    } else {
      Rng rng(rng_state_);
      rng_state_ = rng.NextUint64();
      candidates = rng.SampleWithoutReplacement(num_features_,
                                                options_.max_features);
    }

    for (size_t feature : candidates) {
      const uint32_t* sorted = state->columns.data() + feature * rows;
      // Sweep split points between consecutive distinct values.
      double left_w = 0.0;
      double left_match = 0.0;
      double value = x(sorted[begin], feature);
      for (size_t i = begin; i + 1 < end; ++i) {
        const size_t row = sorted[i];
        left_w += w[row];
        // Adding +0.0 leaves a sum that started at +0.0 unchanged, so
        // this branch-free form sums exactly what the branch would.
        left_match += y[row] == 1 ? w[row] : 0.0;
        const double current = value;
        const double next = x(sorted[i + 1], feature);
        value = next;
        if (next <= current) continue;  // no boundary here
        const double right_w = total_w - left_w;
        const double right_match = match_w - left_match;
        if (left_w <= 0.0 || right_w <= 0.0) continue;
        const double child_impurity =
            (left_w * Gini(left_match, left_w) +
             right_w * Gini(right_match, right_w)) /
            total_w;
        const double decrease = parent_impurity - child_impurity;
        if (decrease > best_decrease) {
          // The midpoint of two nearly-adjacent doubles can round up to
          // `next`, which would make the `<= threshold` partition
          // degenerate; such boundaries are unsplittable.
          const double threshold = current + 0.5 * (next - current);
          if (!(threshold < next)) continue;
          best_decrease = decrease;
          best_feature = feature;
          best_threshold = threshold;
          best_mid = i + 1;
          found = true;
        }
      }
    }
  }

  if (!found) {
    nodes_.push_back(node);
    return static_cast<ptrdiff_t>(nodes_.size() - 1);
  }

  // The split feature's slice is already partitioned: its rows up to
  // best_mid are the ones with value <= best_threshold. Every other
  // column moves its left rows forward and its right rows after them,
  // each side keeping its order.
  const size_t mid = best_mid;
  TRANSER_CHECK(mid > begin && mid < end);
  const uint32_t* split = state->columns.data() + best_feature * rows;
  for (size_t i = begin; i < end; ++i) state->goes_left[split[i]] = i < mid;
  for (size_t f = 0; f < num_features_; ++f) {
    if (f == best_feature) continue;
    uint32_t* column = state->columns.data() + f * rows;
    size_t left = begin;
    size_t right = 0;
    for (size_t i = begin; i < end; ++i) {
      // Branch-free: both stores land, one cursor advances. A right row
      // written at `left` is overwritten later, since left <= i.
      const uint32_t row = column[i];
      const size_t to_left = state->goes_left[row];
      column[left] = row;
      state->right_rows[right] = row;
      left += to_left;
      right += 1 - to_left;
    }
    std::copy(state->right_rows.begin(),
              state->right_rows.begin() + static_cast<ptrdiff_t>(right),
              column + left);
  }

  node.is_leaf = false;
  node.feature = best_feature;
  node.threshold = best_threshold;
  nodes_.push_back(node);
  const ptrdiff_t index = static_cast<ptrdiff_t>(nodes_.size() - 1);
  const ptrdiff_t left = Grow(state, begin, mid, depth + 1);
  const ptrdiff_t right = Grow(state, mid, end, depth + 1);
  nodes_[static_cast<size_t>(index)].left = left;
  nodes_[static_cast<size_t>(index)].right = right;
  return index;
}

double DecisionTree::PredictProba(std::span<const double> features) const {
  TRANSER_CHECK_EQ(features.size(), num_features_);
  if (root_ < 0) return 0.5;
  ptrdiff_t current = root_;
  for (;;) {
    const Node& node = nodes_[static_cast<size_t>(current)];
    if (node.is_leaf) return node.match_probability;
    current = features[node.feature] <= node.threshold ? node.left
                                                       : node.right;
  }
}

Status DecisionTree::SaveState(artifact::Encoder* out) const {
  out->PutI64(options_.max_depth);
  out->PutU64(options_.min_samples_split);
  out->PutDouble(options_.min_impurity_decrease);
  out->PutU64(options_.max_features);
  out->PutU64(options_.seed);
  out->PutU64(num_features_);
  out->PutI64(root_);
  out->PutU64(nodes_.size());
  for (const Node& node : nodes_) {
    out->PutU8(node.is_leaf ? 1 : 0);
    out->PutU64(node.feature);
    out->PutDouble(node.threshold);
    out->PutI64(node.left);
    out->PutI64(node.right);
    out->PutDouble(node.match_probability);
  }
  return Status::OK();
}

Status DecisionTree::LoadState(artifact::Decoder* in) {
  DecisionTreeOptions options;
  int64_t max_depth = 0;
  uint64_t min_samples_split = 0;
  uint64_t max_features = 0;
  TRANSER_RETURN_IF_ERROR(in->GetI64(&max_depth));
  TRANSER_RETURN_IF_ERROR(in->GetU64(&min_samples_split));
  TRANSER_RETURN_IF_ERROR(in->GetDouble(&options.min_impurity_decrease));
  TRANSER_RETURN_IF_ERROR(in->GetU64(&max_features));
  TRANSER_RETURN_IF_ERROR(in->GetU64(&options.seed));
  if (max_depth < 0 || max_depth > INT32_MAX || min_samples_split == 0 ||
      !std::isfinite(options.min_impurity_decrease)) {
    return Status::InvalidArgument("decision tree options out of range");
  }
  options.max_depth = static_cast<int>(max_depth);
  options.min_samples_split = static_cast<size_t>(min_samples_split);
  options.max_features = static_cast<size_t>(max_features);

  uint64_t num_features = 0;
  int64_t root = 0;
  uint64_t node_count = 0;
  TRANSER_RETURN_IF_ERROR(in->GetU64(&num_features));
  TRANSER_RETURN_IF_ERROR(in->GetI64(&root));
  TRANSER_RETURN_IF_ERROR(in->GetU64(&node_count));
  // Smallest possible node encoding: 1 + 8 + 8 + 8 + 8 + 8 bytes.
  if (node_count > in->remaining() / 41) {
    return Status::InvalidArgument("decision tree node count exceeds payload");
  }
  std::vector<Node> nodes;
  nodes.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    Node node;
    uint8_t is_leaf = 0;
    uint64_t feature = 0;
    int64_t left = 0;
    int64_t right = 0;
    TRANSER_RETURN_IF_ERROR(in->GetU8(&is_leaf));
    TRANSER_RETURN_IF_ERROR(in->GetU64(&feature));
    TRANSER_RETURN_IF_ERROR(in->GetDouble(&node.threshold));
    TRANSER_RETURN_IF_ERROR(in->GetI64(&left));
    TRANSER_RETURN_IF_ERROR(in->GetI64(&right));
    TRANSER_RETURN_IF_ERROR(in->GetDouble(&node.match_probability));
    if (is_leaf > 1 ||
        !(node.match_probability >= 0.0 && node.match_probability <= 1.0)) {
      return Status::InvalidArgument("decision tree node is malformed");
    }
    node.is_leaf = is_leaf == 1;
    node.feature = static_cast<size_t>(feature);
    node.left = static_cast<ptrdiff_t>(left);
    node.right = static_cast<ptrdiff_t>(right);
    if (node.is_leaf) {
      if (left != -1 || right != -1) {
        return Status::InvalidArgument("decision tree leaf has children");
      }
    } else {
      // Grow() always pushes a parent before its children, so child
      // indices strictly exceed the parent's: checking that here makes
      // every loaded tree provably acyclic (prediction terminates even
      // on a crafted artifact whose CRCs were re-stamped).
      if (node.feature >= num_features || !std::isfinite(node.threshold) ||
          left <= static_cast<int64_t>(i) || right <= static_cast<int64_t>(i) ||
          left >= static_cast<int64_t>(node_count) ||
          right >= static_cast<int64_t>(node_count)) {
        return Status::InvalidArgument(StrFormat(
            "decision tree node %llu has invalid split structure",
            static_cast<unsigned long long>(i)));
      }
    }
    nodes.push_back(node);
  }
  if (root < -1 || root >= static_cast<int64_t>(node_count) ||
      (root == -1 && node_count != 0)) {
    return Status::InvalidArgument("decision tree root is out of range");
  }

  options_ = options;
  num_features_ = static_cast<size_t>(num_features);
  root_ = static_cast<ptrdiff_t>(root);
  nodes_ = std::move(nodes);
  rng_state_ = options_.seed;
  return Status::OK();
}

size_t DecisionTree::Depth() const {
  if (root_ < 0) return 0;
  // Iterative DFS carrying depth.
  std::vector<std::pair<ptrdiff_t, size_t>> stack = {{root_, 1}};
  size_t depth = 0;
  while (!stack.empty()) {
    auto [index, d] = stack.back();
    stack.pop_back();
    depth = std::max(depth, d);
    const Node& node = nodes_[static_cast<size_t>(index)];
    if (!node.is_leaf) {
      stack.push_back({node.left, d + 1});
      stack.push_back({node.right, d + 1});
    }
  }
  return depth;
}

}  // namespace transer
