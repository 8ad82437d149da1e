#include "ml/mlp.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/kernels.h"
#include "util/logging.h"

namespace transer {

namespace internal_mlp {

void DenseLayer::Init(size_t in_size, size_t out_size, bool use_relu,
                      Rng* rng) {
  in = in_size;
  out = out_size;
  relu = use_relu;
  w.resize(in * out);
  b.assign(out, 0.0);
  const double scale = std::sqrt(2.0 / static_cast<double>(in));
  for (double& weight : w) weight = rng->Gaussian(0.0, scale);
}

void DenseLayer::Forward(const std::vector<double>& input,
                         std::vector<double>* pre,
                         std::vector<double>* act) const {
  TRANSER_CHECK_EQ(input.size(), in);
  pre->assign(out, 0.0);
  for (size_t o = 0; o < out; ++o) {
    const std::span<const double> row(w.data() + o * in, in);
    (*pre)[o] = b[o] + kernels::Dot(row, input);
  }
  *act = *pre;
  if (relu) {
    for (double& a : *act) a = a > 0.0 ? a : 0.0;
  }
}

void DenseLayer::Backward(const std::vector<double>& input,
                          const std::vector<double>& pre,
                          std::vector<double> grad_act, double lr, double l2,
                          std::vector<double>* grad_input) {
  TRANSER_CHECK_EQ(grad_act.size(), out);
  if (relu) {
    for (size_t o = 0; o < out; ++o) {
      if (pre[o] <= 0.0) grad_act[o] = 0.0;
    }
  }
  if (grad_input != nullptr) {
    grad_input->assign(in, 0.0);
    for (size_t o = 0; o < out; ++o) {
      const double g = grad_act[o];
      if (g == 0.0) continue;
      kernels::Axpy(g, std::span<const double>(w.data() + o * in, in),
                    *grad_input);
    }
  }
  for (size_t o = 0; o < out; ++o) {
    const double g = grad_act[o];
    const std::span<double> row(w.data() + o * in, in);
    // row -= lr * (g * input + l2 * row): decoupled shrink + Axpy.
    kernels::ScaleInPlace(row, 1.0 - lr * l2);
    kernels::Axpy(-lr * g, input, row);
    b[o] -= lr * g;
  }
}

}  // namespace internal_mlp

namespace {

double Sigmoid(double z) {
  if (z >= 0.0) return 1.0 / (1.0 + std::exp(-z));
  const double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

std::vector<double> DomainAdversarialMlp::ExtractorForward(
    std::span<const double> features, std::vector<std::vector<double>>* pres,
    std::vector<std::vector<double>>* acts) const {
  std::vector<double> current(features.begin(), features.end());
  for (size_t l = 0; l < extractor_.size(); ++l) {
    extractor_[l].Forward(current, &(*pres)[l], &(*acts)[l]);
    current = (*acts)[l];
  }
  return current;
}

void DomainAdversarialMlp::Fit(const Matrix& x_source,
                               const std::vector<int>& y_source,
                               const Matrix& x_target,
                               const std::function<bool()>& should_abort) {
  TRANSER_CHECK_EQ(x_source.rows(), y_source.size());
  TRANSER_CHECK_EQ(x_source.cols(), x_target.cols());
  input_dim_ = x_source.cols();
  epochs_run_ = 0;

  Rng rng(options_.seed);
  extractor_.clear();
  size_t prev = input_dim_;
  for (size_t width : options_.extractor_hidden) {
    internal_mlp::DenseLayer layer;
    layer.Init(prev, width, /*use_relu=*/true, &rng);
    extractor_.push_back(std::move(layer));
    prev = width;
  }
  label_head_.Init(prev, 1, /*use_relu=*/false, &rng);
  domain_hidden_layer_.Init(prev, options_.domain_hidden, /*use_relu=*/true,
                            &rng);
  domain_head_.Init(options_.domain_hidden, 1, /*use_relu=*/false, &rng);

  // Interleave source (domain 0, labelled) and target (domain 1) samples.
  struct Sample {
    bool from_source;
    size_t row;
  };
  std::vector<Sample> samples;
  samples.reserve(x_source.rows() + x_target.rows());
  for (size_t i = 0; i < x_source.rows(); ++i) samples.push_back({true, i});
  for (size_t j = 0; j < x_target.rows(); ++j) samples.push_back({false, j});

  std::vector<std::vector<double>> pres(extractor_.size());
  std::vector<std::vector<double>> acts(extractor_.size());

  for (int epoch = 0; epoch < options_.epochs; ++epoch) {
    if (should_abort && should_abort()) break;
    ++epochs_run_;
    rng.Shuffle(&samples);
    const double lr =
        options_.learning_rate / (1.0 + 0.02 * static_cast<double>(epoch));
    // Ganin-style lambda ramp: 2/(1+e^{-10p}) - 1 over progress p.
    const double progress = static_cast<double>(epoch) /
                            std::max(1, options_.epochs - 1);
    const double lambda =
        options_.lambda * (2.0 / (1.0 + std::exp(-10.0 * progress)) - 1.0);

    for (const Sample& sample : samples) {
      const Matrix& x = sample.from_source ? x_source : x_target;
      std::vector<double> input = {x.Row(sample.row),
                                   x.Row(sample.row) + x.cols()};
      const std::vector<double> repr =
          ExtractorForward(input, &pres, &acts);

      std::vector<double> grad_repr(repr.size(), 0.0);

      // Label head: source samples only.
      if (sample.from_source) {
        std::vector<double> head_pre, head_act;
        label_head_.Forward(repr, &head_pre, &head_act);
        const double p = Sigmoid(head_act[0]);
        std::vector<double> grad = {p -
                                    static_cast<double>(y_source[sample.row])};
        std::vector<double> grad_in;
        label_head_.Backward(repr, head_pre, std::move(grad), lr, options_.l2,
                             &grad_in);
        for (size_t d = 0; d < grad_repr.size(); ++d) {
          grad_repr[d] += grad_in[d];
        }
      }

      // Domain head: all samples; extractor sees the reversed gradient.
      {
        std::vector<double> dh_pre, dh_act, do_pre, do_act;
        domain_hidden_layer_.Forward(repr, &dh_pre, &dh_act);
        domain_head_.Forward(dh_act, &do_pre, &do_act);
        const double p = Sigmoid(do_act[0]);
        const double domain_label = sample.from_source ? 0.0 : 1.0;
        std::vector<double> grad = {p - domain_label};
        std::vector<double> grad_hidden;
        domain_head_.Backward(dh_act, do_pre, std::move(grad), lr,
                              options_.l2, &grad_hidden);
        std::vector<double> grad_in;
        domain_hidden_layer_.Backward(repr, dh_pre, std::move(grad_hidden),
                                      lr, options_.l2, &grad_in);
        // Gradient reversal: the extractor maximises domain confusion.
        for (size_t d = 0; d < grad_repr.size(); ++d) {
          grad_repr[d] -= lambda * grad_in[d];
        }
      }

      // Backprop through the extractor.
      std::vector<double> grad = std::move(grad_repr);
      for (size_t l = extractor_.size(); l-- > 0;) {
        const std::vector<double>& layer_in = l == 0 ? input : acts[l - 1];
        std::vector<double> grad_in;
        extractor_[l].Backward(layer_in, pres[l], std::move(grad), lr,
                               options_.l2, l == 0 ? nullptr : &grad_in);
        grad = std::move(grad_in);
      }
    }
  }
}

double DomainAdversarialMlp::PredictProba(
    std::span<const double> features) const {
  TRANSER_CHECK_EQ(features.size(), input_dim_);
  std::vector<std::vector<double>> pres(extractor_.size());
  std::vector<std::vector<double>> acts(extractor_.size());
  const std::vector<double> repr = ExtractorForward(features, &pres, &acts);
  std::vector<double> head_pre, head_act;
  label_head_.Forward(repr, &head_pre, &head_act);
  return Sigmoid(head_act[0]);
}

std::vector<double> DomainAdversarialMlp::PredictProbaAll(
    const Matrix& x) const {
  std::vector<double> out(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    out[i] = PredictProba(std::span<const double>(x.Row(i), x.cols()));
  }
  return out;
}

}  // namespace transer
