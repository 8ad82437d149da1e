#ifndef TRANSER_ML_MLP_H_
#define TRANSER_ML_MLP_H_

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "util/random.h"

namespace transer {

namespace internal_mlp {

/// \brief One fully-connected layer with optional ReLU, trained by
/// per-sample SGD. Internal building block of DomainAdversarialMlp.
struct DenseLayer {
  size_t in = 0;
  size_t out = 0;
  bool relu = true;
  std::vector<double> w;  ///< row-major out x in
  std::vector<double> b;

  /// He-style random initialisation.
  void Init(size_t in_size, size_t out_size, bool use_relu, Rng* rng);

  /// Forward pass: fills `pre` (pre-activation) and `act` (post).
  void Forward(const std::vector<double>& input, std::vector<double>* pre,
               std::vector<double>* act) const;

  /// Backward pass for one sample: takes dL/d(act), the saved forward
  /// tensors, applies the SGD update (lr, l2) and writes dL/d(input).
  void Backward(const std::vector<double>& input,
                const std::vector<double>& pre,
                std::vector<double> grad_act, double lr, double l2,
                std::vector<double>* grad_input);
};

}  // namespace internal_mlp

/// \brief Hyper-parameters for the domain-adversarial network (DTAL*).
struct DannOptions {
  std::vector<size_t> extractor_hidden = {32};
  size_t domain_hidden = 16;
  double learning_rate = 0.05;
  double l2 = 1e-5;
  int epochs = 40;
  /// Gradient-reversal strength; ramped from 0 to this value over training
  /// as in Ganin & Lempitsky's schedule.
  double lambda = 1.0;
  uint64_t seed = 6;
};

/// \brief Domain-adversarial MLP: a shared feature extractor, a label head
/// trained on source labels, and a domain head trained to tell source from
/// target while the extractor receives its *reversed* gradient — the
/// transfer mechanism of DTAL [Kasai et al. 2019].
class DomainAdversarialMlp {
 public:
  explicit DomainAdversarialMlp(DannOptions options = {})
      : options_(options) {}

  /// Trains on labelled source rows and unlabelled target rows.
  /// `should_abort`, when provided, is polled between epochs; returning
  /// true stops training early (used for runtime budgets).
  void Fit(const Matrix& x_source, const std::vector<int>& y_source,
           const Matrix& x_target,
           const std::function<bool()>& should_abort = nullptr);

  /// P(match | features) from the label head.
  double PredictProba(std::span<const double> features) const;

  /// Match probability per row.
  std::vector<double> PredictProbaAll(const Matrix& x) const;

  /// Number of epochs actually run (may be short of options.epochs when
  /// aborted).
  int epochs_run() const { return epochs_run_; }

 private:
  /// Extractor forward; returns the representation.
  std::vector<double> ExtractorForward(
      std::span<const double> features,
      std::vector<std::vector<double>>* pres,
      std::vector<std::vector<double>>* acts) const;

  DannOptions options_;
  std::vector<internal_mlp::DenseLayer> extractor_;
  internal_mlp::DenseLayer label_head_;            ///< linear -> sigmoid
  internal_mlp::DenseLayer domain_hidden_layer_;   ///< relu
  internal_mlp::DenseLayer domain_head_;           ///< linear -> sigmoid
  size_t input_dim_ = 0;
  int epochs_run_ = 0;
};

}  // namespace transer

#endif  // TRANSER_ML_MLP_H_
