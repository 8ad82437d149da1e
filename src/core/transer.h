#ifndef TRANSER_CORE_TRANSER_H_
#define TRANSER_CORE_TRANSER_H_

#include <string>
#include <vector>

#include "transfer/transfer_method.h"
#include "util/diagnostics.h"

namespace transer {

/// \brief TransER hyper-parameters (Algorithm 1 inputs) plus the ablation
/// switches of Table 4. Defaults are the paper's (Section 5.1.1):
/// t_c = 0.9, t_l = 0.9, t_p = 0.99, k = 7, b = 3 (match:non-match 1:3).
struct TransEROptions {
  size_t k = 7;          ///< neighbourhood size
  double t_c = 0.9;      ///< instance-confidence similarity threshold
  double t_l = 0.9;      ///< instance-structural similarity threshold
  double t_p = 0.99;     ///< pseudo-label confidence threshold
  double b = 3.0;        ///< class imbalance: non-matches per match

  // --- Ablation switches (Table 4) ---
  bool use_sel = true;      ///< false = "without SEL"
  bool use_sim_c = true;    ///< false = "without sim_c"
  bool use_sim_l = true;    ///< false = "without sim_l"
  bool use_gen_tcl = true;  ///< false = "without GEN & TCL"
  /// true = "TransER + sim_v": the extra covariance-similarity filter
  /// from LocIT, sim_v = exp(-5 ||C^S - C^T||_F / m) >= t_v.
  bool use_sim_v = false;
  double t_v = 0.9;

  // --- Graceful degradation ladder ---
  /// When SEL keeps fewer than max(k, 4) instances (or a single class),
  /// t_c and t_l are multiplied by `sel_relax_factor` up to
  /// `max_sel_relax_steps` times before falling back to the full source;
  /// when GEN's t_p filter leaves an untrainable candidate set, t_p is
  /// lowered by `gen_relax_step` (floored at 0.5) before TCL is skipped.
  /// Every step is recorded as a DegradationEvent. Setting
  /// `max_sel_relax_steps` / `max_gen_relax_steps` to 0 restores the
  /// paper's all-or-nothing behaviour.
  size_t max_sel_relax_steps = 3;
  double sel_relax_factor = 0.8;
  size_t max_gen_relax_steps = 4;
  double gen_relax_step = 0.1;
};

/// \brief Phase-level introspection of one TransER run.
struct TransERReport {
  size_t source_instances = 0;     ///< |X^S|
  size_t selected_instances = 0;   ///< |X^U| after SEL
  size_t candidate_instances = 0;  ///< |X^V| with confident pseudo labels
  size_t balanced_instances = 0;   ///< |X^V_b| after under-sampling
  size_t pseudo_matches = 0;       ///< matches among the pseudo labels
  bool tcl_trained = false;        ///< false when the fallback fired
  /// Structured record of every deviation from the nominal algorithm
  /// (threshold relaxations, fallbacks, skipped phases). Supersedes
  /// inspecting `tcl_trained` alone.
  RunDiagnostics diagnostics;
};

/// \brief The paper's contribution: instance-based homogeneous transfer
/// learning for ER (Algorithm 1) with its three phases —
///
/// 1. SEL  selects source instances with high class-label confidence in
///         their source neighbourhood (Eq. 1) and a similar local
///         structure in the target (Eq. 2), discarding the instances that
///         carry the class-conditional-distribution difference;
/// 2. GEN  trains classifier C^U on the selected instances and predicts a
///         pseudo label with a confidence score for every target instance;
/// 3. TCL  keeps only confident pseudo labels, re-balances classes to
///         1 : b, trains C^V *on the target domain itself*, and labels all
///         target instances — absorbing the marginal-distribution shift.
class TransER : public TransferMethod {
 public:
  explicit TransER(TransEROptions options = {});

  std::string name() const override { return "transer"; }

  Result<std::vector<int>> Run(
      const FeatureMatrix& source, const FeatureMatrix& target,
      const ClassifierFactory& make_classifier,
      const TransferRunOptions& run_options) const override;

  /// Run variant that also fills a phase report.
  Result<std::vector<int>> RunWithReport(
      const FeatureMatrix& source, const FeatureMatrix& target,
      const ClassifierFactory& make_classifier,
      const TransferRunOptions& run_options, TransERReport* report) const;

  /// Phase (i) alone: indices of the transferable source instances
  /// (exposed for tests and the ablation analysis).
  Result<std::vector<size_t>> SelectInstances(
      const FeatureMatrix& source, const FeatureMatrix& target,
      const TransferRunOptions& run_options) const;

  const TransEROptions& options() const { return options_; }

  /// Equation (2)'s decay: exp(-5 * normalized_distance). Exposed for the
  /// Figure 5 reproduction.
  static double StructuralSimilarityFromDistance(double distance,
                                                 size_t num_features);

 private:
  TransEROptions options_;
};

}  // namespace transer

#endif  // TRANSER_CORE_TRANSER_H_
