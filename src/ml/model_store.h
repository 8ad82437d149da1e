#ifndef TRANSER_ML_MODEL_STORE_H_
#define TRANSER_ML_MODEL_STORE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "knn/knn_backend.h"
#include "ml/classifier.h"
#include "util/status.h"

namespace transer {

/// \file
/// Crash-safe persistence for trained models, built on util/artifact_io.
/// The store writes one artifact kind, the TransER pipeline snapshot:
/// a TransER run writes it, and it seeds the stream and fills the
/// serving repository. Every artifact is written atomically (temp + fsync +
/// rename), carries the feature-schema fingerprint it was trained
/// against, and is CRC-framed, so loads either succeed bit-exactly or
/// fail with a clean status — never a crash or a silent misprediction
/// (DESIGN.md §8).

/// The one artifact kind written by this store.
inline constexpr char kPipelineArtifactKind[] = "transer_pipeline";

/// Creates an untrained classifier of the family serialised under `name`
/// (the Classifier::name() string). The seven families are the six
/// `transer_csv_tool --classifier` trains — "decision_tree",
/// "random_forest", "logistic_regression", "linear_svm", "naive_bayes"
/// and "knn" — plus "threshold", the stream's bootstrap model. Unknown
/// names — artifacts from a newer build, or crafted files — yield
/// FailedPrecondition.
/// `knn`, when non-null, picks the index the "knn" family rebuilds on
/// LoadState (the backend is a host runtime choice, never part of the
/// artifact — see ml/knn_classifier.h); other families ignore it.
Result<std::unique_ptr<Classifier>> MakeClassifierByName(
    const std::string& name, const KnnBackendOptions* knn = nullptr);

/// \brief The pipeline artifact of a finished TransER run: the state of
/// Algorithm 1 after GEN, plus C^V when TCL trained — everything needed
/// to serve predictions without touching the source data again.
struct TransERPipelineState {
  std::vector<std::string> feature_names;  ///< target schema
  uint64_t seed = 0;                       ///< the writing run's seed
  uint64_t source_rows = 0;                ///< pair count of the source
  uint64_t target_rows = 0;                ///< pair count of the target
  /// SEL output: indices of the transferred source instances.
  std::vector<uint64_t> selected_indices;
  /// GEN output, one entry per target row.
  std::vector<int> pseudo_labels;
  std::vector<double> pseudo_confidences;
  /// Optional domain profile: the per-feature mean of the target rows
  /// the snapshot was adapted to. The serving repository uses it as the
  /// SEL-style structural-similarity probe when an incoming domain's
  /// schema fingerprint matches no artifact exactly. Empty when absent
  /// (artifacts written before the profile section existed load fine
  /// and are simply ineligible for the probe); when non-empty it must
  /// have one entry per feature.
  std::vector<double> target_centroid;
  std::string classifier_name;  ///< family of both classifiers
  /// C^U, trained on the transferred source instances (always present in
  /// a valid snapshot).
  std::unique_ptr<Classifier> classifier_u;
  /// C^V, trained on pseudo-labelled target instances; null when TCL
  /// did not train (its ladder ran out, or the GEN & TCL ablation).
  std::unique_ptr<Classifier> classifier_v;
};

/// Writes the snapshot atomically. Requires classifier_u to be set and
/// the per-target vectors to agree with target_rows. A classifier that
/// does not implement SaveState (a custom user subclass) yields
/// FailedPrecondition and leaves any existing file untouched.
Status SaveTransERPipelineState(const TransERPipelineState& state,
                                const std::string& path);

/// Reads and fully validates a snapshot: CRC-checked container, schema
/// fingerprint cross-checked against the stored names, label values in
/// {0, 1}, confidences in [0, 1], vector lengths consistent, and both
/// classifiers (when present) of the declared family. `knn`, when
/// non-null, picks the index a "knn"-family classifier rebuilds (see
/// MakeClassifierByName).
Result<TransERPipelineState> LoadTransERPipelineState(
    const std::string& path, const KnnBackendOptions* knn = nullptr);

}  // namespace transer

#endif  // TRANSER_ML_MODEL_STORE_H_
