#include "ml/model_store.h"

#include <cmath>
#include <utility>

#include "ml/decision_tree.h"
#include "ml/knn_classifier.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "ml/threshold_classifier.h"
#include "util/artifact_io.h"
#include "util/string_util.h"

namespace transer {

namespace {

constexpr char kMetaSection[] = "meta";
constexpr char kModelUSection[] = "model_u";
constexpr char kModelVSection[] = "model_v";
constexpr char kSelSection[] = "sel";
constexpr char kGenSection[] = "gen";
/// Optional domain profile (target centroid); absent in pre-serving
/// snapshots, which keeps the container format at version 1.
constexpr char kProfileSection[] = "profile";

/// The named section, or InvalidArgument naming what is missing (the CRC
/// passed, so a missing section means a different writer, not a torn
/// file).
Result<const artifact::Section*> RequireSection(
    const artifact::Artifact& art, const std::string& name) {
  const artifact::Section* section = art.Find(name);
  if (section == nullptr) {
    return Status::InvalidArgument(
        StrFormat("artifact is missing its '%s' section", name.c_str()));
  }
  return section;
}

/// Decodes a classifier payload into a freshly constructed instance of
/// the declared family.
Result<std::unique_ptr<Classifier>> DecodeClassifier(
    const std::string& name, const artifact::Section& section,
    const KnnBackendOptions* knn = nullptr) {
  TRANSER_ASSIGN_OR_RETURN(std::unique_ptr<Classifier> classifier,
                           MakeClassifierByName(name, knn));
  artifact::Decoder decoder(section.payload);
  TRANSER_RETURN_IF_ERROR(classifier->LoadState(&decoder));
  TRANSER_RETURN_IF_ERROR(decoder.ExpectEnd());
  return classifier;
}

}  // namespace

Result<std::unique_ptr<Classifier>> MakeClassifierByName(
    const std::string& name, const KnnBackendOptions* knn) {
  std::unique_ptr<Classifier> made;
  if (name == "decision_tree") {
    made = std::make_unique<DecisionTree>();
  } else if (name == "random_forest") {
    made = std::make_unique<RandomForest>();
  } else if (name == "logistic_regression") {
    made = std::make_unique<LogisticRegression>();
  } else if (name == "linear_svm") {
    made = std::make_unique<LinearSvm>();
  } else if (name == "naive_bayes") {
    made = std::make_unique<GaussianNaiveBayes>();
  } else if (name == "knn") {
    KnnClassifierOptions knn_options;
    if (knn != nullptr) knn_options.backend = *knn;
    made = std::make_unique<KnnClassifier>(knn_options);
  } else if (name == "threshold") {
    made = std::make_unique<ThresholdClassifier>();
  } else {
    return Status::FailedPrecondition(StrFormat(
        "unknown classifier family '%s' (artifact from a newer build?)",
        name.c_str()));
  }
  return made;
}

Status SaveTransERPipelineState(const TransERPipelineState& state,
                                const std::string& path) {
  if (state.classifier_u == nullptr) {
    return Status::InvalidArgument(
        "pipeline snapshot requires a trained C^U classifier");
  }
  if (state.pseudo_labels.size() != state.target_rows ||
      state.pseudo_confidences.size() != state.target_rows) {
    return Status::InvalidArgument(
        "pipeline snapshot pseudo-label vectors disagree with target_rows");
  }
  if (!state.target_centroid.empty() &&
      state.target_centroid.size() != state.feature_names.size()) {
    return Status::InvalidArgument(
        "pipeline snapshot centroid length disagrees with the schema");
  }

  artifact::Encoder meta;
  meta.PutStringVec(state.feature_names);
  meta.PutU64(state.seed);
  meta.PutU64(state.source_rows);
  meta.PutU64(state.target_rows);
  meta.PutString(state.classifier_name);
  meta.PutU8(state.classifier_v != nullptr ? 1 : 0);

  artifact::Encoder sel;
  sel.PutU64Vec(state.selected_indices);

  artifact::Encoder gen;
  gen.PutIntVec(state.pseudo_labels);
  gen.PutDoubleVec(state.pseudo_confidences);

  artifact::Encoder model_u;
  TRANSER_RETURN_IF_ERROR(state.classifier_u->SaveState(&model_u));

  std::vector<artifact::Section> sections;
  sections.push_back({kMetaSection, meta.TakeBytes()});
  sections.push_back({kSelSection, sel.TakeBytes()});
  sections.push_back({kGenSection, gen.TakeBytes()});
  sections.push_back({kModelUSection, model_u.TakeBytes()});
  if (state.classifier_v != nullptr) {
    artifact::Encoder model_v;
    TRANSER_RETURN_IF_ERROR(state.classifier_v->SaveState(&model_v));
    sections.push_back({kModelVSection, model_v.TakeBytes()});
  }
  if (!state.target_centroid.empty()) {
    artifact::Encoder profile;
    profile.PutDoubleVec(state.target_centroid);
    sections.push_back({kProfileSection, profile.TakeBytes()});
  }

  artifact::Header header;
  header.kind = kPipelineArtifactKind;
  header.schema_fingerprint =
      artifact::FingerprintFeatureSchema(state.feature_names);
  return artifact::WriteArtifact(path, header, sections);
}

Result<TransERPipelineState> LoadTransERPipelineState(
    const std::string& path, const KnnBackendOptions* knn) {
  TRANSER_ASSIGN_OR_RETURN(artifact::Artifact art,
                           artifact::ReadArtifact(path));
  if (art.header.kind != kPipelineArtifactKind) {
    return Status::FailedPrecondition(
        StrFormat("artifact holds a '%s', expected a '%s'",
                  art.header.kind.c_str(), kPipelineArtifactKind));
  }

  TransERPipelineState state;
  TRANSER_ASSIGN_OR_RETURN(const artifact::Section* meta,
                           RequireSection(art, kMetaSection));
  artifact::Decoder meta_decoder(meta->payload);
  uint8_t has_v = 0;
  TRANSER_RETURN_IF_ERROR(meta_decoder.GetStringVec(&state.feature_names));
  TRANSER_RETURN_IF_ERROR(meta_decoder.GetU64(&state.seed));
  TRANSER_RETURN_IF_ERROR(meta_decoder.GetU64(&state.source_rows));
  TRANSER_RETURN_IF_ERROR(meta_decoder.GetU64(&state.target_rows));
  TRANSER_RETURN_IF_ERROR(meta_decoder.GetString(&state.classifier_name));
  TRANSER_RETURN_IF_ERROR(meta_decoder.GetU8(&has_v));
  TRANSER_RETURN_IF_ERROR(meta_decoder.ExpectEnd());
  if (has_v > 1) {
    return Status::InvalidArgument("pipeline snapshot C^V flag is malformed");
  }
  if (artifact::FingerprintFeatureSchema(state.feature_names) !=
      art.header.schema_fingerprint) {
    return Status::InvalidArgument(
        "pipeline snapshot feature names disagree with its fingerprint");
  }

  TRANSER_ASSIGN_OR_RETURN(const artifact::Section* sel,
                           RequireSection(art, kSelSection));
  artifact::Decoder sel_decoder(sel->payload);
  TRANSER_RETURN_IF_ERROR(sel_decoder.GetU64Vec(&state.selected_indices));
  TRANSER_RETURN_IF_ERROR(sel_decoder.ExpectEnd());
  for (uint64_t index : state.selected_indices) {
    if (index >= state.source_rows) {
      return Status::InvalidArgument(
          "pipeline snapshot selected index exceeds the source size");
    }
  }

  TRANSER_ASSIGN_OR_RETURN(const artifact::Section* gen,
                           RequireSection(art, kGenSection));
  artifact::Decoder gen_decoder(gen->payload);
  TRANSER_RETURN_IF_ERROR(gen_decoder.GetIntVec(&state.pseudo_labels));
  TRANSER_RETURN_IF_ERROR(gen_decoder.GetDoubleVec(&state.pseudo_confidences));
  TRANSER_RETURN_IF_ERROR(gen_decoder.ExpectEnd());
  if (state.pseudo_labels.size() != state.target_rows ||
      state.pseudo_confidences.size() != state.target_rows) {
    return Status::InvalidArgument(
        "pipeline snapshot pseudo-label vectors disagree with target_rows");
  }
  for (int label : state.pseudo_labels) {
    if (label != 0 && label != 1) {
      return Status::InvalidArgument(
          "pipeline snapshot pseudo-label is not 0/1");
    }
  }
  for (double confidence : state.pseudo_confidences) {
    if (!(confidence >= 0.0 && confidence <= 1.0)) {
      return Status::InvalidArgument(
          "pipeline snapshot confidence is outside [0, 1]");
    }
  }

  // The profile is optional: pre-serving snapshots simply lack it.
  if (const artifact::Section* profile = art.Find(kProfileSection)) {
    artifact::Decoder profile_decoder(profile->payload);
    TRANSER_RETURN_IF_ERROR(
        profile_decoder.GetDoubleVec(&state.target_centroid));
    TRANSER_RETURN_IF_ERROR(profile_decoder.ExpectEnd());
    if (state.target_centroid.size() != state.feature_names.size()) {
      return Status::InvalidArgument(
          "pipeline snapshot centroid length disagrees with the schema");
    }
    for (double value : state.target_centroid) {
      if (!std::isfinite(value)) {
        return Status::InvalidArgument(
            "pipeline snapshot centroid holds a non-finite value");
      }
    }
  }

  TRANSER_ASSIGN_OR_RETURN(const artifact::Section* model_u,
                           RequireSection(art, kModelUSection));
  TRANSER_ASSIGN_OR_RETURN(
      state.classifier_u,
      DecodeClassifier(state.classifier_name, *model_u, knn));
  if (has_v == 1) {
    TRANSER_ASSIGN_OR_RETURN(const artifact::Section* model_v,
                             RequireSection(art, kModelVSection));
    TRANSER_ASSIGN_OR_RETURN(
        state.classifier_v,
        DecodeClassifier(state.classifier_name, *model_v, knn));
  }
  return state;
}

}  // namespace transer
