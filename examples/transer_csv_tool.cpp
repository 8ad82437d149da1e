// Command-line TransER: classify an unlabelled target feature matrix
// (CSV) using a labelled source feature matrix (CSV) and write the
// predicted labels back out.
//
// Usage:
//   transer_csv_tool --source=source.csv --target=target.csv
//       [--out=labels.csv] [--classifier=rf|lr|svm|dt|nb|knn]
//       [--tc=0.9] [--tl=0.9] [--tp=0.99] [--k=7] [--b=3]
//       [--on-error=strict|skip|repair]
//       [--time-limit-s=<seconds>] [--memory-limit-mb=<MB>]
//       [--threads=<N>]
//       [--knn-backend=kdtree|brute|ann] [--recall=0.95] [--ef-search=N]
//       [--save-model=model.tera] [--load-model=model.tera]
//       [--help] [--version]
//
// --knn-backend picks the index behind SEL's neighbourhood scans:
// kdtree (default) and brute are exact; ann is the navigable-graph
// approximate index, answering within --recall of the true top-k in
// sub-linear time (--recall=1.0 falls back to exact with a diagnostics
// event; --ef-search overrides the derived beam width).
//
// --threads sets the worker-lane count for the parallel hot paths
// (SEL's neighbourhood scans and kNN index, random-forest fitting); 0 or
// absent means the hardware width. Predictions are bit-identical for
// every value.
//
// --save-model writes the trained pipeline (checksummed, atomically) once
// a training run succeeds, replacing whatever the file held; a run never
// reads it. --load-model only serves: it predicts with a saved
// pipeline's final classifier and never trains, so it takes neither
// --source nor --save-model (exit 2 before any I/O).
//
// Exit codes:
//   0  success
//   1  load or run failure (bad CSV file, internal error)
//   2  invalid flags / hyper-parameters (unknown flags and positional
//      arguments included)
//   3  resource budget exhausted (--time-limit-s or --memory-limit-mb)
//   4  unrecoverable model-artifact error (serving from a missing or
//      corrupt snapshot, or --save-model could not write)
//
// CSV format: one column per feature plus a final "label" column
// (1 = match, 0 = non-match, -1 = unlabelled), as written by
// FeatureMatrix::ToCsvFile. Target labels are ignored for prediction;
// when present they are used to print evaluation measures.
//
// --on-error controls what happens to malformed or dirty input rows:
//   strict  (default) any bad row fails the load;
//   skip    bad rows are dropped and reported;
//   repair  unparseable rows are dropped, non-finite values and
//           out-of-domain labels are repaired in place.
// Any degradation (skipped rows, repaired values, relaxed thresholds,
// skipped phases) is summarised on stdout after the run.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/transer.h"
#include "eval/metrics.h"
#include "knn/knn_backend.h"
#include "features/feature_matrix.h"
#include "ml/decision_tree.h"
#include "ml/knn_classifier.h"
#include "ml/linear_svm.h"
#include "ml/logistic_regression.h"
#include "ml/model_store.h"
#include "ml/naive_bayes.h"
#include "ml/random_forest.h"
#include "util/flags.h"
#include "util/validation.h"

namespace transer {
namespace {

// Exits with code 2 when a hyper-parameter is outside its valid range;
// proceeding with an out-of-range threshold would silently produce
// garbage (e.g. t_c > 1 selects nothing, b <= 0 aborts deep in the run).
void RequireUnitInterval(const std::string& name, double value) {
  if (!(value >= 0.0 && value <= 1.0)) {
    std::fprintf(stderr, "--%s=%g is out of range: must be in [0, 1]\n",
                 name.c_str(), value);
    std::exit(2);
  }
}

ClassifierFactory MakeFactory(const std::string& name) {
  if (name == "rf") {
    return []() -> std::unique_ptr<Classifier> {
      return std::make_unique<RandomForest>();
    };
  }
  if (name == "lr") {
    return []() -> std::unique_ptr<Classifier> {
      return std::make_unique<LogisticRegression>();
    };
  }
  if (name == "svm") {
    return []() -> std::unique_ptr<Classifier> {
      return std::make_unique<LinearSvm>();
    };
  }
  if (name == "dt") {
    return []() -> std::unique_ptr<Classifier> {
      return std::make_unique<DecisionTree>();
    };
  }
  if (name == "nb") {
    return []() -> std::unique_ptr<Classifier> {
      return std::make_unique<GaussianNaiveBayes>();
    };
  }
  if (name == "knn") {
    return []() -> std::unique_ptr<Classifier> {
      return std::make_unique<KnnClassifier>();
    };
  }
  std::fprintf(stderr, "unknown classifier '%s' (rf|lr|svm|dt|nb|knn)\n",
               name.c_str());
  std::exit(2);
}

Result<FeatureMatrix> LoadMatrix(const std::string& path,
                                 const char* which,
                                 const FeatureMatrix::IngestOptions& ingest,
                                 RunDiagnostics* diagnostics) {
  FeatureMatrix::IngestReport report;
  auto matrix = FeatureMatrix::FromCsvFile(path, ingest, &report, diagnostics);
  if (!matrix.ok()) return matrix;
  if (report.rows_skipped > 0 || report.values_repaired > 0) {
    std::printf("%s ingest: %s\n", which, report.Summary().c_str());
    for (const CsvRowError& error : report.errors) {
      std::printf("  row %zu: %s\n", error.line, error.message.c_str());
    }
  }
  return matrix;
}

void PrintUsage(std::FILE* out, const char* prog) {
  std::fprintf(
      out,
      "usage: %s --source=source.csv --target=target.csv\n"
      "    [--out=labels.csv] [--classifier=rf|lr|svm|dt|nb|knn]\n"
      "    [--tc=0.9] [--tl=0.9] [--tp=0.99] [--k=7] [--b=3]\n"
      "    [--on-error=strict|skip|repair]\n"
      "    [--time-limit-s=<seconds>] [--memory-limit-mb=<MB>]\n"
      "    [--threads=<N>]\n"
      "    [--knn-backend=kdtree|brute|ann] [--recall=0.95]\n"
      "    [--ef-search=N]\n"
      "    [--save-model=model.tera] [--load-model=model.tera]\n"
      "    [--help] [--version]\n"
      "\n"
      "--knn-backend picks the SEL neighbourhood index: kdtree (the\n"
      "default) and brute are exact, ann is the approximate graph index\n"
      "answering within --recall of the true top-k in sub-linear time.\n"
      "--recall=1.0 falls back to an exact index; --ef-search overrides\n"
      "the beam width derived from --recall.\n"
      "\n"
      "--threads sets the worker-lane count for the parallel hot paths;\n"
      "0 (the default) uses the hardware width. Predictions are\n"
      "bit-identical for every value.\n"
      "\n"
      "--time-limit-s and --memory-limit-mb bound the run: the pipeline\n"
      "checks them cooperatively and stops with a budget error instead of\n"
      "running away. 0 (the default) means unlimited. Seconds must be\n"
      "finite and >= 0; megabytes an integer >= 0. Anything else exits 2.\n"
      "\n"
      "--save-model writes the trained pipeline once the run succeeds,\n"
      "replacing the file; a run never reads it. --load-model only\n"
      "serves predictions from a saved pipeline: it takes neither\n"
      "--source nor --save-model.\n"
      "\n"
      "exit codes:\n"
      "  0  success\n"
      "  1  load or run failure (bad CSV file, internal error)\n"
      "  2  invalid flags / hyper-parameters (unknown flags included)\n"
      "  3  resource budget exhausted (time or memory limit hit)\n"
      "  4  unrecoverable model-artifact error\n",
      prog);
}

/// Prints the prediction summary, the optional quality-vs-labels line,
/// and writes --out when given. Shared by the training and serving
/// paths.
int EmitPredictions(const std::string& out_path, const FeatureMatrix& target,
                    const std::vector<int>& predicted) {
  size_t predicted_matches = 0;
  for (int label : predicted) predicted_matches += label == 1;
  std::printf("predicted %zu matches / %zu pairs\n", predicted_matches,
              predicted.size());

  // If the target CSV carried labels, report quality against them.
  if (target.CountUnlabeled() < target.size()) {
    std::printf("quality vs target labels: %s\n",
                EvaluateLinkage(target.labels(), predicted)
                    .ToString()
                    .c_str());
  }

  if (!out_path.empty()) {
    const FeatureMatrix labelled = target.WithLabels(predicted);
    const Status status = labelled.ToCsvFile(out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", out_path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int Main(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {"source", "target", "out", "classifier", "tc", "tl", "tp", "k", "b",
       "on-error", "time-limit-s", "memory-limit-mb", "threads",
       "knn-backend", "recall", "ef-search", "save-model", "load-model",
       "help", "version"});
  if (flags.GetBool("help", false)) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  const std::string source_path = flags.GetString("source", "");
  const std::string target_path = flags.GetString("target", "");
  const std::string save_model = flags.GetString("save-model", "");
  const std::string load_model = flags.GetString("load-model", "");
  const std::string out_path = flags.GetString("out", "");
  // Serving mode: a saved pipeline replaces the source domain entirely.
  const bool serving = !load_model.empty();
  if (serving && (!source_path.empty() || !save_model.empty())) {
    std::fprintf(stderr,
                 "--load-model only serves a saved pipeline: it takes "
                 "neither --source nor --save-model\n");
    return 2;
  }
  if (target_path.empty() || (source_path.empty() && !serving)) {
    PrintUsage(stderr, argv[0]);
    return 2;
  }

  // Resolve and validate everything that can exit(2) before any I/O.
  TransEROptions options;
  options.t_c = flags.GetDouble("tc", options.t_c);
  options.t_l = flags.GetDouble("tl", options.t_l);
  options.t_p = flags.GetDouble("tp", options.t_p);
  RequireUnitInterval("tc", options.t_c);
  RequireUnitInterval("tl", options.t_l);
  RequireUnitInterval("tp", options.t_p);
  const double k_raw = flags.GetDouble("k", static_cast<double>(options.k));
  if (!(k_raw >= 1.0) || k_raw != std::floor(k_raw)) {
    std::fprintf(stderr, "--k=%g is invalid: must be an integer >= 1\n",
                 k_raw);
    return 2;
  }
  options.k = static_cast<size_t>(k_raw);
  options.b = flags.GetDouble("b", options.b);
  if (!(options.b > 0.0)) {
    std::fprintf(stderr, "--b=%g is invalid: must be > 0\n", options.b);
    return 2;
  }
  const ClassifierFactory factory =
      MakeFactory(flags.GetString("classifier", "rf"));

  const ExecutionLimits limits{
      flags.GetTimeLimitSeconds("time-limit-s", 0.0),
      flags.GetMemoryLimitBytes("memory-limit-mb", 0)};
  TransferRunOptions run_options;
  // run_options.num_threads stays 0: the process default set here.
  ConfigureThreads(flags);

  const std::string backend_raw = flags.GetString("knn-backend", "kdtree");
  if (!ParseKnnBackendKind(backend_raw, &run_options.knn_backend)) {
    std::fprintf(stderr,
                 "--knn-backend=%s is invalid (kdtree|brute|ann)\n",
                 backend_raw.c_str());
    return 2;
  }
  run_options.knn_recall_target =
      flags.GetDouble("recall", run_options.knn_recall_target);
  if (!(run_options.knn_recall_target > 0.0 &&
        run_options.knn_recall_target <= 1.0)) {
    std::fprintf(stderr, "--recall=%g is out of range: must be in (0, 1]\n",
                 run_options.knn_recall_target);
    return 2;
  }
  const double ef_raw = flags.GetDouble("ef-search", 0.0);
  if (ef_raw < 0.0 || ef_raw != std::floor(ef_raw)) {
    std::fprintf(stderr,
                 "--ef-search=%g is invalid: must be an integer >= 0\n",
                 ef_raw);
    return 2;
  }
  run_options.knn_ef_search = static_cast<size_t>(ef_raw);

  FeatureMatrix::IngestOptions ingest;
  const std::string on_error = flags.GetString("on-error", "strict");
  auto policy = ParseRepairPolicy(on_error);
  if (!policy.ok()) {
    std::fprintf(stderr, "--on-error=%s is invalid (strict|skip|repair)\n",
                 on_error.c_str());
    return 2;
  }
  ingest.policy = policy.value();

  // Tolerant-ingestion events (rows dropped, values repaired) accumulate
  // here and are merged into the run's diagnostics below so the final
  // summary covers the whole pipeline, file loading included.
  RunDiagnostics ingest_diag;
  auto target = LoadMatrix(target_path, "target", ingest, &ingest_diag);
  if (!target.ok()) {
    std::fprintf(stderr, "cannot load target: %s\n",
                 target.status().ToString().c_str());
    return 1;
  }

  if (serving) {
    // No source domain: the snapshot must carry everything. Any load
    // failure here is unrecoverable — there is nothing to retrain from.
    auto snapshot = LoadTransERPipelineState(load_model);
    if (!snapshot.ok()) {
      std::fprintf(stderr, "cannot load model %s: %s\n", load_model.c_str(),
                   snapshot.status().ToString().c_str());
      return 4;
    }
    TransERPipelineState state = std::move(snapshot).value();
    if (state.feature_names != target.value().feature_names()) {
      std::fprintf(stderr,
                   "model %s was trained on a different feature schema "
                   "than the target data\n",
                   load_model.c_str());
      return 4;
    }
    const bool has_v = state.classifier_v != nullptr;
    const Classifier* model =
        has_v ? state.classifier_v.get() : state.classifier_u.get();
    std::printf("serving %s (%s) from %s; target: %zu\n",
                has_v ? "C^V" : "C^U", state.classifier_name.c_str(),
                load_model.c_str(), target.value().size());
    return EmitPredictions(out_path, target.value(),
                           model->PredictAll(target.value().ToMatrix()));
  }

  auto source = LoadMatrix(source_path, "source", ingest, &ingest_diag);
  if (!source.ok()) {
    std::fprintf(stderr, "cannot load source: %s\n",
                 source.status().ToString().c_str());
    return 1;
  }

  run_options.model_snapshot_path = save_model;

  // The budget's clock starts here, after loading.
  const ExecutionContext context(limits);
  run_options.context = &context;
  TransER transer(options);
  TransERReport report;
  auto predicted = transer.RunWithReport(
      source.value(), target.value().WithoutLabels(), factory,
      run_options, &report);
  if (!predicted.ok()) {
    std::fprintf(stderr, "TransER failed: %s\n",
                 predicted.status().ToString().c_str());
    const std::string& message = predicted.status().message();
    const bool budget = message.find("(TE)") != std::string::npos ||
                        message.find("(ME)") != std::string::npos;
    return budget ? 3 : 1;
  }

  std::printf("source: %zu instances (%zu matches), target: %zu\n",
              source.value().size(), source.value().CountMatches(),
              target.value().size());
  std::printf("SEL kept %zu; TCL trained on %zu balanced instances\n",
              report.selected_instances, report.balanced_instances);
  report.diagnostics.Merge(ingest_diag);
  std::printf("diagnostics: %s\n", report.diagnostics.Summary().c_str());

  const int emitted =
      EmitPredictions(out_path, target.value(), predicted.value());
  if (emitted != 0) return emitted;

  // An explicitly requested snapshot that could not be written is an
  // artifact error the caller must see (the predictions above are still
  // valid — there is just nothing to serve from).
  if (!save_model.empty() &&
      report.diagnostics.HasKind(DegradationKind::kModelSaveFailed)) {
    std::fprintf(stderr, "model snapshot could not be written to %s\n",
                 save_model.c_str());
    return 4;
  }
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
