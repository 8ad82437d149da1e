// Unit tests for the robustness layer: Result::value() hardening,
// validation & repair policies, tolerant CSV ingestion, and the
// documented degradation paths of TransER and ActiveTransER.

#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/active_transer.h"
#include "core/transer.h"
#include "features/feature_matrix.h"
#include "ml/logistic_regression.h"
#include "testing/fault_injection.h"
#include "util/csv.h"
#include "util/diagnostics.h"
#include "util/status.h"
#include "util/validation.h"

namespace transer {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

FeatureMatrix SmallMatrix() {
  FeatureMatrix m({"a", "b"});
  m.Append({0.9, 0.8}, kMatch);
  m.Append({0.1, 0.2}, kNonMatch);
  m.Append({0.85, 0.9}, kMatch);
  m.Append({0.2, 0.15}, kNonMatch);
  return m;
}

/// Two well-separated clusters, enough instances to train on.
FeatureMatrix ClusteredMatrix(size_t per_class, double match_center,
                              double nonmatch_center) {
  FeatureMatrix m({"a", "b", "c"});
  for (size_t i = 0; i < per_class; ++i) {
    const double jitter = 0.002 * static_cast<double>(i % 10);
    m.Append({match_center + jitter, match_center - jitter,
              match_center + jitter},
             kMatch);
    m.Append({nonmatch_center + jitter, nonmatch_center - jitter,
              nonmatch_center + jitter},
             kNonMatch);
  }
  return m;
}

// ---------- Result<T>::value() hardening ----------

TEST(ResultDeathTest, ValueOnErrorResultAbortsWithMessage) {
  EXPECT_DEATH(
      {
        Result<int> result(Status::Internal("boom went the run"));
        (void)result.value();
      },
      "boom went the run");
}

Status AssignOrReturnHelper(Result<int> input, int* out) {
  TRANSER_ASSIGN_OR_RETURN(*out, std::move(input));
  return Status::OK();
}

TEST(StatusMacroTest, AssignOrReturnPropagatesErrorAndAssignsValue) {
  int out = 0;
  EXPECT_TRUE(AssignOrReturnHelper(41, &out).ok());
  EXPECT_EQ(out, 41);
  const Status failed =
      AssignOrReturnHelper(Status::NotFound("nope"), &out);
  EXPECT_EQ(failed.code(), StatusCode::kNotFound);
  EXPECT_EQ(out, 41);  // untouched on error
}

// ---------- validation & repair policies ----------

TEST(ValidationTest, CleanMatrixPassesStrict) {
  ValidationReport report;
  auto validated = SmallMatrix().Validate({}, &report);
  ASSERT_TRUE(validated.ok());
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(validated.value().size(), 4u);
}

TEST(ValidationTest, StrictRejectsNan) {
  FeatureMatrix m = SmallMatrix();
  m.Append({kNan, 0.5}, kMatch);
  ValidationReport report;
  auto validated = m.Validate({}, &report);
  EXPECT_FALSE(validated.ok());
  EXPECT_EQ(report.nonfinite_values, 1u);
  EXPECT_NE(validated.status().message().find("non-finite"),
            std::string::npos);
}

TEST(ValidationTest, DropRowsRemovesOffendingRowsOnly) {
  FeatureMatrix m = SmallMatrix();
  m.Append({kNan, 0.5}, kMatch);
  m.Append({0.3, kInf}, kNonMatch);
  ValidationOptions options;
  options.policy = RepairPolicy::kDropRows;
  ValidationReport report;
  RunDiagnostics diagnostics;
  auto validated = m.Validate(options, &report, &diagnostics);
  ASSERT_TRUE(validated.ok());
  EXPECT_EQ(validated.value().size(), 4u);
  EXPECT_EQ(report.rows_dropped, 2u);
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kRowsDropped));
}

TEST(ValidationTest, ClampRepairsValuesInPlace) {
  FeatureMatrix m = SmallMatrix();
  m.Append({kNan, kInf}, kMatch);
  ValidationOptions options;
  options.policy = RepairPolicy::kClampValues;
  ValidationReport report;
  RunDiagnostics diagnostics;
  auto validated = m.Validate(options, &report, &diagnostics);
  ASSERT_TRUE(validated.ok());
  EXPECT_EQ(validated.value().size(), 5u);
  EXPECT_DOUBLE_EQ(validated.value().Row(4)[0], 0.0);  // NaN -> 0
  EXPECT_DOUBLE_EQ(validated.value().Row(4)[1], 1.0);  // +Inf -> 1
  EXPECT_EQ(report.values_repaired, 2u);
  EXPECT_TRUE(diagnostics.HasKind(DegradationKind::kValuesRepaired));
}

TEST(ValidationTest, OutOfDomainLabelsDetectedAndRepaired) {
  FeatureMatrix m = fault::InjectOutOfDomainLabels(SmallMatrix(),
                                                   {.rate = 1.0, .seed = 7});
  ValidationReport report;
  EXPECT_FALSE(m.Validate({}, &report).ok());
  EXPECT_GT(report.bad_labels, 0u);

  ValidationOptions clamp;
  clamp.policy = RepairPolicy::kClampValues;
  auto repaired = m.Validate(clamp);
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired.value().CountUnlabeled(), repaired.value().size());
}

TEST(ValidationTest, UnitIntervalCheckIsOptIn) {
  FeatureMatrix m({"a"});
  m.Append({3.5}, kMatch);
  m.Append({0.5}, kNonMatch);
  EXPECT_TRUE(m.Validate({}).ok());  // finite, so clean by default
  ValidationOptions options;
  options.check_unit_interval = true;
  EXPECT_FALSE(m.Validate(options).ok());
  options.policy = RepairPolicy::kClampValues;
  auto clamped = m.Validate(options);
  ASSERT_TRUE(clamped.ok());
  EXPECT_DOUBLE_EQ(clamped.value().Row(0)[0], 1.0);
}

TEST(ValidationTest, ConstantColumnsFlaggedButNotFatal) {
  FeatureMatrix m({"constant", "varying"});
  m.Append({0.7, 0.1}, kMatch);
  m.Append({0.7, 0.9}, kNonMatch);
  m.Append({0.7, 0.4}, kMatch);
  ValidationReport report;
  ASSERT_TRUE(m.Validate({}, &report).ok());
  ASSERT_EQ(report.constant_columns.size(), 1u);
  EXPECT_EQ(report.constant_columns[0], 0u);
}

TEST(ValidationTest, ParseRepairPolicyAcceptsToolAliases) {
  EXPECT_EQ(ParseRepairPolicy("strict").value(), RepairPolicy::kStrict);
  EXPECT_EQ(ParseRepairPolicy("skip").value(), RepairPolicy::kDropRows);
  EXPECT_EQ(ParseRepairPolicy("repair").value(),
            RepairPolicy::kClampValues);
  EXPECT_FALSE(ParseRepairPolicy("yolo").ok());
}

// ---------- tolerant CSV parsing ----------

TEST(TolerantCsvTest, SkipModeDropsBadRowsAndRecordsErrors) {
  const std::string text =
      "a,b\n"
      "1,2\n"
      "bro\"ken,quote\n"  // mid-field quote
      "3,4\n";
  CsvToleranceOptions tolerance;
  tolerance.skip_bad_rows = true;
  std::vector<CsvRowError> errors;
  auto table = Csv::Parse(text, /*has_header=*/true, tolerance, &errors);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ(table.value().rows.size(), 2u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].line, 3u);

  // The same input fails outright in strict mode.
  EXPECT_FALSE(Csv::Parse(text, /*has_header=*/true).ok());
}

TEST(TolerantCsvTest, ExceedingToleranceFailsTheParse) {
  std::string text = "a,b\n";
  for (int i = 0; i < 5; ++i) text += "x\"y,1\n";
  CsvToleranceOptions tolerance;
  tolerance.skip_bad_rows = true;
  tolerance.max_bad_rows = 3;
  std::vector<CsvRowError> errors;
  auto table = Csv::Parse(text, /*has_header=*/true, tolerance, &errors);
  EXPECT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("tolerance"), std::string::npos);
}

TEST(TolerantCsvTest, UnterminatedQuoteAtEofIsSkippable) {
  CsvToleranceOptions tolerance;
  tolerance.skip_bad_rows = true;
  std::vector<CsvRowError> errors;
  auto table =
      Csv::Parse("a,b\n1,2\n\"open", /*has_header=*/true, tolerance,
                 &errors);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table.value().rows.size(), 1u);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].message.find("unterminated"), std::string::npos);
}

// ---------- tolerant FeatureMatrix ingestion ----------

std::string WriteTempCsv(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path, std::ios::binary);
  out << text;
  return path;
}

TEST(TolerantIngestTest, SkipModeKeepsGoodRows) {
  const std::string path = WriteTempCsv("tolerant_skip.csv",
                                        "a,b,label\n"
                                        "0.1,0.2,0\n"
                                        "0.3,oops,1\n"     // non-numeric
                                        "0.4,0.5\n"        // missing field
                                        "nan,0.6,1\n"      // non-finite
                                        "0.7,0.8,5\n"      // bad label
                                        "0.9,0.95,1\n");
  FeatureMatrix::IngestOptions options;
  options.policy = RepairPolicy::kDropRows;
  FeatureMatrix::IngestReport report;
  auto loaded = FeatureMatrix::FromCsvFile(path, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 2u);
  EXPECT_EQ(report.rows_read, 6u);
  EXPECT_EQ(report.rows_kept, 2u);
  EXPECT_EQ(report.rows_skipped, 4u);
  EXPECT_EQ(report.errors.size(), 4u);

  // Strict mode rejects the same file.
  EXPECT_FALSE(FeatureMatrix::FromCsvFile(path).ok());
}

TEST(TolerantIngestTest, RepairModeClampsValuesAndLabels) {
  const std::string path = WriteTempCsv("tolerant_repair.csv",
                                        "a,b,label\n"
                                        "nan,0.2,0\n"
                                        "inf,0.6,1\n"
                                        "0.7,0.8,5\n"
                                        "0.9,0.95,1\n");
  FeatureMatrix::IngestOptions options;
  options.policy = RepairPolicy::kClampValues;
  FeatureMatrix::IngestReport report;
  auto loaded = FeatureMatrix::FromCsvFile(path, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().size(), 4u);
  EXPECT_EQ(report.values_repaired, 3u);
  EXPECT_DOUBLE_EQ(loaded.value().Row(0)[0], 0.0);   // nan -> 0
  EXPECT_DOUBLE_EQ(loaded.value().Row(1)[0], 1.0);   // inf -> 1
  EXPECT_EQ(loaded.value().label(2), kUnlabeled);    // 5 -> unlabeled
}

TEST(TolerantIngestTest, CorruptedCsvRoundTrip) {
  FeatureMatrix m = ClusteredMatrix(30, 0.9, 0.1);
  const std::string path = ::testing::TempDir() + "/corrupt_roundtrip.csv";
  ASSERT_TRUE(m.ToCsvFile(path).ok());
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::string corrupted =
      fault::CorruptCsvText(text, {.rate = 0.2, .seed = 9});
  const std::string corrupted_path =
      WriteTempCsv("corrupt_roundtrip_bad.csv", corrupted);

  // Strict load fails; skip mode recovers the clean majority.
  EXPECT_FALSE(FeatureMatrix::FromCsvFile(corrupted_path).ok());
  FeatureMatrix::IngestOptions options;
  options.policy = RepairPolicy::kDropRows;
  FeatureMatrix::IngestReport report;
  auto loaded = FeatureMatrix::FromCsvFile(corrupted_path, options, &report);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(loaded.value().size(), m.size() / 2);
  EXPECT_LT(loaded.value().size(), m.size());
  EXPECT_GT(report.rows_skipped, 0u);
}

// ---------- fault injection determinism ----------

TEST(FaultInjectionTest, SameSeedSameFaults) {
  const FeatureMatrix m = ClusteredMatrix(50, 0.9, 0.1);
  for (const fault::FaultKind kind : fault::MatrixFaultKinds()) {
    const FeatureMatrix a =
        fault::InjectMatrixFault(m, kind, {.rate = 0.3, .seed = 11});
    const FeatureMatrix b =
        fault::InjectMatrixFault(m, kind, {.rate = 0.3, .seed = 11});
    ASSERT_EQ(a.size(), b.size()) << fault::FaultKindName(kind);
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a.label(i), b.label(i));
      for (size_t c = 0; c < a.num_features(); ++c) {
        const double va = a.Row(i)[c];
        const double vb = b.Row(i)[c];
        EXPECT_TRUE(va == vb || (std::isnan(va) && std::isnan(vb)));
      }
    }
  }
}

TEST(FaultInjectionTest, NanInjectionHitsRequestedFraction) {
  const FeatureMatrix m = ClusteredMatrix(200, 0.9, 0.1);
  const FeatureMatrix faulty =
      fault::InjectNanFeatures(m, {.rate = 0.25, .seed = 3});
  size_t rows_with_nan = 0;
  for (size_t i = 0; i < faulty.size(); ++i) {
    for (double v : faulty.Row(i)) {
      if (std::isnan(v)) {
        ++rows_with_nan;
        break;
      }
    }
  }
  EXPECT_GT(rows_with_nan, faulty.size() / 8);
  EXPECT_LT(rows_with_nan, faulty.size() / 2);
}

// ---------- documented degradation paths ----------

ClassifierFactory MakeLrFactory() {
  return []() -> std::unique_ptr<Classifier> {
    return std::make_unique<LogisticRegression>();
  };
}

/// A classifier stub with a constant, configurable confidence — used to
/// force the GEN phase into its low-confidence regime.
class ConstantProbaClassifier : public Classifier {
 public:
  explicit ConstantProbaClassifier(double proba) : proba_(proba) {}
  void Fit(const Matrix&, const std::vector<int>&,
           const std::vector<double>&) override {}
  double PredictProba(std::span<const double>) const override {
    return proba_;
  }
  std::string name() const override { return "constant_proba"; }

 private:
  double proba_;
};

TEST(DegradationTest, EmptySelSelectionRelaxesThenFallsBack) {
  // Source clusters at 0.1/0.9, target shifted to the middle: every
  // centroid distance is large, so sim_l stays below any relaxed t_l
  // and SEL must fall back to the full source.
  const FeatureMatrix source = ClusteredMatrix(20, 0.95, 0.05);
  const FeatureMatrix target =
      ClusteredMatrix(20, 0.55, 0.45).WithoutLabels();
  TransEROptions options;
  options.t_l = 0.99;
  TransER transer(options);
  TransERReport report;
  auto predicted = transer.RunWithReport(source, target, MakeLrFactory(),
                                         {}, &report);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_TRUE(report.diagnostics.HasKind(
      DegradationKind::kSelThresholdRelaxed));
  EXPECT_TRUE(
      report.diagnostics.HasKind(DegradationKind::kSelFallbackNaive));
  EXPECT_EQ(report.selected_instances, source.size());
}

TEST(DegradationTest, LowConfidenceGenLowersTpThenSkipsTcl) {
  const FeatureMatrix source = ClusteredMatrix(20, 0.9, 0.1);
  const FeatureMatrix target =
      ClusteredMatrix(20, 0.9, 0.1).WithoutLabels();
  TransEROptions options;
  options.use_sel = false;  // isolate the GEN/TCL ladder
  TransER transer(options);
  TransERReport report;
  // Confidence 0.6 everywhere: t_p=0.99 finds nothing; every relaxation
  // step also fails (all pseudo labels are kMatch -> single class), so
  // TCL must be skipped and the pseudo labels returned.
  auto predicted = transer.RunWithReport(
      source, target,
      []() -> std::unique_ptr<Classifier> {
        return std::make_unique<ConstantProbaClassifier>(0.6);
      },
      {}, &report);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_TRUE(
      report.diagnostics.HasKind(DegradationKind::kGenThresholdLowered));
  EXPECT_TRUE(report.diagnostics.HasKind(DegradationKind::kTclSkipped));
  EXPECT_FALSE(report.tcl_trained);
  for (int label : predicted.value()) EXPECT_EQ(label, kMatch);
}

std::vector<DegradationKind> EventKinds(const RunDiagnostics& diagnostics) {
  std::vector<DegradationKind> kinds;
  for (const DegradationEvent& event : diagnostics.events) {
    kinds.push_back(event.kind);
  }
  return kinds;
}

TEST(DegradationTest, ActiveTransERWalksTheSameLadders) {
  // The inputs of the two ladder tests above: at budget 0 the active run
  // must record the same events, in the same order, as plain TransER.
  struct Case {
    FeatureMatrix source;
    FeatureMatrix target;
    TransEROptions options;
    ClassifierFactory factory;
  };
  TransEROptions sel_ladder;
  sel_ladder.t_l = 0.99;
  TransEROptions gen_ladder;
  gen_ladder.use_sel = false;
  const std::vector<Case> cases = {
      {ClusteredMatrix(20, 0.95, 0.05),
       ClusteredMatrix(20, 0.55, 0.45).WithoutLabels(), sel_ladder,
       MakeLrFactory()},
      {ClusteredMatrix(20, 0.9, 0.1),
       ClusteredMatrix(20, 0.9, 0.1).WithoutLabels(), gen_ladder,
       []() -> std::unique_ptr<Classifier> {
         return std::make_unique<ConstantProbaClassifier>(0.6);
       }},
  };
  for (const Case& c : cases) {
    TransERReport report;
    auto plain = TransER(c.options).RunWithReport(c.source, c.target,
                                                  c.factory, {}, &report);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(report.diagnostics.degraded());

    ActiveTransEROptions active_options;
    active_options.transer = c.options;
    active_options.budget = 0;
    RunDiagnostics sink;
    TransferRunOptions run_options;
    run_options.diagnostics = &sink;
    auto active = ActiveTransER(active_options).Run(
        c.source, c.target, c.factory, [](size_t) { return kMatch; },
        run_options);
    ASSERT_TRUE(active.ok()) << active.status().ToString();
    EXPECT_EQ(EventKinds(sink), EventKinds(report.diagnostics));
    EXPECT_EQ(active.value().predicted, plain.value());
  }
}

TEST(DegradationTest, SingleClassSourceIsRejected) {
  const FeatureMatrix source =
      fault::MakeSingleClass(ClusteredMatrix(20, 0.9, 0.1), kMatch);
  const FeatureMatrix target =
      ClusteredMatrix(20, 0.9, 0.1).WithoutLabels();
  TransER transer;
  auto predicted = transer.Run(source, target, MakeLrFactory(), {});
  ASSERT_FALSE(predicted.ok());
  EXPECT_EQ(predicted.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(predicted.status().message().find("single class"),
            std::string::npos);
}

TEST(DegradationTest, DimensionMismatchIsInvalidArgument) {
  const FeatureMatrix source = ClusteredMatrix(10, 0.9, 0.1);
  FeatureMatrix narrow({"x"});
  narrow.Append({0.5}, kUnlabeled);
  TransER transer;
  auto predicted = transer.Run(source, narrow, MakeLrFactory(), {});
  ASSERT_FALSE(predicted.ok());
  EXPECT_EQ(predicted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(predicted.status().message().find("differ"), std::string::npos);
}

TEST(DegradationTest, NanInputIsRejectedNotPropagated) {
  const FeatureMatrix source = ClusteredMatrix(20, 0.9, 0.1);
  const FeatureMatrix target =
      fault::InjectNanFeatures(ClusteredMatrix(20, 0.9, 0.1),
                               {.rate = 0.5, .seed = 5})
          .WithoutLabels();
  TransER transer;
  auto predicted = transer.Run(source, target, MakeLrFactory(), {});
  ASSERT_FALSE(predicted.ok());
  EXPECT_NE(predicted.status().message().find("non-finite"),
            std::string::npos);
}

TEST(DegradationTest, CleanRunEmitsNoEvents) {
  const FeatureMatrix source = ClusteredMatrix(30, 0.9, 0.1);
  const FeatureMatrix target =
      ClusteredMatrix(30, 0.9, 0.1).WithoutLabels();
  TransER transer;
  TransERReport report;
  auto predicted = transer.RunWithReport(source, target, MakeLrFactory(),
                                         {}, &report);
  ASSERT_TRUE(predicted.ok()) << predicted.status().ToString();
  EXPECT_FALSE(report.diagnostics.degraded())
      << report.diagnostics.Summary();
  EXPECT_EQ(report.diagnostics.Summary(), "no degradation");
}

TEST(DegradationTest, DiagnosticsSinkReceivesEvents) {
  const FeatureMatrix source = ClusteredMatrix(20, 0.95, 0.05);
  const FeatureMatrix target =
      ClusteredMatrix(20, 0.55, 0.45).WithoutLabels();
  TransEROptions options;
  options.t_l = 0.99;
  TransER transer(options);
  RunDiagnostics sink;
  TransferRunOptions run_options;
  run_options.diagnostics = &sink;
  auto predicted = transer.Run(source, target, MakeLrFactory(),
                               run_options);
  ASSERT_TRUE(predicted.ok());
  EXPECT_TRUE(sink.degraded());
}

}  // namespace
}  // namespace transer
