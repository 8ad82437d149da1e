// Reproduces Figure 5: the family of exponential decay functions
// e^{-x} ... e^{-10x} over the normalised distance interval [0, 1], and
// why e^{-5x} maps distances onto a usable [0, 1] similarity scale
// (Section 4.1, Equation 2).

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "core/transer.h"
#include "eval/table_printer.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace transer {
namespace {

int Main(int argc, char** argv) {
  const Flags flags(argc, argv, {"threads"});
  const int threads = ConfigureThreads(flags);
  bench::BenchReport bench_report("figure5", threads);
  Stopwatch run_watch;
  std::printf(
      "Figure 5: behaviour of exponential decay functions e^{-c x}.\n"
      "c = 5 (the paper's choice) spreads normalised centroid distances\n"
      "over the full (0, 1] range without saturating too early.\n\n");

  TablePrinter table({"x", "e^-x", "e^-2x", "e^-5x (Eq.2)", "e^-10x"});
  for (double x = 0.0; x <= 1.0001; x += 0.1) {
    table.AddRow({
        StrFormat("%.1f", x),
        StrFormat("%.3f", std::exp(-x)),
        StrFormat("%.3f", std::exp(-2.0 * x)),
        StrFormat("%.3f", std::exp(-5.0 * x)),
        StrFormat("%.3f", std::exp(-10.0 * x)),
    });
  }
  table.Print();

  // Cross-check against the library's implementation of Equation (2):
  // the similarity at the maximum possible distance sqrt(m) equals e^-5.
  std::printf("\nEquation (2) check: sim_l at max distance (m=4): %.4f"
              " (= e^-5 = %.4f)\n",
              TransER::StructuralSimilarityFromDistance(2.0, 4),
              std::exp(-5.0));
  bench_report.AddStage("run", run_watch.ElapsedSeconds());
  bench_report.Write();
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
