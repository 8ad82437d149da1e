// Reproduces Figure 2: the skewed, bi-modal distributions of average
// record-pair similarity, shown as ASCII histograms for the Musicbrainz-
// and DBLP-ACM-like domains.
//
// Flags: --scale (default 0.05), --bins (default 20), --seed.

#include <cstdio>
#include <string>

#include "bench/bench_util.h"
#include "data/dataset_statistics.h"
#include "data/scenario.h"

namespace transer {
namespace {

void PrintHistogram(const std::string& title, const FeatureMatrix& x,
                    size_t bins) {
  const SimilarityHistogram hist = ComputeSimilarityHistogram(x, bins);
  size_t peak = 0;
  for (size_t count : hist.counts) peak = std::max(peak, count);
  std::printf("%s (n=%zu, bimodal=%s)\n", title.c_str(), x.size(),
              hist.IsBimodal() ? "yes" : "no");
  for (size_t b = 0; b < bins; ++b) {
    const double lo = static_cast<double>(b) / static_cast<double>(bins);
    const int width =
        peak == 0 ? 0
                  : static_cast<int>(60.0 * static_cast<double>(hist.counts[b]) /
                                     static_cast<double>(peak));
    std::printf("%.2f |%-60s| %zu\n", lo, std::string(width, '#').c_str(),
                hist.counts[b]);
  }
  std::printf("\n");
}

int Main(int argc, char** argv) {
  const Flags flags(argc, argv, {"scale", "seed", "bins", "threads"});
  const int threads = ConfigureThreads(flags);
  bench::BenchReport bench_report("figure2", threads);
  Stopwatch run_watch;
  ScenarioScale scale;
  scale.scale = flags.GetDouble("scale", 0.05);
  scale.seed = static_cast<uint64_t>(flags.GetInt("seed", 33));
  const size_t bins = static_cast<size_t>(flags.GetInt("bins", 20));

  std::printf(
      "Figure 2: average-similarity histograms (skewed + bi-modal).\n"
      "The tall low-similarity peak is the non-match mass; the smaller\n"
      "high-similarity peak the matches.\n\n");

  const TransferScenario music = BuildScenario(ScenarioId::kMsdToMb, scale);
  PrintHistogram("Musicbrainz (MB)", music.target, bins);
  const TransferScenario bib =
      BuildScenario(ScenarioId::kDblpAcmToDblpScholar, scale);
  PrintHistogram("DBLP-ACM", bib.source, bins);
  bench_report.AddStage("run", run_watch.ElapsedSeconds());
  bench_report.Write();
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Main(argc, argv); }
