// Crash-safe streaming ingest driver: feeds a deterministic synthetic
// record stream through the journaled StreamIngestor and prints the
// final state digest. Because the stream is a pure function of
// (--seed, --count), two runs over the same directory — no matter how
// many times they were SIGKILLed and restarted in between — must end on
// the same digest as one uninterrupted run. The crash-replay matrix
// (tests/stream_crash_test.cc and the stream-crash-replay CI job) is
// built on exactly that.
//
// Usage:
//   transer_ingest_tool --dir=<state dir> [--count=64] [--seed=7]
//       [--snapshot-every=16] [--refresh-every=32] [--rebuild-every=24]
//       [--threads=1] [--publish-dir=<serve repo dir>]
//       [--poison-every=0] [--writers=1]
//       [--segment-mb=8] [--max-journal-mb=0]
//       [--segment-bytes=N] [--max-journal-bytes=N]
//       [--knn-backend=kdtree|ann] [--recall=0.95]
//       [--crash-after=<seq>
//        --crash-point=append|apply|rotate|snapshot|retain]
//       [--threshold=0.75] [--help] [--version]
//
// The tool resumes: on start it recovers the directory's journal +
// snapshot and continues ingesting at the first sequence the state has
// not applied. --crash-after raises SIGKILL (no cleanup, no flush — a
// real crash) once that sequence reaches the chosen point. The rotate
// point fires on the first rotation at or past the sequence; snapshot
// and retain fire on the first snapshot covering it.
//
// --knn-backend picks the resolver's dynamic index: kdtree (default,
// exact, periodic rebuilds) or ann (the grow-only navigable graph —
// no rebuilds, approximate within --recall, still deterministic under
// replay). The telemetry line reports the graph's size/edges/levels/
// beam when the graph backend is active.
//
// --writers=N feeds the stream through N producer threads and the
// single sequencing appender (RunMultiWriterIngest); the digest is
// bit-identical to --writers=1 by construction. --segment-mb /
// --max-journal-mb size the journal segments and the retention disk
// budget (0 = unbounded); the *-bytes variants override them for tests
// that need sub-MB granularity.
//
// Output (stdout): a telemetry JSON line
//   {"schema":"transer.stream_ingest", "segments":..., "live_bytes":...,
//    "retention_stalls":..., ...}
// followed by the final line "applied=<n> digest=<16-hex> matches=<m>
// quarantined=<q>" — the LAST line, which the crash matrix parses.
//
// Count and size flags take whole numbers >= 0 (--writers >= 1); a
// negative or fractional value is a bad flag, never a huge unsigned
// one.
//
// Exit codes: 0 success, 1 runtime failure, 2 bad flags (unknown flags
// and positional arguments included). A --crash-after run does not exit
// at all — it dies by SIGKILL.

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "data/record.h"
#include "stream/stream_ingestor.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace transer {
namespace {

/// The demo stream schema: bibliographic-style records.
Schema MakeStreamSchema() {
  return Schema{{"title", "jaro_winkler"},
                {"authors", "word_jaccard"},
                {"venue", "levenshtein"},
                {"year", "year"}};
}

/// Deterministic synthetic stream: record i describes entity i/2, and
/// odd records carry small perturbations, so roughly every second record
/// has a true partner already in the stream — a steady supply of both
/// matches and non-matches. Every value is a pure function of (seed, i).
Record MakeStreamRecord(uint64_t seed, uint64_t i,
                        size_t poison_every) {
  Record record;
  record.id = StrFormat("r%llu", static_cast<unsigned long long>(i));
  if (poison_every > 0 && (i + 1) % poison_every == 0) {
    // Wrong arity: the quarantine path must isolate it and keep going.
    record.entity_id = -1;
    record.values = {"poison"};
    return record;
  }
  const uint64_t entity = i / 2;
  const uint64_t variant = (seed + i) % 3;
  record.entity_id = static_cast<int64_t>(entity);
  // Titles lead with a single-digit group token so the blocking prefix
  // puts ~8 distinct entities in each block: every block yields both
  // true pairs (the dirty duplicates below) and false pairs (other
  // entities of the group) — the class mix the refresh path needs.
  static const char* kVenues[] = {"journal of streams",
                                  "data engineering letters",
                                  "entity resolution review",
                                  "records quarterly", "linkage annals"};
  const std::string title = StrFormat(
      "group%llu topic %llu on streaming record linkage",
      static_cast<unsigned long long>(entity % 8),
      static_cast<unsigned long long>(entity));
  const std::string authors =
      StrFormat("author%llu and author%llu",
                static_cast<unsigned long long>(entity % 23),
                static_cast<unsigned long long>((entity + seed) % 17));
  const std::string venue = kVenues[entity % 5];
  const std::string year = StrFormat(
      "%llu", static_cast<unsigned long long>(1980 + (entity * 7) % 40));
  if (i % 2 == 0) {
    record.values = {title, authors, venue, year};
  } else {
    // The "dirty duplicate": truncated title, author suffix, venue typo
    // — close enough to match, different enough to be non-trivial.
    std::string dirty_title = title.substr(0, title.size() - 1 - variant);
    std::string dirty_venue = venue;
    dirty_venue[dirty_venue.size() / 2] = 'x';
    record.values = {dirty_title, authors + " et al", dirty_venue, year};
  }
  return record;
}

void PrintUsage(std::FILE* out, const char* prog) {
  std::fprintf(
      out,
      "usage: %s --dir=<state dir> [--count=64] [--seed=7]\n"
      "    [--snapshot-every=16] [--refresh-every=32] [--rebuild-every=24]\n"
      "    [--threads=1] [--publish-dir=<serve repo dir>]\n"
      "    [--poison-every=0] [--writers=1] [--threshold=0.75]\n"
      "    [--segment-mb=8] [--max-journal-mb=0]\n"
      "    [--segment-bytes=N] [--max-journal-bytes=N]\n"
      "    [--knn-backend=kdtree|ann] [--recall=0.95]\n"
      "    [--crash-after=<seq>\n"
      "     --crash-point=append|apply|rotate|snapshot|retain]\n"
      "    [--help] [--version]\n"
      "exit codes: 0 success, 1 runtime failure, 2 bad flags\n",
      prog);
}

int Run(int argc, char** argv) {
  const Flags flags(
      argc, argv,
      {"dir", "count", "seed", "snapshot-every", "refresh-every",
       "rebuild-every", "threads", "publish-dir", "poison-every", "writers",
       "threshold", "segment-mb", "max-journal-mb", "segment-bytes",
       "max-journal-bytes", "knn-backend", "recall", "crash-after",
       "crash-point", "help", "version"});
  if (flags.GetBool("help", false)) {
    PrintUsage(stdout, argv[0]);
    return 0;
  }
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) {
    std::fprintf(stderr, "--dir is required\n");
    return 2;
  }
  const uint64_t count = flags.GetCount<uint64_t>("count", 64);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const size_t poison_every = flags.GetCount<size_t>("poison-every", 0);
  const uint64_t crash_after = flags.GetCount<uint64_t>("crash-after", 0);
  const std::string crash_point = flags.GetString("crash-point", "append");
  if (crash_point != "append" && crash_point != "apply" &&
      crash_point != "rotate" && crash_point != "snapshot" &&
      crash_point != "retain") {
    std::fprintf(stderr, "bad --crash-point=%s\n", crash_point.c_str());
    return 2;
  }
  const size_t writers = flags.GetCount<size_t>("writers", 1, 1);

  stream::StreamIngestorOptions options;
  options.directory = dir;
  options.resolver.schema = MakeStreamSchema();
  options.resolver.blocking.key_attribute = 0;
  options.resolver.blocking.prefix_length = 6;  // the "groupN" title token
  options.resolver.match_threshold = flags.GetDouble("threshold", 0.75);
  options.resolver.refresh_interval =
      flags.GetCount<size_t>("refresh-every", 32);
  options.resolver.knn.rebuild_interval =
      flags.GetCount<size_t>("rebuild-every", 24);
  options.resolver.knn.num_threads = flags.GetCount<int>("threads", 1);
  const std::string knn_backend = flags.GetString("knn-backend", "kdtree");
  if (knn_backend == "ann" || knn_backend == "ann_graph") {
    options.resolver.knn.backend = stream::DynamicKnnBackend::kAnnGraph;
  } else if (knn_backend != "kdtree" && knn_backend != "kd_tree") {
    std::fprintf(stderr, "bad --knn-backend=%s (kdtree|ann)\n",
                 knn_backend.c_str());
    return 2;
  }
  const double recall =
      flags.GetDouble("recall", options.resolver.knn.ann.recall_target);
  if (!(recall > 0.0 && recall <= 1.0)) {
    std::fprintf(stderr, "bad --recall=%g: must be in (0, 1]\n", recall);
    return 2;
  }
  options.resolver.knn.ann.recall_target = recall;
  options.snapshot_interval = flags.GetCount<size_t>("snapshot-every", 16);
  options.publish_directory = flags.GetString("publish-dir", "");
  options.max_segment_bytes = flags.GetMemoryLimitBytes("segment-mb", 8);
  options.max_journal_bytes = flags.GetMemoryLimitBytes("max-journal-mb", 0);
  // Byte-granular overrides for tests that rotate within tiny streams.
  const size_t segment_bytes = flags.GetCount<size_t>("segment-bytes", 0);
  if (segment_bytes > 0) options.max_segment_bytes = segment_bytes;
  const size_t journal_bytes = flags.GetCount<size_t>("max-journal-bytes", 0);
  if (journal_bytes > 0) options.max_journal_bytes = journal_bytes;

  // A real crash, not an exit: no destructors, no buffers flushed. The
  // sequence-exact points (append/apply) fire at --crash-after itself;
  // the lifecycle points (rotate/snapshot/retain) fire on the first
  // event at or past it, because rotation and snapshot boundaries
  // depend on sizes the caller cannot predict exactly.
  const auto crash_hook = [&](uint64_t sequence) {
    if (crash_after > 0 && sequence == crash_after) {
      ::raise(SIGKILL);
    }
  };
  const auto crash_at_or_past_hook = [&](uint64_t sequence) {
    if (crash_after > 0 && sequence >= crash_after) {
      ::raise(SIGKILL);
    }
  };
  if (crash_after > 0) {
    if (crash_point == "append") {
      options.after_append_hook = crash_hook;
    } else if (crash_point == "apply") {
      options.after_apply_hook = crash_hook;
    } else if (crash_point == "rotate") {
      options.after_rotate_hook = crash_at_or_past_hook;
    } else if (crash_point == "snapshot") {
      options.after_snapshot_save_hook = crash_at_or_past_hook;
    } else {
      options.after_retain_hook = crash_at_or_past_hook;
    }
  }

  RunDiagnostics diagnostics;
  auto opened = stream::StreamIngestor::Open(options, &diagnostics);
  if (!opened.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  stream::StreamIngestor ingestor = std::move(opened).value();
  if (ingestor.replayed_entries() > 0 ||
      ingestor.recovered_from_snapshot()) {
    std::fprintf(stderr,
                 "recovered: applied=%llu replayed=%zu from_snapshot=%d\n",
                 static_cast<unsigned long long>(
                     ingestor.applied_sequence()),
                 ingestor.replayed_entries(),
                 ingestor.recovered_from_snapshot() ? 1 : 0);
  }

  // Resume exactly where the recovered state stops: entry sequence s
  // carries record s-1 of the deterministic stream. The multi-writer
  // path produces the identical journal (and digest) at any --writers.
  const uint64_t start_index = ingestor.applied_sequence();
  const uint64_t remaining = count > start_index ? count - start_index : 0;
  const auto ingest_started = std::chrono::steady_clock::now();
  const Status ingested = stream::RunMultiWriterIngest(
      &ingestor, writers, remaining,
      [&](uint64_t i) {
        return MakeStreamRecord(seed, start_index + i, poison_every);
      },
      &diagnostics);
  const double ingest_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    ingest_started)
          .count();
  if (!ingested.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n",
                 ingested.ToString().c_str());
    return 1;
  }

  for (const auto& event : diagnostics.events) {
    std::fprintf(stderr, "degradation: %s\n", event.ToString().c_str());
  }
  const stream::StreamResolver& resolver = ingestor.resolver();
  const stream::JournalStats stats = ingestor.journal_stats();

  // Telemetry line first; the digest line below must stay LAST — the
  // crash matrix parses the final stdout line.
  const AnnGraph* graph = resolver.knn().graph();
  std::string knn_telemetry = "\"knn_backend\":\"kd_tree_tail\"";
  if (graph != nullptr) {
    knn_telemetry = StrFormat(
        "\"knn_backend\":\"ann_graph\",\"ann_points\":%zu,"
        "\"ann_edges\":%zu,\"ann_levels\":%zu,\"ann_ef\":%zu",
        graph->size(), graph->EdgeCount(), graph->max_level() + 1,
        graph->EffectiveEf(1));  // the recall-derived beam floor
  }
  std::printf(
      "{\"schema\":\"transer.stream_ingest\",\"segments\":%zu,"
      "\"live_bytes\":%zu,\"first_segment\":%llu,\"active_segment\":%llu,"
      "\"retention_stalls\":%zu,\"segments_dropped\":%zu,"
      "\"snapshots\":%zu,\"writers\":%zu,\"ingest_seconds\":%.6f,%s}\n",
      stats.segments, stats.live_bytes,
      static_cast<unsigned long long>(stats.first_segment),
      static_cast<unsigned long long>(stats.active_segment),
      stats.retention_stalls, stats.segments_dropped,
      ingestor.snapshot_count(), writers, ingest_seconds,
      knn_telemetry.c_str());
  std::printf("applied=%llu digest=%016llx matches=%zu quarantined=%zu\n",
              static_cast<unsigned long long>(resolver.applied_sequence()),
              static_cast<unsigned long long>(resolver.StateDigest()),
              resolver.matches().size(), resolver.quarantined().size());
  return 0;
}

}  // namespace
}  // namespace transer

int main(int argc, char** argv) { return transer::Run(argc, argv); }
