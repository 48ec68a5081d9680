#ifndef LOOM_BENCH_PERF_REPORT_H_
#define LOOM_BENCH_PERF_REPORT_H_

/// \file
/// Shared machinery for the machine-readable perf baseline
/// (`BENCH_micro.json`, schema v3): the self-timed micro loops, the
/// end-to-end streaming-throughput harness, and the JSON emitter used by
/// `tools/run_benchmarks`.
///
/// Schema v2 = v1's `results` micro rows plus a `throughput` section: one
/// row per (graph family × partitioner) streaming the FULL pipeline —
/// window, matcher, cluster scoring, assignment — end to end, reporting
/// vertices/s and edges/s. This is the repo's headline throughput number;
/// regressions gate on it. Schema v3 adds `peak_rss_bytes` (the process
/// high-water mark at row emission; common/timer.h) to every row.

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace loom {
namespace bench {

// ----------------------------------------------------------------- JSON
// Minimal emitter: enough for flat objects and arrays of flat objects.

std::string JsonEscape(const std::string& s);

struct JsonObject {
  std::vector<std::string> fields;

  void Add(const std::string& key, const std::string& value);
  void Add(const std::string& key, double value);
  void Add(const std::string& key, uint64_t value);
  void AddRaw(const std::string& key, const std::string& raw);

  std::string Render(int indent) const;
};

std::string RenderArray(const std::vector<JsonObject>& items, int indent);

bool WriteFile(const std::string& path, const std::string& content);

// ----------------------------------------------------------------- micro

/// One self-timed hot-path loop result.
struct MicroResult {
  std::string name;
  uint64_t iterations = 0;
  uint64_t items = 0;  // work units processed (for throughput)
  double seconds = 0.0;
};

/// Runs the self-timed hot-path loops (no benchmark-framework dependency,
/// so the driver runs everywhere).
std::vector<MicroResult> RunMicroLoops(bool fast);

// ------------------------------------------------------------ throughput

/// One end-to-end streaming run: the full pipeline at ingest rate.
struct ThroughputRow {
  std::string family;
  std::string partitioner;
  uint64_t num_vertices = 0;
  uint64_t num_edges = 0;
  double seconds = 0.0;
  double vertices_per_second = 0.0;
  double edges_per_second = 0.0;
};

/// Streams a motif-planted graph of every bench family through hash (stream
/// floor), ldg (one-shot heuristic) and loom (full window + matcher +
/// cluster assignment pipeline), timed end to end over `reps` runs.
std::vector<ThroughputRow> RunThroughput(bool fast);

// ----------------------------------------------------------------- report

/// Writes `BENCH_micro.json` (schema loom-bench-micro-v3): micro `results`
/// plus the `throughput` section. Returns false on I/O or validation
/// failure (a zero-iteration loop, an empty section).
bool WriteMicroReport(const std::string& path, const std::string& mode,
                      const std::vector<MicroResult>& micro,
                      const std::vector<ThroughputRow>& throughput);

}  // namespace bench
}  // namespace loom

#endif  // LOOM_BENCH_PERF_REPORT_H_
