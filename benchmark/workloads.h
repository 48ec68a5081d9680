#ifndef LOOM_BENCHMARK_WORKLOADS_H_
#define LOOM_BENCHMARK_WORKLOADS_H_

// The benchmark's five workloads. Each drives the library only through its
// public entry points (Loom::Create, StreamingPartitioner::OnVertex/Run/
// Finish, Restreamer::Run, MakeEdgePartitioner + OnArrival/Run,
// FileArrivalSource::Open/Next and Service::Create/Ingest/Locate/Touches/
// ObserveQuery/Stats/Seal) with library defaults except the sizes named in
// benchmark/README.md.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace loom_bench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the measured phase (timed repeats run until it is used up).
  double seconds = 10.0;
  bool trace = false;
  /// Divides every input size (1 = full scale, 64 = smoke).
  uint32_t scale_divisor = 1;
  /// Directory for traces, layer summaries and generated stream files.
  std::string out_dir = "build-bench";
};

struct Metric {
  double value = 0.0;
  std::string unit;
  /// Timed repeats behind a median (0 for values measured once).
  uint64_t samples = 0;
};

struct LayerMetric {
  double value = 0.0;
  std::string unit;
  /// The end-to-end metric and workload this layer number should move.
  std::string moves;
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// Everything one workload run reports.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  uint64_t fingerprint = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::map<std::string, LayerMetric> layers;
  /// Workload-specific numbers that are not benchmark metrics (printed and
  /// kept in the layer summary).
  std::map<std::string, Metric> details;
  std::vector<Check> checks;
  /// Chrome trace written by a traced run.
  std::string trace_path;

  void AddCheck(const std::string& name, bool ok, const std::string& detail);
};

/// Runs `options.workload`; false with `*error` set when it could not run
/// at all (unknown name, unwritable output directory, library error).
bool RunWorkload(const RunOptions& options, Report* report,
                 std::string* error);

}  // namespace loom_bench

#endif  // LOOM_BENCHMARK_WORKLOADS_H_
