// loom_benchmark: runs one benchmark workload and prints its report as one
// JSON object on stdout. benchmark/run.py builds and drives it; see
// benchmark/README.md.
//
//   loom_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--scale full|smoke] [--out DIR]

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace loom_bench {
namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x",
                    static_cast<unsigned>(static_cast<unsigned char>(c)));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// Every digit a double carries; non-finite values are not JSON and become
// null, which run.py rejects.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::map<std::string, Metric>& metrics) {
  std::string out = "{";
  for (const auto& [name, m] : metrics) {
    if (out.size() > 1) out += ",";
    out += Quote(name) + ":{\"value\":" + Number(m.value) +
           ",\"unit\":" + Quote(m.unit) +
           ",\"samples\":" + std::to_string(m.samples) + "}";
  }
  return out + "}";
}

std::string LayersJson(const std::map<std::string, LayerMetric>& layers) {
  std::string out = "{";
  for (const auto& [name, m] : layers) {
    if (out.size() > 1) out += ",";
    out += Quote(name) + ":{\"value\":" + Number(m.value) +
           ",\"unit\":" + Quote(m.unit) + ",\"moves\":" + Quote(m.moves) + "}";
  }
  return out + "}";
}

std::string ReportJson(const Report& r) {
  char fingerprint[20];
  std::snprintf(fingerprint, sizeof(fingerprint), "%016llx",
                static_cast<unsigned long long>(r.fingerprint));
  std::string checks = "[";
  for (const Check& c : r.checks) {
    if (checks.size() > 1) checks += ",";
    checks += "{\"name\":" + Quote(c.name) +
              ",\"ok\":" + (c.ok ? "true" : "false") +
              ",\"detail\":" + Quote(c.detail) + "}";
  }
  checks += "]";
  return "{\"workload\":" + Quote(r.workload) +
         ",\"seed\":" + std::to_string(r.seed) +
         ",\"fingerprint\":" + Quote(fingerprint) +
         ",\"attempted\":" + std::to_string(r.attempted) +
         ",\"failed\":" + std::to_string(r.failed) + ",\"checks\":" + checks +
         ",\"metrics\":" + MetricsJson(r.metrics) +
         ",\"layers\":" + LayersJson(r.layers) +
         ",\"details\":" + MetricsJson(r.details) +
         ",\"trace_path\":" + Quote(r.trace_path) + "}";
}

int Usage() {
  std::fprintf(stderr,
               "usage: loom_benchmark --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--scale full|smoke] "
               "[--out DIR]\n");
  return 2;
}

}  // namespace
}  // namespace loom_bench

int main(int argc, char** argv) {
  using namespace loom_bench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return Usage();
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0)) return Usage();
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") return Usage();
      options.trace = value == "1";
    } else if (arg == "--scale") {
      if (value != "full" && value != "smoke") return Usage();
      options.scale_divisor = value == "smoke" ? 64 : 1;
    } else if (arg == "--out") {
      options.out_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.workload.empty()) return Usage();

  Report report;
  std::string error;
  if (!RunWorkload(options, &report, &error)) {
    std::fprintf(stderr, "loom_benchmark: %s: %s\n", options.workload.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("%s\n", ReportJson(report).c_str());
  return 0;
}
