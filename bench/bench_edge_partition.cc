// Experiment E12: streaming edge partitioning (vertex-cut). HDRF's
// degree-aware scoring should replicate hub vertices and beat DBH's
// degree-based hashing on replication factor, most visibly on power-law
// graphs; lambda trades replication against balance; a budgeted restream
// pass should only ever improve the kept placement. The workload-heat
// variant biases replication toward motif-hot labels.

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/table.h"
#include "common/timer.h"
#include "edge_partition/edge_partitioner.h"
#include "edge_partition/edge_restream.h"
#include "edge_partition/workload_heat.h"
#include "harness.h"
#include "stream/arrival_source.h"
#include "tpstry/tpstry_pp.h"

namespace {

std::string Fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace loom;
  using namespace loom::bench;

  if (argc > 1) {
    std::cerr << "usage: bench_edge_partition\n";
    return 1;
  }

  const uint32_t n = 20000;
  const uint32_t k = 16;
  const uint32_t avg_degree = 6;

  TablePrinter table(
      "E12 streaming edge partitioning (n=" + std::to_string(n) +
          ", k=" + std::to_string(k) + ")",
      {"graph", "partitioner", "lambda", "rf", "balance", "edges/s",
       "fallbacks"});

  for (const GraphKind kind :
       {GraphKind::kErdosRenyi, GraphKind::kBarabasiAlbert}) {
    Rng rng(2024);
    const LabeledGraph g =
        MakeGraph(kind, n, avg_degree, LabelConfig{4, 0.3}, rng);
    const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);

    struct Config {
      std::string name;
      double lambda;
      uint32_t passes;
      double heat_weight;
    };
    const std::vector<Config> configs = {
        {"hdrf", 0.0, 1, 0.0},  {"hdrf", 1.0, 1, 0.0},
        {"hdrf", 4.0, 1, 0.0},  {"hdrf", 1.0, 2, 0.0},
        {"hdrf", 1.0, 1, 1.0},  {"dbh", 1.0, 1, 0.0},
    };

    // Motif-heat table for the workload-aware variant: a small mixed
    // workload over the same label alphabet.
    WorkloadGenOptions wopts;
    wopts.num_queries = 4;
    wopts.seed = 5;
    const Workload workload = MixedMotifWorkload(wopts);
    TpstryPP trie(4);
    for (const QuerySpec& q : workload.queries()) {
      (void)trie.AddQuery(q.pattern, q.frequency);
    }
    const std::vector<double> heat = LabelHeatFromTrie(trie);

    for (const Config& config : configs) {
      EdgePartitionerOptions eopts;
      eopts.k = k;
      eopts.lambda = config.lambda;
      eopts.num_edges_hint = g.NumEdges();
      eopts.num_vertices_hint = g.NumVertices();
      eopts.heat_weight = config.heat_weight;
      if (config.heat_weight > 0.0) eopts.heat = MakeLabelHeatFn(heat);

      auto partitioner = MakeEdgePartitioner(config.name, eopts);
      if (!partitioner.ok()) {
        std::cerr << partitioner.status().ToString() << "\n";
        return 1;
      }

      StreamCursor cursor(stream);
      EdgeRestreamOptions ropts;
      ropts.num_passes = config.passes;
      EdgeRestreamer restreamer(&cursor, ropts);
      const WallTimer timer;
      auto run = restreamer.Run(partitioner->get());
      const double seconds = timer.ElapsedSeconds();
      if (!run.ok()) {
        std::cerr << run.status().ToString() << "\n";
        return 1;
      }

      const EdgePartitionerStats& stats = (*partitioner)->stats();
      std::string name = config.name;
      if (config.passes > 1) name += "+restream";
      if (config.heat_weight > 0.0) name += "+heat";
      table.AddRow(
          {GraphKindName(kind), name, Fmt(config.lambda, 1),
           Fmt(run->replication_factor, 4), Fmt(run->balance),
           Fmt(static_cast<double>(stats.edges_assigned) *
                   static_cast<double>(config.passes) / seconds,
               0),
           std::to_string(stats.overflow_fallbacks + stats.cap_relaxations)});
    }
  }

  table.Print(std::cout);
  return 0;
}
