// loom_partition: command-line front end for the LOOM partitioner.
//
// Reads a labelled graph and a query workload, streams the graph under a
// chosen ordering through a chosen partitioner, writes the assignment, and
// reports quality metrics.
//
// Usage:
//   loom_partition --graph g.loom --workload w.loom --out assignment.loom
//                  [--partitioner loom|ldg|fennel|hash|metis]
//                  [--k 8] [--window 1024] [--threshold 0.2]
//                  [--order random|bfs|dfs|adversarial|stochastic|natural]
//                  [--slack 1.1] [--seed 42] [--traversal-weights]
//                  [--evaluate]
//
// Edge-partitioning mode (vertex-cut instead of edge-cut; no --out, the
// placements are reported rather than persisted):
//   loom_partition --graph g.loom --edge-partitioner hdrf|dbh
//                  [--k 8] [--lambda 1.0] [--max-replicas R] [--slack 1.1]
//                  [--restream-passes N]
//                  [--heat-weight W]   (needs --workload; hot motif labels
//                                       replicate first)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "edge_partition/edge_partitioner.h"
#include "edge_partition/edge_restream.h"
#include "edge_partition/workload_heat.h"
#include "flag_parse.h"
#include "graph/io.h"
#include "metrics/metrics.h"
#include "partition/offline_partitioner.h"
#include "partition/partition_io.h"
#include "partition/partitioner.h"
#include "stream/stream.h"
#include "tpstry/tpstry_pp.h"
#include "workload/query_engine.h"
#include "workload/workload_io.h"

namespace {

using loom::tools::ParseFlag;

constexpr char kTool[] = "loom_partition";

struct Args {
  std::string graph_path;
  std::string workload_path;
  std::string out_path;
  std::string partitioner = "loom";
  loom::StreamOrder order = loom::StreamOrder::kNatural;
  uint32_t k = 8;
  uint64_t window = 1024;
  double threshold = 0.2;
  double slack = 1.1;
  uint64_t seed = 42;
  bool traversal_weights = false;
  bool evaluate = false;
  // Edge-partitioning mode.
  std::string edge_partitioner;
  double lambda = 1.0;
  uint32_t max_replicas = 0;
  uint32_t restream_passes = 1;
  double heat_weight = 0.0;
};

// Maps an --order name (as StreamOrderName prints it) onto its order.
bool ParseStreamOrder(const std::string& name, loom::StreamOrder* out) {
  using loom::StreamOrder;
  for (const StreamOrder order :
       {StreamOrder::kRandom, StreamOrder::kBfs, StreamOrder::kDfs,
        StreamOrder::kAdversarial, StreamOrder::kStochastic,
        StreamOrder::kNatural}) {
    if (loom::StreamOrderName(order) == name) {
      *out = order;
      return true;
    }
  }
  return false;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--graph") {
      const char* v = next();
      if (!v) return false;
      args->graph_path = v;
    } else if (flag == "--workload") {
      const char* v = next();
      if (!v) return false;
      args->workload_path = v;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return false;
      args->out_path = v;
    } else if (flag == "--partitioner") {
      const char* v = next();
      if (!v) return false;
      args->partitioner = v;
    } else if (flag == "--order") {
      const char* v = next();
      if (!v) return false;
      if (!ParseStreamOrder(v, &args->order)) {
        std::fprintf(stderr,
                     "loom_partition: --order must be "
                     "random|bfs|dfs|adversarial|stochastic|natural\n");
        return false;
      }
    } else if (flag == "--k") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->k)) return false;
      if (args->k == 0) {
        std::fprintf(stderr, "loom_partition: --k must be >= 1\n");
        return false;
      }
    } else if (flag == "--window") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->window)) return false;
    } else if (flag == "--threshold") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->threshold)) return false;
    } else if (flag == "--slack") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->slack)) return false;
      if (!loom::IsValidSlack(args->slack)) {
        std::fprintf(stderr, "loom_partition: --slack must be >= 1.0\n");
        return false;
      }
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->seed)) return false;
    } else if (flag == "--traversal-weights") {
      args->traversal_weights = true;
    } else if (flag == "--evaluate") {
      args->evaluate = true;
    } else if (flag == "--edge-partitioner") {
      const char* v = next();
      if (!v) return false;
      args->edge_partitioner = v;
    } else if (flag == "--lambda") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->lambda)) return false;
    } else if (flag == "--max-replicas") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->max_replicas)) return false;
    } else if (flag == "--restream-passes") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->restream_passes)) {
        return false;
      }
      if (args->restream_passes == 0) {
        std::fprintf(stderr,
                     "loom_partition: --restream-passes must be >= 1\n");
        return false;
      }
    } else if (flag == "--heat-weight") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->heat_weight)) return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  // Edge mode reports metrics instead of writing an assignment file, so
  // --out is only required for the vertex-partitioning path.
  return !args->graph_path.empty() &&
         (!args->out_path.empty() || !args->edge_partitioner.empty());
}

/// True when `path` starts with the loom-stream magic (a binary .loomstrm
/// file rather than loom-graph text).
bool LooksLikeStreamFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  uint64_t magic = 0;
  const bool read = std::fread(&magic, sizeof(magic), 1, f) == 1;
  std::fclose(f);
  return read && magic == loom::kStreamFileMagic;
}

/// Edge-partitioning mode: streams `--graph` (loom-graph text, materialised
/// under `--order`, or a .loomstrm file consumed out-of-core) through an
/// HDRF/DBH edge partitioner and reports replication factor and balance.
int RunEdgePartitionMode(const Args& args, const loom::Workload& workload) {
  using namespace loom;

  std::unique_ptr<FileArrivalSource> file_source;
  std::unique_ptr<LabeledGraph> graph;
  GraphStream stream;
  std::unique_ptr<StreamCursor> cursor;
  ArrivalSource* source = nullptr;
  if (LooksLikeStreamFile(args.graph_path)) {
    auto opened = FileArrivalSource::Open(args.graph_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "stream file: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    file_source = std::move(opened).value();
    source = file_source.get();
  } else {
    auto loaded = LoadGraph(args.graph_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "graph: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::make_unique<LabeledGraph>(std::move(loaded).value());
    Rng rng(args.seed);
    stream = MakeStream(*graph, args.order, rng);
    cursor = std::make_unique<StreamCursor>(stream);
    source = cursor.get();
  }
  std::printf("stream: %llu vertices, %llu edges (%s)\n",
              static_cast<unsigned long long>(source->NumVertices()),
              static_cast<unsigned long long>(source->NumEdges()),
              file_source ? "file-backed" : "materialized");

  EdgePartitionerOptions eopts;
  eopts.k = args.k;
  eopts.lambda = args.lambda;
  eopts.num_edges_hint = source->NumEdges();
  eopts.num_vertices_hint =
      file_source ? file_source->IdBound() : source->NumVertices();
  eopts.balance_slack = args.slack;
  eopts.max_partitions_per_vertex = args.max_replicas;
  eopts.seed = args.seed;
  eopts.heat_weight = args.heat_weight;
  if (args.heat_weight > 0.0) {
    if (workload.NumQueries() == 0) {
      std::fprintf(stderr, "--heat-weight requires --workload\n");
      return 2;
    }
    // The trie only needs to span the workload's own label alphabet; heat
    // for labels past the table is zero by construction.
    uint32_t num_labels = 1;
    for (const QuerySpec& q : workload.queries()) {
      for (VertexId v = 0; v < q.pattern.NumVertices(); ++v) {
        num_labels = std::max(num_labels, q.pattern.LabelOf(v) + 1);
      }
    }
    TpstryPP trie(num_labels);
    for (const QuerySpec& q : workload.queries()) {
      const Status added = trie.AddQuery(q.pattern, q.frequency);
      if (!added.ok()) {
        std::fprintf(stderr, "workload trie: %s\n", added.ToString().c_str());
        return 1;
      }
    }
    eopts.heat = MakeLabelHeatFn(LabelHeatFromTrie(trie));
  }

  auto partitioner = MakeEdgePartitioner(args.edge_partitioner, eopts);
  if (!partitioner.ok()) {
    std::fprintf(stderr, "edge partitioner: %s\n",
                 partitioner.status().ToString().c_str());
    return 2;
  }

  EdgeRestreamOptions ropts;
  ropts.num_passes = args.restream_passes;
  EdgeRestreamer restreamer(source, ropts);
  auto run = restreamer.Run(partitioner->get());
  if (!run.ok()) {
    std::fprintf(stderr, "edge partition: %s\n",
                 run.status().ToString().c_str());
    return 1;
  }

  const EdgePartitioner& ep = **partitioner;
  std::printf("edge partition (%s, k=%u, lambda=%.2f): %llu edges placed\n",
              ep.Name().c_str(), eopts.k, eopts.lambda,
              static_cast<unsigned long long>(ep.stats().edges_assigned));
  std::printf("replication factor: %.4f  balance: %.3f\n",
              run->replication_factor, run->balance);
  for (const EdgeRestreamPassStats& pass : run->passes) {
    std::printf(
        "  pass %u: rf %.4f (best %.4f)  balance %.3f  moved %.1f%%  "
        "%.0f edges/s\n",
        pass.pass, pass.replication_factor, pass.best_replication_factor,
        pass.balance, 100.0 * pass.moved_fraction,
        pass.seconds > 0.0
            ? static_cast<double>(ep.stats().edges_assigned) / pass.seconds
            : 0.0);
  }
  if (ep.stats().assign_errors > 0 || ep.stats().cap_relaxations > 0 ||
      ep.stats().overflow_fallbacks > 0) {
    std::printf(
        "  fallbacks: %llu overflow, %llu cap relaxations, %llu errors\n",
        static_cast<unsigned long long>(ep.stats().overflow_fallbacks),
        static_cast<unsigned long long>(ep.stats().cap_relaxations),
        static_cast<unsigned long long>(ep.stats().assign_errors));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace loom;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: loom_partition --graph G --out A [--workload W] "
                 "[--partitioner loom|ldg|fennel|hash|metis] "
                 "[--k K] "
                 "[--window N] [--threshold T] [--order O] [--slack S] "
                 "[--seed N] [--traversal-weights] [--evaluate]\n"
                 "   or: loom_partition --graph G[.loomstrm] "
                 "--edge-partitioner hdrf|dbh [--k K] [--lambda L] "
                 "[--max-replicas R] [--slack S] [--restream-passes N] "
                 "[--heat-weight W --workload W]\n");
    return 2;
  }

  Workload workload;
  if (!args.workload_path.empty()) {
    auto loaded = LoadWorkload(args.workload_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "workload: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    workload = std::move(loaded).value();
    workload.Normalize();
    std::printf("workload: %zu queries\n", workload.NumQueries());
  } else if (args.edge_partitioner.empty() && args.partitioner == "loom") {
    std::fprintf(stderr, "--partitioner loom requires --workload\n");
    return 2;
  }

  if (!args.edge_partitioner.empty()) {
    return RunEdgePartitionMode(args, workload);
  }

  auto graph = LoadGraph(args.graph_path);
  if (!graph.ok()) {
    std::fprintf(stderr, "graph: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  std::printf("graph: %zu vertices, %zu edges\n", graph->NumVertices(),
              graph->NumEdges());

  Rng rng(args.seed);
  const GraphStream stream = MakeStream(*graph, args.order, rng);

  PartitionerOptions popts;
  popts.k = args.k;
  popts.num_vertices_hint = graph->NumVertices();
  popts.num_edges_hint = graph->NumEdges();
  popts.capacity_slack = args.slack;
  popts.window_size = args.window;
  popts.seed = args.seed;

  const PartitionAssignment* result = nullptr;
  std::unique_ptr<Loom> loom_instance;
  std::unique_ptr<StreamingPartitioner> streaming;
  PartitionAssignment offline_result(args.k, 0);

  if (args.partitioner == "loom") {
    LoomOptions lopts;
    lopts.partitioner = popts;
    lopts.matcher.frequency_threshold = args.threshold;
    lopts.use_traversal_weights = args.traversal_weights;
    auto loom = Loom::Create(workload, lopts);
    if (!loom.ok()) {
      std::fprintf(stderr, "loom: %s\n", loom.status().ToString().c_str());
      return 1;
    }
    loom_instance = std::move(loom).value();
    loom_instance->Partitioner().Run(stream);
    result = &loom_instance->Partitioner().assignment();
  } else if (args.partitioner == "metis") {
    OfflineOptions oopts;
    oopts.k = args.k;
    oopts.balance_slack = args.slack;
    oopts.seed = args.seed;
    auto offline = OfflineMultilevelPartition(*graph, oopts);
    if (!offline.ok()) {
      std::fprintf(stderr, "metis: %s\n",
                   offline.status().ToString().c_str());
      return 1;
    }
    offline_result = std::move(offline).value();
    result = &offline_result;
  } else {
    auto made = MakePartitioner(args.partitioner, popts);
    if (!made.ok()) {
      std::fprintf(stderr, "partitioner: %s\n",
                   made.status().ToString().c_str());
      return 2;
    }
    streaming = std::move(made).value();
    streaming->Run(stream);
    result = &streaming->assignment();
  }

  const Status save = SaveAssignment(*result, args.out_path);
  if (!save.ok()) {
    std::fprintf(stderr, "save: %s\n", save.ToString().c_str());
    return 1;
  }
  std::printf("assignment: %zu vertices -> %u partitions (%s), written to %s\n",
              result->NumAssigned(), result->k(),
              SizesToString(*result).c_str(), args.out_path.c_str());
  std::printf("edge-cut: %.1f%%  balance: %.3f\n",
              100.0 * EdgeCutFraction(*graph, *result),
              BalanceMaxOverAvg(*result));

  if (args.evaluate && workload.NumQueries() > 0) {
    const WorkloadIptStats s = EvaluateWorkloadIpt(*graph, *result, workload);
    std::printf("workload: ipt-prob %.1f%%  single-partition answers %.1f%%  "
                "answer-edge cut %.1f%%\n",
                100.0 * s.ipt_probability,
                100.0 * s.single_partition_fraction,
                100.0 * s.embedding_cut_fraction);
  }
  return 0;
}
