#include "harness.h"

#include <cassert>

namespace loom {
namespace bench {

std::string GraphKindName(GraphKind kind) {
  switch (kind) {
    case GraphKind::kErdosRenyi:
      return "erdos-renyi";
    case GraphKind::kBarabasiAlbert:
      return "barabasi-albert";
    case GraphKind::kWattsStrogatz:
      return "watts-strogatz";
    case GraphKind::kRMat:
      return "rmat";
  }
  return "unknown";
}

LabeledGraph MakeGraph(GraphKind kind, uint32_t n, uint32_t avg_degree,
                       const LabelConfig& labels, Rng& rng) {
  switch (kind) {
    case GraphKind::kErdosRenyi:
      return ErdosRenyiGnm(n, static_cast<uint64_t>(n) * avg_degree / 2,
                           labels, rng);
    case GraphKind::kBarabasiAlbert:
      return BarabasiAlbert(n, std::max<uint32_t>(1, avg_degree / 2), labels,
                            rng);
    case GraphKind::kWattsStrogatz:
      return WattsStrogatz(n, std::max<uint32_t>(1, avg_degree / 2), 0.1,
                           labels, rng);
    case GraphKind::kRMat: {
      // Round n up to a power of two for the recursive generator.
      uint32_t scale = 1;
      while ((1u << scale) < n) ++scale;
      return RMat(scale, std::max<uint32_t>(1, avg_degree / 2), 0.57, 0.19,
                  0.19, labels, rng);
    }
  }
  return LabeledGraph();
}

void PlantWorkloadMotifs(LabeledGraph* g, const Workload& workload,
                         uint32_t count_per_query, Rng& rng,
                         uint32_t locality_span) {
  for (const QuerySpec& q : workload.queries()) {
    PlantMotifs(g, q.pattern, count_per_query, rng, locality_span);
  }
}

RunResult RunStreaming(StreamingPartitioner* partitioner,
                       const LabeledGraph& g, const GraphStream& stream,
                       const Workload& workload) {
  RunResult result;
  result.partitioner = partitioner->Name();
  result.num_vertices = g.NumVertices();
  result.num_edges = g.NumEdges();

  partitioner->Run(stream);

  const PartitionAssignment& a = partitioner->assignment();
  result.cut_fraction = EdgeCutFraction(g, a);
  result.balance = BalanceMaxOverAvg(a);
  result.ipt = EvaluateWorkloadIpt(g, a, workload);
  return result;
}

RunResult RunOffline(const LabeledGraph& g, const Workload& workload,
                     uint32_t k, double slack, uint64_t seed) {
  RunResult result;
  result.partitioner = "metis-like";
  result.num_vertices = g.NumVertices();
  result.num_edges = g.NumEdges();

  OfflineOptions opts;
  opts.k = k;
  opts.balance_slack = slack;
  opts.seed = seed;
  auto assignment = OfflineMultilevelPartition(g, opts);
  assert(assignment.ok());

  result.cut_fraction = EdgeCutFraction(g, *assignment);
  result.balance = BalanceMaxOverAvg(*assignment);
  result.ipt = EvaluateWorkloadIpt(g, *assignment, workload);
  return result;
}

PartitionerSet MakeStandardSet(const PartitionerOptions& popts,
                               const Workload& workload,
                               double frequency_threshold) {
  PartitionerSet set;
  for (const std::string& name : KnownPartitioners()) {
    if (name == "loom") continue;
    auto partitioner = MakePartitioner(name, popts);
    assert(partitioner.ok());
    set.streaming.push_back(std::move(partitioner).value());
  }

  LoomOptions lopts;
  lopts.partitioner = popts;
  lopts.matcher.frequency_threshold = frequency_threshold;
  auto loom = Loom::Create(workload, lopts);
  assert(loom.ok());
  set.looms.push_back(std::move(loom).value());
  return set;
}

}  // namespace bench
}  // namespace loom
