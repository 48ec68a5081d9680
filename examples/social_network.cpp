// Social-network scenario (the paper's §1 motivation: "social network
// users ... readily modelled as large graphs").
//
// A social graph arrives as a stream — users join, mostly connecting to
// friends who joined recently (the stochastic ordering of §3.1). The online
// workload is navigational pattern matching: friend-of-friend suggestions,
// mutual-friend triangles, and group-co-membership stars. This example
// partitions the stream with LOOM and all baselines, then reports the
// latency-relevant metrics for the workload, including a simple latency
// model: local traversal 0.1ms, remote hop 1ms.
//
//   ./build/examples/example_social_network

#include <cstdio>

#include "common/table.h"
#include "core/loom.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "partition/fennel_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"
#include "stream/stream.h"
#include "workload/query_builders.h"
#include "workload/query_engine.h"

namespace {

// Vertex labels of the social graph.
constexpr loom::Label kPerson = 0;
constexpr loom::Label kGroup = 1;
constexpr loom::Label kPage = 2;

}  // namespace

int main() {
  using namespace loom;

  // --- Workload: navigation patterns with realistic frequency skew.
  Workload workload;
  (void)workload.Add("friend-of-friend",
                     PathQuery({kPerson, kPerson, kPerson}), 6.0);
  (void)workload.Add("mutual-friends",
                     TriangleQuery(kPerson, kPerson, kPerson), 3.0);
  (void)workload.Add("group-suggestion",
                     PathQuery({kPerson, kGroup, kPerson}), 2.0);
  (void)workload.Add("page-fans", StarQuery(kPage, {kPerson, kPerson}), 1.0);
  workload.Normalize();

  // --- The social graph: preferential attachment (celebrities become hubs),
  //     with the workload's structures occurring as temporally local events
  //     (people who befriend each other sign up around the same time). The
  //     stream replays signup order (the natural temporal ordering); see
  //     `bench_experiments --exp orderings` for how other §3.1 orderings
  //     change the picture.
  Rng rng(7);
  LabeledGraph graph = BarabasiAlbert(30000, 3, LabelConfig{3, 0.4}, rng);
  for (const QuerySpec& q : workload.queries()) {
    PlantMotifs(&graph, q.pattern, 900, rng, /*locality_span=*/48);
  }
  const GraphStream stream = MakeStream(graph, StreamOrder::kNatural, rng);
  std::printf("social graph: %zu users/groups/pages, %zu relationships\n",
              graph.NumVertices(), graph.NumEdges());

  // --- Partition with LOOM and baselines.
  PartitionerOptions popts;
  popts.k = 16;
  popts.num_vertices_hint = graph.NumVertices();
  popts.num_edges_hint = graph.NumEdges();
  popts.window_size = 1024;

  LoomOptions lopts;
  lopts.partitioner = popts;
  lopts.matcher.frequency_threshold = 0.1;
  auto loom = Loom::Create(workload, lopts);
  if (!loom.ok()) {
    std::fprintf(stderr, "%s\n", loom.status().ToString().c_str());
    return 1;
  }
  (*loom)->Partitioner().Run(stream);

  HashPartitioner hash(popts);
  hash.Run(stream);
  LdgPartitioner ldg(popts);
  ldg.Run(stream);
  FennelPartitioner fennel(popts);
  fennel.Run(stream);

  // --- Report, with a simple query latency model.
  constexpr double kLocalMs = 0.1;
  constexpr double kRemoteMs = 1.0;
  std::printf("\n%-10s %-9s %-8s %-9s %-10s %s\n", "layout", "edge-cut",
              "1-part", "emb-cut", "ipt-prob", "modelled query latency");
  auto report = [&](const char* name, const PartitionAssignment& a) {
    const WorkloadIptStats s = EvaluateWorkloadIpt(graph, a, workload);
    double latency_ms = 0.0;
    for (size_t i = 0; i < workload.NumQueries(); ++i) {
      const QueryExecutionStats& q = s.per_query[i];
      const double local = static_cast<double>(q.total_traversals -
                                               q.cross_traversals);
      const double remote = static_cast<double>(q.cross_traversals);
      const double per_answer =
          q.num_embeddings
              ? (local * kLocalMs + remote * kRemoteMs) / q.num_embeddings
              : 0.0;
      latency_ms += workload.queries()[i].frequency * per_answer;
    }
    std::printf("%-10s %-9s %-8s %-9s %-10s %.2f ms/answer\n", name,
                FormatPercent(EdgeCutFraction(graph, a)).c_str(),
                FormatPercent(s.single_partition_fraction).c_str(),
                FormatPercent(s.embedding_cut_fraction).c_str(),
                FormatPercent(s.ipt_probability).c_str(), latency_ms);
  };
  report("hash", hash.assignment());
  report("ldg", ldg.assignment());
  report("fennel", fennel.assignment());
  report("loom", (*loom)->Partitioner().assignment());

  const LoomStats& ls = (*loom)->Partitioner().loom_stats();
  std::printf("\nloom kept %llu vertices inside %llu motif clusters "
              "(%llu had to be split)\n",
              static_cast<unsigned long long>(ls.cluster_vertices),
              static_cast<unsigned long long>(ls.clusters_assigned),
              static_cast<unsigned long long>(ls.clusters_split));
  return 0;
}
