#ifndef LOOM_BENCH_HARNESS_H_
#define LOOM_BENCH_HARNESS_H_

/// \file
/// Shared experiment harness for the bench binaries: builds
/// graphs/workloads/streams, runs every partitioner under identical
/// conditions and renders the table rows each experiment reports.

#include <memory>
#include <string>
#include <vector>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "partition/offline_partitioner.h"
#include "stream/stream.h"
#include "workload/query_engine.h"
#include "workload/workload_gen.h"

namespace loom {
namespace bench {

/// Named graph families used across experiments.
enum class GraphKind { kErdosRenyi, kBarabasiAlbert, kWattsStrogatz, kRMat };

std::string GraphKindName(GraphKind kind);

/// Builds a graph of `kind` with ~n vertices and average degree ~deg.
LabeledGraph MakeGraph(GraphKind kind, uint32_t n, uint32_t avg_degree,
                       const LabelConfig& labels, Rng& rng);

/// Plants `count` copies of every workload query pattern into `g`, making
/// the workload's motifs present at a controlled density. `locality_span`
/// follows PlantMotifs: instances drawn from that many consecutive ids are
/// temporally local under natural/stochastic stream orderings.
void PlantWorkloadMotifs(LabeledGraph* g, const Workload& workload,
                         uint32_t count_per_query, Rng& rng,
                         uint32_t locality_span = 64);

/// Result of one partitioner run.
struct RunResult {
  std::string partitioner;
  double cut_fraction = 0.0;
  double balance = 0.0;
  WorkloadIptStats ipt;
  size_t num_vertices = 0;
  size_t num_edges = 0;
};

/// Streams `stream` through `partitioner` and evaluates quality and the
/// workload ipt measures.
RunResult RunStreaming(StreamingPartitioner* partitioner,
                       const LabeledGraph& g, const GraphStream& stream,
                       const Workload& workload);

/// Runs the offline multilevel baseline on the full graph.
RunResult RunOffline(const LabeledGraph& g, const Workload& workload,
                     uint32_t k, double slack, uint64_t seed);

/// The standard comparison set: hash, ldg, fennel, loom
/// (+offline added by callers that want it). The returned Loom instances own
/// the tries the loom partitioners reference.
struct PartitionerSet {
  std::vector<std::unique_ptr<StreamingPartitioner>> streaming;
  std::vector<std::unique_ptr<Loom>> looms;

  /// Flat view over every partitioner in comparison order.
  std::vector<StreamingPartitioner*> All() {
    std::vector<StreamingPartitioner*> out;
    for (auto& p : streaming) out.push_back(p.get());
    for (auto& l : looms) out.push_back(&l->Partitioner());
    return out;
  }
};

/// Builds the comparison set for one configuration.
PartitionerSet MakeStandardSet(const PartitionerOptions& popts,
                               const Workload& workload,
                               double frequency_threshold);

}  // namespace bench
}  // namespace loom

#endif  // LOOM_BENCH_HARNESS_H_
