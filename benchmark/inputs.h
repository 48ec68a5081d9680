#ifndef LOOM_BENCHMARK_INPUTS_H_
#define LOOM_BENCHMARK_INPUTS_H_

// Seeded input generation, input fingerprints and the quality measures the
// benchmark reports. Inputs come only from the library's generators
// (graph/generators.h, workload/workload_gen.h); the same seed gives the same
// inputs, and the FNV-1a fingerprint of the generated arrivals and query
// workload pins that, so a change to a generator cannot silently change what
// is measured.

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "graph/graph.h"
#include "partition/partition_state.h"
#include "partition/replica_set.h"
#include "stream/arrival_source.h"
#include "stream/stream.h"
#include "workload/workload.h"

namespace loom_bench {

/// Incremental 64-bit FNV-1a.
class Fnv1a {
 public:
  void Add(const void* data, size_t bytes);
  void Add(uint64_t value) { Add(&value, sizeof(value)); }
  void AddDouble(double value);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Folds one arrival (vertex, label, back edges) into `hash`.
void HashArrival(const loom::ArrivalView& arrival, Fnv1a* hash);
/// Folds every query (frequency, labels, edges) of `workload` into `hash`.
void HashWorkload(const loom::Workload& workload, Fnv1a* hash);
/// FNV-1a of the partition of every vertex id in [0, id_bound).
uint64_t HashAssignment(const loom::PartitionAssignment& assignment,
                        uint64_t id_bound);

/// FNV-1a of every arrival of `stream` followed by every query of
/// `workloads`.
uint64_t InputFingerprint(const loom::GraphStream& stream,
                          const std::vector<const loom::Workload*>& workloads);

/// An in-memory input graph. Its arrival stream is built by the workload's
/// set-up (loom::MakeStream under `order`, starting from `stream_rng`), so
/// every set-up repeat rebuilds the identical stream.
struct GraphInput {
  loom::LabeledGraph graph;
  loom::StreamOrder order = loom::StreamOrder::kNatural;
  loom::Rng stream_rng;
};

/// Input of the two in-memory LOOM workloads: a Barabási–Albert graph with
/// the motifs of a mixed query workload planted in it, streamed in natural
/// order, plus a motif-free lookup workload over the same labels.
struct MotifInput : GraphInput {
  loom::Workload motifs;
  loom::Workload lookups;
};
MotifInput MakeMotifInput(uint64_t seed, uint32_t n);

/// Input of the serving workload: a graph carrying the structures of two
/// query workloads, A (before the drift) and B (after), in DFS order.
struct ServeInput : GraphInput {
  loom::Workload workload_a;
  loom::Workload workload_b;
};
ServeInput MakeServeInput(uint64_t seed, uint32_t n);

/// Writes the streamed Barabási–Albert graph of the two file workloads to
/// `path` with full neighbourhoods; returns the fingerprint of its arrivals
/// and of `workload`.
loom::Result<uint64_t> WriteBarabasiAlbertFile(uint64_t seed, uint32_t n,
                                               uint32_t edges_per_vertex,
                                               const loom::Workload& workload,
                                               const std::string& path);

/// The path (navigation) workload of the two file workloads. Paths keep
/// query evaluation on the dense file graph cheap: their embeddings are
/// found long before the engine's per-query cap, where triangles and cycles
/// probe every hub neighbourhood.
loom::Workload FileWorkload();

/// Rebuilds the graph of a back-edge source in memory (for query execution
/// after the measured phase; never inside it).
loom::LabeledGraph GraphFromSource(loom::ArrivalSource& source);

/// Quality of a final placement, all measured on the same graph.
struct Quality {
  /// Inter-partition traversal probability of `workload` (the paper's
  /// objective) and the share of its embeddings inside one partition.
  double ipt = 0.0;
  double single_partition_frac = 0.0;
  double edge_cut = 0.0;
  /// Average number of partitions holding a copy of a vertex. For a vertex
  /// partition that is its home plus one copy in every other partition
  /// holding a neighbour (where its cut edges are stored); for an edge
  /// partition it is the replica count.
  double replication_factor = 0.0;
};
Quality EvaluateVertexPartition(const loom::LabeledGraph& g,
                                const loom::PartitionAssignment& assignment,
                                const loom::Workload& workload);
/// Edge partition: traversals into a vertex replicated in the anchor's
/// partition are local; the vertex assignment used for ipt and edge_cut is
/// each vertex's primary replica.
Quality EvaluateEdgePartition(const loom::LabeledGraph& g,
                              const loom::ReplicaSet& replicas, uint32_t k,
                              const loom::Workload& workload);

/// Resets the process's peak-RSS mark to its current RSS (Linux
/// /proc/self/clear_refs); false when unsupported.
bool ResetPeakRss();
/// Peak RSS (VmHWM) in MiB; 0 when unavailable.
double PeakRssMiB();

}  // namespace loom_bench

#endif  // LOOM_BENCHMARK_INPUTS_H_
