#include "inputs.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "graph/generators.h"
#include "graph/io.h"
#include "metrics/metrics.h"
#include "workload/query_builders.h"
#include "workload/query_engine.h"
#include "workload/workload_gen.h"

namespace loom_bench {

using namespace loom;

void Fnv1a::Add(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    hash_ ^= p[i];
    hash_ *= 0x100000001b3ull;
  }
}

void Fnv1a::AddDouble(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  Add(bits);
}

void HashArrival(const ArrivalView& arrival, Fnv1a* hash) {
  const uint32_t head[3] = {arrival.vertex, arrival.label,
                            static_cast<uint32_t>(arrival.back_edges.size())};
  hash->Add(head, sizeof(head));
  hash->Add(arrival.back_edges.data(),
            arrival.back_edges.size() * sizeof(VertexId));
}

void HashWorkload(const Workload& workload, Fnv1a* hash) {
  for (const QuerySpec& q : workload.queries()) {
    hash->AddDouble(q.frequency);
    hash->Add(q.pattern.NumVertices());
    for (VertexId v = 0; v < q.pattern.NumVertices(); ++v) {
      hash->Add(q.pattern.LabelOf(v));
    }
    for (const Edge& e : q.pattern.Edges()) {
      hash->Add((static_cast<uint64_t>(e.u) << 32) | e.v);
    }
  }
}

uint64_t HashAssignment(const PartitionAssignment& assignment,
                        uint64_t id_bound) {
  Fnv1a hash;
  for (uint64_t v = 0; v < id_bound; ++v) {
    const int32_t part = assignment.PartOf(static_cast<VertexId>(v));
    hash.Add(&part, sizeof(part));
  }
  return hash.value();
}

uint64_t InputFingerprint(const GraphStream& stream,
                          const std::vector<const Workload*>& workloads) {
  Fnv1a hash;
  StreamCursor cursor(stream);
  ArrivalView view;
  while (cursor.Next(&view)) HashArrival(view, &hash);
  for (const Workload* w : workloads) HashWorkload(*w, &hash);
  return hash.value();
}

namespace {

// The query workloads are part of each benchmark workload's definition, so
// their seed is fixed: --seed draws a new graph for the same queries, and
// runs on different seeds stay comparable.
WorkloadGenOptions GenOptions() {
  WorkloadGenOptions options;
  options.num_labels = 4;
  options.num_queries = 5;
  options.frequency_skew = 1.0;
  options.seed = 17;
  return options;
}

// Barabási–Albert with 3 attachments per vertex (average degree 6), plus
// n/24 planted copies of every query of each workload, each inside a window
// of 48 consecutive ids so instances are temporally local in the stream —
// the regime LOOM's window targets.
LabeledGraph PlantedGraph(uint32_t n, const LabelConfig& labels,
                          const std::vector<const Workload*>& workloads,
                          Rng& rng) {
  LabeledGraph g = BarabasiAlbert(n, 3, labels, rng);
  for (const Workload* w : workloads) {
    for (const QuerySpec& q : w->queries()) {
      PlantMotifs(&g, q.pattern, n / 24, rng, /*locality_span=*/48);
    }
  }
  return g;
}

}  // namespace

MotifInput MakeMotifInput(uint64_t seed, uint32_t n) {
  MotifInput in;
  in.motifs = MixedMotifWorkload(GenOptions());
  in.lookups = LookupWorkload(GenOptions());
  Rng rng(seed);
  in.graph = PlantedGraph(n, LabelConfig{4, 0.4}, {&in.motifs}, rng);
  in.order = StreamOrder::kNatural;
  in.stream_rng = rng;
  return in;
}

ServeInput MakeServeInput(uint64_t seed, uint32_t n) {
  ServeInput in;
  // The serving scenario's two traffic mixes: label-{0,1} paths and cycles,
  // then label-{2,3} triangles and stars.
  (void)in.workload_a.Add("a-path", PathQuery({0, 1, 0}), 2.0);
  (void)in.workload_a.Add("a-cycle", CycleQuery({0, 1, 0, 1}), 1.0);
  in.workload_a.Normalize();
  (void)in.workload_b.Add("b-tri", TriangleQuery(2, 3, 2), 2.0);
  (void)in.workload_b.Add("b-star", StarQuery(3, {2, 2}), 1.0);
  in.workload_b.Normalize();
  Rng rng(seed);
  in.graph = PlantedGraph(n, LabelConfig{4, 0.2},
                          {&in.workload_a, &in.workload_b}, rng);
  in.order = StreamOrder::kDfs;
  in.stream_rng = rng;
  return in;
}

Workload FileWorkload() { return PathWorkload(GenOptions()); }

Result<uint64_t> WriteBarabasiAlbertFile(uint64_t seed, uint32_t n,
                                         uint32_t edges_per_vertex,
                                         const Workload& workload,
                                         const std::string& path) {
  BarabasiAlbertArrivalSource source(n, edges_per_vertex,
                                     LabelConfig{4, 0.4}, seed);
  LOOM_ASSIGN_OR_RETURN(auto writer, StreamFileWriter::Create(path));
  Fnv1a hash;
  ArrivalView view;
  while (source.Next(&view)) {
    HashArrival(view, &hash);
    LOOM_RETURN_IF_ERROR(
        writer->Append(view.vertex, view.label, view.back_edges));
  }
  LOOM_RETURN_IF_ERROR(writer->Finish());
  HashWorkload(workload, &hash);
  return hash.value();
}

LabeledGraph GraphFromSource(ArrivalSource& source) {
  LabeledGraph g;
  source.Reset();
  ArrivalView view;
  while (source.Next(&view)) {
    while (g.NumVertices() <= view.vertex) g.AddVertex(0);
    g.SetLabel(view.vertex, view.label);
    for (VertexId u : view.back_edges) {
      while (g.NumVertices() <= u) g.AddVertex(0);
      g.AddEdgeUnchecked(view.vertex, u);
    }
  }
  source.Reset();
  return g;
}

namespace {

// Home partition plus one copy per other partition holding a neighbour.
double GhostReplicationFactor(const LabeledGraph& g,
                              const PartitionAssignment& a) {
  uint64_t copies = 0;
  uint64_t vertices = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    const int32_t home = a.PartOf(v);
    if (home < 0) continue;
    uint64_t mask = uint64_t{1} << (home & 63);
    for (VertexId u : g.Neighbors(v)) {
      const int32_t p = a.PartOf(u);
      if (p >= 0) mask |= uint64_t{1} << (p & 63);
    }
    copies += static_cast<uint64_t>(__builtin_popcountll(mask));
    ++vertices;
  }
  return vertices == 0 ? 0.0
                       : static_cast<double>(copies) /
                             static_cast<double>(vertices);
}

}  // namespace

Quality EvaluateVertexPartition(const LabeledGraph& g,
                                const PartitionAssignment& assignment,
                                const Workload& workload) {
  Quality q;
  const WorkloadIptStats ipt = EvaluateWorkloadIpt(g, assignment, workload);
  q.ipt = ipt.ipt_probability;
  q.single_partition_frac = ipt.single_partition_fraction;
  q.edge_cut = EdgeCutFraction(g, assignment);
  q.replication_factor = GhostReplicationFactor(g, assignment);
  return q;
}

Quality EvaluateEdgePartition(const LabeledGraph& g,
                              const ReplicaSet& replicas, uint32_t k,
                              const Workload& workload) {
  PartitionAssignment primary(k, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (replicas.NumReplicasOf(v) > 0) {
      (void)primary.Assign(v, replicas.PrimaryOf(v));
    }
  }
  Quality q;
  const WorkloadIptStats ipt =
      EvaluateWorkloadIpt(g, primary, workload, 20000, &replicas);
  q.ipt = ipt.ipt_probability;
  q.single_partition_frac = ipt.single_partition_fraction;
  q.edge_cut = EdgeCutFraction(g, primary);
  q.replication_factor = ReplicationFactor(replicas);
  return q;
}

bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

}  // namespace loom_bench
