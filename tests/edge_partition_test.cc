// Property, differential and golden-hash tests for the streaming edge
// partitioners (src/edge_partition/): HDRF and DBH over the back-edge
// ArrivalSource cursor.
//
//  * Properties: every edge placed exactly once; replication factor >= 1
//    and per-vertex replicas within max_partitions_per_vertex; per-
//    partition edge counts within the slack bound when no fallback fired;
//    determinism across repeated runs and across materialised-vs-file-
//    backed sources.
//  * Differential: an independent brute-force oracle (std::map/std::set
//    state, per-step score recomputation) must match the production
//    placements edge-for-edge on small random graphs.
//  * Golden hashes: FNV pins of the HDRF/DBH placement logs on the ER/BA
//    bench families, same regeneration protocol as equivalence_test.cc
//    (set LOOM_EQUIV_DUMP=1 to print the current build's hashes).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "edge_partition/dbh_partitioner.h"
#include "edge_partition/edge_partitioner.h"
#include "edge_partition/edge_restream.h"
#include "edge_partition/hdrf_partitioner.h"
#include "edge_partition/workload_heat.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "metrics/metrics.h"
#include "stream/arrival_source.h"
#include "stream/stream.h"
#include "tpstry/tpstry_pp.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

GraphStream SmallStream(uint32_t n, uint32_t m, uint64_t seed) {
  Rng rng(seed);
  LabeledGraph g = ErdosRenyiGnm(n, m, LabelConfig{4, 0.3}, rng);
  return MakeStream(g, StreamOrder::kRandom, rng);
}

GraphStream PowerLawStream(uint32_t n, uint32_t degree, uint64_t seed) {
  Rng rng(seed);
  LabeledGraph g = BarabasiAlbert(n, degree, LabelConfig{4, 0.3}, rng);
  return MakeStream(g, StreamOrder::kNatural, rng);
}

uint64_t CountStreamEdges(const GraphStream& stream) {
  uint64_t edges = 0;
  for (const VertexArrival& a : stream.arrivals()) {
    edges += a.back_edges.size();
  }
  return edges;
}

// Each edge's partition under a placement log of `stream`, keyed by its
// endpoints in ascending order, so logs of one graph streamed in different
// orders compare edge by edge.
std::map<std::pair<VertexId, VertexId>, uint32_t> EdgeToPartition(
    const GraphStream& stream, const std::vector<uint32_t>& placements) {
  std::map<std::pair<VertexId, VertexId>, uint32_t> out;
  size_t i = 0;
  for (const VertexArrival& a : stream.arrivals()) {
    for (const VertexId v : a.back_edges) {
      out[std::minmax(a.vertex, v)] = placements.at(i++);
    }
  }
  return out;
}

uint64_t PlacementHash(const std::vector<uint32_t>& placements) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (const uint32_t p : placements) {
    h = HashCombine(h, static_cast<uint64_t>(p) + 1);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Brute-force oracles: independent re-implementations with per-step score
// recomputation over ordered containers. Deliberately share no state code
// with the production classes (ReplicaSet, the eligibility helpers).

struct OracleState {
  std::map<VertexId, std::set<uint32_t>> parts;
  std::map<VertexId, uint64_t> degree;
  std::vector<uint64_t> load;
  uint64_t edge_capacity = 0;
  uint32_t replica_cap = 0;

  explicit OracleState(const EdgePartitionerOptions& raw) {
    const EdgePartitionerOptions opt = SanitizeEdgePartitionerOptions(raw);
    load.assign(opt.k, 0);
    edge_capacity =
        ComputeEdgeCapacity(opt.k, opt.num_edges_hint, opt.balance_slack);
    replica_cap =
        opt.max_partitions_per_vertex == 0 ? opt.k
                                           : opt.max_partitions_per_vertex;
  }

  bool WithinBudget(VertexId x, uint32_t p) const {
    const auto it = parts.find(x);
    if (it == parts.end()) return true;
    return it->second.count(p) > 0 || it->second.size() < replica_cap;
  }

  bool Eligible(VertexId u, VertexId v, uint32_t p) const {
    if (edge_capacity != 0 && load[p] >= edge_capacity) return false;
    return WithinBudget(u, p) && WithinBudget(v, p);
  }

  uint32_t Fallback(VertexId u, VertexId v) const {
    uint32_t best = static_cast<uint32_t>(load.size());
    for (uint32_t p = 0; p < load.size(); ++p) {
      if (!WithinBudget(u, p) || !WithinBudget(v, p)) continue;
      if (best == load.size() || load[p] < load[best]) best = p;
    }
    if (best != load.size()) return best;
    // Cap relaxation: least-loaded (lowest index on ties) partition already
    // holding either endpoint; least-loaded overall only when neither
    // endpoint holds any replica (unreachable once the caps bind).
    for (const VertexId x : {u, v}) {
      const auto it = parts.find(x);
      if (it == parts.end()) continue;
      for (const uint32_t p : it->second) {
        if (best == load.size() || load[p] < load[best] ||
            (load[p] == load[best] && p < best)) {
          best = p;
        }
      }
    }
    if (best != load.size()) return best;
    for (uint32_t p = 0; p < load.size(); ++p) {
      if (best == load.size() || load[p] < load[best]) best = p;
    }
    return best;
  }

  void Apply(VertexId u, VertexId v, uint32_t pick) {
    parts[u].insert(pick);
    parts[v].insert(pick);
    ++load[pick];
  }
};

std::vector<uint32_t> OracleHdrf(const GraphStream& stream,
                                 const EdgePartitionerOptions& raw) {
  const EdgePartitionerOptions opt = SanitizeEdgePartitionerOptions(raw);
  OracleState st(opt);
  std::vector<uint32_t> out;
  for (const VertexArrival& arrival : stream.arrivals()) {
    for (const VertexId nb : arrival.back_edges) {
      const VertexId u = arrival.vertex;
      const VertexId v = nb;
      ++st.degree[u];
      ++st.degree[v];
      const double du = static_cast<double>(st.degree[u]);
      const double dv = static_cast<double>(st.degree[v]);
      const double theta_u = du / (du + dv);
      const double theta_v = 1.0 - theta_u;
      uint64_t max_size = 0;
      uint64_t min_size = ~uint64_t{0};
      for (const uint64_t l : st.load) {
        max_size = std::max(max_size, l);
        min_size = std::min(min_size, l);
      }
      const double spread = 1.0 + static_cast<double>(max_size - min_size);
      uint32_t best = opt.k;
      double best_score = 0.0;
      for (uint32_t p = 0; p < opt.k; ++p) {
        if (!st.Eligible(u, v, p)) continue;
        double score = 0.0;
        if (st.parts.count(u) > 0 && st.parts[u].count(p) > 0) {
          score += 1.0 + (1.0 - theta_u);
        }
        if (st.parts.count(v) > 0 && st.parts[v].count(p) > 0) {
          score += 1.0 + (1.0 - theta_v);
        }
        score += opt.lambda *
                 (static_cast<double>(max_size - st.load[p]) / spread);
        if (best == opt.k || score > best_score) {
          best = p;
          best_score = score;
        }
      }
      if (best == opt.k) best = st.Fallback(u, v);
      st.Apply(u, v, best);
      out.push_back(best);
    }
  }
  return out;
}

std::vector<uint32_t> OracleDbh(const GraphStream& stream,
                                const EdgePartitionerOptions& raw) {
  const EdgePartitionerOptions opt = SanitizeEdgePartitionerOptions(raw);
  OracleState st(opt);
  std::vector<uint32_t> out;
  for (const VertexArrival& arrival : stream.arrivals()) {
    for (const VertexId nb : arrival.back_edges) {
      const VertexId u = arrival.vertex;
      const VertexId v = nb;
      ++st.degree[u];
      ++st.degree[v];
      VertexId target = v;
      if (st.degree[u] < st.degree[v] ||
          (st.degree[u] == st.degree[v] && u < v)) {
        target = u;
      }
      uint32_t pick = static_cast<uint32_t>(
          MixBits(static_cast<uint64_t>(target) + opt.seed) % opt.k);
      if (!st.Eligible(u, v, pick)) pick = st.Fallback(u, v);
      st.Apply(u, v, pick);
      out.push_back(pick);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Properties

class EdgePartitionPropertyTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(EdgePartitionPropertyTest, EveryEdgePlacedExactlyOnce) {
  const GraphStream stream = SmallStream(600, 2400, 7);
  const uint64_t m = CountStreamEdges(stream);
  EdgePartitionerOptions opt;
  opt.k = 8;
  opt.num_edges_hint = m;
  auto part = MakeEdgePartitioner(GetParam(), opt);
  ASSERT_TRUE(part.ok());
  StreamCursor cursor(stream);
  (*part)->Run(cursor);

  EXPECT_EQ((*part)->stats().edges_assigned, m);
  EXPECT_EQ((*part)->placements().size(), m);
  uint64_t total = 0;
  for (const uint64_t c : (*part)->edge_counts()) total += c;
  EXPECT_EQ(total, m);
  EXPECT_EQ((*part)->stats().assign_errors, 0u);
}

TEST_P(EdgePartitionPropertyTest, ReplicationFactorWithinBounds) {
  // cap > k/2: two capped endpoints must share a partition, so preference 1
  // of the fallback always lands and the cap is a hard invariant.
  const GraphStream stream = PowerLawStream(800, 6, 11);
  EdgePartitionerOptions opt;
  opt.k = 8;
  opt.max_partitions_per_vertex = 5;
  opt.num_edges_hint = CountStreamEdges(stream);
  auto part = MakeEdgePartitioner(GetParam(), opt);
  ASSERT_TRUE(part.ok());
  StreamCursor cursor(stream);
  (*part)->Run(cursor);

  const double rf = ReplicationFactor((*part)->replicas());
  EXPECT_GE(rf, 1.0);
  EXPECT_LE(rf, 5.0 + 1e-12);
  EXPECT_EQ((*part)->stats().cap_relaxations, 0u);
  ASSERT_TRUE((*part)->replicas().CheckInvariants());
  for (VertexId v = 0; v < stream.NumVertices(); ++v) {
    EXPECT_LE((*part)->replicas().NumReplicasOf(v), 5u);
  }
}

TEST_P(EdgePartitionPropertyTest, TightReplicaCapIsAccountedWhenRelaxed) {
  // cap <= k/2: disjoint capped endpoint sets are possible; every vertex
  // past the cap must be explained by a counted relaxation.
  const GraphStream stream = PowerLawStream(800, 6, 11);
  EdgePartitionerOptions opt;
  opt.k = 8;
  opt.max_partitions_per_vertex = 3;
  opt.num_edges_hint = CountStreamEdges(stream);
  auto part = MakeEdgePartitioner(GetParam(), opt);
  ASSERT_TRUE(part.ok());
  StreamCursor cursor(stream);
  (*part)->Run(cursor);

  EXPECT_GE(ReplicationFactor((*part)->replicas()), 1.0);
  ASSERT_TRUE((*part)->replicas().CheckInvariants());
  uint64_t over_cap = 0;
  for (VertexId v = 0; v < stream.NumVertices(); ++v) {
    const size_t replicas = (*part)->replicas().NumReplicasOf(v);
    if (replicas > 3u) over_cap += replicas - 3u;
  }
  // Each relaxed edge pushes at most one endpoint one partition past its
  // budget, so the counter dominates the total excess.
  EXPECT_LE(over_cap, (*part)->stats().cap_relaxations);
}

TEST_P(EdgePartitionPropertyTest, BalanceWithinSlackBound) {
  const GraphStream stream = SmallStream(500, 3000, 13);
  const uint64_t m = CountStreamEdges(stream);
  EdgePartitionerOptions opt;
  opt.k = 6;
  opt.balance_slack = 1.2;
  opt.num_edges_hint = m;
  auto part = MakeEdgePartitioner(GetParam(), opt);
  ASSERT_TRUE(part.ok());
  StreamCursor cursor(stream);
  (*part)->Run(cursor);

  // The hard bound holds whenever no edge had to be re-routed past it.
  if ((*part)->stats().overflow_fallbacks == 0) {
    const uint64_t cap = ComputeEdgeCapacity(opt.k, m, opt.balance_slack);
    for (const uint64_t c : (*part)->edge_counts()) {
      EXPECT_LE(c, cap);
    }
  }
  EXPECT_EQ((*part)->stats().cap_relaxations, 0u);
  EXPECT_GT(EdgeBalanceMaxOverAvg((*part)->edge_counts()), 0.0);
}

TEST_P(EdgePartitionPropertyTest, DeterministicAcrossRepeatedRuns) {
  const GraphStream stream = SmallStream(400, 1600, 17);
  EdgePartitionerOptions opt;
  opt.k = 5;
  opt.num_edges_hint = CountStreamEdges(stream);
  auto a = MakeEdgePartitioner(GetParam(), opt);
  auto b = MakeEdgePartitioner(GetParam(), opt);
  ASSERT_TRUE(a.ok() && b.ok());
  StreamCursor ca(stream);
  (*a)->Run(ca);
  StreamCursor cb(stream);
  (*b)->Run(cb);
  EXPECT_EQ((*a)->placements(), (*b)->placements());

  // And across Reset + re-run on the same instance.
  (*a)->Reset();
  StreamCursor cc(stream);
  (*a)->Run(cc);
  EXPECT_EQ((*a)->placements(), (*b)->placements());
}

TEST_P(EdgePartitionPropertyTest, FileBackedMatchesMaterialized) {
  const GraphStream stream = SmallStream(300, 1200, 19);
  const std::string path =
      TempPath(std::string("loom_edge_part_") + GetParam() + ".loomstrm");
  StreamFileOptions file_options;
  file_options.full_neighborhoods = false;
  ASSERT_TRUE(WriteStreamFile(stream, path, file_options).ok());

  EdgePartitionerOptions opt;
  opt.k = 7;
  opt.num_edges_hint = CountStreamEdges(stream);

  auto mem = MakeEdgePartitioner(GetParam(), opt);
  ASSERT_TRUE(mem.ok());
  StreamCursor cursor(stream);
  (*mem)->Run(cursor);

  auto file_source = FileArrivalSource::Open(path);
  ASSERT_TRUE(file_source.ok()) << file_source.status().ToString();
  auto file_part = MakeEdgePartitioner(GetParam(), opt);
  ASSERT_TRUE(file_part.ok());
  (*file_part)->Run(**file_source);

  EXPECT_EQ((*mem)->placements(), (*file_part)->placements());
  EXPECT_EQ((*mem)->edge_counts(), (*file_part)->edge_counts());
  std::remove(path.c_str());
}

// An edge naming kInvalidVertex places nothing and changes no state: the
// partitioner must neither grow its tables to that id (a write far out of
// bounds) nor give the edge a place in the placement log.
TEST_P(EdgePartitionPropertyTest, InvalidEndpointPlacesNothing) {
  std::vector<VertexArrival> arrivals(3);
  for (VertexId v = 0; v < 3; ++v) arrivals[v].vertex = v;
  arrivals[1].back_edges = {0};
  arrivals[2].back_edges = {1, kInvalidVertex};
  const GraphStream stream(arrivals);
  EdgePartitionerOptions opt;
  opt.k = 4;
  auto part = MakeEdgePartitioner(GetParam(), opt);
  ASSERT_TRUE(part.ok());
  StreamCursor cursor(stream);
  (*part)->Run(cursor);

  EXPECT_EQ((*part)->stats().edges_assigned, 2u);
  EXPECT_EQ((*part)->placements().size(), 2u);
  EXPECT_EQ((*part)->PartialDegree(2), 1u);
  EXPECT_EQ((*part)->PartialDegree(kInvalidVertex), 0u);
  EXPECT_EQ((*part)->replicas().NumReplicatedVertices(), 3u);
  EXPECT_TRUE((*part)->replicas().CheckInvariants());

  // A replay after BeginPass() logs only the two valid edges, and the
  // invalid ones add nothing to the retained degrees.
  (*part)->BeginPass();
  (*part)->OnEdge(1, 0);
  EXPECT_EQ((*part)->OnEdge(kInvalidVertex, 0), opt.k);
  EXPECT_EQ((*part)->OnEdge(2, kInvalidVertex), opt.k);
  (*part)->OnEdge(2, 1);
  EXPECT_EQ((*part)->placements().size(), 2u);
  EXPECT_EQ((*part)->stats().edges_assigned, 2u);
  EXPECT_EQ((*part)->PartialDegree(0), 2u);
}

INSTANTIATE_TEST_SUITE_P(EdgePartition, EdgePartitionPropertyTest,
                         ::testing::Values("hdrf", "dbh"));

// ---------------------------------------------------------------------------
// Differential: production vs brute-force oracle, edge-for-edge.

TEST(EdgePartitionDifferentialTest, HdrfMatchesOracle) {
  for (const uint64_t seed : {3u, 23u, 101u}) {
    for (const double lambda : {0.0, 1.0, 4.0}) {
      const GraphStream stream = SmallStream(120, 480, seed);
      EdgePartitionerOptions opt;
      opt.k = 4;
      opt.lambda = lambda;
      opt.num_edges_hint = CountStreamEdges(stream);
      opt.max_partitions_per_vertex = 2;
      HdrfPartitioner part(opt);
      StreamCursor cursor(stream);
      part.Run(cursor);
      EXPECT_EQ(part.placements(), OracleHdrf(stream, opt))
          << "seed=" << seed << " lambda=" << lambda;
    }
  }
  // k = 100: the multi-word mask loop and the mid-pass restride. A cap of
  // 2 makes FallbackPartition relax it, walking mask(u) | mask(v); HDRF
  // then places below partition 16, so only the default cap restrides here.
  for (const uint64_t seed : {3u, 23u}) {
    for (const uint32_t cap : {0u, 2u}) {
      const GraphStream stream = SmallStream(300, 2400, seed);
      EdgePartitionerOptions opt;
      opt.k = 100;
      opt.num_edges_hint = CountStreamEdges(stream);
      opt.max_partitions_per_vertex = cap;
      HdrfPartitioner part(opt);
      StreamCursor cursor(stream);
      part.Run(cursor);
      EXPECT_EQ(part.placements(), OracleHdrf(stream, opt))
          << "seed=" << seed << " cap=" << cap;
      EXPECT_TRUE(part.replicas().CheckInvariants());
      if (cap == 0) {
        EXPECT_GE(part.replicas().words_per_vertex(), 2u);
      } else {
        EXPECT_GT(part.stats().cap_relaxations, 0u);
      }
    }
  }
}

TEST(EdgePartitionDifferentialTest, DbhMatchesOracle) {
  for (const uint64_t seed : {5u, 29u, 97u}) {
    const GraphStream stream = PowerLawStream(150, 4, seed);
    EdgePartitionerOptions opt;
    opt.k = 4;
    opt.num_edges_hint = CountStreamEdges(stream);
    DbhPartitioner part(opt);
    StreamCursor cursor(stream);
    part.Run(cursor);
    EXPECT_EQ(part.placements(), OracleDbh(stream, opt)) << "seed=" << seed;
  }
  // k = 100, as in HdrfMatchesOracle.
  for (const uint64_t seed : {5u, 29u}) {
    for (const uint32_t cap : {0u, 2u}) {
      const GraphStream stream = SmallStream(300, 2400, seed);
      EdgePartitionerOptions opt;
      opt.k = 100;
      opt.num_edges_hint = CountStreamEdges(stream);
      opt.max_partitions_per_vertex = cap;
      DbhPartitioner part(opt);
      StreamCursor cursor(stream);
      part.Run(cursor);
      EXPECT_EQ(part.placements(), OracleDbh(stream, opt))
          << "seed=" << seed << " cap=" << cap;
      EXPECT_TRUE(part.replicas().CheckInvariants());
      if (cap == 0) {
        EXPECT_GE(part.replicas().words_per_vertex(), 2u);
      } else {
        EXPECT_GT(part.stats().cap_relaxations, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// HDRF vs DBH: the classic power-law result the bench table reproduces.

TEST(EdgePartitionQualityTest, HdrfBeatsDbhOnPowerLaw) {
  const GraphStream stream = PowerLawStream(3000, 6, 2024);
  EdgePartitionerOptions opt;
  opt.k = 16;
  opt.num_edges_hint = CountStreamEdges(stream);
  HdrfPartitioner hdrf(opt);
  DbhPartitioner dbh(opt);
  StreamCursor ca(stream);
  hdrf.Run(ca);
  StreamCursor cb(stream);
  dbh.Run(cb);
  EXPECT_LE(ReplicationFactor(hdrf.replicas()),
            ReplicationFactor(dbh.replicas()));
}

// ---------------------------------------------------------------------------
// Options contract

TEST(EdgePartitionOptionsTest, ValidateRejectsBadFields) {
  EdgePartitionerOptions opt;
  opt.k = 0;
  EXPECT_FALSE(ValidateEdgePartitionerOptions(opt).ok());
  opt = EdgePartitionerOptions();
  opt.lambda = -1.0;
  EXPECT_FALSE(ValidateEdgePartitionerOptions(opt).ok());
  for (const double slack : {std::nan(""), -1.0, 0.5, HUGE_VAL}) {
    opt = EdgePartitionerOptions();
    opt.balance_slack = slack;
    EXPECT_FALSE(ValidateEdgePartitionerOptions(opt).ok()) << slack;
  }
  opt = EdgePartitionerOptions();
  opt.heat_weight = -0.1;
  EXPECT_FALSE(ValidateEdgePartitionerOptions(opt).ok());
  opt = EdgePartitionerOptions();
  opt.max_partitions_per_vertex = 1;
  opt.k = 4;
  EXPECT_FALSE(ValidateEdgePartitionerOptions(opt).ok());
  EXPECT_TRUE(ValidateEdgePartitionerOptions(EdgePartitionerOptions()).ok());
}

TEST(EdgePartitionOptionsTest, EdgeCapacityClampsOnlyUnrepresentableBudgets) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(ComputeEdgeCapacity(4, 100, 1.1), 28u);
  EXPECT_EQ(ComputeEdgeCapacity(4, 0, 1.1), 0u);  // unconstrained
  EXPECT_EQ(ComputeEdgeCapacity(4, 100, std::nan("")), 1u);
  EXPECT_EQ(ComputeEdgeCapacity(4, 100, -1.0), 1u);
  EXPECT_EQ(ComputeEdgeCapacity(4, 100, 0.5), 13u);
  EXPECT_EQ(ComputeEdgeCapacity(4, 100, 1e300), kMax);
  EXPECT_EQ(ComputeEdgeCapacity(4, 100, HUGE_VAL), kMax);
}

TEST(EdgePartitionOptionsTest, SanitizeClampsToSafeValues) {
  EdgePartitionerOptions opt;
  opt.k = 0;
  opt.lambda = -3.0;
  opt.balance_slack = 0.0;
  opt.heat_weight = -1.0;
  const EdgePartitionerOptions safe = SanitizeEdgePartitionerOptions(opt);
  EXPECT_EQ(safe.k, 1u);
  EXPECT_EQ(safe.lambda, 0.0);
  EXPECT_EQ(safe.balance_slack, 1.0);
  EXPECT_EQ(safe.heat_weight, 0.0);
  for (const double slack : {std::nan(""), -1.0, 0.5, HUGE_VAL}) {
    opt.balance_slack = slack;
    EXPECT_EQ(SanitizeEdgePartitionerOptions(opt).balance_slack, 1.0)
        << slack;
  }

  EdgePartitionerOptions capped;
  capped.k = 4;
  capped.max_partitions_per_vertex = 9;
  EXPECT_EQ(SanitizeEdgePartitionerOptions(capped).max_partitions_per_vertex,
            4u);
  capped.max_partitions_per_vertex = 1;
  EXPECT_EQ(SanitizeEdgePartitionerOptions(capped).max_partitions_per_vertex,
            2u);
}

TEST(EdgePartitionFactoryTest, KnownNamesAndErrors) {
  EXPECT_EQ(KnownEdgePartitioners().size(), 2u);
  EXPECT_TRUE(IsKnownEdgePartitioner("hdrf"));
  EXPECT_TRUE(IsKnownEdgePartitioner("dbh"));
  EXPECT_FALSE(IsKnownEdgePartitioner("greedy"));
  EXPECT_FALSE(MakeEdgePartitioner("greedy", {}).ok());
  EdgePartitionerOptions bad;
  bad.k = 0;
  EXPECT_FALSE(MakeEdgePartitioner("hdrf", bad).ok());
  auto ok = MakeEdgePartitioner("hdrf", {});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ((*ok)->Name(), "hdrf");
}

// ---------------------------------------------------------------------------
// Workload-aware heat

TEST(WorkloadHeatTest, LabelHeatNormalisedAndDeterministic) {
  TpstryPP trie(4);
  ASSERT_TRUE(trie.AddQuery(PathQuery({0, 1}), 4.0).ok());
  ASSERT_TRUE(trie.AddQuery(PathQuery({2, 2}), 1.0).ok());
  const std::vector<double> heat = LabelHeatFromTrie(trie);
  ASSERT_GE(heat.size(), 3u);
  EXPECT_DOUBLE_EQ(heat[0], 1.0);  // hottest label maps to 1.0
  EXPECT_DOUBLE_EQ(heat[1], 1.0);
  EXPECT_GT(heat[2], 0.0);
  EXPECT_LT(heat[2], 1.0);
  EXPECT_EQ(heat, LabelHeatFromTrie(trie));

  const VertexHeatFn fn = MakeLabelHeatFn(heat);
  EXPECT_DOUBLE_EQ(fn(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(fn(0, 99), 0.0);  // past the table
}

TEST(WorkloadHeatTest, HeatInflatesEffectiveDegreeDeterministically) {
  const GraphStream stream = PowerLawStream(500, 4, 31);
  EdgePartitionerOptions opt;
  opt.k = 6;
  opt.num_edges_hint = CountStreamEdges(stream);
  opt.heat = [](VertexId, Label label) { return label == 0 ? 1.0 : 0.0; };
  opt.heat_weight = 4.0;
  HdrfPartitioner a(opt);
  HdrfPartitioner b(opt);
  StreamCursor ca(stream);
  a.Run(ca);
  StreamCursor cb(stream);
  b.Run(cb);
  EXPECT_EQ(a.placements(), b.placements());
  EXPECT_EQ(a.stats().assign_errors, 0u);
  EXPECT_GE(ReplicationFactor(a.replicas()), 1.0);
}

// ---------------------------------------------------------------------------
// Edge restream

TEST(EdgeRestreamTest, KeepBestNeverRegresses) {
  const GraphStream stream = PowerLawStream(1000, 5, 41);
  StreamCursor cursor(stream);
  EdgePartitionerOptions opt;
  opt.k = 8;
  opt.num_edges_hint = CountStreamEdges(stream);
  HdrfPartitioner part(opt);
  EdgeRestreamOptions ropt;
  ropt.num_passes = 3;
  EdgeRestreamer restreamer(&cursor, ropt);
  auto result = restreamer.Run(&part);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->passes.size(), 3u);
  double prev_best = result->passes[0].best_replication_factor;
  for (const EdgeRestreamPassStats& pass : result->passes) {
    EXPECT_LE(pass.best_replication_factor, prev_best + 1e-12);
    prev_best = pass.best_replication_factor;
    EXPECT_EQ(pass.assign_errors, 0u);
  }
  EXPECT_DOUBLE_EQ(result->replication_factor,
                   result->passes.back().best_replication_factor);
  EXPECT_EQ(result->placements.size(), CountStreamEdges(stream));
  EXPECT_TRUE(part.replicas().CheckInvariants());
}

// BeginPass must start the pass from an empty replica set: a pass that
// streams only part of the earlier population counts only the vertices it
// saw, so its replication factor stays >= 1.
TEST(EdgeRestreamTest, BeginPassStartsFromEmptyReplicaSet) {
  std::vector<VertexArrival> arrivals(100);
  for (VertexId v = 0; v < 100; ++v) {
    arrivals[v].vertex = v;
    if (v > 0) arrivals[v].back_edges = {v - 1};
  }
  const GraphStream path(arrivals);
  const GraphStream half(std::vector<VertexArrival>(arrivals.begin(),
                                                    arrivals.begin() + 50));
  EdgePartitionerOptions opt;
  opt.k = 4;
  HdrfPartitioner part(opt);
  StreamCursor full_cursor(path);
  part.Run(full_cursor);
  ASSERT_TRUE(part.replicas().CheckInvariants());

  part.BeginPass();
  EXPECT_TRUE(part.replicas().CheckInvariants());
  EXPECT_EQ(part.replicas().NumReplicatedVertices(), 0u);
  StreamCursor half_cursor(half);
  part.Run(half_cursor);
  EXPECT_TRUE(part.replicas().CheckInvariants());
  EXPECT_EQ(part.replicas().NumReplicatedVertices(), 50u);
  EXPECT_GE(ReplicationFactor(part.replicas()), 1.0);
}

TEST(EdgeRestreamTest, RequiresPlacementLog) {
  const GraphStream stream = SmallStream(100, 300, 53);
  StreamCursor cursor(stream);
  EdgePartitionerOptions opt;
  opt.record_placements = false;
  HdrfPartitioner part(opt);
  EdgeRestreamer restreamer(&cursor, EdgeRestreamOptions());
  EXPECT_EQ(restreamer.Run(&part).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EdgeRestreamTest, OptionsContract) {
  EdgeRestreamOptions opt;
  opt.num_passes = 0;
  EXPECT_FALSE(ValidateEdgeRestreamOptions(opt).ok());
  EXPECT_EQ(SanitizeEdgeRestreamOptions(opt).num_passes, 1u);
  EXPECT_TRUE(ValidateEdgeRestreamOptions(EdgeRestreamOptions()).ok());
}

// Multi-pass edge restream properties, for each edge partitioner.
class EdgeRestreamPropertyTest
    : public ::testing::TestWithParam<const char*> {
 protected:
  static Result<EdgeRestreamResult> Restream(const GraphStream& stream,
                                             const EdgeRestreamOptions& ropt,
                                             EdgePartitioner* part) {
    StreamCursor cursor(stream);
    EdgeRestreamer restreamer(&cursor, ropt);
    return restreamer.Run(part);
  }

  static EdgePartitionerOptions Options(uint64_t m) {
    EdgePartitionerOptions opt;
    opt.k = 8;
    opt.num_edges_hint = m;
    return opt;
  }
};

TEST_P(EdgeRestreamPropertyTest, DeterministicAcrossRepeatedRuns) {
  const GraphStream stream = PowerLawStream(1200, 5, 61);
  const uint64_t m = CountStreamEdges(stream);
  EdgeRestreamOptions ropt;
  ropt.num_passes = 3;
  auto a = MakeEdgePartitioner(GetParam(), Options(m));
  auto b = MakeEdgePartitioner(GetParam(), Options(m));
  ASSERT_TRUE(a.ok() && b.ok());
  auto ra = Restream(stream, ropt, (*a).get());
  auto rb = Restream(stream, ropt, (*b).get());
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_EQ(ra->placements, rb->placements);
  EXPECT_DOUBLE_EQ(ra->replication_factor, rb->replication_factor);
  EXPECT_DOUBLE_EQ(ra->balance, rb->balance);
  ASSERT_EQ(ra->passes.size(), rb->passes.size());
  for (size_t i = 0; i < ra->passes.size(); ++i) {
    EXPECT_DOUBLE_EQ(ra->passes[i].replication_factor,
                     rb->passes[i].replication_factor);
    EXPECT_DOUBLE_EQ(ra->passes[i].moved_fraction,
                     rb->passes[i].moved_fraction);
  }
}

TEST_P(EdgeRestreamPropertyTest, EveryPassClean) {
  // No pass needs a cap relaxation or errors an assignment, and every
  // moved share is a fraction of the edges.
  const GraphStream stream = PowerLawStream(1500, 5, 67);
  const uint64_t m = CountStreamEdges(stream);
  EdgeRestreamOptions ropt;
  ropt.num_passes = 3;
  auto part = MakeEdgePartitioner(GetParam(), Options(m));
  ASSERT_TRUE(part.ok());
  auto result = Restream(stream, ropt, (*part).get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->passes.size(), 3u);
  for (const EdgeRestreamPassStats& pass : result->passes) {
    EXPECT_EQ(pass.cap_relaxations, 0u) << "pass " << pass.pass;
    EXPECT_EQ(pass.assign_errors, 0u) << "pass " << pass.pass;
    EXPECT_GE(pass.moved_fraction, 0.0) << "pass " << pass.pass;
    EXPECT_LE(pass.moved_fraction, 1.0) << "pass " << pass.pass;
  }
  EXPECT_EQ(result->placements.size(), m);
}

// Only the degree table carries over between passes. Two partitioners see
// one graph in different orders, so their first passes place it
// differently but end with equal degrees; after BeginPass() a replay of
// one stream places every edge identically on both.
TEST_P(EdgeRestreamPropertyTest, LaterPassesDependOnlyOnDegrees) {
  Rng rng(79);
  const LabeledGraph g = BarabasiAlbert(1000, 5, LabelConfig{4, 0.3}, rng);
  const GraphStream random_order = MakeStream(g, StreamOrder::kRandom, rng);
  const GraphStream bfs_order = MakeStream(g, StreamOrder::kBfs, rng);
  auto a = MakeEdgePartitioner(GetParam(), Options(g.NumEdges()));
  auto b = MakeEdgePartitioner(GetParam(), Options(g.NumEdges()));
  ASSERT_TRUE(a.ok() && b.ok());
  StreamCursor random_cursor(random_order);
  StreamCursor bfs_cursor(bfs_order);
  (*a)->Run(random_cursor);
  (*b)->Run(bfs_cursor);
  ASSERT_NE(EdgeToPartition(random_order, (*a)->placements()),
            EdgeToPartition(bfs_order, (*b)->placements()));

  (*a)->BeginPass();
  (*b)->BeginPass();
  StreamCursor replay_a(random_order);
  StreamCursor replay_b(random_order);
  (*a)->Run(replay_a);
  (*b)->Run(replay_b);
  EXPECT_EQ((*a)->placements(), (*b)->placements());
  EXPECT_EQ((*a)->edge_counts(), (*b)->edge_counts());
}

// Run is a first pass plus BeginPass() replays and nothing more: each row
// matches a hand-driven replay, moved_fraction is the share of edges placed
// off the best earlier pass, and the result keeps the best pass's log.
TEST_P(EdgeRestreamPropertyTest, RunMatchesHandDrivenReplays) {
  const GraphStream stream = PowerLawStream(1200, 5, 83);
  const uint64_t m = CountStreamEdges(stream);
  constexpr uint32_t kPasses = 4;
  EdgeRestreamOptions ropt;
  ropt.num_passes = kPasses;
  auto run = MakeEdgePartitioner(GetParam(), Options(m));
  auto hand = MakeEdgePartitioner(GetParam(), Options(m));
  ASSERT_TRUE(run.ok() && hand.ok());
  auto result = Restream(stream, ropt, (*run).get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->passes.size(), kPasses);

  std::vector<uint32_t> best;
  double best_rf = 0.0;
  double best_balance = 0.0;
  for (uint32_t pass = 1; pass <= kPasses; ++pass) {
    if (pass > 1) (*hand)->BeginPass();
    StreamCursor cursor(stream);
    (*hand)->Run(cursor);
    const std::vector<uint32_t>& log = (*hand)->placements();
    ASSERT_EQ(log.size(), m);
    const double rf = ReplicationFactor((*hand)->replicas());
    const double balance = EdgeBalanceMaxOverAvg((*hand)->edge_counts());
    uint64_t moved = 0;
    for (size_t i = 0; i < best.size(); ++i) moved += best[i] != log[i];

    const EdgeRestreamPassStats& row = result->passes[pass - 1];
    EXPECT_EQ(row.pass, pass);
    EXPECT_DOUBLE_EQ(row.replication_factor, rf) << "pass " << pass;
    EXPECT_DOUBLE_EQ(row.balance, balance) << "pass " << pass;
    EXPECT_DOUBLE_EQ(row.moved_fraction,
                     static_cast<double>(moved) / static_cast<double>(m))
        << "pass " << pass;
    if (pass == 1 || rf < best_rf ||
        (rf == best_rf && balance < best_balance)) {
      best = log;
      best_rf = rf;
      best_balance = balance;
    }
    EXPECT_DOUBLE_EQ(row.best_replication_factor, best_rf) << "pass " << pass;
  }
  EXPECT_EQ(result->placements, best);
  EXPECT_DOUBLE_EQ(result->replication_factor, best_rf);
  EXPECT_DOUBLE_EQ(result->balance, best_balance);
  EXPECT_EQ((*run)->placements(), (*hand)->placements());
}

TEST_P(EdgeRestreamPropertyTest, ReplicaSetConsistentAfterRun) {
  // The partitioner's replica set describes its last pass: invariants hold,
  // every edge is counted once and the replication factor is at least one.
  const GraphStream stream = SmallStream(600, 2400, 71);
  const uint64_t m = CountStreamEdges(stream);
  EdgeRestreamOptions ropt;
  ropt.num_passes = 3;
  auto part = MakeEdgePartitioner(GetParam(), Options(m));
  ASSERT_TRUE(part.ok());
  auto result = Restream(stream, ropt, (*part).get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE((*part)->replicas().CheckInvariants());
  EXPECT_GE(ReplicationFactor((*part)->replicas()), 1.0);
  EXPECT_GE(result->replication_factor, 1.0);
  uint64_t total = 0;
  for (const uint64_t c : (*part)->edge_counts()) total += c;
  EXPECT_EQ(total, m);
  EXPECT_EQ((*part)->placements().size(), m);
}

TEST_P(EdgeRestreamPropertyTest, KeepBestNeverWorseThanPassOne) {
  const GraphStream stream = PowerLawStream(1000, 5, 73);
  const uint64_t m = CountStreamEdges(stream);
  EdgeRestreamOptions ropt;
  ropt.num_passes = 3;
  auto part = MakeEdgePartitioner(GetParam(), Options(m));
  ASSERT_TRUE(part.ok());
  auto result = Restream(stream, ropt, (*part).get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->passes.size(), 3u);
  EXPECT_LE(result->replication_factor,
            result->passes[0].replication_factor + 1e-12);
  EXPECT_DOUBLE_EQ(result->passes[0].moved_fraction, 0.0);
}

INSTANTIATE_TEST_SUITE_P(EdgeRestream, EdgeRestreamPropertyTest,
                         ::testing::Values("hdrf", "dbh"));

// ---------------------------------------------------------------------------
// Golden hashes: ER/BA bench families, bench-fast shape (4000 vertices).
// Regenerate with LOOM_EQUIV_DUMP=1.

struct GoldenRow {
  const char* family;
  const char* partitioner;
  uint64_t hash;
};

constexpr uint32_t kGoldenN = 4000;

GraphStream GoldenFamily(const std::string& name) {
  Rng rng(2024);
  if (name == "erdos_renyi") {
    LabeledGraph g = ErdosRenyiGnm(kGoldenN, kGoldenN * 4, LabelConfig{4, 0.3},
                                   rng);
    return MakeStream(g, StreamOrder::kRandom, rng);
  }
  LabeledGraph g = BarabasiAlbert(kGoldenN, 4, LabelConfig{4, 0.3}, rng);
  return MakeStream(g, StreamOrder::kNatural, rng);
}

constexpr GoldenRow kGolden[] = {
    {"erdos_renyi", "hdrf", 0x85efe6309e75006aull},
    {"erdos_renyi", "dbh", 0xc63f8b04156f5977ull},
    {"barabasi_albert", "hdrf", 0x7abb7f69dc730426ull},
    {"barabasi_albert", "dbh", 0x2d2e086f7280eed7ull},
};

TEST(EdgePartitionGoldenTest, PlacementHashesMatchPins) {
  const bool dump = std::getenv("LOOM_EQUIV_DUMP") != nullptr;
  for (const GoldenRow& row : kGolden) {
    const GraphStream stream = GoldenFamily(row.family);
    EdgePartitionerOptions opt;
    opt.k = 8;
    opt.num_edges_hint = CountStreamEdges(stream);
    auto part = MakeEdgePartitioner(row.partitioner, opt);
    ASSERT_TRUE(part.ok());
    StreamCursor cursor(stream);
    (*part)->Run(cursor);
    const uint64_t hash = PlacementHash((*part)->placements());
    if (dump) {
      std::cout << "{\"" << row.family << "\", \"" << row.partitioner
                << "\", 0x" << std::hex << hash << std::dec << "ull},\n";
      continue;
    }
    EXPECT_EQ(hash, row.hash) << row.family << "/" << row.partitioner;
  }
}

// ---------------------------------------------------------------------------
// Scalar-vs-bitmask kernel equivalence. The word-parallel HDRF kernel
// (replica bitmasks + incremental load bounds) must reproduce the scalar
// reference loop bit-for-bit — same pins, both kernels, with the balance
// weight at its default and cranked up so the balance-group argmin path
// (not just the replica-affinity path) decides placements.

struct KernelPinRow {
  const char* family;
  double lambda;
  uint64_t hash;
};

constexpr KernelPinRow kKernelPins[] = {
    {"erdos_renyi", 1.0, 0x85efe6309e75006aull},
    {"erdos_renyi", 4.0, 0x67061a19970c18e9ull},
    {"barabasi_albert", 1.0, 0x7abb7f69dc730426ull},
    {"barabasi_albert", 4.0, 0x0224d0850d6c2dd4ull},
};

TEST(EdgePartitionGoldenTest, ScalarAndBitmaskKernelsMatchPins) {
  const bool dump = std::getenv("LOOM_EQUIV_DUMP") != nullptr;
  for (const KernelPinRow& row : kKernelPins) {
    const GraphStream stream = GoldenFamily(row.family);
    EdgePartitionerOptions opt;
    opt.k = 8;
    opt.lambda = row.lambda;
    opt.num_edges_hint = CountStreamEdges(stream);
    for (const bool scalar : {true, false}) {
      HdrfPartitioner part(opt);
      part.set_force_scalar_kernel(scalar);
      StreamCursor cursor(stream);
      part.Run(cursor);
      const uint64_t hash = PlacementHash(part.placements());
      if (dump) {
        if (scalar) {
          std::cout << "{\"" << row.family << "\", " << row.lambda << ", 0x"
                    << std::hex << hash << std::dec << "ull},\n";
        }
        continue;
      }
      EXPECT_EQ(hash, row.hash)
          << row.family << " lambda=" << row.lambda
          << (scalar ? " scalar" : " bitmask");
    }
  }
}

}  // namespace
}  // namespace loom
