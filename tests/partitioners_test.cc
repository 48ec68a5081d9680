// Tests for the streaming partitioners: hash, LDG, Fennel.
// Includes hand-computed LDG fixtures and cross-partitioner property sweeps,
// which also cover LOOM.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <tuple>
#include <utility>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "param_printers.h"
#include "partition/fennel_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"
#include "stream/stream.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

PartitionerOptions Opts(uint32_t k, size_t n, size_t m = 0,
                        double slack = 1.1, size_t window = 16) {
  PartitionerOptions o;
  o.k = k;
  o.num_vertices_hint = n;
  o.num_edges_hint = m;
  o.capacity_slack = slack;
  o.window_size = window;
  return o;
}

TEST(HashPartitionerTest, DeterministicAndComplete) {
  Rng rng(1);
  const LabeledGraph g = ErdosRenyiGnm(500, 1500, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  HashPartitioner p1(Opts(4, g.NumVertices()));
  HashPartitioner p2(Opts(4, g.NumVertices()));
  p1.Run(stream);
  p2.Run(stream);
  EXPECT_TRUE(AllAssigned(g, p1.assignment()));
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    EXPECT_EQ(p1.assignment().PartOf(v), p2.assignment().PartOf(v));
  }
}

TEST(HashPartitionerTest, RoughlyBalancedWithoutCapacityPressure) {
  Rng rng(2);
  const LabeledGraph g = ErdosRenyiGnm(4000, 8000, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  HashPartitioner p(Opts(8, g.NumVertices()));
  p.Run(stream);
  EXPECT_LT(BalanceMaxOverAvg(p.assignment()), 1.1);
}

TEST(LdgPartitionerTest, HandComputedPlacement) {
  // Stream: v0, v1 (edge to v0), v2 (edge to v0), k=2, C=2 (n=4, slack=1).
  // v0 -> scores all 0 -> least loaded = p0.
  // v1 -> 1 edge to p0, p0 size 1: score 1*(1-1/2)=0.5 vs p1 0 -> p0.
  // v2 -> 1 edge to p0 but p0 FULL -> p1.
  // v3 (edge to v2) -> p1 has 1 edge, score 1*(1-1/2)=0.5 -> p1.
  LabeledGraph g;
  for (int i = 0; i < 4; ++i) g.AddVertex(0);
  g.AddEdgeUnchecked(0, 1);
  g.AddEdgeUnchecked(0, 2);
  g.AddEdgeUnchecked(2, 3);
  const Result<GraphStream> made = MakeStreamFromOrder(g, {0, 1, 2, 3});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const GraphStream& stream = *made;
  LdgPartitioner p(Opts(2, 4, 0, 1.0));
  p.Run(stream);
  EXPECT_EQ(p.assignment().PartOf(0), 0);
  EXPECT_EQ(p.assignment().PartOf(1), 0);
  EXPECT_EQ(p.assignment().PartOf(2), 1);
  EXPECT_EQ(p.assignment().PartOf(3), 1);
}

TEST(LdgPartitionerTest, KeepsCliquesTogetherGivenRoom) {
  // Two 5-cliques joined by one edge, streamed clique by clique: LDG should
  // put each clique into one partition.
  Rng rng(3);
  LabeledGraph g;
  for (int i = 0; i < 10; ++i) g.AddVertex(0);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) g.AddEdgeUnchecked(u, v);
  }
  for (VertexId u = 5; u < 10; ++u) {
    for (VertexId v = u + 1; v < 10; ++v) g.AddEdgeUnchecked(u, v);
  }
  g.AddEdgeUnchecked(4, 5);
  const Result<GraphStream> made =
      MakeStreamFromOrder(g, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const GraphStream& stream = *made;
  LdgPartitioner p(Opts(2, 10, 0, 1.0));
  p.Run(stream);
  const auto& a = p.assignment();
  for (VertexId v = 1; v < 5; ++v) EXPECT_EQ(a.PartOf(v), a.PartOf(0));
  for (VertexId v = 6; v < 10; ++v) EXPECT_EQ(a.PartOf(v), a.PartOf(5));
  EXPECT_EQ(NumCutEdges(g, a), 1u);
}

TEST(FennelPartitionerTest, AlphaMatchesFormula) {
  // alpha = m * k^(gamma-1) / n^gamma with gamma = 1.5.
  FennelPartitioner p(Opts(4, 10000, 50000));
  EXPECT_NEAR(p.alpha(), 50000.0 * 2.0 / 1e6, 1e-9);
  EXPECT_DOUBLE_EQ(p.gamma(), 1.5);
}

TEST(FennelPartitionerTest, EmptyGraphNoNeighborsBalances) {
  LabeledGraph g;
  for (int i = 0; i < 100; ++i) g.AddVertex(0);
  Rng rng(4);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  FennelPartitioner p(Opts(4, 100, 0));
  p.Run(stream);
  for (const uint32_t size : p.assignment().Sizes()) {
    EXPECT_EQ(size, 25u);
  }
}

// Cross-partitioner properties, swept over partitioner type, k and order.
enum class Kind { kHash, kLdg, kFennel, kLoom };

// The partitioner's own name (`Name()`), which names the sweep instances.
std::string KindName(Kind kind) {
  switch (kind) {
    case Kind::kHash:
      return "hash";
    case Kind::kLdg:
      return "ldg";
    case Kind::kFennel:
      return "fennel";
    case Kind::kLoom:
      return "loom";
  }
  return "unknown";
}

void PrintTo(Kind kind, std::ostream* os) { *os << KindName(kind); }

// The workload LOOM scores against in the sweeps: paths over the first
// labels, which every sweep graph carries. Built once; it outlives every
// partitioner.
const TpstryPP* SweepTrie() {
  static const std::unique_ptr<TpstryPP> trie = [] {
    Workload w;
    EXPECT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
    EXPECT_TRUE(w.Add("aba", PathQuery({0, 1, 0}), 1.0).ok());
    w.Normalize();
    auto built = BuildTrie(w);
    EXPECT_TRUE(built.ok());
    return std::move(built).value();
  }();
  return trie.get();
}

std::unique_ptr<StreamingPartitioner> Make(Kind kind,
                                           const PartitionerOptions& o) {
  switch (kind) {
    case Kind::kHash:
      return std::make_unique<HashPartitioner>(o);
    case Kind::kLdg:
      return std::make_unique<LdgPartitioner>(o);
    case Kind::kFennel:
      return std::make_unique<FennelPartitioner>(o);
    case Kind::kLoom: {
      LoomOptions lopts;
      lopts.partitioner = o;
      lopts.matcher.frequency_threshold = 0.4;
      auto made = MakePartitioner("loom", lopts, SweepTrie());
      EXPECT_TRUE(made.ok());
      return std::move(made).value();
    }
  }
  return nullptr;
}

class PartitionerProperty
    : public ::testing::TestWithParam<
          std::tuple<Kind, uint32_t, StreamOrder>> {};

TEST_P(PartitionerProperty, CompleteBalancedAssignment) {
  const auto [kind, k, order] = GetParam();
  Rng rng(99);
  const LabeledGraph g = BarabasiAlbert(600, 3, LabelConfig{4, 0.3}, rng);
  const GraphStream stream = MakeStream(g, order, rng);
  auto p = Make(kind, Opts(k, g.NumVertices(), g.NumEdges()));
  p->Run(stream);
  // Every vertex assigned exactly once.
  EXPECT_TRUE(AllAssigned(g, p->assignment()));
  EXPECT_EQ(p->assignment().NumAssigned(), g.NumVertices());
  // Capacity constraint respected: max load <= ceil(1.1 n/k).
  const size_t cap = ComputeCapacity(k, g.NumVertices(), 1.1);
  for (const uint32_t size : p->assignment().Sizes()) {
    EXPECT_LE(size, cap);
  }
}

TEST_P(PartitionerProperty, NeighborAwareBeatsHashOnCut) {
  const auto [kind, k, order] = GetParam();
  if (kind == Kind::kHash) GTEST_SKIP() << "hash is the baseline";
  if (order == StreamOrder::kAdversarial) {
    GTEST_SKIP() << "adversarial order voids greedy guarantees (§3.1)";
  }
  Rng rng(7);
  const LabeledGraph g = WattsStrogatz(800, 4, 0.05, LabelConfig{3, 0.0}, rng);
  const GraphStream stream = MakeStream(g, order, rng);
  auto p = Make(kind, Opts(k, g.NumVertices(), g.NumEdges()));
  auto h = Make(Kind::kHash, Opts(k, g.NumVertices(), g.NumEdges()));
  p->Run(stream);
  h->Run(stream);
  EXPECT_LT(EdgeCutFraction(g, p->assignment()),
            EdgeCutFraction(g, h->assignment()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionerProperty,
    ::testing::Combine(
        ::testing::Values(Kind::kHash, Kind::kLdg, Kind::kFennel,
                          Kind::kLoom),
        ::testing::Values(2u, 4u, 8u),
        ::testing::Values(StreamOrder::kRandom, StreamOrder::kBfs,
                          StreamOrder::kAdversarial)),
    [](const ::testing::TestParamInfo<PartitionerProperty::ParamType>& info) {
      return KindName(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param)) + "_" +
             StreamOrderName(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Capacity exhaustion. The seed code guarded the "all partitions full" path
// with a bare assert and discarded the Assign status, silently dropping
// vertices under NDEBUG; these suites pin the repaired contract: every
// streamed vertex is assigned in every build mode, the fallback is the
// most-free partition, and overflow is visible in stats() instead of fatal.
// ---------------------------------------------------------------------------

class CapacityExhaustion
    : public ::testing::TestWithParam<std::tuple<Kind, uint32_t>> {};

TEST_P(CapacityExhaustion, TightCapacityAssignsEveryVertex) {
  // n == k*C exactly (slack 1.0): the heuristics must fill to the brim
  // without ever needing a forced placement.
  const auto [kind, k] = GetParam();
  Rng rng(31);
  const uint32_t n = 24 * k;
  const LabeledGraph g = ErdosRenyiGnm(n, 3 * n, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  auto p = Make(kind, Opts(k, n, g.NumEdges(), /*slack=*/1.0));
  p->Run(stream);
  EXPECT_EQ(p->assignment().NumAssigned(), n);
  EXPECT_TRUE(AllAssigned(g, p->assignment()));
  EXPECT_EQ(p->stats().forced_placements, 0u);
  EXPECT_EQ(p->stats().assign_errors, 0u);
  for (const uint32_t size : p->assignment().Sizes()) EXPECT_EQ(size, 24u);
}

TEST_P(CapacityExhaustion, OverfullStreamNeverDropsVertices) {
  // The stream carries twice the hinted vertex count, so k*C < n: the seed
  // code dropped the excess under NDEBUG (and assert-crashed in Debug).
  const auto [kind, k] = GetParam();
  Rng rng(32);
  const uint32_t n = 40 * k;
  const LabeledGraph g = ErdosRenyiGnm(n, 3 * n, LabelConfig{2, 0.0}, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  auto p = Make(kind, Opts(k, n / 2, g.NumEdges(), /*slack=*/1.0));
  const size_t cap = ComputeCapacity(k, n / 2, 1.0);
  ASSERT_LT(cap * k, n);
  p->Run(stream);
  EXPECT_EQ(p->assignment().NumAssigned(), n);
  EXPECT_TRUE(AllAssigned(g, p->assignment()));
  EXPECT_EQ(p->stats().assign_errors, 0u);
  // The overflow is reported, not silent...
  EXPECT_GE(p->stats().forced_placements, n - cap * k);
  EXPECT_EQ(p->assignment().NumOverflowed(), p->stats().forced_placements);
  // ...and the least-loaded fallback keeps the excess evenly spread.
  EXPECT_LE(BalanceMaxOverAvg(p->assignment()), 1.1);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CapacityExhaustion,
    ::testing::Combine(::testing::Values(Kind::kHash, Kind::kLdg,
                                         Kind::kFennel, Kind::kLoom),
                       ::testing::Values(2u, 4u, 8u)),
    [](const ::testing::TestParamInfo<CapacityExhaustion::ParamType>& info) {
      return KindName(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace loom
