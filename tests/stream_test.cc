// Tests for graph-stream construction and the §3.1 orderings.

#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "graph/generators.h"
#include "param_printers.h"
#include "stream/stream.h"

namespace loom {
namespace {

LabeledGraph TestGraph(uint32_t n = 200, uint64_t seed = 1) {
  Rng rng(seed);
  return BarabasiAlbert(n, 3, LabelConfig{4, 0.0}, rng);
}

/// Every vertex exactly once; every edge carried exactly once by its later
/// endpoint.
void CheckStreamInvariants(const LabeledGraph& g, const GraphStream& stream) {
  ASSERT_EQ(stream.NumVertices(), g.NumVertices());
  std::unordered_set<VertexId> arrived;
  size_t edges = 0;
  for (const VertexArrival& a : stream.arrivals()) {
    EXPECT_TRUE(arrived.insert(a.vertex).second)
        << "vertex " << a.vertex << " arrived twice";
    EXPECT_EQ(a.label, g.LabelOf(a.vertex));
    for (const VertexId w : a.back_edges) {
      EXPECT_TRUE(arrived.count(w)) << "back edge to future vertex";
      EXPECT_TRUE(g.HasEdge(a.vertex, w));
      ++edges;
    }
  }
  EXPECT_EQ(edges, g.NumEdges());
  EXPECT_EQ(stream.NumEdges(), g.NumEdges());
}

class StreamOrderTest : public ::testing::TestWithParam<StreamOrder> {};

TEST_P(StreamOrderTest, InvariantsHold) {
  const LabeledGraph g = TestGraph();
  Rng rng(42);
  const GraphStream stream = MakeStream(g, GetParam(), rng);
  CheckStreamInvariants(g, stream);
}

TEST_P(StreamOrderTest, DeterministicGivenSeed) {
  const LabeledGraph g = TestGraph();
  Rng rng1(7);
  Rng rng2(7);
  const GraphStream s1 = MakeStream(g, GetParam(), rng1);
  const GraphStream s2 = MakeStream(g, GetParam(), rng2);
  ASSERT_EQ(s1.NumVertices(), s2.NumVertices());
  for (size_t i = 0; i < s1.arrivals().size(); ++i) {
    EXPECT_EQ(s1.arrivals()[i].vertex, s2.arrivals()[i].vertex);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrders, StreamOrderTest,
    ::testing::Values(StreamOrder::kRandom, StreamOrder::kBfs,
                      StreamOrder::kDfs, StreamOrder::kAdversarial,
                      StreamOrder::kStochastic, StreamOrder::kNatural),
    [](const ::testing::TestParamInfo<StreamOrder>& info) {
      return StreamOrderName(info.param);
    });

TEST(StreamTest, NaturalOrderIsIdOrder) {
  const LabeledGraph g = TestGraph(50);
  Rng rng(1);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);
  for (uint32_t i = 0; i < stream.NumVertices(); ++i) {
    EXPECT_EQ(stream.arrivals()[i].vertex, i);
  }
}

TEST(StreamTest, BfsVisitsNeighborhoodsContiguously) {
  // On a path graph, BFS from any start yields arrivals whose back edges are
  // never empty after the first vertex of each component (single component
  // here: only the very first arrival has none).
  LabeledGraph path;
  for (int i = 0; i < 50; ++i) path.AddVertex(0);
  for (VertexId v = 0; v + 1 < 50; ++v) path.AddEdgeUnchecked(v, v + 1);
  Rng rng(3);
  const GraphStream stream = MakeStream(path, StreamOrder::kBfs, rng);
  for (size_t i = 1; i < stream.arrivals().size(); ++i) {
    EXPECT_FALSE(stream.arrivals()[i].back_edges.empty())
        << "BFS arrival " << i << " disconnected from prefix";
  }
}

TEST(StreamTest, AdversarialFrontLoadsIndependentSet) {
  const LabeledGraph g = TestGraph(300);
  Rng rng(5);
  const GraphStream stream = MakeStream(g, StreamOrder::kAdversarial, rng);
  // Count the prefix of arrivals with no back edges: the greedy MIS.
  size_t prefix = 0;
  for (const auto& a : stream.arrivals()) {
    if (!a.back_edges.empty()) break;
    ++prefix;
  }
  // A maximal independent set of a sparse graph is a sizable fraction of V.
  EXPECT_GT(prefix, g.NumVertices() / 10);
}

TEST(StreamTest, StochasticGrowsConnectedRegionOnConnectedGraph) {
  const LabeledGraph g = TestGraph(300);
  ASSERT_TRUE(IsConnected(g));
  Rng rng(6);
  const GraphStream stream = MakeStream(g, StreamOrder::kStochastic, rng);
  // After the first arrival, most vertices should connect to the arrived
  // region (the process prefers attached vertices; base tickets keep a small
  // jump probability).
  size_t attached = 0;
  for (size_t i = 1; i < stream.arrivals().size(); ++i) {
    if (!stream.arrivals()[i].back_edges.empty()) ++attached;
  }
  EXPECT_GT(attached, stream.NumVertices() * 3 / 4);
}

TEST(StreamTest, FromExplicitOrder) {
  LabeledGraph g;
  g.AddVertex(0);
  g.AddVertex(1);
  g.AddVertex(2);
  g.AddEdgeUnchecked(0, 1);
  g.AddEdgeUnchecked(1, 2);
  const GraphStream stream = MakeStreamFromOrder(g, {2, 0, 1});
  ASSERT_EQ(stream.NumVertices(), 3u);
  EXPECT_EQ(stream.arrivals()[0].vertex, 2u);
  EXPECT_TRUE(stream.arrivals()[0].back_edges.empty());
  EXPECT_TRUE(stream.arrivals()[1].back_edges.empty());
  // Vertex 1 arrives last and carries both edges.
  EXPECT_EQ(stream.arrivals()[2].vertex, 1u);
  EXPECT_EQ(stream.arrivals()[2].back_edges.size(), 2u);
}

TEST(StreamTest, OrderNamesAreStable) {
  EXPECT_EQ(StreamOrderName(StreamOrder::kRandom), "random");
  EXPECT_EQ(StreamOrderName(StreamOrder::kAdversarial), "adversarial");
  EXPECT_EQ(StreamOrderName(StreamOrder::kStochastic), "stochastic");
}

}  // namespace
}  // namespace loom
