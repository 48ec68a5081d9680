// Tests for graph-stream construction and the §3.1 orderings.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "param_printers.h"
#include "stream/arrival_source.h"
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
  for (size_t i = 0; i < s1.NumVertices(); ++i) {
    EXPECT_EQ(s1.At(i).vertex, s2.At(i).vertex);
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
    EXPECT_EQ(stream.At(i).vertex, i);
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
  for (size_t i = 1; i < stream.NumVertices(); ++i) {
    EXPECT_FALSE(stream.At(i).back_edges.empty())
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
  for (size_t i = 1; i < stream.NumVertices(); ++i) {
    if (!stream.At(i).back_edges.empty()) ++attached;
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
  const Result<GraphStream> made = MakeStreamFromOrder(g, {2, 0, 1});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const GraphStream& stream = *made;
  ASSERT_EQ(stream.NumVertices(), 3u);
  EXPECT_EQ(stream.At(0).vertex, 2u);
  EXPECT_TRUE(stream.At(0).back_edges.empty());
  EXPECT_TRUE(stream.At(1).back_edges.empty());
  // Vertex 1 arrives last and carries both edges.
  EXPECT_EQ(stream.At(2).vertex, 1u);
  EXPECT_EQ(stream.At(2).back_edges.size(), 2u);
}

TEST(StreamTest, FromOrderRejectsANonPermutation) {
  LabeledGraph g;
  for (int i = 0; i < 3; ++i) g.AddVertex(0);
  g.AddEdgeUnchecked(0, 1);
  g.AddEdgeUnchecked(1, 2);
  const auto code = [&g](const std::vector<VertexId>& order) {
    return MakeStreamFromOrder(g, order).status().code();
  };
  // An id past the last vertex would index past the end of the arrival
  // positions.
  EXPECT_EQ(code({0, 3, 1}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({0, kInvalidVertex, 1}), StatusCode::kInvalidArgument);
  // A repeated id: vertex 2 would never arrive.
  EXPECT_EQ(code({0, 1, 1}), StatusCode::kInvalidArgument);
  // Too few or too many ids.
  EXPECT_EQ(code({0, 1}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({0, 1, 2, 0}), StatusCode::kInvalidArgument);
  EXPECT_EQ(code({1, 2, 0}), StatusCode::kOk);
}

TEST(StreamTest, OrderNamesAreStable) {
  EXPECT_EQ(StreamOrderName(StreamOrder::kRandom), "random");
  EXPECT_EQ(StreamOrderName(StreamOrder::kAdversarial), "adversarial");
  EXPECT_EQ(StreamOrderName(StreamOrder::kStochastic), "stochastic");
}

// ----- the flat store -----

/// Expects `stream` to hold exactly `expected`, read through At, and to
/// count their back edges.
void ExpectArrivals(const GraphStream& stream,
                    const std::vector<VertexArrival>& expected) {
  ASSERT_EQ(stream.NumVertices(), expected.size());
  size_t edges = 0;
  for (size_t i = 0; i < expected.size(); ++i) {
    const ArrivalView a = stream.At(i);
    EXPECT_EQ(a.vertex, expected[i].vertex) << "arrival " << i;
    EXPECT_EQ(a.label, expected[i].label) << "arrival " << i;
    EXPECT_EQ(std::vector<VertexId>(a.back_edges.begin(), a.back_edges.end()),
              expected[i].back_edges)
        << "arrival " << i;
    edges += expected[i].back_edges.size();
  }
  EXPECT_EQ(stream.NumEdges(), edges);
}

/// Arrival `i` of a synthetic stream: mostly empty or short back-edge lists,
/// a long one every 97th arrival, all to earlier ids.
VertexArrival SyntheticArrival(VertexId i) {
  VertexArrival a;
  a.vertex = i;
  a.label = i % 5;
  const VertexId degree = std::min<VertexId>(i % 97 == 1 ? 300 : i % 3, i);
  for (VertexId j = 0; j < degree; ++j) a.back_edges.push_back(i - 1 - j);
  return a;
}

std::vector<VertexArrival> SyntheticArrivals(VertexId n) {
  std::vector<VertexArrival> arrivals;
  for (VertexId i = 0; i < n; ++i) arrivals.push_back(SyntheticArrival(i));
  return arrivals;
}

TEST(GraphStreamTest, AppendReadsBackAcrossBufferGrowths) {
  // Nothing is reserved, so every array is reallocated many times on the
  // way; each arrival must still read back what was appended, the last one
  // included.
  const std::vector<VertexArrival> expected = SyntheticArrivals(2000);
  GraphStream stream;
  for (const VertexArrival& a : expected) stream.Append(a);
  ExpectArrivals(stream, expected);
  EXPECT_TRUE(stream.At(0).back_edges.empty());
  EXPECT_EQ(stream.At(1941).back_edges.size(), 300u);
}

TEST(GraphStreamTest, BulkAppendRebasesEachTail) {
  // The serving layer records its stream one ingest batch at a time.
  const std::vector<VertexArrival> expected = SyntheticArrivals(2000);
  GraphStream stream;
  GraphStream batch;
  for (const VertexArrival& a : expected) {
    batch.Append(a);
    if (batch.NumVertices() == 37) {
      stream.Append(batch);
      batch = GraphStream();
    }
  }
  stream.Append(batch);
  stream.Append(GraphStream());  // an empty tail appends nothing
  ExpectArrivals(stream, expected);
}

TEST(GraphStreamTest, NumEdgesIsTheBackEdgeTotal) {
  GraphStream stream;
  EXPECT_EQ(stream.NumVertices(), 0u);
  EXPECT_EQ(stream.NumEdges(), 0u);
  stream.Append(VertexArrival{4, 0, {}});
  EXPECT_EQ(stream.NumEdges(), 0u);
  stream.Append(VertexArrival{7, 1, {4}});
  stream.Append(VertexArrival{2, 0, {4, 7}});
  EXPECT_EQ(stream.NumVertices(), 3u);
  EXPECT_EQ(stream.NumEdges(), 3u);
}

TEST(GraphStreamTest, CopyMoveAndSelfAssignmentKeepTheArrivals) {
  std::vector<VertexArrival> expected = SyntheticArrivals(300);
  const GraphStream original(expected);
  ExpectArrivals(original, expected);

  GraphStream copy = original;
  ExpectArrivals(copy, expected);
  // The copy owns its arrays: appending to it leaves the original as it was.
  copy.Append(VertexArrival{300, 2, {0, 299}});
  ExpectArrivals(original, expected);
  GraphStream assigned;
  assigned = original;
  ExpectArrivals(assigned, expected);

  GraphStream& alias = assigned;  // through a reference: no self-assign lint
  assigned = alias;
  ExpectArrivals(assigned, expected);

  expected.push_back(VertexArrival{300, 2, {0, 299}});
  GraphStream moved = std::move(copy);
  ExpectArrivals(moved, expected);
  GraphStream move_assigned;
  move_assigned = std::move(moved);
  ExpectArrivals(move_assigned, expected);
}

TEST(GraphStreamTest, AtCursorAndArrivalsAgree) {
  const LabeledGraph g = TestGraph(300, 4);
  Rng rng(9);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  const std::vector<VertexArrival> records = stream.arrivals();
  ExpectArrivals(stream, records);
  ExpectArrivals(GraphStream(records), records);

  // The cursor yields the stream's own slices, in order.
  StreamCursor cursor(stream);
  ArrivalView view;
  size_t i = 0;
  while (cursor.Next(&view)) {
    ASSERT_LT(i, stream.NumVertices());
    const ArrivalView at = stream.At(i++);
    EXPECT_EQ(view.vertex, at.vertex);
    EXPECT_EQ(view.label, at.label);
    EXPECT_EQ(view.back_edges.data(), at.back_edges.data());
    EXPECT_EQ(view.back_edges.size(), at.back_edges.size());
  }
  EXPECT_EQ(i, stream.NumVertices());
}

/// The stream of `g` in `order` built arrival by arrival, one owned record
/// each: back edges are the neighbours placed earlier, in adjacency order.
std::vector<VertexArrival> PerArrivalReference(
    const LabeledGraph& g, const std::vector<VertexId>& order) {
  std::vector<uint32_t> position(g.NumVertices(), 0);
  for (uint32_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  std::vector<VertexArrival> arrivals;
  for (uint32_t i = 0; i < order.size(); ++i) {
    VertexArrival a;
    a.vertex = order[i];
    a.label = g.LabelOf(a.vertex);
    for (const VertexId w : g.Neighbors(a.vertex)) {
      if (position[w] < i) a.back_edges.push_back(w);
    }
    arrivals.push_back(std::move(a));
  }
  return arrivals;
}

std::vector<VertexId> ArrivalOrder(const GraphStream& stream) {
  std::vector<VertexId> order;
  for (size_t i = 0; i < stream.NumVertices(); ++i) {
    order.push_back(stream.At(i).vertex);
  }
  return order;
}

TEST_P(StreamOrderTest, MatchesThePerArrivalReference) {
  Rng graph_rng(12);
  const LabeledGraph graphs[] = {
      ErdosRenyiGnm(400, 1600, LabelConfig{4, 0.0}, graph_rng),
      BarabasiAlbert(400, 4, LabelConfig{4, 0.5}, graph_rng)};
  for (const LabeledGraph& g : graphs) {
    Rng rng(13);
    const GraphStream stream = MakeStream(g, GetParam(), rng);
    CheckStreamInvariants(g, stream);
    ExpectArrivals(stream, PerArrivalReference(g, ArrivalOrder(stream)));
  }
}

/// BFS/DFS order drawn the way TraversalOrder draws it, shuffling a fresh
/// copy of each adjacency row.
std::vector<VertexId> ReferenceTraversal(const LabeledGraph& g, Rng& rng,
                                         bool breadth_first) {
  std::vector<VertexId> starts(g.NumVertices());
  std::iota(starts.begin(), starts.end(), VertexId{0});
  rng.Shuffle(&starts);
  std::vector<bool> seen(g.NumVertices(), false);
  std::vector<VertexId> order;
  std::deque<VertexId> frontier;
  for (const VertexId start : starts) {
    if (seen[start]) continue;
    seen[start] = true;
    frontier.push_back(start);
    while (!frontier.empty()) {
      const VertexId v = breadth_first ? frontier.front() : frontier.back();
      if (breadth_first) {
        frontier.pop_front();
      } else {
        frontier.pop_back();
      }
      order.push_back(v);
      std::vector<VertexId> nbrs = g.Neighbors(v);
      rng.Shuffle(&nbrs);
      for (const VertexId w : nbrs) {
        if (!seen[w]) {
          seen[w] = true;
          frontier.push_back(w);
        }
      }
    }
  }
  return order;
}

TEST(StreamTest, TraversalOrdersDrawTheReferencePermutation) {
  Rng graph_rng(14);
  const LabeledGraph g = BarabasiAlbert(500, 3, LabelConfig{4, 0.0},
                                        graph_rng);
  for (const bool breadth_first : {true, false}) {
    Rng stream_rng(15);
    Rng reference_rng(15);
    const GraphStream stream = MakeStream(
        g, breadth_first ? StreamOrder::kBfs : StreamOrder::kDfs, stream_rng);
    EXPECT_EQ(ArrivalOrder(stream),
              ReferenceTraversal(g, reference_rng, breadth_first))
        << (breadth_first ? "bfs" : "dfs");
  }
}

}  // namespace
}  // namespace loom
