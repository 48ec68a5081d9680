// Executable reproductions of the paper's three figures: the Figure 1
// example, the Figure 2 TPSTry++, and the Figure 3 stream-matching
// scenario, wired through the public API end to end.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/loom.h"
#include "matching/stream_matcher.h"
#include "motif/isomorphism.h"
#include "stream/stream.h"
#include "workload/query_builders.h"
#include "workload/query_engine.h"

namespace loom {
namespace {

// F1: "the answer to q1 would be the sub-graph of G containing the vertices
// 1, 2, 5, 6 and their interconnecting edges" (§1).
TEST(FigureTest, F1_Q1AnswerIsPaperVertexSet) {
  const LabeledGraph g = PaperFigure1Graph();
  PartitionAssignment all_local(1, 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_TRUE(all_local.Assign(v, 0).ok());
  }
  const QueryExecutionStats stats = ExecuteQuery(g, all_local, PaperQ1());
  EXPECT_GT(stats.num_embeddings, 0u);
  std::set<std::set<VertexId>> sets;
  ForEachEmbedding(PaperQ1(), g, [&](const std::vector<VertexId>& m) {
    sets.insert(std::set<VertexId>(m.begin(), m.end()));
    return true;
  });
  ASSERT_EQ(sets.size(), 1u);
  // Paper ids 1,2,5,6 are our ids 0,1,4,5.
  EXPECT_EQ(*sets.begin(), (std::set<VertexId>{0, 1, 4, 5}));
}

// F2: the TPSTry++ of Figure 2 summarises Q = {q1, q2, q3}: 14 motifs with
// the right parent/child lattice (see tpstry_pp_test for the full inventory;
// here we drive it through the public facade).
TEST(FigureTest, F2_TrieMatchesFigure) {
  LoomOptions o;
  o.partitioner.k = 2;
  o.partitioner.num_vertices_hint = 8;
  auto loom = Loom::Create(PaperFigure1Workload(), o);
  ASSERT_TRUE(loom.ok());
  const TpstryPP& trie = (*loom)->Trie();
  EXPECT_EQ(trie.NumNodes(), 14u);
  // Every node reachable from some root: count nodes reachable via children.
  std::set<TpstryNodeId> reachable;
  std::vector<TpstryNodeId> stack;
  for (const Label l : {kLabelA, kLabelB, kLabelC, kLabelD}) {
    const auto root = trie.RootFor(l);
    ASSERT_TRUE(root.has_value());
    stack.push_back(*root);
  }
  while (!stack.empty()) {
    const TpstryNodeId id = stack.back();
    stack.pop_back();
    if (!reachable.insert(id).second) continue;
    for (const TpstryNodeId c : trie.node(id).children) stack.push_back(c);
  }
  EXPECT_EQ(reachable.size(), trie.NumNodes());
}

// F3: the stream-matching scenario of Figure 3. S = abc matched; an edge
// arrives extending S to S' (not a motif); S' nevertheless contains two
// distinct abc instances, recovered only by the re-grow procedure.
TEST(FigureTest, F3_RegrowRecoversOverlappingMotif) {
  Workload w;
  ASSERT_TRUE(w.Add("abc", PathQuery({kLabelA, kLabelB, kLabelC}), 1.0).ok());
  w.Normalize();
  auto trie = BuildTrie(w);
  ASSERT_TRUE(trie.ok());

  auto run = [&](bool regrow) {
    StreamMatcherOptions mo;
    mo.frequency_threshold = 0.5;
    mo.use_regrow = regrow;
    mo.verify_exact = true;
    StreamMatcher m(trie->get(), mo);
    // Stream of Figure 3: a-b-c then a second c attaching to b.
    m.OnVertex(0, kLabelA, {});
    m.OnVertex(1, kLabelB, {0});
    m.OnVertex(2, kLabelC, {1});
    m.OnVertex(3, kLabelC, {1});
    const auto sets = m.FrequentMatchVertexSets();
    return std::find(sets.begin(), sets.end(),
                     std::vector<VertexId>{0, 1, 3}) != sets.end();
  };
  EXPECT_FALSE(run(false)) << "without re-grow the second abc is invisible";
  EXPECT_TRUE(run(true)) << "re-grow must recover the second abc (Fig. 3)";
}

// F3 follow-through (§4.4): because the two matches share sub-structure,
// LOOM must assign both abc instances to the same partition.
TEST(FigureTest, F3_OverlappingMatchesAssignedTogether) {
  Workload w;
  ASSERT_TRUE(w.Add("abc", PathQuery({kLabelA, kLabelB, kLabelC}), 1.0).ok());
  w.Normalize();

  LabeledGraph g;
  g.AddVertex(kLabelA);   // 0
  g.AddVertex(kLabelB);   // 1
  g.AddVertex(kLabelC);   // 2
  g.AddVertex(kLabelC);   // 3
  g.AddEdgeUnchecked(0, 1);
  g.AddEdgeUnchecked(1, 2);
  g.AddEdgeUnchecked(1, 3);
  const Result<GraphStream> made = MakeStreamFromOrder(g, {0, 1, 2, 3});
  ASSERT_TRUE(made.ok()) << made.status().ToString();
  const GraphStream& stream = *made;

  LoomOptions o;
  o.partitioner.k = 2;
  o.partitioner.num_vertices_hint = 4;
  o.partitioner.capacity_slack = 1.0;  // capacity 2: the cluster must fit...
  o.partitioner.window_size = 4;
  o.matcher.frequency_threshold = 0.5;
  o.matcher.verify_exact = true;
  // ...it cannot: 4 vertices > capacity 2, so relax slack instead.
  o.partitioner.capacity_slack = 2.0;
  auto loom = Loom::Create(w, o);
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(stream);
  const auto& a = (*loom)->Partitioner().assignment();
  EXPECT_EQ(a.PartOf(0), a.PartOf(1));
  EXPECT_EQ(a.PartOf(1), a.PartOf(2));
  EXPECT_EQ(a.PartOf(2), a.PartOf(3));
}

}  // namespace
}  // namespace loom
