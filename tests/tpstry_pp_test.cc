// Tests for the TPSTry++ DAG (paper §4.2, Algorithm 1), including the
// reproduction of Figure 2: the TPSTry++ for the workload Q of Figure 1.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "motif/canonical.h"
#include "tpstry/tpstry_pp.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

TEST(TpstryPPTest, SingleEdgeQuery) {
  TpstryPP trie(2);
  ASSERT_TRUE(trie.AddQuery(PathQuery({0, 1}), 1.0).ok());
  trie.Normalize();
  // Nodes: root a, root b, edge ab.
  EXPECT_EQ(trie.NumNodes(), 3u);
  ASSERT_TRUE(trie.RootFor(0).has_value());
  ASSERT_TRUE(trie.RootFor(1).has_value());
  // The edge node is a child of both roots.
  const TpstryNode& ra = trie.node(*trie.RootFor(0));
  const TpstryNode& rb = trie.node(*trie.RootFor(1));
  ASSERT_EQ(ra.children.size(), 1u);
  ASSERT_EQ(rb.children.size(), 1u);
  EXPECT_EQ(ra.children[0], rb.children[0]);
  const TpstryNode& edge = trie.node(ra.children[0]);
  EXPECT_EQ(edge.num_edges, 1u);
  EXPECT_DOUBLE_EQ(edge.support, 1.0);
}

TEST(TpstryPPTest, ParentsHaveOneFewerEdge) {
  TpstryPP trie(4);
  ASSERT_TRUE(trie.AddQuery(PaperQ1(), 1.0).ok());
  ASSERT_TRUE(trie.AddQuery(PaperQ3(), 1.0).ok());
  trie.Normalize();
  for (TpstryNodeId id = 0; id < trie.NumNodes(); ++id) {
    const TpstryNode& n = trie.node(id);
    for (const TpstryNodeId child : n.children) {
      const TpstryNode& c = trie.node(child);
      if (n.num_edges == 0) {
        EXPECT_EQ(c.num_edges, 1u);
      } else {
        EXPECT_EQ(c.num_edges, n.num_edges + 1);
      }
    }
    for (const TpstryNodeId parent : n.parents) {
      EXPECT_LT(trie.node(parent).num_edges, n.num_edges);
    }
  }
}

TEST(TpstryPPTest, MotifsDeduplicatedByIsomorphism) {
  TpstryPP trie(2);
  // Two queries that are the same path written in opposite directions.
  ASSERT_TRUE(trie.AddQuery(PathQuery({0, 1}), 1.0).ok());
  ASSERT_TRUE(trie.AddQuery(PathQuery({1, 0}), 1.0).ok());
  trie.Normalize();
  EXPECT_EQ(trie.NumNodes(), 3u);  // a, b, ab — not duplicated
  const TpstryNode& edge = trie.node(trie.node(*trie.RootFor(0)).children[0]);
  EXPECT_DOUBLE_EQ(edge.support, 1.0);  // both queries contain it
}

TEST(TpstryPPTest, SupportCountedOncePerQuery) {
  TpstryPP trie(2);
  // The star a-(b,b) contains the ab edge twice; support must count once.
  ASSERT_TRUE(trie.AddQuery(StarQuery(0, {1, 1}), 1.0).ok());
  trie.Normalize();
  const auto edge_node = trie.node(*trie.RootFor(0)).children;
  ASSERT_FALSE(edge_node.empty());
  EXPECT_DOUBLE_EQ(trie.node(edge_node[0]).support, 1.0);
}

TEST(TpstryPPTest, SupportsAreQueryFrequencySums) {
  TpstryPP trie(4);
  ASSERT_TRUE(trie.AddQuery(PaperQ2(), 3.0).ok());  // a-b-c
  ASSERT_TRUE(trie.AddQuery(PaperQ3(), 1.0).ok());  // a-b-c-d
  trie.Normalize();
  // The ab edge occurs in both: support 1. The abc path occurs in both: 1.
  // The abcd path occurs only in q3: 0.25.
  const SignatureScheme& scheme = trie.scheme();
  const auto ab = trie.FindBySignature(scheme.SignatureOf(PathQuery({0, 1})));
  ASSERT_TRUE(ab.has_value());
  EXPECT_DOUBLE_EQ(trie.node(*ab).support, 1.0);
  const auto abc = trie.FindBySignature(scheme.SignatureOf(PaperQ2()));
  ASSERT_TRUE(abc.has_value());
  EXPECT_DOUBLE_EQ(trie.node(*abc).support, 1.0);
  const auto abcd = trie.FindBySignature(scheme.SignatureOf(PaperQ3()));
  ASSERT_TRUE(abcd.has_value());
  EXPECT_DOUBLE_EQ(trie.node(*abcd).support, 0.25);
}

TEST(TpstryPPTest, TouchedNodesAreExactlyTheSupportedOnes) {
  // AddQuery's touched list names each node the query added support to
  // once, sorted: the first query touches every node it creates, and a
  // second query raises exactly the nodes on its list.
  TpstryPP trie(4);
  std::vector<TpstryNodeId> q2_nodes;
  ASSERT_TRUE(trie.AddQuery(PaperQ2(), 2.0, false, &q2_nodes).ok());
  EXPECT_EQ(q2_nodes.size(), trie.NumNodes());
  EXPECT_TRUE(std::is_sorted(q2_nodes.begin(), q2_nodes.end()));
  EXPECT_EQ(std::adjacent_find(q2_nodes.begin(), q2_nodes.end()),
            q2_nodes.end());
  std::vector<double> before;
  for (TpstryNodeId id = 0; id < trie.NumNodes(); ++id) {
    EXPECT_DOUBLE_EQ(trie.node(id).support, 2.0);
    before.push_back(trie.node(id).support);
  }

  std::vector<TpstryNodeId> q3_nodes;
  ASSERT_TRUE(trie.AddQuery(PaperQ3(), 1.0, false, &q3_nodes).ok());
  EXPECT_TRUE(std::is_sorted(q3_nodes.begin(), q3_nodes.end()));
  EXPECT_EQ(std::adjacent_find(q3_nodes.begin(), q3_nodes.end()),
            q3_nodes.end());
  EXPECT_GT(trie.NumNodes(), before.size());  // abcd motifs are new
  for (TpstryNodeId id = 0; id < trie.NumNodes(); ++id) {
    const bool touched =
        std::binary_search(q3_nodes.begin(), q3_nodes.end(), id);
    const double was = id < before.size() ? before[id] : 0.0;
    EXPECT_DOUBLE_EQ(trie.node(id).support, was + (touched ? 1.0 : 0.0))
        << "node " << id;
  }
}

TEST(TpstryPPTest, FrequentNodesRespectThreshold) {
  TpstryPP trie(4);
  ASSERT_TRUE(trie.AddQuery(PaperQ2(), 3.0).ok());
  ASSERT_TRUE(trie.AddQuery(PaperQ3(), 1.0).ok());
  trie.Normalize();
  for (const TpstryNodeId id : trie.FrequentNodes(0.5)) {
    EXPECT_GE(trie.node(id).support, 0.5);
  }
  const auto bitmap = trie.FrequentBitmap(0.5);
  size_t count = 0;
  for (const bool b : bitmap) count += b ? 1 : 0;
  EXPECT_EQ(count, trie.FrequentNodes(0.5).size());
}

TEST(TpstryPPTest, UsefulBitmapCoversAncestorsOfFrequent) {
  TpstryPP trie(4);
  ASSERT_TRUE(trie.AddQuery(PaperQ3(), 1.0).ok());  // all supports equal 1
  ASSERT_TRUE(trie.AddQuery(PaperQ2(), 3.0).ok());
  trie.Normalize();
  const auto frequent = trie.FrequentBitmap(0.9);
  const auto useful = trie.UsefulBitmap(0.9);
  // Useful ⊇ frequent.
  for (TpstryNodeId id = 0; id < trie.NumNodes(); ++id) {
    if (frequent[id]) {
      EXPECT_TRUE(useful[id]);
    }
    // And every useful node reaches a frequent one via children.
    if (useful[id] && !frequent[id]) {
      bool reaches = false;
      std::vector<TpstryNodeId> stack = {id};
      std::set<TpstryNodeId> seen;
      while (!stack.empty() && !reaches) {
        const TpstryNodeId cur = stack.back();
        stack.pop_back();
        for (const TpstryNodeId c : trie.node(cur).children) {
          if (!seen.insert(c).second) continue;
          if (frequent[c]) reaches = true;
          stack.push_back(c);
        }
      }
      EXPECT_TRUE(reaches) << "node " << id << " useful but leads nowhere";
    }
  }
}

TEST(TpstryPPTest, PathsOnlyModeSkipsBranchesAndCycles) {
  TpstryPP full(4);
  TpstryPP paths(4);
  ASSERT_TRUE(full.AddQuery(PaperQ1(), 1.0).ok());  // abab cycle
  ASSERT_TRUE(paths.AddQuery(PaperQ1(), 1.0, /*paths_only=*/true).ok());
  // The cycle node itself only exists in the full trie.
  const auto cycle_sig = full.scheme().SignatureOf(PaperQ1());
  EXPECT_TRUE(full.FindBySignature(cycle_sig).has_value());
  EXPECT_FALSE(paths.FindBySignature(cycle_sig).has_value());
  EXPECT_LT(paths.NumNodes(), full.NumNodes());
}

TEST(TpstryPPTest, RejectsLabelOutsideAlphabet) {
  TpstryPP trie(2);
  EXPECT_FALSE(trie.AddQuery(PathQuery({0, 3}), 1.0).ok());
}

TEST(TpstryPPTest, RejectsNonPositiveFrequency) {
  TpstryPP trie(2);
  EXPECT_FALSE(trie.AddQuery(PathQuery({0, 1}), 0.0).ok());
  EXPECT_FALSE(trie.AddQuery(LabeledGraph(), 1.0).ok());
}

// ---------------------------------------------------------------- Figure 2

// The TPSTry++ for Q = {q1: abab-cycle, q2: abc-path, q3: abcd-path} as
// drawn in Figure 2, level by level:
//   roots:    a, b, c, d
//   1 edge:   ab, bc, cd
//   2 edges:  aba, bab, abc, bcd
//   3 edges:  abab (open path), abcd
//   4 edges:  abab cycle
// = 14 isomorphism-distinct motifs.
TEST(TpstryPPTest, Figure2NodeInventory) {
  TpstryPP trie(4);
  const Workload w = PaperFigure1Workload();
  for (const QuerySpec& q : w.queries()) {
    ASSERT_TRUE(trie.AddQuery(q.pattern, q.frequency).ok());
  }
  trie.Normalize();

  const SignatureScheme& s = trie.scheme();
  auto has = [&](const LabeledGraph& motif) {
    return trie.FindBySignature(s.SignatureOf(motif)).has_value();
  };
  // Roots.
  EXPECT_TRUE(trie.RootFor(kLabelA).has_value());
  EXPECT_TRUE(trie.RootFor(kLabelB).has_value());
  EXPECT_TRUE(trie.RootFor(kLabelC).has_value());
  EXPECT_TRUE(trie.RootFor(kLabelD).has_value());
  // Single edges.
  EXPECT_TRUE(has(PathQuery({0, 1})));  // ab
  EXPECT_TRUE(has(PathQuery({1, 2})));  // bc
  EXPECT_TRUE(has(PathQuery({2, 3})));  // cd
  EXPECT_FALSE(has(PathQuery({0, 2})));  // ac never occurs
  // Two-edge paths.
  EXPECT_TRUE(has(PathQuery({0, 1, 0})));  // aba (from q1)
  EXPECT_TRUE(has(PathQuery({1, 0, 1})));  // bab (from q1)
  EXPECT_TRUE(has(PathQuery({0, 1, 2})));  // abc (q2, q3)
  EXPECT_TRUE(has(PathQuery({1, 2, 3})));  // bcd (q3)
  // Three-edge motifs.
  EXPECT_TRUE(has(PathQuery({1, 0, 1, 0})));  // abab open path (from q1)
  EXPECT_TRUE(has(PaperQ3()));                // abcd
  // The q1 cycle itself.
  EXPECT_TRUE(has(PaperQ1()));
  // Exactly the 14 motifs of Figure 2.
  EXPECT_EQ(trie.NumNodes(), 14u);
}

TEST(TpstryPPTest, Figure2SupportValues) {
  TpstryPP trie(4);
  const Workload w = PaperFigure1Workload();  // equal frequencies 1/3
  for (const QuerySpec& q : w.queries()) {
    ASSERT_TRUE(trie.AddQuery(q.pattern, q.frequency).ok());
  }
  trie.Normalize();
  const SignatureScheme& s = trie.scheme();
  auto support = [&](const LabeledGraph& motif) {
    const auto id = trie.FindBySignature(s.SignatureOf(motif));
    return id.has_value() ? trie.node(*id).support : -1.0;
  };
  // ab occurs in all three queries; bc in q2 and q3; cd only in q3.
  EXPECT_NEAR(support(PathQuery({0, 1})), 1.0, 1e-9);
  EXPECT_NEAR(support(PathQuery({1, 2})), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(support(PathQuery({2, 3})), 1.0 / 3.0, 1e-9);
  // aba only from q1; abc from q2+q3; the cycle only from q1.
  EXPECT_NEAR(support(PathQuery({0, 1, 0})), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(support(PathQuery({0, 1, 2})), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(support(PaperQ1()), 1.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace loom
