// Tests for windowed graph-stream pattern matching (§4.3), including the
// Figure 3 overlapping-motif scenario and the re-grow procedure.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/loom.h"
#include "matching/stream_matcher.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

std::unique_ptr<TpstryPP> AbcTrie() {
  // Workload: the path a-b-c with frequency 1 -> every sub-motif frequent.
  Workload w;
  EXPECT_TRUE(w.Add("abc", PathQuery({0, 1, 2}), 1.0).ok());
  w.Normalize();
  auto trie = BuildTrie(w);
  EXPECT_TRUE(trie.ok());
  return std::move(trie).value();
}

StreamMatcherOptions ExactOpts(double threshold = 0.5) {
  StreamMatcherOptions o;
  o.frequency_threshold = threshold;
  o.verify_exact = true;
  return o;
}

TEST(StreamMatcherTest, SingleEdgeMotifTracked) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(10, 0, {});
  m.OnVertex(11, 1, {10});
  // The ab edge is a frequent motif (support 1.0 >= 0.5).
  EXPECT_GE(m.NumFrequentMatches(), 1u);
  const auto closure = m.MatchClosureFor(10);
  ASSERT_EQ(closure.size(), 1u);
  EXPECT_EQ(closure[0], 11u);
}

TEST(StreamMatcherTest, FullPathMotifDetected) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(1, 0, {});
  m.OnVertex(2, 1, {1});
  m.OnVertex(3, 2, {2});
  // Tracked: ab, bc, abc (all frequent).
  const auto sets = m.FrequentMatchVertexSets();
  EXPECT_TRUE(std::find(sets.begin(), sets.end(),
                        std::vector<VertexId>{1, 2, 3}) != sets.end())
      << "full abc match missing";
  // Closure of vertex 1 spans the whole path via the abc match.
  EXPECT_EQ(m.MatchClosureFor(1), (std::vector<VertexId>{2, 3}));
}

TEST(StreamMatcherTest, LabelMismatchNotTracked) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(1, 2, {});
  m.OnVertex(2, 2, {1});  // c-c edge: not a motif
  EXPECT_EQ(m.NumTracked(), 0u);
  EXPECT_TRUE(m.MatchClosureFor(1).empty());
}

TEST(StreamMatcherTest, RemoveVertexPurgesMatches) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(1, 0, {});
  m.OnVertex(2, 1, {1});
  m.OnVertex(3, 2, {2});
  EXPECT_GT(m.NumTracked(), 0u);
  m.RemoveVertex(2);
  // Every tracked sub-graph contained vertex 2 (it is the path's middle).
  EXPECT_TRUE(m.MatchClosureFor(1).empty());
  EXPECT_TRUE(m.MatchClosureFor(3).empty());
}

TEST(StreamMatcherTest, ThresholdGatesMatchesButNotTracking) {
  // Workload: abc twice as frequent as cd. Threshold 0.5 keeps abc motifs
  // frequent, cd infrequent.
  Workload w;
  ASSERT_TRUE(w.Add("abc", PathQuery({0, 1, 2}), 2.0).ok());
  ASSERT_TRUE(w.Add("cd", PathQuery({2, 3}), 1.0).ok());
  w.Normalize();
  auto trie = BuildTrie(w);
  ASSERT_TRUE(trie.ok());
  StreamMatcher m(trie->get(), ExactOpts(0.5));
  m.OnVertex(1, 2, {});
  m.OnVertex(2, 3, {1});  // cd edge: known motif, support 1/3 < 0.5
  EXPECT_TRUE(m.MatchClosureFor(1).empty());
}

TEST(StreamMatcherTest, Figure3OverlappingMotifsViaRegrow) {
  // Fig. 3: the window holds a-b-c (S, a motif match). A second c attaches
  // to b, forming S' = abc+c which is NOT a motif; without re-grow the
  // second abc instance (a, b, c2) would be missed.
  auto trie = AbcTrie();
  StreamMatcherOptions with_regrow = ExactOpts();
  StreamMatcher m(trie.get(), with_regrow);
  m.OnVertex(1, 0, {});        // a
  m.OnVertex(2, 1, {1});       // b: S = ab
  m.OnVertex(3, 2, {2});       // c1: S = abc  (match)
  m.OnVertex(4, 2, {2});       // c2 attaches to b
  const auto sets = m.FrequentMatchVertexSets();
  const bool first_abc =
      std::find(sets.begin(), sets.end(), std::vector<VertexId>{1, 2, 3}) !=
      sets.end();
  const bool second_abc =
      std::find(sets.begin(), sets.end(), std::vector<VertexId>{1, 2, 4}) !=
      sets.end();
  EXPECT_TRUE(first_abc) << "original abc lost";
  EXPECT_TRUE(second_abc) << "Fig. 3: overlapping abc not recovered";
  EXPECT_GE(m.stats().regrow_matches, 1u);
}

TEST(StreamMatcherTest, Figure3MissedWithoutRegrow) {
  auto trie = AbcTrie();
  StreamMatcherOptions no_regrow = ExactOpts();
  no_regrow.use_regrow = false;
  StreamMatcher m(trie.get(), no_regrow);
  m.OnVertex(1, 0, {});
  m.OnVertex(2, 1, {1});
  m.OnVertex(3, 2, {2});
  m.OnVertex(4, 2, {2});
  const auto sets = m.FrequentMatchVertexSets();
  const bool second_abc =
      std::find(sets.begin(), sets.end(), std::vector<VertexId>{1, 2, 4}) !=
      sets.end();
  // bc (4,2) still matches as an edge motif, but the full second abc is
  // unreachable without re-grow: growing S=abc by edge (2,4) leaves the trie.
  EXPECT_FALSE(second_abc)
      << "ablation expectation violated: regrow off but match found";
}

TEST(StreamMatcherTest, TransitiveVsDirectClosure) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  // Two abc paths sharing only the a vertex: 2-1-3 and 2-4-5 (labels b,a,c
  // arranged so both contain vertex 1).
  m.OnVertex(1, 0, {});        // a
  m.OnVertex(2, 1, {1});       // b1
  m.OnVertex(3, 2, {2});       // c1 -> match {1,2,3}
  m.OnVertex(4, 1, {1});       // b2
  m.OnVertex(5, 2, {4});       // c2 -> match {1,4,5}
  // Transitive closure from 3 reaches the second path through vertex 1.
  const auto transitive = m.MatchClosureFor(3, /*transitive=*/true);
  EXPECT_EQ(transitive, (std::vector<VertexId>{1, 2, 4, 5}));
  // Direct closure from 3 stays within its own match.
  const auto direct = m.MatchClosureFor(3, /*transitive=*/false);
  EXPECT_EQ(direct, (std::vector<VertexId>{1, 2}));
}

TEST(StreamMatcherTest, SignatureOnlyModeMatchesExactOnCleanData) {
  // On a stream without collision-shaped structures, verify_exact=false
  // (the paper's mode) finds the same matches.
  auto trie = AbcTrie();
  StreamMatcherOptions fast = ExactOpts();
  fast.verify_exact = false;
  StreamMatcher exact(trie.get(), ExactOpts());
  StreamMatcher approx(trie.get(), fast);
  for (StreamMatcher* m : {&exact, &approx}) {
    m->OnVertex(1, 0, {});
    m->OnVertex(2, 1, {1});
    m->OnVertex(3, 2, {2});
  }
  EXPECT_EQ(exact.FrequentMatchVertexSets(), approx.FrequentMatchVertexSets());
}

TEST(StreamMatcherTest, StatsAccumulate) {
  auto trie = AbcTrie();
  StreamMatcher m(trie.get(), ExactOpts());
  m.OnVertex(1, 0, {});
  m.OnVertex(2, 1, {1});
  m.OnVertex(3, 2, {2});
  const auto& s = m.stats();
  EXPECT_EQ(s.edges_processed, 2u);
  EXPECT_GT(s.growths_accepted, 0u);
  EXPECT_GT(s.max_tracked_live, 0u);
}

TEST(StreamMatcherTest, MaxTrackedPerVertexCapsGrowth) {
  // A hub with many b-neighbours under a tiny per-vertex cap.
  auto trie = AbcTrie();
  StreamMatcherOptions capped = ExactOpts();
  capped.max_tracked_per_vertex = 2;
  StreamMatcher m(trie.get(), capped);
  m.OnVertex(0, 0, {});  // a hub
  for (VertexId v = 1; v <= 20; ++v) {
    m.OnVertex(v, 1, {0});  // b leaves -> ab matches
  }
  EXPECT_GT(m.stats().tracked_dropped, 0u);
  const auto idx = m.MatchClosureFor(0);
  EXPECT_LE(idx.size(), 4u);  // bounded by the cap, not 20
}

TEST(StreamMatcherTest, MaxTrackedCapsLiveSubGraphs) {
  // Ten disjoint ab edges under a global cap of three tracked sub-graphs:
  // the first three are tracked, the other seven dropped.
  auto trie = AbcTrie();
  StreamMatcherOptions capped = ExactOpts();
  capped.max_tracked = 3;
  StreamMatcher m(trie.get(), capped);
  for (VertexId a = 0; a < 20; a += 2) {
    m.OnVertex(a, 0, {});
    m.OnVertex(a + 1, 1, {a});
  }
  EXPECT_EQ(m.NumTracked(), 3u);
  EXPECT_EQ(m.stats().max_tracked_live, 3u);
  EXPECT_EQ(m.stats().tracked_dropped, 7u);
  EXPECT_EQ(m.MatchClosureFor(4), (std::vector<VertexId>{5}));
  EXPECT_TRUE(m.MatchClosureFor(6).empty());
}

TEST(StreamMatcherTest, ClosingEdgeGrowsPathIntoTriangle) {
  // Workload: the triangle abc. c arrives with edges to a and b. The first
  // grows the tracked ab edge into a path; the second joins two vertices
  // the path already holds, so the growth multiplies in an edge factor and
  // no vertex factor, and the triangle replaces the path without re-grow.
  Workload w;
  ASSERT_TRUE(w.Add("abc", TriangleQuery(0, 1, 2), 1.0).ok());
  w.Normalize();
  auto trie = BuildTrie(w);
  ASSERT_TRUE(trie.ok());
  for (const bool verify_exact : {true, false}) {
    SCOPED_TRACE(verify_exact ? "verify_exact" : "signature only");
    StreamMatcherOptions opts = ExactOpts();
    opts.verify_exact = verify_exact;
    StreamMatcher m(trie->get(), opts);
    m.OnVertex(1, 0, {});
    m.OnVertex(2, 1, {1});
    m.OnVertex(3, 2, {1, 2});
    EXPECT_EQ(m.NumTracked(), 1u);
    EXPECT_EQ(m.FrequentMatchVertexSets(),
              (std::vector<std::vector<VertexId>>{{1, 2, 3}}));
    EXPECT_EQ(m.stats().edges_processed, 3u);
    EXPECT_EQ(m.stats().growths_accepted, 2u);
    EXPECT_EQ(m.stats().growths_rejected, 0u);
    EXPECT_EQ(m.stats().regrow_invocations, 1u);  // the first edge only
  }
}

}  // namespace
}  // namespace loom
