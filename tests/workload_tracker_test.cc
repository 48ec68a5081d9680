// Tests for continuous workload summarisation: taking a query's support out
// of the TPSTry++ (`ApplySupportDelta` over the nodes `AddQuery` touched) and
// the sliding WorkloadTracker (§4.2 "a window over Q").

#include <gtest/gtest.h>

#include <vector>

#include "tpstry/workload_tracker.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

double SupportOf(const TpstryPP& trie, const LabeledGraph& motif) {
  const auto id = trie.FindBySignature(trie.scheme().SignatureOf(motif));
  return id.has_value() ? trie.node(*id).support : -1.0;
}

TEST(RemoveQueryTest, ExactInverseOfAdd) {
  TpstryPP trie(4);
  std::vector<TpstryNodeId> q2_nodes;
  std::vector<TpstryNodeId> q3_nodes;
  ASSERT_TRUE(trie.AddQuery(PaperQ2(), 2.0, false, &q2_nodes).ok());
  ASSERT_TRUE(trie.AddQuery(PaperQ3(), 1.0, false, &q3_nodes).ok());
  EXPECT_DOUBLE_EQ(SupportOf(trie, PathQuery({0, 1})), 3.0);

  trie.ApplySupportDelta(q3_nodes, -1.0);
  EXPECT_DOUBLE_EQ(SupportOf(trie, PathQuery({0, 1})), 2.0);
  // q3-only motifs drop to zero support but the nodes remain.
  EXPECT_DOUBLE_EQ(SupportOf(trie, PaperQ3()), 0.0);
  EXPECT_DOUBLE_EQ(trie.TotalFrequency(), 2.0);

  trie.ApplySupportDelta(q2_nodes, -2.0);
  EXPECT_DOUBLE_EQ(SupportOf(trie, PathQuery({0, 1})), 0.0);
  EXPECT_DOUBLE_EQ(trie.TotalFrequency(), 0.0);
}

TEST(RemoveQueryTest, FrequentSetFollowsRemoval) {
  TpstryPP trie(4);
  std::vector<TpstryNodeId> q2_nodes;
  ASSERT_TRUE(trie.AddQuery(PaperQ2(), 1.0, false, &q2_nodes).ok());
  ASSERT_TRUE(trie.AddQuery(PaperQ1(), 1.0).ok());
  // abc motif frequent while q2 is in: support 1 of total 2.
  EXPECT_GE(SupportOf(trie, PaperQ2()), 1.0);
  trie.ApplySupportDelta(q2_nodes, -1.0);
  EXPECT_DOUBLE_EQ(SupportOf(trie, PaperQ2()), 0.0);
  // q1 motifs unaffected.
  EXPECT_DOUBLE_EQ(SupportOf(trie, PaperQ1()), 1.0);
}

TEST(WorkloadTrackerTest, WindowBoundsQueries) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 3;
  WorkloadTracker tracker(4, opts, /*paths_only=*/false);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(tracker.Observe(PaperQ2()).ok());
  }
  EXPECT_EQ(tracker.WindowSize(), 3u);
  EXPECT_EQ(tracker.NumObserved(), 10u);
  EXPECT_DOUBLE_EQ(tracker.trie().TotalFrequency(), 3.0);
}

TEST(WorkloadTrackerTest, DriftChangesFrequentMotifs) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 4;
  WorkloadTracker tracker(4, opts, /*paths_only=*/false);
  // Phase A: abc paths dominate.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(tracker.Observe(PaperQ2()).ok());
  EXPECT_DOUBLE_EQ(SupportOf(tracker.trie(), PaperQ2()), 4.0);
  // Phase B: the workload shifts entirely to the abab cycle.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(tracker.Observe(PaperQ1()).ok());
  EXPECT_DOUBLE_EQ(SupportOf(tracker.trie(), PaperQ2()), 0.0)
      << "expired motif must leave the summary";
  EXPECT_DOUBLE_EQ(SupportOf(tracker.trie(), PaperQ1()), 4.0);
}

TEST(WorkloadTrackerTest, SnapshotIsNormalized) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 8;
  WorkloadTracker tracker(4, opts, /*paths_only=*/false);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(tracker.Observe(PaperQ2()).ok());
  ASSERT_TRUE(tracker.Observe(PaperQ1()).ok());
  const TpstryPP snapshot = tracker.Snapshot();
  EXPECT_DOUBLE_EQ(snapshot.TotalFrequency(), 1.0);
  EXPECT_NEAR(SupportOf(snapshot, PaperQ2()), 0.75, 1e-12);
  // The live trie is unchanged.
  EXPECT_DOUBLE_EQ(tracker.trie().TotalFrequency(), 4.0);
}

TEST(WorkloadTrackerTest, MixedShapesSupported) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 16;
  WorkloadTracker tracker(5, opts, /*paths_only=*/false);
  ASSERT_TRUE(tracker.Observe(TriangleQuery(0, 1, 2)).ok());
  ASSERT_TRUE(tracker.Observe(StarQuery(3, {4, 4})).ok());
  ASSERT_TRUE(tracker.Observe(PathQuery({0, 1, 2, 3})).ok());
  EXPECT_GT(tracker.trie().NumNodes(), 8u);
  EXPECT_EQ(tracker.WindowSize(), 3u);
}

TEST(WorkloadTrackerTest, PathsOnlyMode) {
  WorkloadTrackerOptions opts;
  opts.window_queries = 4;
  WorkloadTracker tracker(4, opts, /*paths_only=*/true);
  ASSERT_TRUE(tracker.Observe(PaperQ1()).ok());
  // The cycle node must not exist in paths-only mode.
  EXPECT_EQ(SupportOf(tracker.trie(), PaperQ1()), -1.0);
  EXPECT_GT(SupportOf(tracker.trie(), PathQuery({0, 1, 0})), 0.0);
}

}  // namespace
}  // namespace loom
