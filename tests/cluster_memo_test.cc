// Cluster-memoization tests (stream/cluster_log.h + the LoomPartitioner
// memo path + Restreamer wiring):
//
//  * ClusterLog / ClusterMemo / GroupPermByUnits container semantics;
//  * pass one is bit-identical with logging (and the whole memoize_clusters
//    feature) on vs off, for both bench graph families — recording must be
//    a pure observer;
//  * a memoized multi-pass restream replays every vertex, actually recalls
//    units, and lands within the documented edge-cut tolerance of the
//    non-memoized run; under prioritized orders its last pass recalls every
//    vertex and cuts no unit short;
//  * an interleaved replay (a unit cut short by another unit's member)
//    still places every vertex within capacity, deterministically;
//  * so does a replay whose recalled unit fits no partition.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "core/loom.h"
#include "graph/generators.h"
#include "metrics/metrics.h"
#include "restream/restreamer.h"
#include "stream/cluster_log.h"
#include "stream/stream.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

uint64_t AssignmentHash(const PartitionAssignment& a, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (VertexId v = 0; v < n; ++v) {
    h = HashCombine(h, static_cast<uint64_t>(a.PartOf(v) + 1));
  }
  return h;
}

TEST(ClusterLogTest, RecordsUnitsInOrder) {
  ClusterLog log;
  log.Reset();
  EXPECT_EQ(log.NumUnits(), 0u);

  log.AddMember(5);
  log.AddMember(3);
  log.CommitUnit();
  log.CommitUnit();  // empty commit: no-op
  log.AddMember(9);
  log.CommitUnit();

  ASSERT_EQ(log.NumUnits(), 2u);
  EXPECT_EQ(log.NumMembers(), 3u);
  ASSERT_EQ(log.MembersOf(0).size(), 2u);
  EXPECT_EQ(log.MembersOf(0)[0], 5u);
  EXPECT_EQ(log.MembersOf(0)[1], 3u);
  ASSERT_EQ(log.MembersOf(1).size(), 1u);
  EXPECT_EQ(log.MembersOf(1)[0], 9u);
  EXPECT_EQ(log.IdBound(), 10u);
}

TEST(ClusterMemoTest, UnitOfAndGroupPermHoistUnitsContiguously) {
  ClusterLog log;
  log.Reset();
  log.AddMember(4);
  log.AddMember(1);
  log.CommitUnit();  // unit 0: {4, 1}
  log.AddMember(6);
  log.CommitUnit();  // unit 1: {6}
  const ClusterMemo memo(&log);

  EXPECT_EQ(memo.UnitOf(4), 0);
  EXPECT_EQ(memo.UnitOf(1), 0);
  EXPECT_EQ(memo.UnitOf(6), 1);
  EXPECT_EQ(memo.UnitOf(0), -1);
  EXPECT_EQ(memo.UnitOf(999), -1);

  // Unit 0 hoists to 4's position (recorded order 4,1); 6 stays a unit of
  // one; non-members keep relative order.
  const std::vector<VertexId> perm = {0, 1, 2, 6, 4, 5};
  const std::vector<VertexId> grouped = GroupPermByUnits(perm, memo);
  const std::vector<VertexId> expected = {0, 4, 1, 2, 6, 5};
  EXPECT_EQ(grouped, expected);

  // Always a permutation of the input.
  std::vector<VertexId> a = perm, b = grouped;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

// --- End-to-end fixtures: the two bench graph families, motif-planted so
// the cluster path is exercised. ---

struct MemoFixture {
  LabeledGraph graph;
  GraphStream stream;
  Workload workload;
  LoomOptions options;
};

MemoFixture MakeFixture(int family) {
  MemoFixture f;
  Rng rng(2026);
  f.graph = family == 0
                ? ErdosRenyiGnm(1500, 6000, LabelConfig{3, 0.2}, rng)
                : BarabasiAlbert(1500, 4, LabelConfig{3, 0.2}, rng);
  PlantMotifs(&f.graph, TriangleQuery(0, 1, 2), 40, rng,
              /*locality_span=*/16);
  f.stream = MakeStream(f.graph, StreamOrder::kRandom, rng);

  EXPECT_TRUE(f.workload.Add("tri", TriangleQuery(0, 1, 2), 1.0).ok());
  EXPECT_TRUE(f.workload.Add("ab", PathQuery({0, 1}), 1.0).ok());
  f.workload.Normalize();

  f.options.partitioner.k = 8;
  f.options.partitioner.num_vertices_hint = f.graph.NumVertices();
  f.options.partitioner.num_edges_hint = f.graph.NumEdges();
  f.options.partitioner.window_size = 64;
  f.options.matcher.frequency_threshold = 0.3;
  return f;
}

class MemoEquivalence : public ::testing::TestWithParam<int> {};

// Recording is a pure observer: a single pass with cluster logging on must
// produce the bit-identical assignment to one with it off.
TEST_P(MemoEquivalence, PassOneIsBitIdenticalWithLoggingOn) {
  const MemoFixture f = MakeFixture(GetParam());

  auto plain = Loom::Create(f.workload, f.options);
  ASSERT_TRUE(plain.ok());
  (*plain)->Partitioner().Run(f.stream);

  auto logged = Loom::Create(f.workload, f.options);
  ASSERT_TRUE(logged.ok());
  (*logged)->Partitioner().SetClusterLogging(true);
  (*logged)->Partitioner().Run(f.stream);

  EXPECT_EQ(
      AssignmentHash((*plain)->Partitioner().assignment(),
                     f.graph.NumVertices()),
      AssignmentHash((*logged)->Partitioner().assignment(),
                     f.graph.NumVertices()));
  // And the log is non-trivial: it recorded every assigned vertex.
  ASSERT_NE((*logged)->Partitioner().cluster_log(), nullptr);
  EXPECT_EQ((*logged)->Partitioner().cluster_log()->NumMembers(),
            f.graph.NumVertices());
}

// The full memoized restream: pass one bit-identical, later passes within
// the documented 0.1-cut-point tolerance of the non-memoized run, every
// vertex assigned, and units actually recalled.
TEST_P(MemoEquivalence, MemoizedRestreamMatchesNonMemoizedWithinTolerance) {
  const MemoFixture f = MakeFixture(GetParam());

  RestreamOptions on;
  on.num_passes = 3;
  on.order = RestreamOrder::kOriginal;
  RestreamOptions off = on;
  off.memoize_clusters = false;

  auto loom_on = Loom::Create(f.workload, f.options);
  auto loom_off = Loom::Create(f.workload, f.options);
  ASSERT_TRUE(loom_on.ok());
  ASSERT_TRUE(loom_off.ok());

  const Restreamer r_on(f.stream, on);
  const Restreamer r_off(f.stream, off);
  const RestreamResult res_on = r_on.Run(&(*loom_on)->Partitioner());
  const RestreamResult res_off = r_off.Run(&(*loom_off)->Partitioner());

  ASSERT_EQ(res_on.passes.size(), 3u);
  // Pass one never sees a memo: exactly equal.
  EXPECT_EQ(res_on.passes[0].edge_cut_fraction,
            res_off.passes[0].edge_cut_fraction);
  // Memoized replay passes: within 0.1 cut points of the non-memoized run.
  for (size_t p = 1; p < 3; ++p) {
    EXPECT_NEAR(res_on.passes[p].edge_cut_fraction,
                res_off.passes[p].edge_cut_fraction, 0.001)
        << "pass " << p + 1;
  }
  EXPECT_NEAR(res_on.edge_cut_fraction, res_off.edge_cut_fraction, 0.001);

  // Completeness and balance on the memoized result.
  EXPECT_EQ(res_on.assignment.NumAssigned(), f.graph.NumVertices());
  EXPECT_TRUE(AllAssigned(f.graph, res_on.assignment));

  // The memo path actually fired: the last pass recalled units covering
  // most of the stream (the partitioner holds last-pass stats).
  const LoomStats& stats = (*loom_on)->Partitioner().loom_stats();
  EXPECT_GT(stats.memo_units, 0u);
  EXPECT_GT(stats.memo_vertices, f.graph.NumVertices() / 2);
  // And the non-memoized run never touched the memo path.
  EXPECT_EQ((*loom_off)->Partitioner().loom_stats().memo_units, 0u);
}

// A prioritized memoized Run replays the stream its memo was recorded from,
// grouped unit by unit: the last pass recalls every vertex, and no unit is
// cut short.
TEST_P(MemoEquivalence, PrioritizedRunRecallsEveryVertexUncut) {
  const MemoFixture f = MakeFixture(GetParam());
  for (const RestreamOrder order :
       {RestreamOrder::kGain, RestreamOrder::kDecisive}) {
    RestreamOptions ropts;
    ropts.num_passes = 3;
    ropts.order = order;
    auto loom = Loom::Create(f.workload, f.options);
    ASSERT_TRUE(loom.ok());
    const RestreamResult result =
        Restreamer(f.stream, ropts).Run(&(*loom)->Partitioner());
    ASSERT_EQ(result.passes.size(), 3u);

    const LoomStats& stats = (*loom)->Partitioner().loom_stats();
    EXPECT_EQ(stats.memo_invalidated, 0u) << RestreamOrderName(order);
    EXPECT_EQ(stats.memo_vertices, f.graph.NumVertices())
        << RestreamOrderName(order);
  }
}

// An order GroupPermByUnits never produces: another unit's member arrives
// inside a multi-member unit, cutting it short. The buffered members are
// placed as buffered and the rest of the unit is recalled when it arrives;
// every vertex is placed within capacity, and the replay is deterministic.
TEST_P(MemoEquivalence, InterleavedReplayPlacesEveryVertexDeterministically) {
  const MemoFixture f = MakeFixture(GetParam());
  auto recorder = Loom::Create(f.workload, f.options);
  ASSERT_TRUE(recorder.ok());
  LoomPartitioner& p1 = (*recorder)->Partitioner();
  p1.SetClusterLogging(true);
  p1.BeginPass(nullptr);
  p1.Run(f.stream);
  const ClusterLog log1 = *p1.cluster_log();
  const PartitionAssignment prior = p1.assignment();
  const ClusterMemo memo(&log1);

  // The grouped full-neighbourhood replay a memoized pass two would see.
  const GraphStream replay = Restreamer(f.stream, RestreamOptions{})
                                 .ReplayStream(RestreamOrder::kOriginal, prior);
  std::vector<VertexId> perm;
  for (const VertexArrival& a : replay.arrivals()) perm.push_back(a.vertex);
  perm = GroupPermByUnits(perm, memo);

  // Move the vertex after the first multi-member unit's block to just
  // behind that unit's first member.
  size_t first = perm.size();
  for (size_t i = 0; i < perm.size(); ++i) {
    const int32_t u = memo.UnitOf(perm[i]);
    if (u >= 0 && log1.MembersOf(static_cast<uint32_t>(u)).size() > 1) {
      first = i;
      break;
    }
  }
  ASSERT_LT(first, perm.size()) << "no multi-member unit recorded";
  const size_t unit_size =
      log1.MembersOf(static_cast<uint32_t>(memo.UnitOf(perm[first]))).size();
  ASSERT_LT(first + unit_size, perm.size());
  const VertexId intruder = perm[first + unit_size];
  perm.erase(perm.begin() + static_cast<std::ptrdiff_t>(first + unit_size));
  perm.insert(perm.begin() + static_cast<std::ptrdiff_t>(first + 1), intruder);

  std::vector<uint32_t> index_of(f.graph.NumVertices());
  for (uint32_t i = 0; i < replay.arrivals().size(); ++i) {
    index_of[replay.arrivals()[i].vertex] = i;
  }
  GraphStream interleaved;
  for (const VertexId v : perm) {
    interleaved.Append(replay.arrivals()[index_of[v]]);
  }

  const auto run_once = [&](LoomPartitioner& p) {
    p.BeginPass(&prior);
    p.SetClusterMemo(&memo);
    p.Run(interleaved);
    p.ClearPrior();
  };
  auto a = Loom::Create(f.workload, f.options);
  auto b = Loom::Create(f.workload, f.options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  run_once((*a)->Partitioner());
  run_once((*b)->Partitioner());

  const PartitionAssignment& result = (*a)->Partitioner().assignment();
  const LoomStats& stats = (*a)->Partitioner().loom_stats();
  EXPECT_GE(stats.memo_invalidated, 1u);
  EXPECT_EQ(stats.memo_vertices, f.graph.NumVertices());
  EXPECT_EQ(result.NumAssigned(), f.graph.NumVertices());
  EXPECT_TRUE(AllAssigned(f.graph, result));
  EXPECT_EQ(result.NumOverflowed(), 0u);
  ASSERT_GT(result.capacity(), 0u);
  for (const uint32_t size : result.Sizes()) {
    EXPECT_LE(size, result.capacity());
  }
  EXPECT_EQ(AssignmentHash(result, f.graph.NumVertices()),
            AssignmentHash((*b)->Partitioner().assignment(),
                           f.graph.NumVertices()));
}

INSTANTIATE_TEST_SUITE_P(Families, MemoEquivalence, ::testing::Values(0, 1));

// A recalled unit that fits no partition: a 6-vertex ab-chain recorded as
// one unit, plus two singletons, replayed at k = 2 with slack 1.0, so
// C = 4. The unit is split (placed member by member), every vertex is
// placed, no partition exceeds C, and the replay is deterministic.
TEST(ClusterMemoTest, RecalledUnitThatFitsNowherePlacesEveryVertex) {
  LabeledGraph g;
  for (int i = 0; i < 8; ++i) g.AddVertex(i % 2 == 0 ? 0 : 1);
  for (VertexId v = 0; v + 1 < 6; ++v) g.AddEdgeUnchecked(v, v + 1);
  g.AddEdgeUnchecked(0, 6);
  g.AddEdgeUnchecked(5, 7);

  ClusterLog log;
  log.Reset();
  for (VertexId v = 0; v < 6; ++v) log.AddMember(v);
  log.CommitUnit();
  log.AddMember(6);
  log.CommitUnit();
  log.AddMember(7);
  log.CommitUnit();
  const ClusterMemo memo(&log);

  LoomOptions options;
  options.partitioner.k = 2;
  options.partitioner.num_vertices_hint = g.NumVertices();
  options.partitioner.capacity_slack = 1.0;
  Workload workload;
  ASSERT_TRUE(workload.Add("ab", PathQuery({0, 1}), 1.0).ok());
  workload.Normalize();

  // A prior to replay against, and the grouped full-neighbourhood replay a
  // memoized pass two would see: 6, the whole unit, then 7.
  PartitionAssignment prior(2, /*capacity=*/4);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    ASSERT_TRUE(prior.Assign(v, v < 3 || v == 6 ? 0 : 1).ok());
  }
  const std::vector<VertexId> perm =
      GroupPermByUnits({6, 0, 1, 2, 7, 3, 4, 5}, memo);
  GraphStream replay;
  for (const VertexId v : perm) {
    VertexArrival a;
    a.vertex = v;
    a.label = g.LabelOf(v);
    a.back_edges.assign(g.Neighbors(v).begin(), g.Neighbors(v).end());
    replay.Append(a);
  }

  const auto run_once = [&](LoomPartitioner& p) {
    p.BeginPass(&prior);
    p.SetClusterMemo(&memo);
    p.Run(replay);
    p.ClearPrior();
  };
  auto a = Loom::Create(workload, options);
  auto b = Loom::Create(workload, options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  run_once((*a)->Partitioner());
  run_once((*b)->Partitioner());

  const PartitionAssignment& result = (*a)->Partitioner().assignment();
  const LoomStats& stats = (*a)->Partitioner().loom_stats();
  EXPECT_EQ(stats.clusters_split, 1u);
  EXPECT_EQ(stats.memo_vertices, 8u);
  EXPECT_EQ(result.NumAssigned(), g.NumVertices());
  EXPECT_TRUE(AllAssigned(g, result));
  ASSERT_EQ(result.capacity(), 4u);
  for (const uint32_t size : result.Sizes()) EXPECT_LE(size, 4u);
  EXPECT_EQ(AssignmentHash(result, g.NumVertices()),
            AssignmentHash((*b)->Partitioner().assignment(), g.NumVertices()));
}

}  // namespace
}  // namespace loom
