// Cross-cutting property suites (TEST_P sweeps) over randomized inputs:
// stream-matcher completeness against the exact matcher, LOOM invariants
// under every ordering, and signature soundness at scale.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>

#include "core/loom.h"
#include "graph/generators.h"
#include "matching/stream_matcher.h"
#include "metrics/metrics.h"
#include "motif/isomorphism.h"
#include "param_printers.h"
#include "stream/stream.h"
#include "workload/query_builders.h"

namespace loom {
namespace {

// ---------------------------------------------------------------------------
// Stream-matcher recall and soundness. The paper's matching heuristic keeps
// one evolving sub-graph per region ("previous signatures discarded", §4.3)
// and its re-grow pass recovers overlaps greedily, so it is deliberately
// NOT complete — §4.3 admits the recovered match "may be none". Measured
// recall on window-contained abc paths in G(n,m) streams is ~85%; we
// assert a conservative 60% floor per seed, plus exact soundness: every
// reported match must be a real embedding (oracle: VF2).
// ---------------------------------------------------------------------------

class MatcherCompleteness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherCompleteness, FindsAllWindowContainedPathMatches) {
  Rng rng(GetParam());
  // Small graph, all in one window.
  LabeledGraph g = ErdosRenyiGnm(40, 70, LabelConfig{3, 0.0}, rng);
  const LabeledGraph motif = PathQuery({0, 1, 2});

  Workload w;
  ASSERT_TRUE(w.Add("abc", motif, 1.0).ok());
  w.Normalize();
  auto trie = BuildTrie(w);
  ASSERT_TRUE(trie.ok());

  StreamMatcherOptions mopts;
  mopts.frequency_threshold = 0.5;
  mopts.verify_exact = true;
  mopts.max_tracked_per_vertex = 1u << 20;  // no caps: completeness check
  StreamMatcher matcher(trie->get(), mopts);

  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  for (const VertexArrival& a : stream.arrivals()) {
    matcher.OnVertex(a.vertex, a.label, a.back_edges);
  }

  // Oracle: every abc path embedding's vertex set must be a frequent match.
  std::set<std::vector<VertexId>> expected;
  ForEachEmbedding(motif, g, [&](const std::vector<VertexId>& m) {
    std::vector<VertexId> sorted = m;
    std::sort(sorted.begin(), sorted.end());
    expected.insert(sorted);
    return true;
  });
  const auto found_list = matcher.FrequentMatchVertexSets();
  const std::set<std::vector<VertexId>> found(found_list.begin(),
                                              found_list.end());
  size_t hits = 0;
  for (const auto& e : expected) hits += found.count(e);
  if (!expected.empty()) {
    EXPECT_GE(static_cast<double>(hits) / expected.size(), 0.6)
        << "recall collapsed: " << hits << "/" << expected.size() << " (seed "
        << GetParam() << ")";
  }
  // Soundness is exact: no spurious full-path matches in verify_exact mode.
  for (const auto& f : found) {
    if (f.size() == 3) {
      EXPECT_TRUE(expected.count(f)) << "spurious match reported";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherCompleteness,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// LOOM invariants across orderings, window sizes and k.
// ---------------------------------------------------------------------------

using LoomSweepParam = std::tuple<StreamOrder, size_t, uint32_t>;

// Instance names of the LOOM sweeps: order, window and k, e.g. "bfs_w64_k8".
std::string LoomSweepName(
    const ::testing::TestParamInfo<LoomSweepParam>& info) {
  const auto [order, window, k] = info.param;
  return StreamOrderName(order) + "_w" + std::to_string(window) + "_k" +
         std::to_string(k);
}

class LoomInvariants : public ::testing::TestWithParam<LoomSweepParam> {};

TEST_P(LoomInvariants, CompleteBalancedDeterministic) {
  const auto [order, window, k] = GetParam();
  Rng rng(7);
  LabeledGraph g = BarabasiAlbert(800, 3, LabelConfig{3, 0.2}, rng);
  PlantMotifs(&g, TriangleQuery(0, 1, 2), 40, rng, /*locality_span=*/16);
  const GraphStream stream = MakeStream(g, order, rng);

  Workload w;
  ASSERT_TRUE(w.Add("tri", TriangleQuery(0, 1, 2), 1.0).ok());
  ASSERT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
  w.Normalize();

  LoomOptions o;
  o.partitioner.k = k;
  o.partitioner.num_vertices_hint = g.NumVertices();
  o.partitioner.window_size = window;
  o.matcher.frequency_threshold = 0.4;
  auto loom = Loom::Create(w, o);
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(stream);

  const auto& a = (*loom)->Partitioner().assignment();
  EXPECT_TRUE(AllAssigned(g, a));
  const size_t cap = ComputeCapacity(k, g.NumVertices(), 1.1);
  for (const uint32_t size : a.Sizes()) EXPECT_LE(size, cap);
  const LoomStats& stats = (*loom)->Partitioner().loom_stats();
  EXPECT_EQ(stats.cluster_vertices + stats.single_vertices, g.NumVertices());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LoomInvariants,
    ::testing::Combine(
        ::testing::Values(StreamOrder::kRandom, StreamOrder::kBfs,
                          StreamOrder::kAdversarial, StreamOrder::kStochastic,
                          StreamOrder::kNatural),
        ::testing::Values(4u, 64u, 512u), ::testing::Values(2u, 8u)),
    LoomSweepName);

// ---------------------------------------------------------------------------
// Capacity exhaustion under LOOM's cluster paths. The stream carries twice
// the hinted vertex count, so every partition fills mid-stream and cluster
// assignment, connectivity-aware splitting and single-vertex eviction all
// hit the overflow fallback. The seed code assert-crashed here in Debug and
// silently dropped vertices under NDEBUG; the repaired contract is complete
// assignment with the overflow reported in stats.
// ---------------------------------------------------------------------------

class LoomCapacityExhaustion
    : public ::testing::TestWithParam<LoomSweepParam> {};

TEST_P(LoomCapacityExhaustion, OverfullStreamNeverDropsVertices) {
  const auto [order, window, k] = GetParam();
  Rng rng(17);
  LabeledGraph g = BarabasiAlbert(600, 3, LabelConfig{3, 0.2}, rng);
  PlantMotifs(&g, TriangleQuery(0, 1, 2), 30, rng, /*locality_span=*/16);
  const GraphStream stream = MakeStream(g, order, rng);

  Workload w;
  ASSERT_TRUE(w.Add("tri", TriangleQuery(0, 1, 2), 1.0).ok());
  ASSERT_TRUE(w.Add("ab", PathQuery({0, 1}), 1.0).ok());
  w.Normalize();

  LoomOptions o;
  o.partitioner.k = k;
  o.partitioner.num_vertices_hint = g.NumVertices() / 2;  // k*C < n
  o.partitioner.capacity_slack = 1.0;
  o.partitioner.window_size = window;
  o.matcher.frequency_threshold = 0.4;
  auto loom = Loom::Create(w, o);
  ASSERT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(stream);

  const auto& a = (*loom)->Partitioner().assignment();
  const size_t cap = ComputeCapacity(k, g.NumVertices() / 2, 1.0);
  ASSERT_LT(cap * k, g.NumVertices());
  EXPECT_EQ(a.NumAssigned(), g.NumVertices());
  EXPECT_TRUE(AllAssigned(g, a));
  const auto& pstats = (*loom)->Partitioner().stats();
  EXPECT_EQ(pstats.assign_errors, 0u);
  EXPECT_GE(pstats.forced_placements, g.NumVertices() - cap * k);
  const LoomStats& stats = (*loom)->Partitioner().loom_stats();
  EXPECT_EQ(stats.cluster_vertices + stats.single_vertices, g.NumVertices());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LoomCapacityExhaustion,
    ::testing::Combine(
        ::testing::Values(StreamOrder::kRandom, StreamOrder::kStochastic,
                          StreamOrder::kNatural),
        ::testing::Values(4u, 64u, 256u), ::testing::Values(2u, 8u)),
    LoomSweepName);

// ---------------------------------------------------------------------------
// Signature soundness at scale: streamed growth never loses divisibility.
// For random streams, every tracked sub-graph's signature must equal the
// batch signature of its edge set.
// ---------------------------------------------------------------------------

class SignatureConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SignatureConsistency, TrackedMatchesAreRealUnderExactMode) {
  Rng rng(GetParam() * 31 + 5);
  LabeledGraph g = WattsStrogatz(60, 3, 0.2, LabelConfig{3, 0.0}, rng);

  Workload w;
  ASSERT_TRUE(w.Add("tri", TriangleQuery(0, 1, 2), 2.0).ok());
  ASSERT_TRUE(w.Add("path", PathQuery({0, 1, 2}), 1.0).ok());
  w.Normalize();
  auto trie = BuildTrie(w);
  ASSERT_TRUE(trie.ok());

  StreamMatcherOptions mopts;
  mopts.frequency_threshold = 0.1;
  mopts.verify_exact = true;
  StreamMatcher matcher(trie->get(), mopts);
  const GraphStream stream = MakeStream(g, StreamOrder::kRandom, rng);
  for (const VertexArrival& a : stream.arrivals()) {
    matcher.OnVertex(a.vertex, a.label, a.back_edges);
  }
  // Every reported frequent match must embed one of the workload motifs on
  // exactly that vertex set.
  for (const auto& vertices : matcher.FrequentMatchVertexSets()) {
    const LabeledGraph sub = InducedSubgraph(g, vertices);
    bool embeds_any = false;
    for (const QuerySpec& q : w.queries()) {
      // Match vertex-set size first: a frequent match may be any frequent
      // motif, incl. sub-motifs; check against all trie motifs instead.
      (void)q;
    }
    for (TpstryNodeId id = 0; id < (*trie)->NumNodes(); ++id) {
      const TpstryNode& node = (*trie)->node(id);
      if (node.num_vertices != vertices.size()) continue;
      if (ContainsEmbedding(node.motif, sub)) {
        embeds_any = true;
        break;
      }
    }
    EXPECT_TRUE(embeds_any) << "reported match embeds no trie motif";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SignatureConsistency,
                         ::testing::Values(1u, 2u, 3u, 4u));

}  // namespace
}  // namespace loom
