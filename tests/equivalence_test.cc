// Pipeline-equivalence regression tests for the hot-path container overhaul:
// the flat-container retrofit (FlatMap / SmallVector / run-length signature
// multisets) must be behaviour-preserving, so the full streaming
// pipeline — window, matcher, scoring, assignment — has to produce
// bit-identical `PartitionAssignment`s to the node-container implementation
// it replaced.
//
// The GOLDEN_* constants below are FNV-style hashes of the assignment
// vectors produced by the pre-overhaul implementation (std::unordered_map
// window/matcher/trie, std::map trie children, flat sorted-vector factor
// multisets) on the two bench graph families under the bench-fast
// configuration. They were captured by running this exact scenario against
// that implementation; any behavioural drift in the refactor shows up as a
// hash mismatch here (and therefore as a changed edge-cut/balance row in
// BENCH_edge_cut.json).
//
// Set LOOM_EQUIV_DUMP=1 to print the hashes the current build produces
// (the regeneration path, used when behaviour changes *intentionally*).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "common/hash.h"
#include "core/loom.h"
#include "graph/generators.h"
#include "partition/fennel_partitioner.h"
#include "partition/hash_partitioner.h"
#include "partition/ldg_partitioner.h"
#include "stream/stream.h"
#include "workload/workload_gen.h"

namespace loom {
namespace {

constexpr uint32_t kN = 4000;
constexpr uint32_t kK = 8;

/// FNV-combine over the dense assignment vector (+1 shifts unassigned -1 to
/// 0 so it also participates). Platform-stable: integer-only.
uint64_t AssignmentHash(const PartitionAssignment& a, size_t n) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (VertexId v = 0; v < n; ++v) {
    h = HashCombine(h, static_cast<uint64_t>(a.PartOf(v) + 1));
  }
  return h;
}

struct Family {
  std::string name;
  LabeledGraph graph;
  GraphStream stream;
};

/// The two bench-fast graph families, motif-planted so LOOM's cluster path
/// (matcher + closure + cluster LDG) is actually exercised.
std::vector<Family> MakeFamilies(const Workload& workload) {
  std::vector<Family> out;
  {
    Family f;
    f.name = "erdos_renyi";
    Rng rng(2024);
    f.graph = ErdosRenyiGnm(kN, kN * 4, LabelConfig{4, 0.3}, rng);
    for (const QuerySpec& q : workload.queries()) {
      PlantMotifs(&f.graph, q.pattern, kN / 24, rng, /*locality_span=*/32);
    }
    f.stream = MakeStream(f.graph, StreamOrder::kRandom, rng);
    out.push_back(std::move(f));
  }
  {
    Family f;
    f.name = "barabasi_albert";
    Rng rng(2024);
    f.graph = BarabasiAlbert(kN, 4, LabelConfig{4, 0.3}, rng);
    for (const QuerySpec& q : workload.queries()) {
      PlantMotifs(&f.graph, q.pattern, kN / 24, rng, /*locality_span=*/32);
    }
    f.stream = MakeStream(f.graph, StreamOrder::kNatural, rng);
    out.push_back(std::move(f));
  }
  return out;
}

Workload MakeWorkload() {
  WorkloadGenOptions wopts;
  wopts.num_queries = 4;
  return MixedMotifWorkload(wopts);
}

struct GoldenRow {
  const char* family;
  const char* partitioner;
  uint64_t hash;
};

// Captured from the pre-overhaul (node-container) implementation; see file
// comment. Regenerate with LOOM_EQUIV_DUMP=1.
// Note: ldg == fennel on the Erdős–Rényi instance is genuine, not a
// degenerate hash (verified by element-wise comparison): Fennel's size
// penalty never overrides an edge-count difference at this scale.
constexpr GoldenRow kGolden[] = {
    {"erdos_renyi", "hash", 0x884dafd34fe08cfcull},
    {"erdos_renyi", "ldg", 0xe556ce168089010cull},
    {"erdos_renyi", "fennel", 0xe556ce168089010cull},
    {"erdos_renyi", "loom", 0xcf8a04c502f605b1ull},
    {"barabasi_albert", "hash", 0x884dafd34fe08cfcull},
    {"barabasi_albert", "ldg", 0x2e8017d766d03600ull},
    {"barabasi_albert", "fennel", 0x36203e5aea151c46ull},
    {"barabasi_albert", "loom", 0xc32d8ec6d6055e45ull},
};

PartitionerOptions FamilyOptions(const Family& f, uint32_t k, size_t window) {
  PartitionerOptions popts;
  popts.k = k;
  popts.num_vertices_hint = f.graph.NumVertices();
  popts.num_edges_hint = f.graph.NumEdges();
  popts.window_size = window;
  return popts;
}

/// One LOOM pass at the golden threshold; `stats` receives its counters.
uint64_t RunLoom(const Family& f, const Workload& workload,
                 const PartitionerOptions& popts, LoomStats* stats) {
  LoomOptions lopts;
  lopts.partitioner = popts;
  lopts.matcher.frequency_threshold = 0.15;
  auto loom = Loom::Create(workload, lopts);
  EXPECT_TRUE(loom.ok());
  (*loom)->Partitioner().Run(f.stream);
  *stats = (*loom)->Partitioner().loom_stats();
  return AssignmentHash((*loom)->Partitioner().assignment(),
                        f.graph.NumVertices());
}

uint64_t RunOne(const Family& f, const Workload& workload,
                const std::string& partitioner) {
  const PartitionerOptions popts = FamilyOptions(f, kK, /*window=*/256);

  if (partitioner == "hash") {
    HashPartitioner p(popts);
    p.Run(f.stream);
    return AssignmentHash(p.assignment(), f.graph.NumVertices());
  }
  if (partitioner == "ldg") {
    LdgPartitioner p(popts);
    p.Run(f.stream);
    return AssignmentHash(p.assignment(), f.graph.NumVertices());
  }
  if (partitioner == "fennel") {
    FennelPartitioner p(popts);
    p.Run(f.stream);
    return AssignmentHash(p.assignment(), f.graph.NumVertices());
  }
  LoomStats stats;
  return RunLoom(f, workload, popts, &stats);
}

TEST(PipelineEquivalence, AssignmentsMatchPreOverhaulGoldens) {
  const bool dump = std::getenv("LOOM_EQUIV_DUMP") != nullptr;
  const Workload workload = MakeWorkload();
  const std::vector<Family> families = MakeFamilies(workload);

  for (const Family& f : families) {
    for (const char* name : {"hash", "ldg", "fennel", "loom"}) {
      const uint64_t h = RunOne(f, workload, name);
      if (dump) {
        std::cout << "    {\"" << f.name << "\", \"" << name << "\", 0x"
                  << std::hex << h << std::dec << "ull},\n";
        continue;
      }
      bool found = false;
      for (const GoldenRow& row : kGolden) {
        if (f.name == row.family && std::string(name) == row.partitioner) {
          EXPECT_EQ(h, row.hash) << f.name << "/" << name
                                 << ": assignment diverged from the "
                                    "pre-overhaul implementation";
          found = true;
        }
      }
      EXPECT_TRUE(found) << "no golden row for " << f.name << "/" << name;
    }
  }
}

// LOOM at k = 16 with a 1024-vertex window: clusters grow past every
// partition's free capacity, so these runs pin the connectivity-aware split
// (SplitAndAssignCluster) bit for bit, which the bench-fast rows above never
// reach. Regenerate with LOOM_EQUIV_DUMP=1.
struct SplitGoldenRow {
  const char* family;
  uint64_t hash;
  uint64_t clusters_split;
  uint64_t split_chunks;
};

constexpr SplitGoldenRow kSplitGolden[] = {
    {"erdos_renyi", 0xcb206046ccddd598ull, 6, 229},
    {"barabasi_albert", 0xdaacf489ee413c0dull, 2, 125},
};

TEST(PipelineEquivalence, ClusterSplitsMatchGoldens) {
  const bool dump = std::getenv("LOOM_EQUIV_DUMP") != nullptr;
  const Workload workload = MakeWorkload();
  const std::vector<Family> families = MakeFamilies(workload);
  ASSERT_EQ(families.size(), std::size(kSplitGolden));
  for (size_t i = 0; i < families.size(); ++i) {
    const Family& f = families[i];
    const SplitGoldenRow& row = kSplitGolden[i];
    ASSERT_EQ(f.name, row.family);
    LoomStats stats;
    const uint64_t h = RunLoom(f, workload,
                               FamilyOptions(f, /*k=*/16, /*window=*/1024),
                               &stats);
    if (dump) {
      std::cout << "    {\"" << f.name << "\", 0x" << std::hex << h
                << std::dec << "ull, " << stats.clusters_split << ", "
                << stats.split_chunks << "},\n";
      continue;
    }
    EXPECT_GT(stats.clusters_split, 0u) << f.name;
    EXPECT_EQ(stats.clusters_split, row.clusters_split) << f.name;
    EXPECT_EQ(stats.split_chunks, row.split_chunks) << f.name;
    EXPECT_EQ(h, row.hash) << f.name << ": split placement diverged";
  }
}

// Determinism guard: the pipeline run twice from scratch must agree with
// itself — catches any accidental dependence on container iteration order or
// address-seeded hashing sneaking into placement decisions.
TEST(PipelineEquivalence, RepeatedRunsAreDeterministic) {
  const Workload workload = MakeWorkload();
  const std::vector<Family> families = MakeFamilies(workload);
  for (const Family& f : families) {
    for (const char* name : {"ldg", "fennel", "loom"}) {
      EXPECT_EQ(RunOne(f, workload, name), RunOne(f, workload, name))
          << f.name << "/" << name;
    }
  }
}

}  // namespace
}  // namespace loom
