// bench_experiments: the paper's evaluation tables (checked in as
// bench/experiments.txt), one experiment per `--exp` value:
//   ipt        E2  inter-partition traversal probability by partitioner and
//                  workload family — the paper's headline comparison;
//   orderings  E3  stream-ordering sensitivity (§5: "in the presence of a
//                  number of different graph-stream orderings");
//   window     E4  LOOM stream-window size sweep;
//   k          E9  partition-count sweep;
//   ablation   E8  LOOM's moving parts switched off one at a time;
//   all        every table above, in that order (the default).
//
// Columns shared by the tables:
//   ipt-prob   probability a traversal performed during query execution
//              crosses partitions (the paper's objective);
//   1-part     fraction of query answers contained in a single partition
//              (the abstract's "answered within a single partition");
//   emb-cut    fraction of answer edges that are cut;
//   edge-cut   classic workload-agnostic cut, for contrast.
//
// Every experiment streams a 20000-vertex Barabási–Albert graph with each
// workload query planted n/24 times inside 48-id spans, so motif instances
// arrive temporally local under natural/stochastic orders. Seeds are fixed
// per experiment, so every printed number is deterministic.
//
// Usage: bench_experiments [--exp ipt|orderings|window|k|ablation|all]

#include <cstdio>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "harness.h"

namespace loom {
namespace bench {
namespace {

constexpr uint32_t kNumVertices = 20000;

// The shared setup: a BA graph with the workload's motifs planted into it.
LabeledGraph MakeMotifGraph(const Workload& workload, Rng& rng) {
  LabeledGraph g = MakeGraph(GraphKind::kBarabasiAlbert, kNumVertices, 6,
                             LabelConfig{4, 0.4}, rng);
  PlantWorkloadMotifs(&g, workload, kNumVertices / 24, rng,
                      /*locality_span=*/48);
  return g;
}

Workload MixedMotifs(uint32_t num_queries) {
  WorkloadGenOptions wopts;
  wopts.num_queries = num_queries;
  wopts.seed = 5;
  return MixedMotifWorkload(wopts);
}

PartitionerOptions Options(const LabeledGraph& g, uint32_t k,
                           size_t window = 1024) {
  PartitionerOptions popts;
  popts.k = k;
  popts.num_vertices_hint = g.NumVertices();
  popts.num_edges_hint = g.NumEdges();
  popts.window_size = window;
  return popts;
}

LoomOptions LoomDefaults(const PartitionerOptions& popts) {
  LoomOptions lopts;
  lopts.partitioner = popts;
  lopts.matcher.frequency_threshold = 0.2;
  return lopts;
}

// One table row: `head` cells, the ipt-prob / 1-part / emb-cut cells, `tail`.
std::vector<std::string> IptRow(std::vector<std::string> head,
                                const WorkloadIptStats& ipt,
                                const std::vector<std::string>& tail = {}) {
  head.push_back(FormatPercent(ipt.ipt_probability));
  head.push_back(FormatPercent(ipt.single_partition_fraction));
  head.push_back(FormatPercent(ipt.embedding_cut_fraction));
  head.insert(head.end(), tail.begin(), tail.end());
  return head;
}

struct LoomRun {
  RunResult result;
  uint64_t cluster_vertices = 0;
  uint64_t regrow_matches = 0;
};

// Streams `stream` through a fresh LOOM built from `options`; false (after
// reporting) if the options are rejected.
bool RunLoom(const Workload& workload, const LoomOptions& options,
             const LabeledGraph& g, const GraphStream& stream, LoomRun* out) {
  auto loom = Loom::Create(workload, options);
  if (!loom.ok()) {
    std::cerr << loom.status().ToString() << "\n";
    return false;
  }
  LoomPartitioner& partitioner = (*loom)->Partitioner();
  out->result = RunStreaming(&partitioner, g, stream, workload);
  out->cluster_vertices = partitioner.loom_stats().cluster_vertices;
  out->regrow_matches = partitioner.matcher_stats().regrow_matches;
  return true;
}

// ------------------------------------------------------------------ E2 ipt
// Expected shape: loom < ldg/fennel < hash on motif-heavy workloads; the
// gap collapses on the motif-free lookup workload.

void RunIptCase(const std::string& name, const Workload& workload) {
  const uint32_t k = 8;
  Rng rng(1234);
  const LabeledGraph g = MakeMotifGraph(workload, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);
  PartitionerSet set = MakeStandardSet(Options(g, k), workload, 0.2);

  TablePrinter table(
      "E2 ipt by partitioner — workload=" + name + " (n=" +
          std::to_string(g.NumVertices()) + ", m=" +
          std::to_string(g.NumEdges()) + ", k=" + std::to_string(k) + ")",
      {"partitioner", "ipt-prob", "1-part", "emb-cut", "edge-cut",
       "balance"});
  std::vector<RunResult> results;
  for (StreamingPartitioner* p : set.All()) {
    results.push_back(RunStreaming(p, g, stream, workload));
    if (auto* lp = dynamic_cast<LoomPartitioner*>(p)) {
      const LoomStats& ls = lp->loom_stats();
      const StreamMatcherStats& ms = lp->matcher_stats();
      std::printf(
          "   [loom] clusters=%llu cluster-vertices=%llu splits=%llu "
          "singles=%llu | growths=%llu/%llu regrows=%llu max-tracked=%llu\n",
          (unsigned long long)ls.clusters_assigned,
          (unsigned long long)ls.cluster_vertices,
          (unsigned long long)ls.clusters_split,
          (unsigned long long)ls.single_vertices,
          (unsigned long long)ms.growths_accepted,
          (unsigned long long)(ms.growths_accepted + ms.growths_rejected),
          (unsigned long long)ms.regrow_invocations,
          (unsigned long long)ms.max_tracked_live);
    }
  }
  results.push_back(RunOffline(g, workload, k, 1.1, 99));
  for (const RunResult& r : results) {
    table.AddRow(IptRow({r.partitioner}, r.ipt,
                        {FormatPercent(r.cut_fraction),
                         FormatDouble(r.balance)}));
  }
  table.Print(std::cout);
}

bool RunIpt() {
  WorkloadGenOptions wopts;
  wopts.num_queries = 5;
  wopts.seed = 17;
  RunIptCase("paths", PathWorkload(wopts));
  RunIptCase("mixed-motifs", MixedMotifWorkload(wopts));
  RunIptCase("lookups", LookupWorkload(wopts));
  return true;
}

// ------------------------------------------------------------ E3 orderings

bool RunOrderings() {
  const uint32_t k = 8;
  const Workload workload = MixedMotifs(4);
  Rng rng(31);
  const LabeledGraph g = MakeMotifGraph(workload, rng);

  TablePrinter table(
      "E3 ordering sensitivity (n=" + std::to_string(g.NumVertices()) +
          ", k=" + std::to_string(k) + ")",
      {"ordering", "partitioner", "edge-cut", "ipt-prob", "1-part",
       "emb-cut"});
  for (const StreamOrder order :
       {StreamOrder::kRandom, StreamOrder::kBfs, StreamOrder::kDfs,
        StreamOrder::kAdversarial, StreamOrder::kStochastic,
        StreamOrder::kNatural}) {
    Rng order_rng(77);
    const GraphStream stream = MakeStream(g, order, order_rng);
    PartitionerSet set = MakeStandardSet(Options(g, k), workload, 0.2);
    for (StreamingPartitioner* p : set.All()) {
      if (p->Name() == "fennel") continue;
      const RunResult r = RunStreaming(p, g, stream, workload);
      table.AddRow(IptRow({StreamOrderName(order), r.partitioner,
                           FormatPercent(r.cut_fraction)},
                          r.ipt));
    }
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: adversarial order degrades greedy "
               "partitioners most; loom's motif capture pays off under "
               "natural/stochastic orders.\n";
  return true;
}

// --------------------------------------------------------------- E4 window

bool RunWindow() {
  const uint32_t k = 8;
  const Workload workload = MixedMotifs(4);
  Rng rng(42);
  const LabeledGraph g = MakeMotifGraph(workload, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);

  TablePrinter table(
      "E4 window-size sweep, loom (n=" + std::to_string(g.NumVertices()) +
          ", k=" + std::to_string(k) + ")",
      {"window", "ipt-prob", "1-part", "emb-cut", "cluster-vertices"});
  for (const size_t window : {1u, 16u, 64u, 256u, 1024u, 4096u}) {
    LoomRun run;
    if (!RunLoom(workload, LoomDefaults(Options(g, k, window)), g, stream,
                 &run)) {
      return false;
    }
    table.AddRow(IptRow({std::to_string(window)}, run.result.ipt,
                        {std::to_string(run.cluster_vertices)}));
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: cluster capture and answer locality grow "
               "with W, flattening once W covers motif arrival spans.\n";
  return true;
}

// -------------------------------------------------------------------- E9 k

bool RunK() {
  const Workload workload = MixedMotifs(4);
  Rng rng(21);
  const LabeledGraph g = MakeMotifGraph(workload, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);

  TablePrinter table(
      "E9 k-sweep (n=" + std::to_string(g.NumVertices()) + ")",
      {"k", "partitioner", "edge-cut", "ipt-prob", "1-part", "emb-cut"});
  for (const uint32_t k : {2u, 4u, 8u, 16u, 32u}) {
    PartitionerSet set = MakeStandardSet(Options(g, k), workload, 0.2);
    for (StreamingPartitioner* p : set.All()) {
      if (p->Name() == "fennel") continue;
      const RunResult r = RunStreaming(p, g, stream, workload);
      table.AddRow(IptRow(
          {std::to_string(k), r.partitioner, FormatPercent(r.cut_fraction)},
          r.ipt));
    }
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: all metrics degrade as k grows; loom keeps "
               "its 1-part / emb-cut lead at every k.\n";
  return true;
}

// ------------------------------------------------------------- E8 ablation
// Each variant switches off one design decision the paper calls out:
//   (a) motif grouping off  -> buffered LDG (grouping is the active
//       ingredient; FIFO buffering alone changes nothing: each evicted
//       vertex sees the placed neighbours LDG saw at its arrival);
//   (b) re-grow off         -> Fig. 3 overlap matches lost;
//   (c) paths-only TPSTry   -> branch/cycle motifs invisible (§4.2's reason
//       for generalising the trie to a DAG);
//   (d) overlap grouping off-> matches sharing sub-structure may split
//       (§4.4's assignment rule).

bool RunAblation() {
  const uint32_t k = 8;
  const Workload workload = MixedMotifs(5);
  Rng rng(8);
  const LabeledGraph g = MakeMotifGraph(workload, rng);
  const GraphStream stream = MakeStream(g, StreamOrder::kNatural, rng);

  const LoomOptions base = LoomDefaults(Options(g, k));
  std::vector<std::pair<std::string, LoomOptions>> variants;
  variants.emplace_back("loom (full)", base);
  variants.emplace_back("no re-grow (E8b)", base);
  variants.back().second.matcher.use_regrow = false;
  variants.emplace_back("paths-only trie (E8c)", base);
  variants.back().second.paths_only = true;
  variants.emplace_back("no overlap grouping (E8d)", base);
  variants.back().second.group_overlapping_matches = false;
  // Threshold above every support: no frequent motifs -> buffered LDG.
  variants.emplace_back("motif grouping off (E8a)", base);
  variants.back().second.matcher.frequency_threshold = 1.01;
  variants.emplace_back("+ traversal-weighted LDG (E8e, §5)", base);
  variants.back().second.use_traversal_weights = true;

  TablePrinter table(
      "E8 loom ablations (n=" + std::to_string(g.NumVertices()) +
          ", k=" + std::to_string(k) + ")",
      {"variant", "ipt-prob", "1-part", "emb-cut", "cluster-vertices",
       "regrow-matches"});
  for (const auto& [name, options] : variants) {
    LoomRun run;
    if (!RunLoom(workload, options, g, stream, &run)) return false;
    table.AddRow(IptRow({name}, run.result.ipt,
                        {std::to_string(run.cluster_vertices),
                         std::to_string(run.regrow_matches)}));
  }
  table.Print(std::cout);
  std::cout << "\nExpected shape: full loom has the best answer locality; "
               "each ablation gives part of it back.\n";
  return true;
}

// --------------------------------------------------------------------- main

constexpr const char* kUsage =
    "Usage: bench_experiments [--exp ipt|orderings|window|k|ablation|all]\n";

int Main(int argc, char** argv) {
  std::string exp = "all";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--exp" && i + 1 < argc) {
      exp = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    } else {
      std::cerr << "bench_experiments: unknown argument '" << arg << "'\n"
                << kUsage;
      return 2;
    }
  }

  bool matched = false;
  const auto run = [&](const char* name, bool (*experiment)()) {
    if (exp != "all" && exp != name) return true;
    matched = true;
    return experiment();
  };
  if (!run("ipt", RunIpt) || !run("orderings", RunOrderings) ||
      !run("window", RunWindow) || !run("k", RunK) ||
      !run("ablation", RunAblation)) {
    return 1;
  }
  if (!matched) {
    std::cerr << "bench_experiments: unknown experiment '" << exp << "'\n"
              << kUsage;
    return 2;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace loom

int main(int argc, char** argv) { return loom::bench::Main(argc, argv); }
