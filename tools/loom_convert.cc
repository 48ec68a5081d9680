// loom_convert: builds loom-stream binary files (graph/io.h) from SNAP-style
// edge lists or from the streaming synthetic generators.
//
// Edge-list input ("u v" per line, '#'/'%' comments, SNAP's tab-separated
// dumps parse as-is) is materialised, remapped to dense first-appearance ids
// (self-loops and duplicate edges dropped), ordered, and written. Generator
// input (--gen) streams straight into the O(V)-memory StreamFileWriter and
// never materialises the graph — the path the million-vertex bench tier and
// the CI bench-smoke job use.
//
// Usage:
//   loom_convert --in edges.txt --out stream.loomstrm
//                [--order original|bfs|dfs|random] [--seed 42]
//                [--num-labels L] [--back-edges-only] [--stats]
//   loom_convert --gen ba|er --n N [--degree M] [--p P] --out stream.loomstrm
//                [--seed 42] [--num-labels L] [--back-edges-only] [--stats]
//
// --order original keeps first-appearance order (a SNAP crawl's own temporal
// order); bfs/dfs/random re-order through stream/stream.h with --seed.
// --stats is a dry run: parse (or drain the generator), print the counts the
// file would carry, write nothing.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "flag_parse.h"
#include "graph/edge_list.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "stream/stream.h"

namespace {

using loom::ArrivalSource;
using loom::ArrivalView;
using loom::LabeledGraph;
using loom::VertexId;
using loom::tools::ParseFlag;

constexpr char kTool[] = "loom_convert";

struct Args {
  std::string in_path;
  std::string gen;
  std::string out_path;
  std::string order = "original";
  uint64_t seed = 42;
  uint32_t num_labels = 1;
  uint32_t n = 0;
  uint32_t degree = 8;
  double p = -1.0;
  bool back_edges_only = false;
  bool stats_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return (i + 1 < argc) ? argv[++i] : nullptr;
    };
    if (flag == "--in") {
      const char* v = next();
      if (!v) return false;
      args->in_path = v;
    } else if (flag == "--gen") {
      const char* v = next();
      if (!v) return false;
      args->gen = v;
    } else if (flag == "--out") {
      const char* v = next();
      if (!v) return false;
      args->out_path = v;
    } else if (flag == "--order") {
      const char* v = next();
      if (!v) return false;
      args->order = v;
    } else if (flag == "--seed") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->seed)) return false;
    } else if (flag == "--num-labels") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->num_labels)) return false;
    } else if (flag == "--n") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->n)) return false;
    } else if (flag == "--degree") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->degree)) return false;
    } else if (flag == "--p") {
      const char* v = next();
      if (!v || !ParseFlag(kTool, flag, v, &args->p)) return false;
    } else if (flag == "--back-edges-only") {
      args->back_edges_only = true;
    } else if (flag == "--stats") {
      args->stats_only = true;
    } else {
      std::fprintf(stderr, "loom_convert: unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->in_path.empty() == args->gen.empty()) {
    std::fprintf(stderr,
                 "loom_convert: exactly one of --in and --gen is required\n");
    return false;
  }
  if (args->out_path.empty() && !args->stats_only) {
    std::fprintf(stderr, "loom_convert: --out is required (or --stats)\n");
    return false;
  }
  return true;
}

// Parses a SNAP-style edge list through the shared strict parser
// (graph/edge_list.h): self-loops/duplicates normalised with counts,
// malformed or negative ids rejected with the offending line. Vertex ids
// are remapped in first-appearance order, so dense id order IS the file's
// own temporal order and --order original is the identity permutation.
bool LoadEdgeList(const Args& args, LabeledGraph* g) {
  loom::EdgeListOptions options;
  options.num_labels = args.num_labels;
  options.seed = args.seed;
  loom::EdgeListStats stats;
  auto loaded = loom::LoadEdgeListGraph(args.in_path, options, &stats);
  if (!loaded.ok()) {
    std::fprintf(stderr, "loom_convert: %s\n",
                 loaded.status().ToString().c_str());
    return false;
  }
  *g = std::move(*loaded);
  if (stats.self_loops + stats.duplicate_edges > 0) {
    std::printf("dropped %llu self-loops, %llu duplicate edges\n",
                static_cast<unsigned long long>(stats.self_loops),
                static_cast<unsigned long long>(stats.duplicate_edges));
  }
  return true;
}

bool ParseStreamOrder(const std::string& name, loom::StreamOrder* out) {
  if (name == "original") {
    *out = loom::StreamOrder::kNatural;  // dense ids ARE first-appearance
    return true;
  }
  if (name == "bfs") {
    *out = loom::StreamOrder::kBfs;
    return true;
  }
  if (name == "dfs") {
    *out = loom::StreamOrder::kDfs;
    return true;
  }
  if (name == "random") {
    *out = loom::StreamOrder::kRandom;
    return true;
  }
  std::fprintf(stderr,
               "loom_convert: --order must be original|bfs|dfs|random\n");
  return false;
}

// Builds the streaming generator named by --gen (never materialises).
std::unique_ptr<ArrivalSource> MakeGenerator(const Args& args) {
  if (args.n == 0) {
    std::fprintf(stderr, "loom_convert: --gen requires --n\n");
    return nullptr;
  }
  const loom::LabelConfig labels{args.num_labels, 0.0};
  if (args.gen == "ba") {
    return std::make_unique<loom::BarabasiAlbertArrivalSource>(
        args.n, args.degree, labels, args.seed);
  }
  if (args.gen == "er") {
    const double p =
        args.p >= 0.0
            ? args.p
            : (args.n > 1 ? static_cast<double>(args.degree) /
                                static_cast<double>(args.n - 1)
                          : 0.0);
    return std::make_unique<loom::ErdosRenyiArrivalSource>(args.n, p, labels,
                                                           args.seed);
  }
  std::fprintf(stderr, "loom_convert: --gen must be ba|er\n");
  return nullptr;
}

// --stats for generators: one O(V)-memory drain counting what a write would
// record.
int GeneratorStats(ArrivalSource& source) {
  uint64_t vertices = 0;
  uint64_t edges = 0;
  uint64_t max_degree = 0;
  ArrivalView view;
  while (source.Next(&view)) {
    ++vertices;
    edges += view.back_edges.size();
    max_degree = std::max<uint64_t>(max_degree, view.back_edges.size());
  }
  std::printf("vertices: %llu\nedges: %llu\nmax back-degree: %llu\n"
              "avg degree: %.2f\n",
              static_cast<unsigned long long>(vertices),
              static_cast<unsigned long long>(edges),
              static_cast<unsigned long long>(max_degree),
              vertices > 0 ? 2.0 * static_cast<double>(edges) /
                                 static_cast<double>(vertices)
                           : 0.0);
  return 0;
}

int GraphStats(const LabeledGraph& g) {
  uint64_t max_degree = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    max_degree = std::max<uint64_t>(max_degree, g.Degree(v));
  }
  std::printf("vertices: %zu\nedges: %zu\nmax degree: %llu\n"
              "avg degree: %.2f\nlabels: %zu\n",
              g.NumVertices(), g.NumEdges(),
              static_cast<unsigned long long>(max_degree),
              g.NumVertices() > 0 ? 2.0 * static_cast<double>(g.NumEdges()) /
                                        static_cast<double>(g.NumVertices())
                                  : 0.0,
              g.NumLabels());
  return 0;
}

int WriteFromSource(const Args& args, ArrivalSource& source) {
  loom::StreamFileOptions options;
  options.full_neighborhoods = !args.back_edges_only;
  auto writer = loom::StreamFileWriter::Create(args.out_path, options);
  if (!writer.ok()) {
    std::fprintf(stderr, "loom_convert: %s\n",
                 writer.status().ToString().c_str());
    return 1;
  }
  loom::Status status = (*writer)->AppendAll(source);
  if (status.ok()) status = (*writer)->Finish();
  if (!status.ok()) {
    std::fprintf(stderr, "loom_convert: %s\n", status.ToString().c_str());
    return 1;
  }
  const loom::StreamFileInfo& info = (*writer)->info();
  std::printf("wrote %s: %llu vertices, %llu edges, %llu bytes "
              "(%s), peak rss %.1f MiB\n",
              args.out_path.c_str(),
              static_cast<unsigned long long>(info.num_vertices),
              static_cast<unsigned long long>(info.num_edges),
              static_cast<unsigned long long>(info.file_bytes),
              info.has_full_neighborhoods ? "full neighborhoods"
                                          : "back edges only",
              static_cast<double>(loom::PeakRssBytes()) / (1024.0 * 1024.0));
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(
        stderr,
        "usage: loom_convert (--in edges.txt | --gen ba|er --n N) "
        "--out FILE [--order original|bfs|dfs|random] [--seed N] "
        "[--num-labels L] [--degree M] [--p P] [--back-edges-only] "
        "[--stats]\n");
    return 2;
  }

  if (!args.gen.empty()) {
    std::unique_ptr<ArrivalSource> source = MakeGenerator(args);
    if (source == nullptr) return 2;
    if (args.order != "original") {
      std::fprintf(stderr,
                   "loom_convert: --gen streams in arrival order; --order "
                   "is only for --in\n");
      return 2;
    }
    if (args.stats_only) return GeneratorStats(*source);
    return WriteFromSource(args, *source);
  }

  LabeledGraph g;
  if (!LoadEdgeList(args, &g)) return 1;
  if (args.stats_only) return GraphStats(g);

  loom::StreamOrder order;
  if (!ParseStreamOrder(args.order, &order)) return 2;
  loom::Rng rng(args.seed);
  const loom::GraphStream stream = loom::MakeStream(g, order, rng);
  loom::StreamCursor cursor(stream);
  return WriteFromSource(args, cursor);
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
