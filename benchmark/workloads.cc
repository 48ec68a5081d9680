#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <thread>
#include <unistd.h>

#include "core/loom.h"
#include "edge_partition/edge_partitioner.h"
#include "graph/io.h"
#include "metrics/metrics.h"
#include "restream/restreamer.h"
#include "serving/service.h"
#include "inputs.h"
#include "trace.h"

namespace loom_bench {

using namespace loom;

void Report::AddCheck(const std::string& name, bool ok,
                      const std::string& detail) {
  checks.push_back({name, ok, detail});
}

namespace {

// Full-scale sizes; `RunOptions::scale_divisor` shrinks every n.
constexpr uint32_t kStreamVertices = 1000000;
constexpr uint32_t kFileVertices = 500000;
constexpr uint32_t kServeVertices = 64000;
// The drift loop needs about a thousand observed queries to fire, which the
// schedule's query rate only reaches on a stream of this many arrivals.
constexpr uint32_t kServeMinVertices = 20000;
constexpr uint32_t kFileEdgesPerVertex = 10;
constexpr double kSlack = 1.1;
constexpr double kEps = 1e-9;
constexpr size_t kSpanCapacity = 1u << 20;
// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
// Each timed phase runs at least this many repeats, past its time budget if
// need be, so every median has a middle.
constexpr int kMinRepeats = 3;
constexpr int kMaxRepeats = 200;
constexpr size_t kMaxTracedRepeats = 5;

// ---------------------------------------------------------------- layers

struct LayerSpec {
  const char* unit;
  const char* moves;
  // Reported by every workload (0 where the layer does no work).
  bool always;
};

// Every per-layer metric, the unit it is reported in and the end-to-end
// metric (@workload) it should move.
const std::map<std::string, LayerSpec>& LayerTable() {
  static const std::map<std::string, LayerSpec> table = {
      // graph
      {"graph.open_s", {"s", "setup_s@file-restream,edge-stream", true}},
      {"graph.next_s", {"s", "edges_per_s@edge-stream", true}},
      {"graph.next_ns_per_arrival",
       {"ns", "edges_per_s@edge-stream;vertices_per_s@file-restream", true}},
      // set-up of the partitioner / service
      {"partitioner.create_s", {"s", "setup_s@all", true}},
      // the per-arrival placement call of each workload
      {"place.ns_per_arrival", {"ns", "vertices_per_s@all", true}},
      {"place.p50_ns", {"ns", "vertices_per_s@all", true}},
      {"place.p99_ns", {"ns", "vertices_per_s@all", true}},
      {"place.max_us", {"us", "vertices_per_s@all", true}},
      // core (LOOM)
      {"core.cluster_vertex_frac",
       {"fraction", "ipt@motif-stream", true}},
      {"core.clusters_assigned", {"count", "ipt@motif-stream", true}},
      {"core.clusters_split",
       {"count", "single_partition_frac@motif-stream", true}},
      {"core.on_vertex_s", {"s", "vertices_per_s@motif-stream", false}},
      {"core.finish_s", {"s", "vertices_per_s@motif-stream", false}},
      // matching
      {"matching.edges_processed",
       {"count", "vertices_per_s@motif-stream", true}},
      {"matching.growths_accepted",
       {"count", "vertices_per_s@motif-stream", true}},
      {"matching.growth_accept_frac",
       {"fraction", "vertices_per_s@motif-stream", true}},
      {"matching.regrow_invocations",
       {"count", "vertices_per_s@motif-stream", true}},
      {"matching.regrow_matches",
       {"count", "vertices_per_s@motif-stream", true}},
      {"matching.max_tracked_live",
       {"count", "peak_rss_mb@motif-stream", true}},
      // partition
      {"partition.overflow_fallbacks", {"count", "edge_cut@all", true}},
      {"partition.forced_placements", {"count", "edge_cut@all", true}},
      {"partition.assign_errors", {"count", "edge_cut@all", true}},
      {"partition.balance", {"ratio", "edge_cut@all", true}},
      // stream (cluster memo)
      {"stream.memo_recall_frac",
       {"fraction", "vertices_per_s@file-restream", true}},
      {"stream.memo_invalidated",
       {"count", "vertices_per_s@file-restream", true}},
      // restream
      {"restream.cut_pass1", {"fraction", "edge_cut@file-restream", true}},
      {"restream.cut_pass2", {"fraction", "edge_cut@file-restream", true}},
      {"restream.cut_pass3", {"fraction", "edge_cut@file-restream", true}},
      {"restream.migration_pass2",
       {"fraction", "edge_cut@file-restream", true}},
      {"restream.migration_pass3",
       {"fraction", "edge_cut@file-restream", true}},
      {"restream.run_s", {"s", "vertices_per_s@file-restream", false}},
      {"restream.pass1_s", {"s", "vertices_per_s@file-restream", false}},
      {"restream.pass2_s", {"s", "vertices_per_s@file-restream", false}},
      {"restream.pass3_s", {"s", "vertices_per_s@file-restream", false}},
      // drift
      {"drift.checks", {"count", "ipt@serve-drift", true}},
      {"drift.fires", {"count", "ipt@serve-drift", true}},
      {"drift.reactions", {"count", "ipt@serve-drift", true}},
      {"drift.detect_lag_queries", {"count", "ipt@serve-drift", true}},
      {"drift.reaction_cut_before",
       {"fraction", "edge_cut@serve-drift", true}},
      {"drift.reaction_cut_after", {"fraction", "edge_cut@serve-drift", true}},
      {"drift.reaction_migration",
       {"fraction", "edge_cut@serve-drift", true}},
      {"drift.reaction_s", {"s", "ipt@serve-drift", false}},
      // serving
      {"serving.snapshots_published",
       {"count", "peak_rss_mb@serve-drift", true}},
      {"serving.pipeline_busy_frac",
       {"fraction", "vertices_per_s@serve-drift", true}},
      {"serving.ingest_p50_ms", {"ms", "vertices_per_s@serve-drift", false}},
      {"serving.ingest_p99_ms", {"ms", "vertices_per_s@serve-drift", false}},
      {"serving.ingest_call_p99_us",
       {"us", "vertices_per_s@serve-drift", false}},
      {"serving.batch_service_p50_ms",
       {"ms", "vertices_per_s@serve-drift", false}},
      {"serving.batch_service_p99_ms",
       {"ms", "vertices_per_s@serve-drift", false}},
      {"serving.batch_wait_p99_ms",
       {"ms", "vertices_per_s@serve-drift", false}},
      {"serving.route_p99_us", {"us", "vertices_per_s@serve-drift", false}},
      {"serving.locate_p99_ns", {"ns", "vertices_per_s@serve-drift", false}},
      {"serving.touches_p99_us", {"us", "vertices_per_s@serve-drift", false}},
      {"serving.observe_p99_us", {"us", "vertices_per_s@serve-drift", false}},
      {"serving.open_loop_valid_frac",
       {"fraction", "vertices_per_s@serve-drift", false}},
      {"serving.generator_late_p99_ms",
       {"ms", "vertices_per_s@serve-drift", false}},
      {"serving.generator_late_max_ms",
       {"ms", "vertices_per_s@serve-drift", false}},
      // edge_partition
      {"edge_partition.overflow_fallbacks",
       {"count", "replication_factor@edge-stream", true}},
      {"edge_partition.cap_relaxations",
       {"count", "replication_factor@edge-stream", true}},
      {"edge_partition.assign_errors",
       {"count", "replication_factor@edge-stream", true}},
      {"edge_partition.edge_balance",
       {"ratio", "replication_factor@edge-stream", true}},
      {"edge_partition.on_arrival_s",
       {"s", "edges_per_s@edge-stream", false}},
      // the tracer itself
      {"trace.overhead_frac", {"fraction", "vertices_per_s@all", true}},
      {"trace.spans", {"count", "vertices_per_s@all", true}},
  };
  return table;
}

void SetLayer(Report* r, const std::string& name, double value) {
  const auto it = LayerTable().find(name);
  if (it == LayerTable().end()) {
    std::fprintf(stderr, "unknown layer metric %s\n", name.c_str());
    std::abort();
  }
  r->layers[name] = LayerMetric{value, it->second.unit, it->second.moves};
}

void DeclareLayers(Report* r) {
  for (const auto& [name, spec] : LayerTable()) {
    if (spec.always) SetLayer(r, name, 0.0);
  }
}

void SetMetric(Report* r, const std::string& name, double value,
               const std::string& unit, uint64_t samples = 0) {
  r->metrics[name] = Metric{value, unit, samples};
}

void SetDetail(Report* r, const std::string& name, double value,
               const std::string& unit, uint64_t samples = 0) {
  r->details[name] = Metric{value, unit, samples};
}

void SetQuality(Report* r, const Quality& q) {
  SetMetric(r, "ipt", q.ipt, "fraction");
  // Too seed-dependent for a bound (the engine's embeddings come from the
  // hubs first), so it is reported but not bounded.
  SetDetail(r, "single_partition_frac", q.single_partition_frac, "fraction");
  SetMetric(r, "edge_cut", q.edge_cut, "fraction");
  SetMetric(r, "replication_factor", q.replication_factor, "ratio");
}

// Throughput from the fastest of the timed repeats of one unit of work
// (`unit`: a pass, a restream run, a closed-loop ingest) over `vertices`
// arrivals carrying `edges` edges. On a shared machine other tenants slow
// some repeats of a run by tens of percent; the fastest repeat measures the
// program, and its spread between runs is a third of the median's. The
// median is printed beside it.
void SetThroughput(Report* r, const std::string& unit,
                   const std::vector<double>& seconds, double vertices,
                   double edges) {
  const double best = *std::min_element(seconds.begin(), seconds.end());
  SetMetric(r, "vertices_per_s", vertices / best, "vertices/s",
            seconds.size());
  SetMetric(r, "edges_per_s", edges / best, "edges/s", seconds.size());
  SetDetail(r, unit + "_best_s", best, "s", seconds.size());
  SetDetail(r, unit + "_median_s", Median(seconds), "s", seconds.size());
}

// Runs `body(warmup)` once untimed, then timed until `budget` seconds have
// passed (at least kMinRepeats times); `body` returns its measured seconds.
// peak_rss_mb is read after the warm-up: the peak of set-up plus one unit of
// work. Later repeats only add allocator reuse that varies with how many of
// them fit in the budget.
std::vector<double> TimedRepeats(Report* r, double budget,
                                 const std::function<double(bool)>& body) {
  body(true);
  SetMetric(r, "peak_rss_mb", PeakRssMiB(), "MiB");
  std::vector<double> seconds;
  const uint64_t start = NowNs();
  while (static_cast<int>(seconds.size()) < kMinRepeats ||
         (static_cast<int>(seconds.size()) < kMaxRepeats &&
          Seconds(start, NowNs()) < budget)) {
    seconds.push_back(body(false));
  }
  return seconds;
}

// The measured phase gets the whole budget untraced; a traced run splits it
// between the untraced baseline and the traced repeats.
double UntracedBudget(const RunOptions& o) {
  return o.trace ? o.seconds / 2 : o.seconds;
}

// Traced repeats run for the other half of the budget, at most
// kMaxTracedRepeats of them (enough for the sampled percentiles, and the span
// buffer never fills).
bool MoreTracedRepeats(const RunOptions& o, uint64_t start_ns,
                       size_t repeats) {
  return repeats < kMaxTracedRepeats &&
         Seconds(start_ns, NowNs()) < o.seconds / 2;
}

void SetOverhead(Report* r, double traced_seconds,
                 const std::vector<double>& untraced) {
  SetLayer(r, "trace.overhead_frac", traced_seconds / Median(untraced) - 1.0);
}

// Per-arrival placement latency from a traced call site.
void SetPlaceLayers(Report* r, const CallStats& call) {
  if (call.count == 0) return;
  std::vector<double> ns(call.sampled_ns.begin(), call.sampled_ns.end());
  SetLayer(r, "place.ns_per_arrival",
           static_cast<double>(call.total_ns) /
               static_cast<double>(call.count));
  SetLayer(r, "place.p50_ns", Quantile(ns, 0.50));
  SetLayer(r, "place.p99_ns", Quantile(ns, 0.99));
  SetLayer(r, "place.max_us", static_cast<double>(call.max_ns) * 1e-3);
}

void SetNextLayers(Report* r, const Tracer& t) {
  const auto it = t.calls().find("graph.next");
  if (it == t.calls().end() || it->second.count == 0) return;
  SetLayer(r, "graph.next_s", static_cast<double>(it->second.total_ns) * 1e-9);
  SetLayer(r, "graph.next_ns_per_arrival",
           static_cast<double>(it->second.total_ns) /
               static_cast<double>(it->second.count));
}

// Times every Next() of the wrapped source as a `graph.next` call, for
// consumers inside the library (Service::IngestSource).
class TracedSource : public ArrivalSource {
 public:
  TracedSource(ArrivalSource& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), site_(tracer.Site("graph.next")) {}

  bool Next(ArrivalView* out) override {
    const uint64_t start = NowNs();
    const bool more = inner_.Next(out);
    const uint64_t end = NowNs();
    tracer_.Call(site_, index_++, start, end);
    if (on_next) on_next(index_, end);
    return more;
  }
  void Reset() override {
    inner_.Reset();
    index_ = 0;
  }
  uint64_t NumVertices() const override { return inner_.NumVertices(); }
  uint64_t NumEdges() const override { return inner_.NumEdges(); }

  /// Called after every Next with the count of Next calls so far and the
  /// time it returned.
  std::function<void(uint64_t, uint64_t)> on_next;

 private:
  ArrivalSource& inner_;
  Tracer& tracer_;
  CallStats* site_;
  uint64_t index_ = 0;
};

// One traced pass over `source`: every Next is a `graph.next` call and every
// `place(view)` a `place_name` call. The two share clock readings, so an
// arrival costs two. `finish` runs last, as a `finish_name` span. Returns
// the pass's wall seconds.
template <typename Place, typename Finish>
double TracedPass(ArrivalSource& source, Tracer& tracer,
                  const char* place_name, Place&& place,
                  const char* finish_name, Finish&& finish) {
  CallStats* next_site = tracer.Site("graph.next");
  CallStats* place_site = tracer.Site(place_name);
  const uint64_t start = NowNs();
  {
    ScopedSpan pass(tracer, "pass");
    ArrivalView view;
    uint64_t i = 0;
    uint64_t t0 = NowNs();
    for (;;) {
      const bool more = source.Next(&view);
      const uint64_t t1 = NowNs();
      tracer.Call(next_site, i, t0, t1);
      if (!more) break;
      place(view);
      t0 = NowNs();
      tracer.Call(place_site, i++, t1, t0);
    }
    ScopedSpan span(tracer, finish_name);
    finish();
  }
  return Seconds(start, NowNs());
}

double TracedVertexPass(StreamingPartitioner& p, ArrivalSource& source,
                        Tracer& tracer) {
  return TracedPass(
      source, tracer, "core.on_vertex",
      [&p](const ArrivalView& v) {
        p.OnVertex(v.vertex, v.label, v.back_edges);
      },
      "core.finish", [&p] { p.Finish(); });
}

void SetPartitionerLayers(Report* r, const PartitionerStats& s,
                          const PartitionAssignment& a) {
  SetLayer(r, "partition.overflow_fallbacks",
           static_cast<double>(s.overflow_fallbacks));
  SetLayer(r, "partition.forced_placements",
           static_cast<double>(s.forced_placements));
  SetLayer(r, "partition.assign_errors", static_cast<double>(s.assign_errors));
  SetLayer(r, "partition.balance", BalanceMaxOverAvg(a));
}

void SetLoomLayers(Report* r, const LoomPartitioner& p, uint64_t n) {
  const LoomStats& ls = p.loom_stats();
  const StreamMatcherStats& ms = p.matcher_stats();
  SetLayer(r, "core.cluster_vertex_frac",
           static_cast<double>(ls.cluster_vertices) / static_cast<double>(n));
  SetLayer(r, "core.clusters_assigned",
           static_cast<double>(ls.clusters_assigned));
  SetLayer(r, "core.clusters_split", static_cast<double>(ls.clusters_split));
  SetLayer(r, "matching.edges_processed",
           static_cast<double>(ms.edges_processed));
  SetLayer(r, "matching.growths_accepted",
           static_cast<double>(ms.growths_accepted));
  const uint64_t attempts = ms.growths_accepted + ms.growths_rejected;
  SetLayer(r, "matching.growth_accept_frac",
           attempts == 0 ? 0.0
                         : static_cast<double>(ms.growths_accepted) /
                               static_cast<double>(attempts));
  SetLayer(r, "matching.regrow_invocations",
           static_cast<double>(ms.regrow_invocations));
  SetLayer(r, "matching.regrow_matches",
           static_cast<double>(ms.regrow_matches));
  SetLayer(r, "matching.max_tracked_live",
           static_cast<double>(ms.max_tracked_live));
}

// Every vertex placed, and no partition past C = ceil(slack * n / k).
void CheckAssignment(Report* r, const PartitionAssignment& a, uint64_t n) {
  r->AddCheck("every vertex assigned", a.NumAssigned() == n,
              std::to_string(a.NumAssigned()) + "/" + std::to_string(n));
  const size_t cap = ComputeCapacity(a.k(), n, kSlack);
  const uint32_t largest = *std::max_element(a.Sizes().begin(), a.Sizes().end());
  r->AddCheck("no partition above capacity", largest <= cap,
              std::to_string(largest) + " <= " + std::to_string(cap));
}

void CheckSameHash(Report* r, const std::vector<uint64_t>& hashes) {
  bool same = !hashes.empty();
  for (uint64_t h : hashes) same = same && h == hashes.front();
  r->AddCheck("repeats give the same assignment", same,
              std::to_string(hashes.size()) + " repeats");
}

uint32_t Scaled(uint32_t n, const RunOptions& o, uint32_t floor = 512) {
  return std::max<uint32_t>(n / o.scale_divisor, floor);
}

// The set-up users pay before streaming, kSetupRepeats times (the last
// result is kept): `open` readies the arrival source (graph layer) and
// `create` builds the partitioner or service. setup_s is the median sum.
bool TimedSetup(Report* r, Tracer& tracer,
                const std::function<Status()>& open,
                const std::function<Status()>& create, std::string* error) {
  std::vector<double> open_s;
  std::vector<double> create_s;
  auto timed = [&](const char* name, const std::function<Status()>& step,
                   int repeat, std::vector<double>* seconds) {
    ScopedSpan span(tracer, name, repeat);
    const uint64_t t0 = NowNs();
    const Status s = step();
    seconds->push_back(Seconds(t0, NowNs()));
    if (!s.ok()) *error = s.ToString();
    return s.ok();
  };
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (!timed("graph.open", open, i, &open_s) ||
        !timed("partitioner.create", create, i, &create_s)) {
      return false;
    }
  }
  std::vector<double> total(create_s);
  for (size_t i = 0; i < total.size(); ++i) total[i] += open_s[i];
  SetMetric(r, "setup_s", Median(total), "s", total.size());
  SetLayer(r, "graph.open_s", Median(open_s));
  SetLayer(r, "partitioner.create_s", Median(create_s));
  return true;
}

// `open` step of an in-memory input: MakeStream over the graph, from the
// same RNG state every time.
std::function<Status()> BuildStream(const GraphInput& in, GraphStream* out) {
  return [&in, out] {
    *out = GraphStream();
    Rng rng = in.stream_rng;
    *out = MakeStream(in.graph, in.order, rng);
    return Status::OK();
  };
}

// ------------------------------------------------------- motif / lookup

// One LOOM pass per repeat over an in-memory planted BA stream. With
// `lookups`, LOOM is built for the motif-free lookup workload: the matcher
// finds no closures, so it bypasses every matcher and trie optimisation.
bool RunLoomStream(const RunOptions& o, bool lookups, Report* r,
                   Tracer& tracer, std::string* error) {
  const MotifInput in = [&] {
    ScopedSpan span(tracer, "input.generate");
    return MakeMotifInput(o.seed, Scaled(kStreamVertices, o));
  }();
  const uint64_t n = in.graph.NumVertices();
  const uint64_t m = in.graph.NumEdges();

  LoomOptions lo;
  lo.partitioner.k = 8;
  lo.partitioner.num_vertices_hint = n;
  lo.partitioner.num_edges_hint = m;
  lo.partitioner.window_size = 1024;
  lo.matcher.frequency_threshold = 0.2;
  const Workload& trained = lookups ? in.lookups : in.motifs;

  ResetPeakRss();
  GraphStream stream;
  std::unique_ptr<Loom> loom;
  auto create = [&]() -> Status {
    loom.reset();
    LOOM_ASSIGN_OR_RETURN(loom, Loom::Create(trained, lo));
    return Status::OK();
  };
  if (!TimedSetup(r, tracer, BuildStream(in, &stream), create, error)) {
    return false;
  }
  r->fingerprint = InputFingerprint(stream, {&in.motifs, &in.lookups});

  LoomPartitioner& p = loom->Partitioner();
  std::vector<uint64_t> hashes;
  auto pass = [&](bool warmup) {
    p.Reset();
    StreamCursor cursor(stream);
    const uint64_t t0 = NowNs();
    p.Run(cursor);
    const double s = Seconds(t0, NowNs());
    if (!warmup) {
      hashes.push_back(HashAssignment(p.assignment(), n));
      r->attempted += n;
      r->failed += p.stats().assign_errors + p.stats().forced_placements;
    }
    return s;
  };
  const std::vector<double> seconds = TimedRepeats(r, UntracedBudget(o), pass);
  SetThroughput(r, "pass", seconds, static_cast<double>(n),
                static_cast<double>(m));

  if (o.trace) {
    std::vector<double> traced;
    const uint64_t start = NowNs();
    do {
      p.Reset();
      StreamCursor cursor(stream);
      traced.push_back(TracedVertexPass(p, cursor, tracer));
      hashes.push_back(HashAssignment(p.assignment(), n));
    } while (MoreTracedRepeats(o, start, traced.size()));
    SetOverhead(r, Median(traced), seconds);
    SetNextLayers(r, tracer);
    const CallStats& call = tracer.calls().at("core.on_vertex");
    SetPlaceLayers(r, call);
    SetLayer(r, "core.on_vertex_s",
             static_cast<double>(call.total_ns) * 1e-9 /
                 static_cast<double>(traced.size()));
    SetLayer(r, "core.finish_s",
             tracer.SelfSeconds()["core.finish"] /
                 static_cast<double>(traced.size()));
  }

  SetLoomLayers(r, p, n);
  SetPartitionerLayers(r, p.stats(), p.assignment());
  CheckAssignment(r, p.assignment(), n);
  CheckSameHash(r, hashes);
  r->AddCheck("no assign errors", p.stats().assign_errors == 0,
              std::to_string(p.stats().assign_errors));
  if (lookups) {
    r->AddCheck("lookup workload forms no clusters",
                p.loom_stats().clusters_assigned == 0,
                std::to_string(p.loom_stats().clusters_assigned));
  }
  // ipt is always that of the motif mix planted in the graph: on
  // lookup-stream it is what a placement blind to that mix costs it.
  ScopedSpan span(tracer, "quality.evaluate");
  SetQuality(r, EvaluateVertexPartition(in.graph, p.assignment(), in.motifs));
  return true;
}

// --------------------------------------------------------- file workloads

// The streamed Barabási–Albert input of the two file workloads, written with
// full neighbourhoods for this run and removed when the run ends.
class StreamFile {
 public:
  StreamFile(const RunOptions& o, const std::string& tag)
      : path_(o.out_dir + "/data/" + tag + "-" + std::to_string(o.seed) +
              "-" + std::to_string(getpid()) + ".loomstrm") {}
  ~StreamFile() { std::remove(path_.c_str()); }
  StreamFile(const StreamFile&) = delete;
  StreamFile& operator=(const StreamFile&) = delete;

  bool Write(const RunOptions& o, const Workload& workload, Report* r,
             Tracer& tracer, std::string* error) {
    ScopedSpan span(tracer, "input.write");
    auto written =
        WriteBarabasiAlbertFile(o.seed, Scaled(kFileVertices, o),
                                kFileEdgesPerVertex, workload, path_);
    if (!written.ok()) {
      *error = written.status().ToString();
      return false;
    }
    r->fingerprint = *written;
    return true;
  }

  /// `open` step of TimedSetup.
  std::function<Status()> Opener(std::unique_ptr<FileArrivalSource>* file) {
    return [this, file] {
      file->reset();
      LOOM_ASSIGN_OR_RETURN(*file, FileArrivalSource::Open(path_));
      return Status::OK();
    };
  }

 private:
  std::string path_;
};

bool RunFileRestream(const RunOptions& o, Report* r, Tracer& tracer,
                     std::string* error) {
  const Workload workload = FileWorkload();
  StreamFile input(o, "file-restream");
  if (!input.Write(o, workload, r, tracer, error)) return false;

  ResetPeakRss();
  std::unique_ptr<FileArrivalSource> file;
  std::unique_ptr<Loom> loom;
  LoomOptions lo;
  lo.partitioner.k = 16;
  lo.partitioner.window_size = 256;
  auto create = [&]() -> Status {
    loom.reset();
    lo.partitioner.num_vertices_hint = file->NumVertices();
    lo.partitioner.num_edges_hint = file->NumEdges();
    LOOM_ASSIGN_OR_RETURN(loom, Loom::Create(workload, lo));
    return Status::OK();
  };
  if (!TimedSetup(r, tracer, input.Opener(&file), create, error)) {
    return false;
  }
  const uint64_t n = file->NumVertices();
  const uint64_t m = file->NumEdges();
  const RestreamOptions ro;
  LoomPartitioner& p = loom->Partitioner();

  std::vector<uint64_t> hashes;
  RestreamResult result;
  uint64_t materializations = 0;
  bool best_non_increasing = true;
  auto run = [&](bool warmup) {
    Restreamer restreamer(file.get(), ro);
    const uint64_t t0 = NowNs();
    result = restreamer.Run(&p);
    const double s = Seconds(t0, NowNs());
    materializations += restreamer.materializations();
    for (size_t i = 1; i < result.passes.size(); ++i) {
      best_non_increasing =
          best_non_increasing && result.passes[i].best_edge_cut_fraction <=
                                     result.passes[i - 1].best_edge_cut_fraction;
    }
    if (!warmup) {
      hashes.push_back(HashAssignment(result.assignment, file->IdBound()));
      for (const RestreamPassStats& ps : result.passes) {
        r->attempted += n;
        r->failed += ps.assign_errors + ps.forced_placements;
      }
    }
    return s;
  };
  const std::vector<double> seconds = TimedRepeats(r, UntracedBudget(o), run);
  const double passes = static_cast<double>(ro.num_passes);
  SetThroughput(r, "restream", seconds, passes * static_cast<double>(n),
                passes * static_cast<double>(m));

  if (o.trace) {
    // Pass one of a restream, driven arrival by arrival over the file.
    p.Reset();
    file->Reset();
    TracedVertexPass(p, *file, tracer);
    SetNextLayers(r, tracer);
    SetPlaceLayers(r, tracer.calls().at("core.on_vertex"));
    std::vector<double> traced;
    const uint64_t start = NowNs();
    do {
      Restreamer restreamer(file.get(), ro);
      ScopedSpan span(tracer, "restream.run");
      const uint64_t t0 = NowNs();
      result = restreamer.Run(&p);
      traced.push_back(Seconds(t0, NowNs()));
      hashes.push_back(HashAssignment(result.assignment, file->IdBound()));
    } while (MoreTracedRepeats(o, start, traced.size()));
    SetOverhead(r, Median(traced), seconds);
    SetLayer(r, "restream.run_s", Median(traced));
    for (const RestreamPassStats& ps : result.passes) {
      SetLayer(r, "restream.pass" + std::to_string(ps.pass) + "_s",
               ps.seconds);
    }
  }

  for (const RestreamPassStats& ps : result.passes) {
    const std::string pass = std::to_string(ps.pass);
    SetLayer(r, "restream.cut_pass" + pass, ps.edge_cut_fraction);
    if (ps.pass > 1) {
      SetLayer(r, "restream.migration_pass" + pass, ps.migration_fraction);
    }
    r->AddCheck("pass " + pass + " no assign errors", ps.assign_errors == 0,
                std::to_string(ps.assign_errors));
  }
  const LoomStats& ls = p.loom_stats();
  SetLayer(r, "stream.memo_recall_frac",
           static_cast<double>(ls.memo_vertices) / static_cast<double>(n));
  SetLayer(r, "stream.memo_invalidated",
           static_cast<double>(ls.memo_invalidated));
  SetLoomLayers(r, p, n);
  SetPartitionerLayers(r, p.stats(), result.assignment);
  SetLayer(r, "partition.balance", BalanceMaxOverAvg(result.assignment));
  CheckAssignment(r, result.assignment, n);
  CheckSameHash(r, hashes);
  r->AddCheck("out-of-core restream never materialises",
              materializations == 0, std::to_string(materializations));
  r->AddCheck("best cut never increases", best_non_increasing, "");

  ScopedSpan span(tracer, "quality.evaluate");
  const LabeledGraph g = GraphFromSource(*file);
  const Quality q = EvaluateVertexPartition(g, result.assignment, workload);
  r->AddCheck("restream cut matches the graph's",
              std::fabs(q.edge_cut - result.edge_cut_fraction) <= kEps,
              std::to_string(result.edge_cut_fraction));
  SetQuality(r, q);
  return true;
}

uint64_t HashReplicas(const EdgePartitioner& p, uint64_t id_bound) {
  Fnv1a hash;
  for (uint64_t c : p.edge_counts()) hash.Add(c);
  for (uint64_t v = 0; v < id_bound; ++v) {
    hash.Add(p.replicas().NumReplicasOf(static_cast<VertexId>(v)));
    hash.Add(p.replicas().PrimaryOf(static_cast<VertexId>(v)));
  }
  return hash.value();
}

bool RunEdgeStream(const RunOptions& o, Report* r, Tracer& tracer,
                   std::string* error) {
  const Workload workload = FileWorkload();
  StreamFile input(o, "edge-stream");
  if (!input.Write(o, workload, r, tracer, error)) return false;

  ResetPeakRss();
  std::unique_ptr<FileArrivalSource> file;
  std::unique_ptr<EdgePartitioner> p;
  EdgePartitionerOptions eo;
  eo.k = 16;
  eo.record_placements = false;
  auto create = [&]() -> Status {
    p.reset();
    eo.num_vertices_hint = file->NumVertices();
    eo.num_edges_hint = file->NumEdges();
    LOOM_ASSIGN_OR_RETURN(p, MakeEdgePartitioner("hdrf", eo));
    return Status::OK();
  };
  if (!TimedSetup(r, tracer, input.Opener(&file), create, error)) {
    return false;
  }
  const uint64_t n = file->NumVertices();
  const uint64_t m = file->NumEdges();

  std::vector<uint64_t> hashes;
  auto pass = [&](bool warmup) {
    p->Reset();
    file->Reset();
    const uint64_t t0 = NowNs();
    p->Run(*file);
    const double s = Seconds(t0, NowNs());
    if (!warmup) {
      hashes.push_back(HashReplicas(*p, file->IdBound()));
      r->attempted += m;
      r->failed += p->stats().assign_errors + p->stats().cap_relaxations;
    }
    return s;
  };
  const std::vector<double> seconds = TimedRepeats(r, UntracedBudget(o), pass);
  SetThroughput(r, "pass", seconds, static_cast<double>(n),
                static_cast<double>(m));

  if (o.trace) {
    std::vector<double> traced;
    const uint64_t start = NowNs();
    do {
      p->Reset();
      file->Reset();
      traced.push_back(TracedPass(
          *file, tracer, "edge_partition.on_arrival",
          [&p](const ArrivalView& v) { p->OnArrival(v); }, "pass.end", [] {}));
      hashes.push_back(HashReplicas(*p, file->IdBound()));
    } while (MoreTracedRepeats(o, start, traced.size()));
    SetOverhead(r, Median(traced), seconds);
    SetNextLayers(r, tracer);
    const CallStats& call = tracer.calls().at("edge_partition.on_arrival");
    SetPlaceLayers(r, call);
    SetLayer(r, "edge_partition.on_arrival_s",
             static_cast<double>(call.total_ns) * 1e-9 /
                 static_cast<double>(traced.size()));
  }

  const EdgePartitionerStats& s = p->stats();
  SetLayer(r, "edge_partition.overflow_fallbacks",
           static_cast<double>(s.overflow_fallbacks));
  SetLayer(r, "edge_partition.cap_relaxations",
           static_cast<double>(s.cap_relaxations));
  SetLayer(r, "edge_partition.assign_errors",
           static_cast<double>(s.assign_errors));
  SetLayer(r, "edge_partition.edge_balance",
           EdgeBalanceMaxOverAvg(p->edge_counts()));
  r->AddCheck("every edge assigned", s.edges_assigned == m,
              std::to_string(s.edges_assigned) + "/" + std::to_string(m));
  const uint64_t cap = ComputeEdgeCapacity(eo.k, m, kSlack);
  const uint64_t largest =
      *std::max_element(p->edge_counts().begin(), p->edge_counts().end());
  r->AddCheck("no partition above edge capacity", largest <= cap,
              std::to_string(largest) + " <= " + std::to_string(cap));
  r->AddCheck("no assign errors or cap relaxations",
              s.assign_errors == 0 && s.cap_relaxations == 0, "");
  CheckSameHash(r, hashes);

  ScopedSpan span(tracer, "quality.evaluate");
  const LabeledGraph g = GraphFromSource(*file);
  SetQuality(r, EvaluateEdgePartition(g, p->replicas(), eo.k, workload));
  return true;
}

// ------------------------------------------------------------ serve-drift

constexpr uint32_t kServeBatch = 64;
constexpr double kServeArrivalsPerSecond = 100000.0;
constexpr double kServeQueriesPerSecond = 5000.0;
constexpr uint32_t kLocatesPerRoute = 64;
// Bounds the reader's latency log while it waits out a late reaction.
constexpr size_t kMaxRouteSamples = 1u << 22;
constexpr double kReactionWaitSeconds = 30.0;

// One entry of the open-loop schedule: an ingest batch or a query
// (Touches + ObserveQuery), due `due_ns` after the schedule starts.
struct ScheduledOp {
  uint64_t due_ns = 0;
  bool is_batch = false;
  uint32_t index = 0;
};

struct ServeSchedule {
  std::vector<ScheduledOp> ops;
  uint64_t num_batches = 0;
  /// Per query: which workload it comes from and which of its queries.
  std::vector<uint8_t> query_is_b;
  std::vector<uint32_t> query_pattern;
  /// First query drawn from workload B (the drift point).
  uint64_t flip_query = 0;
};

// Both streams come from one precomputed schedule driven by one thread, so
// the position of the drift reaction in the pipeline FIFO is the same on
// every run.
ServeSchedule MakeServeSchedule(const ServeInput& in, uint64_t seed) {
  ServeSchedule s;
  const uint64_t n = in.graph.NumVertices();
  s.num_batches = (n + kServeBatch - 1) / kServeBatch;
  const double batch_ns = 1e9 * kServeBatch / kServeArrivalsPerSecond;
  const double query_ns = 1e9 / kServeQueriesPerSecond;
  const double duration_ns = batch_ns * static_cast<double>(s.num_batches);
  for (uint64_t i = 0; i < s.num_batches; ++i) {
    s.ops.push_back({static_cast<uint64_t>(batch_ns * i), true,
                     static_cast<uint32_t>(i)});
  }
  Rng rng(seed + 101);
  const uint64_t num_queries = static_cast<uint64_t>(duration_ns / query_ns);
  s.flip_query = num_queries;
  for (uint64_t j = 0; j < num_queries; ++j) {
    const double due = query_ns * static_cast<double>(j);
    const bool b = due >= duration_ns / 2;
    if (b && s.flip_query == num_queries) s.flip_query = j;
    const Workload& w = b ? in.workload_b : in.workload_a;
    s.query_is_b.push_back(b ? 1 : 0);
    s.query_pattern.push_back(static_cast<uint32_t>(w.SampleIndex(rng)));
    s.ops.push_back({static_cast<uint64_t>(due), false,
                     static_cast<uint32_t>(j)});
  }
  std::stable_sort(s.ops.begin(), s.ops.end(),
                   [](const ScheduledOp& a, const ScheduledOp& b) {
                     return a.due_ns < b.due_ns;
                   });
  return s;
}

ServiceOptions ServeOptions(const ServeInput& in) {
  ServiceOptions so;
  so.loom.partitioner.k = 8;
  so.loom.partitioner.num_vertices_hint = in.graph.NumVertices();
  so.loom.partitioner.num_edges_hint = in.graph.NumEdges();
  so.loom.partitioner.window_size = 128;
  so.tracker.window_queries = 128;
  so.num_labels = 4;
  return so;
}

// Joins a thread on every exit path.
class JoinGuard {
 public:
  JoinGuard(std::thread& thread, std::atomic<bool>& stop)
      : thread_(thread), stop_(stop) {}
  ~JoinGuard() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }
  JoinGuard(const JoinGuard&) = delete;
  JoinGuard& operator=(const JoinGuard&) = delete;

 private:
  std::thread& thread_;
  std::atomic<bool>& stop_;
};

void WaitUntil(uint64_t due_ns) {
  const uint64_t now = NowNs();
  if (due_ns > now + 200000) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - 100000));
  }
  while (NowNs() < due_ns) std::this_thread::yield();
}

// Placement of every vertex in the final snapshot; false if any is missing.
bool FinalAssignment(const Service& svc, uint64_t n, uint32_t k,
                     PartitionAssignment* out) {
  *out = PartitionAssignment(k, 0);
  const PlacementSnapshot* snapshot = svc.Snapshot();
  bool all = true;
  for (VertexId v = 0; v < n; ++v) {
    const int32_t part = svc.Locate(v);
    all = all && part >= 0 && part == snapshot->Locate(v);
    if (part >= 0) (void)out->Assign(v, static_cast<uint32_t>(part));
  }
  return all;
}

// Per-batch service and queueing time from submit and completion stamps:
// service_i = done_i - max(done_{i-1}, submit_i).
void BatchTimes(const std::vector<uint64_t>& submit,
                const std::vector<uint64_t>& done, std::vector<double>* service,
                std::vector<double>* wait) {
  for (size_t i = 0; i < done.size(); ++i) {
    const uint64_t ready =
        i == 0 ? submit[i] : std::max(done[i - 1], submit[i]);
    service->push_back(Seconds(ready, done[i]));
    wait->push_back(Seconds(submit[i], ready));
  }
}

struct OpenLoopRun {
  std::vector<double> ingest_s;
  std::vector<double> service_s;
  std::vector<double> wait_s;
  std::vector<double> ingest_call_s;
  std::vector<double> touches_s;
  std::vector<double> observe_s;
  std::vector<double> route_s;
  /// How late the generator sent each op it was not catching up on.
  std::vector<double> late_s;
  double reaction_s = -1.0;
  double busy_frac = 0.0;
  uint64_t detect_lag_queries = 0;
  ServiceStats stats;
  PartitionAssignment final_assignment{1, 0};
  bool all_located = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

bool RunOpenLoop(const ServeInput& in, const GraphStream& stream,
                 const ServeSchedule& sched, uint64_t seed, Tracer& gen,
                 Tracer& reader_tracer, OpenLoopRun* out,
                 std::string* error) {
  const std::vector<VertexArrival>& arrivals = stream.arrivals();
  const uint64_t n = arrivals.size();
  // Per batch: when it was due, sent and done. Ingest latency runs from the
  // due time, so a stall is charged to every batch queued behind it.
  std::vector<uint64_t> due(sched.num_batches, 0);
  std::vector<uint64_t> submit(sched.num_batches, 0);
  std::vector<uint64_t> done(sched.num_batches, 0);
  ServiceOptions so = ServeOptions(in);
  so.on_batch_processed = [&done](uint64_t seq) { done[seq] = NowNs(); };
  auto created = Service::Create(in.workload_a, so);
  if (!created.ok()) {
    *error = created.status().ToString();
    return false;
  }
  Service& svc = **created;

  // One closed-loop reader: routes of 64 Locates plus one Touches.
  std::atomic<bool> stop{false};
  std::atomic<bool> phase_b{false};
  std::atomic<uint64_t> reader_ops{0};
  std::thread reader([&] {
    CallStats* locate_site = reader_tracer.Site("serving.locate");
    CallStats* route_site = reader_tracer.Site("serving.route");
    Rng rng(seed + 202);
    uint64_t route = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const Workload& w = phase_b.load(std::memory_order_acquire)
                              ? in.workload_b
                              : in.workload_a;
      const LabeledGraph& pattern = w.queries()[w.SampleIndex(rng)].pattern;
      const uint64_t t0 = NowNs();
      for (uint32_t i = 0; i < kLocatesPerRoute; ++i) {
        const VertexId v = static_cast<VertexId>(rng.UniformInt(0, n - 1));
        if (reader_tracer.enabled()) {
          const uint64_t c0 = NowNs();
          (void)svc.Locate(v);
          reader_tracer.Call(locate_site, route, c0, NowNs());
        } else {
          (void)svc.Locate(v);
        }
      }
      (void)svc.Touches(pattern);
      const uint64_t t1 = NowNs();
      reader_tracer.Call(route_site, route++, t0, t1);
      if (out->route_s.size() < kMaxRouteSamples) {
        out->route_s.push_back(Seconds(t0, t1));
      }
    }
    reader_ops.store(route * (kLocatesPerRoute + 1), std::memory_order_release);
  });
  JoinGuard guard(reader, stop);

  // A drift check that falls due while a reaction is pending is skipped by
  // the service, which would make the next fire depend on how long the
  // reaction took. So the generator holds both streams from a fire until
  // the reaction is done, then catches up on the held ops in order: every
  // check runs, every reaction takes the same place in the pipeline FIFO,
  // and the stall still shows in ingest latency, which runs from due times.
  uint64_t fires_seen = 0;
  auto hold_for_reaction = [&](uint64_t query) {
    ServiceStats s = svc.Stats();
    if (s.drift_fires == fires_seen) return false;
    const uint64_t fire_ns = NowNs();
    if (fires_seen == 0) {
      out->detect_lag_queries =
          query >= sched.flip_query ? query - sched.flip_query : 0;
    }
    fires_seen = s.drift_fires;
    while ((s.drift_reactions < fires_seen || s.reaction_running) &&
           Seconds(fire_ns, NowNs()) < kReactionWaitSeconds) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
      s = svc.Stats();
    }
    if (out->reaction_s < 0) out->reaction_s = Seconds(fire_ns, NowNs());
    return true;
  };

  const uint64_t start = NowNs() + 1000000;
  // True from a hold until the generator is back on schedule; lateness is
  // only counted outside that stretch.
  bool catching_up = false;
  for (const ScheduledOp& op : sched.ops) {
    const uint64_t due_ns = start + op.due_ns;
    if (catching_up && NowNs() <= due_ns) catching_up = false;
    WaitUntil(due_ns);
    if (!catching_up) {
      out->late_s.push_back(Seconds(due_ns, NowNs()));
    }
    if (op.is_batch) {
      due[op.index] = due_ns;
      const size_t offset = static_cast<size_t>(op.index) * kServeBatch;
      const size_t count = std::min<size_t>(kServeBatch, n - offset);
      submit[op.index] = NowNs();
      const Status st = svc.Ingest(arrivals.data() + offset, count);
      const uint64_t t1 = NowNs();
      gen.Call("serving.ingest", op.index, submit[op.index], t1);
      out->ingest_call_s.push_back(Seconds(submit[op.index], t1));
      ++out->attempted;
      if (!st.ok()) ++out->failed;
    } else {
      if (op.index == sched.flip_query) {
        phase_b.store(true, std::memory_order_release);
      }
      const Workload& w =
          sched.query_is_b[op.index] ? in.workload_b : in.workload_a;
      const LabeledGraph& pattern =
          w.queries()[sched.query_pattern[op.index]].pattern;
      const uint64_t t0 = NowNs();
      (void)svc.Touches(pattern);
      const uint64_t t1 = NowNs();
      const Status st = svc.ObserveQuery(pattern);
      const uint64_t t2 = NowNs();
      gen.Call("serving.touches", op.index, t0, t1);
      gen.Call("serving.observe", op.index, t1, t2);
      out->touches_s.push_back(Seconds(t0, t1));
      out->observe_s.push_back(Seconds(t1, t2));
      out->attempted += 2;
      if (!st.ok()) ++out->failed;
      if (hold_for_reaction(op.index)) catching_up = true;
    }
  }
  svc.Flush();
  stop.store(true, std::memory_order_release);
  reader.join();
  {
    ScopedSpan span(gen, "serving.seal");
    const Status sealed = svc.Seal();
    if (!sealed.ok()) {
      *error = sealed.ToString();
      return false;
    }
  }
  out->attempted += reader_ops.load(std::memory_order_acquire);
  out->stats = svc.Stats();
  out->failed += out->stats.rejected_batches + out->stats.assign_errors +
                 out->stats.forced_placements;
  out->all_located = FinalAssignment(svc, in.graph.NumVertices(),
                                     so.loom.partitioner.k,
                                     &out->final_assignment);
  double busy = 0.0;
  BatchTimes(submit, done, &out->service_s, &out->wait_s);
  for (double s : out->service_s) busy += s;
  out->busy_frac = busy / Seconds(submit.front(), done.back());
  for (uint64_t i = 0; i < sched.num_batches; ++i) {
    out->ingest_s.push_back(Seconds(due[i], done[i]));
  }
  return true;
}

bool RunServeDrift(const RunOptions& o, Report* r, Tracer& tracer,
                   Tracer& reader_tracer, std::string* error) {
  const ServeInput in = [&] {
    ScopedSpan span(tracer, "input.generate");
    return MakeServeInput(o.seed,
                          Scaled(kServeVertices, o, kServeMinVertices));
  }();
  const uint64_t n = in.graph.NumVertices();
  const uint64_t m = in.graph.NumEdges();
  const ServeSchedule sched = MakeServeSchedule(in, o.seed);
  const ServiceOptions base = ServeOptions(in);

  ResetPeakRss();
  GraphStream stream;
  auto create = [&]() -> Status {
    return Service::Create(in.workload_a, base).status();
  };
  if (!TimedSetup(r, tracer, BuildStream(in, &stream), create, error)) {
    return false;
  }
  r->fingerprint = InputFingerprint(stream, {&in.workload_a, &in.workload_b});

  // Closed loop: one producer ingests the whole stream as fast as Ingest
  // returns, into a fresh service with reactions off; timed through Seal.
  std::vector<uint64_t> closed_hashes;
  bool closed_located = true;
  auto closed_loop = [&](ArrivalSource& source,
                         std::vector<uint64_t>* done) -> double {
    ServiceOptions so = base;
    so.enable_drift_reactions = false;
    if (done != nullptr) {
      done->assign(sched.num_batches, 0);
      so.on_batch_processed = [done](uint64_t seq) { (*done)[seq] = NowNs(); };
    }
    auto created = Service::Create(in.workload_a, so);
    if (!created.ok()) return -1.0;
    Service& svc = **created;
    const uint64_t t0 = NowNs();
    const Status st = svc.IngestSource(source, kServeBatch);
    const Status sealed = svc.Seal();
    const double s = Seconds(t0, NowNs());
    const ServiceStats stats = svc.Stats();
    r->attempted += stats.ingested_batches + stats.rejected_batches;
    r->failed += (st.ok() ? 0 : 1) + (sealed.ok() ? 0 : 1) +
                 stats.rejected_batches + stats.assign_errors +
                 stats.forced_placements;
    PartitionAssignment a(1, 0);
    closed_located = FinalAssignment(svc, in.graph.NumVertices(),
                                     so.loom.partitioner.k, &a) &&
                     closed_located;
    closed_hashes.push_back(HashAssignment(a, in.graph.NumVertices()));
    return s;
  };
  const std::vector<double> closed = TimedRepeats(
      r, 0.7 * UntracedBudget(o), [&](bool) {
        StreamCursor cursor(stream);
        return closed_loop(cursor, nullptr);
      });
  if (std::any_of(closed.begin(), closed.end(),
                  [](double s) { return s < 0; })) {
    *error = "Service::Create failed";
    return false;
  }
  SetThroughput(r, "closed_loop", closed, static_cast<double>(n),
                static_cast<double>(m));
  CheckSameHash(r, closed_hashes);
  r->AddCheck("closed loop: every vertex located after Seal", closed_located,
              "");

  if (o.trace) {
    StreamCursor cursor(stream);
    TracedSource source(cursor, tracer);
    std::vector<uint64_t> submit(sched.num_batches, 0);
    std::vector<uint64_t> done;
    // IngestSource submits a batch right after the Next that fills it, and
    // the short last batch after the Next that finds the stream exhausted.
    source.on_next = [&submit, n](uint64_t calls, uint64_t at) {
      if (calls % kServeBatch == 0 && calls <= n) {
        submit[calls / kServeBatch - 1] = at;
      } else if (calls == n + 1 && n % kServeBatch != 0) {
        submit.back() = at;
      }
    };
    int32_t span = tracer.Begin("serving.closed_loop", 0);
    const double traced = closed_loop(source, &done);
    tracer.End(span);
    SetOverhead(r, traced, closed);
    SetNextLayers(r, tracer);
    std::vector<double> service;
    std::vector<double> wait;
    BatchTimes(submit, done, &service, &wait);
    CallStats per_arrival;
    for (size_t i = 0; i < service.size(); ++i) {
      const uint64_t count =
          std::min<uint64_t>(kServeBatch, n - i * kServeBatch);
      const uint64_t ns = static_cast<uint64_t>(service[i] * 1e9 / count);
      per_arrival.sampled_ns.push_back(ns);
      per_arrival.total_ns += static_cast<uint64_t>(service[i] * 1e9);
      per_arrival.max_ns = std::max(per_arrival.max_ns, ns);
    }
    per_arrival.count = n;
    SetPlaceLayers(r, per_arrival);
  }

  // Open loop, three times: ingest at a fixed rate beside the query stream,
  // with the drift reaction in the middle.
  std::vector<OpenLoopRun> runs(3);
  std::vector<uint64_t> open_hashes;
  for (OpenLoopRun& run : runs) {
    int32_t span = tracer.Begin("serving.open_loop", open_hashes.size());
    const bool ok =
        RunOpenLoop(in, stream, sched, o.seed, tracer, reader_tracer, &run,
                    error);
    tracer.End(span);
    if (!ok) return false;
    open_hashes.push_back(
        HashAssignment(run.final_assignment, in.graph.NumVertices()));
    r->attempted += run.attempted;
    r->failed += run.failed;
  }
  CheckSameHash(r, open_hashes);

  // Latency numbers are the median over the open-loop runs of each run's
  // quantile.
  auto quantile = [&runs](std::vector<double> OpenLoopRun::*samples,
                          double q) {
    std::vector<double> per_run;
    for (const OpenLoopRun& run : runs) {
      per_run.push_back(Quantile(run.*samples, q));
    }
    return Median(per_run);
  };
  SetLayer(r, "serving.ingest_p50_ms",
           quantile(&OpenLoopRun::ingest_s, 0.5) * 1e3);
  SetLayer(r, "serving.ingest_p99_ms",
           quantile(&OpenLoopRun::ingest_s, 0.99) * 1e3);
  SetLayer(r, "serving.ingest_call_p99_us",
           quantile(&OpenLoopRun::ingest_call_s, 0.99) * 1e6);
  SetLayer(r, "serving.batch_service_p50_ms",
           quantile(&OpenLoopRun::service_s, 0.5) * 1e3);
  SetLayer(r, "serving.batch_service_p99_ms",
           quantile(&OpenLoopRun::service_s, 0.99) * 1e3);
  SetLayer(r, "serving.batch_wait_p99_ms",
           quantile(&OpenLoopRun::wait_s, 0.99) * 1e3);
  SetLayer(r, "serving.route_p99_us",
           quantile(&OpenLoopRun::route_s, 0.99) * 1e6);
  SetLayer(r, "serving.touches_p99_us",
           quantile(&OpenLoopRun::touches_s, 0.99) * 1e6);
  SetLayer(r, "serving.observe_p99_us",
           quantile(&OpenLoopRun::observe_s, 0.99) * 1e6);
  SetLayer(r, "serving.generator_late_p99_ms",
           quantile(&OpenLoopRun::late_s, 0.99) * 1e3);
  SetLayer(r, "serving.generator_late_max_ms",
           quantile(&OpenLoopRun::late_s, 1.0) * 1e3);
  // A run whose generator fell behind its schedule offered less load than
  // it claims; its latencies are marked invalid, not failed, because the
  // placement does not depend on them (the drift holds make it
  // deterministic) and millisecond scheduling stalls do occur on shared
  // machines. Batches due during a stall are still timed from their due
  // time.
  std::vector<double> busy;
  std::vector<double> reaction;
  double valid = 0;
  for (const OpenLoopRun& run : runs) {
    busy.push_back(run.busy_frac);
    reaction.push_back(run.reaction_s);
    if (Quantile(run.late_s, 0.99) <= Quantile(run.ingest_s, 0.5)) ++valid;
  }
  SetLayer(r, "serving.open_loop_valid_frac",
           valid / static_cast<double>(runs.size()));
  SetLayer(r, "serving.pipeline_busy_frac", Median(busy));
  SetLayer(r, "drift.reaction_s", Median(reaction));
  if (o.trace) {
    const auto it = reader_tracer.calls().find("serving.locate");
    if (it != reader_tracer.calls().end()) {
      std::vector<double> ns(it->second.sampled_ns.begin(),
                             it->second.sampled_ns.end());
      SetLayer(r, "serving.locate_p99_ns", Quantile(ns, 0.99));
    }
  }

  const OpenLoopRun& last = runs.back();
  const ServiceStats& s = last.stats;
  SetLayer(r, "drift.checks", static_cast<double>(s.drift_checks));
  SetLayer(r, "drift.fires", static_cast<double>(s.drift_fires));
  SetLayer(r, "drift.reactions", static_cast<double>(s.drift_reactions));
  SetLayer(r, "drift.detect_lag_queries",
           static_cast<double>(last.detect_lag_queries));
  SetLayer(r, "drift.reaction_cut_before", s.last_reaction_edge_cut_before);
  SetLayer(r, "drift.reaction_cut_after", s.last_reaction_edge_cut_after);
  SetLayer(r, "drift.reaction_migration", s.last_reaction_migration_fraction);
  SetLayer(r, "serving.snapshots_published",
           static_cast<double>(s.snapshots_published));
  SetLayer(r, "partition.overflow_fallbacks",
           static_cast<double>(s.overflow_fallbacks));
  SetLayer(r, "partition.forced_placements",
           static_cast<double>(s.forced_placements));
  SetLayer(r, "partition.assign_errors", static_cast<double>(s.assign_errors));
  SetLayer(r, "partition.balance", BalanceMaxOverAvg(last.final_assignment));

  for (size_t i = 0; i < runs.size(); ++i) {
    const OpenLoopRun& run = runs[i];
    const std::string tag = "open loop " + std::to_string(i + 1) + ": ";
    r->AddCheck(tag + "drift reaction ran",
                run.stats.drift_reactions >= 1 && run.reaction_s >= 0,
                std::to_string(run.stats.drift_reactions));
    r->AddCheck(tag + "reaction migration <= budget",
                run.stats.last_reaction_migration_fraction <=
                    base.drift.max_migration_fraction + kEps,
                std::to_string(run.stats.last_reaction_migration_fraction));
    r->AddCheck(tag + "every vertex located after Seal", run.all_located, "");
    r->AddCheck(tag + "no rejected batches or assign errors",
                run.stats.rejected_batches == 0 &&
                    run.stats.assign_errors == 0,
                "");
  }
  CheckAssignment(r, last.final_assignment, n);
  ScopedSpan span(tracer, "quality.evaluate");
  SetQuality(r, EvaluateVertexPartition(in.graph, last.final_assignment,
                                        in.workload_b));
  return true;
}

}  // namespace

bool RunWorkload(const RunOptions& o, Report* r, std::string* error) {
  r->workload = o.workload;
  r->seed = o.seed;
  DeclareLayers(r);
  Tracer tracer(o.trace, 0, kSpanCapacity);
  Tracer reader_tracer(o.trace, 1, kSpanCapacity);
  bool ok = false;
  if (o.workload == "motif-stream") {
    ok = RunLoomStream(o, false, r, tracer, error);
  } else if (o.workload == "lookup-stream") {
    ok = RunLoomStream(o, true, r, tracer, error);
  } else if (o.workload == "file-restream") {
    ok = RunFileRestream(o, r, tracer, error);
  } else if (o.workload == "edge-stream") {
    ok = RunEdgeStream(o, r, tracer, error);
  } else if (o.workload == "serve-drift") {
    ok = RunServeDrift(o, r, tracer, reader_tracer, error);
  } else {
    *error = "unknown workload " + o.workload;
  }
  if (!ok || !o.trace) return ok;

  SetLayer(r, "trace.spans", static_cast<double>(tracer.spans().size() +
                                                 reader_tracer.spans().size()));
  SetDetail(r, "trace.dropped_spans",
            static_cast<double>(tracer.dropped() + reader_tracer.dropped()),
            "count");
  r->trace_path = o.out_dir + "/traces/trace-" + o.workload + ".json";
  if (!WriteChromeTrace(r->trace_path, {&tracer, &reader_tracer})) {
    *error = "cannot write " + r->trace_path;
    return false;
  }
  for (const Tracer* t : {&tracer, &reader_tracer}) {
    for (const auto& [name, s] : t->SelfSeconds()) {
      SetDetail(r, "self_s." + name, s, "s");
    }
  }
  return true;
}

}  // namespace loom_bench
