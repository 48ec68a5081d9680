#include "serving_scenario.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "workload/query_builders.h"

namespace loom {
namespace bench {

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Pre-drift traffic: label-{0,1} paths and cycles (matches the drift
// scenario, so the two benches exercise the same drift).
Workload WorkloadA() {
  Workload w;
  (void)w.Add("a-path", PathQuery({0, 1, 0}), 2.0);
  (void)w.Add("a-cycle", CycleQuery({0, 1, 0, 1}), 1.0);
  w.Normalize();
  return w;
}

// Post-drift traffic: label-{2,3} triangles and stars.
Workload WorkloadB() {
  Workload w;
  (void)w.Add("b-tri", TriangleQuery(2, 3, 2), 2.0);
  (void)w.Add("b-star", StarQuery(3, {2, 2}), 1.0);
  w.Normalize();
  return w;
}

}  // namespace

ServingScenarioResult RunServingScenario(const ServingScenarioConfig& config) {
  ServingScenarioResult result;

  const Workload workload_a = WorkloadA();
  const Workload workload_b = WorkloadB();

  // Data graph carrying BOTH workloads' structures, streamed once.
  Rng rng(config.seed);
  LabeledGraph g = MakeGraph(GraphKind::kBarabasiAlbert, config.n,
                             config.avg_degree, LabelConfig{4, 0.2}, rng);
  PlantWorkloadMotifs(&g, workload_a, config.n / 24, rng,
                      /*locality_span=*/48);
  PlantWorkloadMotifs(&g, workload_b, config.n / 24, rng,
                      /*locality_span=*/48);
  const GraphStream stream = MakeStream(g, config.stream_order, rng);

  ServiceOptions opts;
  opts.loom.partitioner.k = config.k;
  opts.loom.partitioner.num_vertices_hint = g.NumVertices();
  opts.loom.partitioner.num_edges_hint = g.NumEdges();
  opts.loom.partitioner.window_size = config.window_size;
  opts.loom.matcher.frequency_threshold = config.frequency_threshold;
  opts.num_labels = 4;
  opts.tracker.window_queries = config.tracker_window;

  const std::vector<VertexArrival>& arrivals = stream.arrivals();
  const uint64_t num_batches =
      (arrivals.size() + config.batch_size - 1) / config.batch_size;

  auto created = Service::Create(workload_a, opts);
  if (!created.ok()) return result;  // impossible for the fixed workloads
  Service& service = **created;

  // Client threads: Locate / (Touches + ObserveQuery) mix, phase-flipped
  // from A-patterns to B-patterns when half the batches have been sent.
  std::atomic<bool> stop{false};
  std::atomic<bool> phase_b{false};
  // Per-client count of queries answered during a reaction, summed after
  // join.
  std::vector<uint64_t> during_reaction(config.num_clients, 0);
  std::vector<std::thread> clients;
  clients.reserve(config.num_clients);
  for (uint32_t c = 0; c < config.num_clients; ++c) {
    clients.emplace_back([&, c] {
      Rng crng(config.seed + 101 + c);
      while (!stop.load(std::memory_order_acquire)) {
        const Workload& w = phase_b.load(std::memory_order_acquire)
                                ? workload_b
                                : workload_a;
        const LabeledGraph& pattern =
            w.queries()[w.SampleIndex(crng)].pattern;
        if (crng.UniformDouble() < config.locate_fraction) {
          const VertexId v = static_cast<VertexId>(
              crng.UniformInt(0, g.NumVertices() - 1));
          (void)service.Locate(v);
        } else {
          (void)service.Touches(pattern);
          (void)service.ObserveQuery(pattern);
        }
        if (service.Stats().reaction_running) ++during_reaction[c];
      }
    });
  }

  // Read-liveness probe: one more reader issuing only lock-free Locate
  // calls. The clients serialise on the tracker mutex inside ObserveQuery,
  // and a reaction of a few milliseconds can start and finish while every
  // client waits in that queue; the probe never takes the mutex, so it
  // keeps reading through the reaction whenever reads are really lock-free.
  // Its reads count towards queries_during_reaction.
  uint64_t probe_during_reaction = 0;  // read after probe.join()
  std::thread probe([&] {
    VertexId v = 0;
    while (!stop.load(std::memory_order_acquire)) {
      (void)service.Locate(v);
      v = (v + 1) % static_cast<VertexId>(g.NumVertices());
      if (service.Stats().reaction_running) ++probe_during_reaction;
    }
  });

  // Open-loop ingest: batch i is due at start + i * batch / rate, so each
  // query phase lasts a fixed wall time however fast the service ingests,
  // and the clients observe enough of both mixes for the drift loop to fire.
  const double batch_interval =
      static_cast<double>(config.batch_size) / config.arrivals_per_second;
  const Clock::time_point start = Clock::now();
  bool ingest_ok = true;
  for (uint64_t i = 0; i < num_batches; ++i) {
    const double due = static_cast<double>(i) * batch_interval;
    for (double now = SecondsSince(start); now < due;
         now = SecondsSince(start)) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(due - now));
    }
    const size_t offset = static_cast<size_t>(i) * config.batch_size;
    const size_t count =
        std::min<size_t>(config.batch_size, arrivals.size() - offset);
    if (!service.Ingest(arrivals.data() + offset, count).ok()) {
      ingest_ok = false;
      break;
    }
    if (i + 1 == num_batches / 2) {
      phase_b.store(true, std::memory_order_release);
    }
  }
  service.Flush();

  // Keep the clients querying (B-phase) until the reaction lands.
  const Clock::time_point wait_start = Clock::now();
  while (service.Stats().drift_reactions == 0 &&
         SecondsSince(wait_start) < config.reaction_wait_seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  stop.store(true, std::memory_order_release);
  for (std::thread& t : clients) t.join();
  probe.join();
  (void)service.Seal();

  const ServiceStats stats = service.Stats();
  result.ingested_vertices = stats.ingested_vertices;
  result.ingested_batches = stats.ingested_batches;
  for (const uint64_t count : during_reaction) {
    result.queries_during_reaction += count;
  }
  result.queries_during_reaction += probe_during_reaction;
  result.locate_queries = stats.locate_queries;
  result.touches_queries = stats.touches_queries;
  result.observed_queries = stats.observed_queries;

  result.drift_fires = stats.drift_fires;
  result.drift_reactions = stats.drift_reactions;
  result.reaction_cut_before = stats.last_reaction_edge_cut_before;
  result.reaction_cut_after = stats.last_reaction_edge_cut_after;
  result.reaction_migration = stats.last_reaction_migration_fraction;

  result.assign_errors = stats.assign_errors;
  result.snapshots_published = stats.snapshots_published;
  result.snapshot_epoch = stats.snapshot_epoch;

  result.ok = ingest_ok && stats.ingested_vertices == arrivals.size() &&
              stats.drift_reactions >= 1 && stats.assign_errors == 0 &&
              result.locate_queries > 0 && result.touches_queries > 0;
  return result;
}

}  // namespace bench
}  // namespace loom
