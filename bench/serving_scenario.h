#ifndef LOOM_BENCH_SERVING_SCENARIO_H_
#define LOOM_BENCH_SERVING_SCENARIO_H_

/// \file
/// The concurrent serving scenario shared by the `serving` section of
/// `BENCH_edge_cut.json` (tools/run_benchmarks) and `tests/serving_test.cc`
/// — one definition of the workload the numbers CI validates are measured
/// on.
///
/// Shape: a `loom::Service` built for workload A fronts a graph planted
/// with the motifs of workloads A and B. An open-loop ingest driver streams
/// the graph in batches at a configured arrival rate (batch latency is
/// measured from each batch's *scheduled* send time to its pipeline
/// completion, so queueing delay is charged honestly — no coordinated
/// omission), while N client threads hammer `Locate`/`Touches` and feed
/// `ObserveQuery`. Halfway through ingest the query mix flips from A to B;
/// the drift loop fires and runs its bounded-migration reaction on the
/// pipeline worker while the clients keep reading. The scenario reports
/// tail latencies (p50/p99/p999) for ingest batches and both query kinds,
/// plus how many queries were answered *while the reaction ran* — the
/// lock-free-reads claim, measured.

#include <cstdint>
#include <vector>

#include "harness.h"
#include "serving/service.h"

namespace loom {
namespace bench {

/// Scenario knobs; defaults are the fast-mode configuration recorded in
/// BENCH_edge_cut.json.
struct ServingScenarioConfig {
  uint32_t n = 6000;
  uint32_t k = 8;
  uint32_t avg_degree = 6;
  uint64_t seed = 2026;
  /// Arrival order of the ingested stream (DFS models a crawl feed).
  StreamOrder stream_order = StreamOrder::kDfs;
  size_t window_size = 128;
  double frequency_threshold = 0.2;

  /// Arrivals per Ingest batch.
  uint32_t batch_size = 128;
  /// Open-loop arrival rate; batch i is *scheduled* at
  /// start + i * batch_size / rate regardless of how the service keeps up.
  double arrivals_per_second = 100000.0;
  /// Client threads issuing Locate/Touches/ObserveQuery concurrently.
  uint32_t num_clients = 4;
  /// Share of client operations that are Locate (the rest are
  /// Touches + ObserveQuery pairs).
  double locate_fraction = 0.7;

  /// Service knobs (see ServiceOptions).
  uint32_t front_end_shards = 2;
  uint32_t publish_every_batches = 1;
  uint64_t drift_check_every_queries = 64;
  size_t tracker_window = 128;
  double max_migration_fraction = 0.25;
  uint32_t reaction_passes = 2;

  /// How long to keep the clients querying after ingest completes while
  /// waiting for the drift reaction; expiring marks the result not ok.
  double reaction_wait_seconds = 30.0;
};

/// p50/p99/p999 of one latency population, in seconds.
struct LatencySummary {
  uint64_t count = 0;
  double p50_seconds = 0.0;
  double p99_seconds = 0.0;
  double p999_seconds = 0.0;
};

/// Sorts `samples` in place and reads the percentiles (empty-safe).
LatencySummary Summarize(std::vector<double>* samples);

/// Everything the bench table, the JSON section and the tests consume.
struct ServingScenarioResult {
  /// True iff ingest completed, the drift reaction ran, queries were
  /// answered during it, and the partitioner reported zero assign errors.
  bool ok = false;

  // --- ingest ---
  uint64_t ingested_vertices = 0;
  uint64_t ingested_batches = 0;
  double ingest_seconds = 0.0;
  double vertices_per_second = 0.0;
  /// Scheduled-send → pipeline-completion latency per batch.
  LatencySummary ingest_batch_latency;

  // --- queries ---
  uint64_t locate_queries = 0;
  uint64_t touches_queries = 0;
  uint64_t observed_queries = 0;
  /// Queries answered while the reaction task held the pipeline worker, by
  /// the clients plus a Locate-only probe thread that never takes the
  /// tracker mutex (so it keeps reading while the clients queue on it).
  uint64_t queries_during_reaction = 0;
  LatencySummary locate_latency;
  LatencySummary touches_latency;

  // --- drift loop ---
  uint64_t drift_fires = 0;
  uint64_t drift_reactions = 0;
  double reaction_cut_before = 0.0;
  double reaction_cut_after = 0.0;
  double reaction_migration = 0.0;
  double reaction_seconds = 0.0;

  // --- integrity ---
  uint64_t assign_errors = 0;
  uint64_t snapshots_published = 0;
  uint64_t snapshot_epoch = 0;
};

/// Runs the scenario end to end. Latencies are machine-dependent; the
/// structural outcomes (reaction fired, zero assign errors, queries served
/// throughout) are not.
ServingScenarioResult RunServingScenario(const ServingScenarioConfig& config);

}  // namespace bench
}  // namespace loom

#endif  // LOOM_BENCH_SERVING_SCENARIO_H_
