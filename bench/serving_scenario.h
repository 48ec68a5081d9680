#ifndef LOOM_BENCH_SERVING_SCENARIO_H_
#define LOOM_BENCH_SERVING_SCENARIO_H_

/// \file
/// The concurrent serving-under-drift scenario behind
/// `ServingDriftTest.ScenarioServesQueriesWhileTheReactionRuns`
/// (tests/serving_test.cc). Its latencies are timed by `benchmark/`'s
/// serve-drift workload, not here.
///
/// Shape: a `loom::Service` built for workload A fronts a graph planted
/// with the motifs of workloads A and B. An open-loop ingest driver streams
/// the graph in batches at a configured arrival rate, while N client
/// threads hammer `Locate`/`Touches` and feed `ObserveQuery`. Halfway
/// through ingest the query mix flips from A to B; the drift loop fires and
/// runs its bounded-migration reaction on the pipeline worker while the
/// clients keep reading. The scenario reports how many queries were
/// answered *while the reaction ran* — the lock-free-reads claim — plus the
/// structural outcomes of ingest and the reaction.

#include <cstdint>

#include "harness.h"
#include "serving/service.h"

namespace loom {
namespace bench {

/// Scenario knobs.
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
  uint32_t publish_every_batches = 1;
  uint64_t drift_check_every_queries = 64;
  size_t tracker_window = 128;
  double max_migration_fraction = 0.25;
  uint32_t reaction_passes = 2;

  /// How long to keep the clients querying after ingest completes while
  /// waiting for the drift reaction; expiring marks the result not ok.
  double reaction_wait_seconds = 30.0;
};

/// Everything the test consumes.
struct ServingScenarioResult {
  /// True iff ingest completed, the drift reaction ran, queries were
  /// answered during it, and the partitioner reported zero assign errors.
  bool ok = false;

  // --- ingest ---
  uint64_t ingested_vertices = 0;
  uint64_t ingested_batches = 0;

  // --- queries ---
  uint64_t locate_queries = 0;
  uint64_t touches_queries = 0;
  uint64_t observed_queries = 0;
  /// Queries answered while the reaction task held the pipeline worker, by
  /// the clients plus a Locate-only probe thread that never takes the
  /// tracker mutex (so it keeps reading while the clients queue on it).
  uint64_t queries_during_reaction = 0;

  // --- drift loop ---
  uint64_t drift_fires = 0;
  uint64_t drift_reactions = 0;
  double reaction_cut_before = 0.0;
  double reaction_cut_after = 0.0;
  double reaction_migration = 0.0;

  // --- integrity ---
  uint64_t assign_errors = 0;
  uint64_t snapshots_published = 0;
  uint64_t snapshot_epoch = 0;
};

/// Runs the scenario end to end. Thread scheduling decides the query
/// counts; the structural outcomes (reaction fired, zero assign errors,
/// queries served throughout) do not vary.
ServingScenarioResult RunServingScenario(const ServingScenarioConfig& config);

}  // namespace bench
}  // namespace loom

#endif  // LOOM_BENCH_SERVING_SCENARIO_H_
