#ifndef LOOM_BENCH_DRIFT_SCENARIO_H_
#define LOOM_BENCH_DRIFT_SCENARIO_H_

/// \file
/// The piecewise-stationary drift scenario shared by the `drift` section of
/// `BENCH_edge_cut.json` (tools/run_benchmarks) and `tests/drift_test.cc`,
/// so the number CI validates is the number the test asserts on.
///
/// Shape: a graph planted with the motifs of two workloads on disjoint
/// label sets is streamed once and partitioned by LOOM built for workload A
/// (the live assignment). The query stream then drifts: a WorkloadTracker
/// observes A-queries for a stationary phase (the detector must stay
/// quiet), then B-queries (the detector must fire). On fire, the LOOM
/// partitioner is re-pointed at the drifted tracker snapshot and the
/// DriftController runs its bounded-migration reaction. The scenario
/// reports that reaction against the two bracketing alternatives: doing
/// nothing (the stale live assignment) and a cold multi-pass restream
/// with full migration freedom.

#include <cstdint>

#include "drift/drift_controller.h"
#include "harness.h"

namespace loom {
namespace bench {

/// Scenario knobs; defaults are the fast-mode configuration recorded in
/// BENCH_edge_cut.json.
struct DriftScenarioConfig {
  uint32_t n = 4000;
  uint32_t k = 8;
  uint32_t avg_degree = 6;
  uint64_t seed = 2026;
  /// Arrival order of the live stream. DFS order models a crawl-fed system
  /// and exhibits the single-pass fragility restreaming exists to repair
  /// (§3.1): the reaction's replay then has real ground to recover.
  StreamOrder stream_order = StreamOrder::kDfs;
  size_t window_size = 128;
  double frequency_threshold = 0.2;
  /// Query-stream window of the tracker. The reaction's budget and passes
  /// and the cold restream's passes keep their library defaults.
  size_t tracker_window = 128;
  /// Observed queries per detector tick.
  uint32_t queries_per_tick = 64;
  /// Ticks of workload-A traffic before the switch (quiet phase).
  uint32_t stationary_ticks = 4;
  /// Ticks of workload-B traffic after the switch.
  uint32_t drift_ticks = 6;
};

/// Everything the bench table, the JSON section and the tests consume.
struct DriftScenarioResult {
  // --- detection ---
  /// Detector fired during the drift phase.
  bool fired = false;
  /// 1-based drift-phase tick of the fire (0 when it never fired).
  uint32_t fire_tick = 0;
  /// Fires during the stationary phase (hysteresis contract: must be 0).
  uint32_t stationary_fires = 0;
  /// Fires on the drift-phase ticks *after* the reaction rebased the
  /// detector (no-thrash contract: must be 0).
  uint32_t post_reaction_fires = 0;
  /// The signal on the tick that fired.
  DriftSignal fire_signal;

  // --- the three assignments compared ---
  /// Edge cut of the stale live assignment (no reaction).
  double cut_no_reaction = 0.0;
  /// Edge cut / migration of the bounded-migration reaction.
  double cut_reaction = 0.0;
  double migration_reaction = 0.0;
  /// Edge cut / migration of the cold multi-pass restream.
  double cut_cold = 0.0;
  double migration_cold = 0.0;

  // --- capacity-pressure counters summed over the reaction passes ---
  uint64_t reaction_overflow_fallbacks = 0;
  uint64_t reaction_forced_placements = 0;
  uint64_t reaction_assign_errors = 0;
  uint64_t reaction_budget_denied_moves = 0;

  /// The reaction's migration budget (the controller's, for reports).
  double max_migration_fraction = 0.0;
};

/// Runs the scenario end to end. Deterministic for a fixed config.
DriftScenarioResult RunDriftScenario(const DriftScenarioConfig& config);

}  // namespace bench
}  // namespace loom

#endif  // LOOM_BENCH_DRIFT_SCENARIO_H_
