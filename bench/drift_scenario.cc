#include "drift_scenario.h"

#include <cassert>
#include <utility>

#include "workload/query_builders.h"

namespace loom {
namespace bench {

namespace {

// Pre-drift traffic: label-{0,1} paths and cycles.
Workload WorkloadA() {
  Workload w;
  (void)w.Add("a-path", PathQuery({0, 1, 0}), 2.0);
  (void)w.Add("a-cycle", CycleQuery({0, 1, 0, 1}), 1.0);
  w.Normalize();
  return w;
}

// Post-drift traffic: label-{2,3} triangles and stars — disjoint labels, so
// a summary trained on A is maximally stale.
Workload WorkloadB() {
  Workload w;
  (void)w.Add("b-tri", TriangleQuery(2, 3, 2), 2.0);
  (void)w.Add("b-star", StarQuery(3, {2, 2}), 1.0);
  w.Normalize();
  return w;
}

}  // namespace

DriftScenarioResult RunDriftScenario(const DriftScenarioConfig& config) {
  DriftScenarioResult result;
  result.max_migration_fraction = config.max_migration_fraction;

  const Workload workload_a = WorkloadA();
  const Workload workload_b = WorkloadB();

  // Data graph carrying BOTH workloads' structures with temporal locality.
  Rng rng(config.seed);
  LabeledGraph g = MakeGraph(GraphKind::kBarabasiAlbert, config.n,
                             config.avg_degree, LabelConfig{4, 0.2}, rng);
  PlantWorkloadMotifs(&g, workload_a, config.n / 24, rng,
                      /*locality_span=*/48);
  PlantWorkloadMotifs(&g, workload_b, config.n / 24, rng,
                      /*locality_span=*/48);
  const GraphStream stream = MakeStream(g, config.stream_order, rng);

  LoomOptions lopts;
  lopts.partitioner.k = config.k;
  lopts.partitioner.num_vertices_hint = g.NumVertices();
  lopts.partitioner.num_edges_hint = g.NumEdges();
  lopts.partitioner.window_size = config.window_size;
  lopts.matcher.frequency_threshold = config.frequency_threshold;

  // Live system: LOOM built for workload A partitions the stream once.
  auto created = Loom::Create(workload_a, lopts);
  if (!created.ok()) return result;  // impossible for the fixed workloads
  std::unique_ptr<Loom> live = std::move(created).value();
  live->Partitioner().Run(stream);
  const PartitionAssignment original = live->Partitioner().assignment();
  result.cut_no_reaction = EdgeCutFraction(g, original);

  // Controller watching the tracker, primed with A's expectation.
  DriftControllerOptions copts;
  copts.max_migration_fraction = config.max_migration_fraction;
  copts.reaction_passes = config.reaction_passes;
  DriftController controller(copts);
  controller.SetReference(MotifDistributionOf(live->Trie()));

  WorkloadTrackerOptions topts;
  topts.window_queries = config.tracker_window;
  WorkloadTracker tracker(/*num_labels=*/4, topts, lopts.paths_only);
  Rng qrng(config.seed + 1);
  const auto observe_tick = [&](const Workload& w) {
    for (uint32_t i = 0; i < config.queries_per_tick; ++i) {
      (void)tracker.Observe(w.queries()[w.SampleIndex(qrng)].pattern);
    }
  };

  // Stationary phase: A-traffic only; the detector must stay quiet.
  for (uint32_t tick = 1; tick <= config.stationary_ticks; ++tick) {
    observe_tick(workload_a);
    if (controller.Check(tracker.SupportDistribution()).fired) {
      ++result.stationary_fires;
    }
  }

  // Drift phase: the mix switches to B. On fire, re-point LOOM at the
  // drifted snapshot and run the bounded-migration reaction.
  TpstryPP drifted_trie(/*num_labels=*/4);  // kept alive past the reaction
  for (uint32_t tick = 1; tick <= config.drift_ticks; ++tick) {
    observe_tick(workload_b);
    const MotifDistribution current = tracker.SupportDistribution();
    const DriftSignal signal = controller.Check(current);
    if (!signal.fired) continue;
    if (result.fired) {
      // Already reacted: the rebased detector must not thrash.
      ++result.post_reaction_fires;
      continue;
    }
    result.fired = true;
    result.fire_tick = tick;
    result.fire_signal = signal;

    drifted_trie = tracker.Snapshot();
    live->Partitioner().SetTrie(&drifted_trie);
    const DriftReaction reaction =
        controller.React(stream, &live->Partitioner(), current);
    result.cut_reaction = reaction.edge_cut_after;
    result.migration_reaction = reaction.migration_fraction;
    for (const RestreamPassStats& pass : reaction.passes) {
      result.reaction_overflow_fallbacks += pass.overflow_fallbacks;
      result.reaction_forced_placements += pass.forced_placements;
      result.reaction_assign_errors += pass.assign_errors;
      result.reaction_budget_denied_moves += pass.budget_denied_moves;
    }
  }
  if (!result.fired) {
    // Detector never confirmed drift (mis-tuned thresholds): report the
    // stale assignment as the "reaction" so the comparison stays honest.
    result.cut_reaction = result.cut_no_reaction;
  }

  // Cold baseline: fresh LOOM on the same drifted summary, full multi-pass
  // restream with unlimited migration.
  {
    TpstryPP cold_trie = result.fired ? drifted_trie : tracker.Snapshot();
    auto cold = MakePartitioner("loom", lopts, &cold_trie);
    assert(cold.ok());
    RestreamOptions ropts;
    ropts.num_passes = config.cold_passes;
    ropts.order = RestreamOrder::kGain;
    // The cold bracket is a fixed reference for the reaction contract, so it
    // pins the classic full-rematch replay: cluster-memoized passes regroup
    // arrivals by recorded unit, which under gain ordering can shift the cut
    // by a few tenths of a point and silently move the contract's goalposts.
    ropts.memoize_clusters = false;
    const Restreamer restreamer(stream, ropts);
    const RestreamResult cold_result = restreamer.Run(cold->get());
    result.cut_cold = cold_result.edge_cut_fraction;
    result.migration_cold = MigrationFraction(original, cold_result.assignment);
  }
  return result;
}

}  // namespace bench
}  // namespace loom
