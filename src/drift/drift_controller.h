#ifndef LOOM_DRIFT_DRIFT_CONTROLLER_H_
#define LOOM_DRIFT_DRIFT_CONTROLLER_H_

/// \file
/// Drift reaction: the controller that closes the loop between the workload
/// layer (`WorkloadTracker` snapshots) and the restream layer. When the
/// `DriftDetector` confirms drift, the controller runs a *bounded-migration*
/// incremental re-partition — `Restreamer::RunIncrementalPass` with the
/// **live assignment as the prior** — instead of a cold multi-pass
/// restream: gain-prioritized (decisiveness) ordering spends the migration
/// budget on the highest-value moves first, the budget caps the cumulative
/// `MigrationFraction` against the pre-reaction assignment, and the result
/// is adopted keep-best (a reaction never publishes a worse cut than the
/// assignment it started from). After reacting, the detector takes the
/// drifted distribution as its reference so the loop re-arms.
///
/// Contract: `React` mutates the partitioner (it ends holding the *last*
/// pass's assignment, which may differ from the adopted keep-best one in
/// `DriftReaction::assignment`); the recorded stream must stay alive for
/// the duration of the call. Cost: one `Restreamer` construction
/// (adjacency rebuild, O(V + E)) plus `reaction_passes` budgeted passes.

#include <cstdint>
#include <vector>

#include "drift/drift_detector.h"
#include "partition/partitioner.h"
#include "restream/restreamer.h"
#include "stream/stream.h"
#include "tpstry/workload_tracker.h"

namespace loom {

/// Reaction policy knobs.
struct DriftControllerOptions {
  DriftDetectorOptions detector;
  /// Cumulative migration cap of one reaction, as a fraction of the
  /// vertices assigned in the pre-reaction (live) assignment. All reaction
  /// passes together stay under this cap (see React).
  double max_migration_fraction = 0.25;
  /// Budgeted passes per reaction, each replayed in decisiveness order (see
  /// React). The second pass typically converts the remaining budget into
  /// another point of cut at much lower migration.
  uint32_t reaction_passes = 2;
};

/// Uniform options contract (see `ValidateRestreamOptions`): rejects —
/// without mutating — the first invalid field: a NaN or negative
/// `max_migration_fraction`, `reaction_passes == 0`, a detector
/// `fire_threshold` outside [0, 1] (or NaN), `min_consecutive == 0`, or a
/// `clear_threshold` that is NaN, negative or above `fire_threshold` (the
/// hysteresis band would invert).
Status ValidateDriftControllerOptions(const DriftControllerOptions& options);

/// Sanitized copy of `options`: every field `ValidateDriftControllerOptions`
/// rejects is clamped to the conservative end instead — a garbage migration
/// fraction freezes migration (0.0), zero passes become 1, a garbage
/// fire threshold falls back to the default, and an inverted hysteresis
/// band collapses (`clear_threshold = fire_threshold`). The DriftController
/// constructor applies this to everything it is given.
DriftControllerOptions SanitizeDriftControllerOptions(
    DriftControllerOptions options);

/// What a reaction did.
struct DriftReaction {
  /// Stats of each budgeted pass, renumbered 1..n; migration_fraction in
  /// each is measured against that pass's prior, while
  /// `migration_fraction` below is cumulative vs. the pre-reaction
  /// assignment (the number the budget caps).
  std::vector<RestreamPassStats> passes;
  /// The adopted assignment: best cut over {pre-reaction, every pass}.
  PartitionAssignment assignment{1, 0};
  double edge_cut_before = 0.0;
  double edge_cut_after = 0.0;
  /// Cumulative migration of the adopted assignment vs. the pre-reaction
  /// one; <= max_migration_fraction up to capacity-pressure overshoot
  /// (which the pass stats' overflow/forced counters expose).
  double migration_fraction = 0.0;
  /// End-to-end reaction latency: adjacency rebuild + all passes + metric
  /// evaluation.
  double seconds = 0.0;
};

/// Wires DriftDetector verdicts to bounded-migration restream reactions.
class DriftController {
 public:
  explicit DriftController(const DriftControllerOptions& options);

  /// Installs the workload expectation (reference distribution) the live
  /// assignment was built for.
  void SetReference(MotifDistribution reference);

  /// Detector tick: scores `current` against the reference. On `fired` the
  /// caller prepares the partitioner (e.g. swaps LOOM onto the drifted trie
  /// via `LoomPartitioner::SetTrie`) and calls React.
  DriftSignal Check(const MotifDistribution& current);

  /// Runs the bounded-migration reaction against `partitioner`'s current
  /// (live) assignment and makes `rebase_to` the detector's reference. The
  /// stream must be the recorded stream the live assignment was built from
  /// (the replay source). Passes replay in `RestreamOrder::kDecisive` order
  /// without a cluster memo, and stop at the first pass that does not
  /// improve the cut: the order is deterministic, so a repeat would replay
  /// the same prior to the same result.
  DriftReaction React(const GraphStream& stream,
                      StreamingPartitioner* partitioner,
                      MotifDistribution rebase_to);

  const DriftDetector& detector() const { return detector_; }
  uint64_t NumReactions() const { return num_reactions_; }
  const DriftControllerOptions& options() const { return options_; }

 private:
  DriftControllerOptions options_;
  DriftDetector detector_;
  uint64_t num_reactions_ = 0;
};

}  // namespace loom

#endif  // LOOM_DRIFT_DRIFT_CONTROLLER_H_
