#include "drift/drift_controller.h"

#include <cassert>
#include <cmath>
#include <utility>

#include "common/timer.h"
#include "metrics/metrics.h"

namespace loom {

Status ValidateDriftControllerOptions(const DriftControllerOptions& options) {
  if (std::isnan(options.max_migration_fraction) ||
      options.max_migration_fraction < 0.0) {
    return Status::InvalidArgument(
        "DriftControllerOptions.max_migration_fraction must be a "
        "non-negative number");
  }
  if (options.reaction_passes == 0) {
    return Status::InvalidArgument(
        "DriftControllerOptions.reaction_passes must be >= 1");
  }
  return ValidateDriftDetectorOptions(options.detector);
}

DriftController::DriftController(const DriftControllerOptions& options)
    : options_(options), detector_(options_.detector) {
  assert(ValidateDriftControllerOptions(options).ok());
}

void DriftController::SetReference(MotifDistribution reference) {
  detector_.SetReference(std::move(reference));
}

DriftSignal DriftController::Check(const MotifDistribution& current) {
  return detector_.Observe(current);
}

DriftReaction DriftController::React(const GraphStream& stream,
                                     StreamingPartitioner* partitioner,
                                     MotifDistribution rebase_to) {
  DriftReaction reaction;
  WallTimer timer;

  // Decisiveness order (descending |gain|) is what makes a small budget
  // effective: strong stayers anchor their neighbourhoods early, strong
  // movers spend the budget on the highest-value moves first, and the
  // ambivalent tail, which plain kGain would let drain the budget, streams
  // last. The budget is passed to each pass explicitly (RunIncrementalPass's
  // max_moves): the remaining allowance shrinks as passes spend it.
  RestreamOptions ropts;
  ropts.order = RestreamOrder::kDecisive;
  const Restreamer restreamer(stream, ropts);

  // The live assignment: migration is capped against it, and keep-best
  // adoption never publishes anything worse than it.
  const PartitionAssignment original = partitioner->assignment();
  reaction.edge_cut_before = restreamer.CutFraction(original);
  const uint64_t total_moves =
      MigrationBudgetMoves(original, options_.max_migration_fraction);

  PartitionAssignment prior = original;
  reaction.assignment = original;
  double best_cut = reaction.edge_cut_before;

  for (uint32_t pass = 1; pass <= options_.reaction_passes; ++pass) {
    // Budget what is left after the moves the chosen prior already carries:
    // moves(original -> result) <= moves(original -> prior) + this pass's
    // budget, so every pass result respects the cumulative cap.
    uint64_t remaining = total_moves;
    if (total_moves != Restreamer::kUnlimitedMoves) {
      const size_t spent = ComputeMigration(original, prior).moved;
      remaining = total_moves > spent ? total_moves - spent : 0;
      if (pass > 1 && remaining == 0) break;
    }

    RestreamPassStats stats =
        restreamer.RunIncrementalPass(partitioner, prior, remaining);
    stats.pass = pass;
    const bool improved = stats.edge_cut_fraction < best_cut;
    if (improved) {
      best_cut = stats.edge_cut_fraction;
      reaction.assignment = partitioner->assignment();
    }
    stats.best_edge_cut_fraction = best_cut;
    reaction.passes.push_back(stats);
    // Keep-best prior, mirroring Restreamer::Run's anytime semantics. A
    // non-improving pass would replay the same prior in the same order to
    // the same result — stop instead.
    prior = reaction.assignment;
    if (!improved) break;
  }

  reaction.edge_cut_after = best_cut;
  reaction.migration_fraction =
      MigrationFraction(original, reaction.assignment);
  reaction.seconds = timer.ElapsedSeconds();

  detector_.SetReference(std::move(rebase_to));
  ++num_reactions_;
  return reaction;
}

}  // namespace loom
