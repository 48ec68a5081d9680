#include "edge_partition/edge_restream.h"

#include <cmath>
#include <utility>

#include "common/timer.h"
#include "metrics/metrics.h"

namespace loom {

Status ValidateEdgeRestreamOptions(const EdgeRestreamOptions& options) {
  if (options.num_passes == 0) {
    return Status::InvalidArgument(
        "EdgeRestreamOptions.num_passes must be >= 1");
  }
  if (std::isnan(options.max_migration_fraction) ||
      options.max_migration_fraction < 0.0) {
    return Status::InvalidArgument(
        "EdgeRestreamOptions.max_migration_fraction must be >= 0");
  }
  return Status::OK();
}

EdgeRestreamOptions SanitizeEdgeRestreamOptions(EdgeRestreamOptions options) {
  if (options.num_passes == 0) options.num_passes = 1;
  if (std::isnan(options.max_migration_fraction) ||
      options.max_migration_fraction < 0.0) {
    options.max_migration_fraction = 0.0;
  }
  return options;
}

EdgeRestreamer::EdgeRestreamer(ArrivalSource* source,
                               const EdgeRestreamOptions& options)
    : source_(source), options_(SanitizeEdgeRestreamOptions(options)) {}

Result<EdgeRestreamResult> EdgeRestreamer::Run(EdgePartitioner* partitioner) {
  if (!partitioner->options().record_placements) {
    return Status::InvalidArgument(
        "edge restreaming needs record_placements: the per-edge log is the "
        "restream prior");
  }
  EdgeRestreamResult result;
  partitioner->Reset();

  // The reported placement so far (keep-best: lowest replication factor,
  // ties to the better balance; otherwise simply the last pass).
  std::vector<uint32_t> best_placements;
  double best_rf = 0.0;
  double best_balance = 0.0;
  bool have_best = false;

  // Prior for the running pass; must stay alive while the partitioner
  // streams against it (BeginPass borrows the pointer).
  std::vector<uint32_t> prior;

  for (uint32_t pass = 1; pass <= options_.num_passes; ++pass) {
    WallTimer timer;
    if (pass > 1) {
      prior = best_placements;
      partitioner->BeginPass(&prior);
      if (options_.max_migration_fraction < 1.0) {
        const uint64_t budget = static_cast<uint64_t>(
            options_.max_migration_fraction *
            static_cast<double>(prior.size()));
        partitioner->SetMigrationBudget(budget);
      }
    }
    source_->Reset();
    partitioner->Run(*source_);

    const EdgePartitionerStats& stats = partitioner->stats();
    EdgeRestreamPassStats row;
    row.pass = pass;
    row.replication_factor = ReplicationFactor(partitioner->replicas());
    row.balance = EdgeBalanceMaxOverAvg(partitioner->edge_counts());
    row.moved_fraction =
        stats.edges_assigned > 0
            ? static_cast<double>(stats.prior_moves) /
                  static_cast<double>(stats.edges_assigned)
            : 0.0;
    row.overflow_fallbacks = stats.overflow_fallbacks;
    row.cap_relaxations = stats.cap_relaxations;
    row.assign_errors = stats.assign_errors;
    row.budget_denied_moves = stats.budget_denied_moves;
    row.seconds = timer.ElapsedSeconds();

    const bool better =
        !have_best || row.replication_factor < best_rf ||
        (row.replication_factor == best_rf && row.balance < best_balance);
    if (!options_.keep_best || better) {
      best_placements = partitioner->placements();
      best_rf = row.replication_factor;
      best_balance = row.balance;
      have_best = true;
    }
    row.best_replication_factor = best_rf;
    result.passes.push_back(row);
  }

  result.placements = std::move(best_placements);
  result.replication_factor = best_rf;
  result.balance = best_balance;
  return result;
}

}  // namespace loom
