#include "edge_partition/edge_restream.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/timer.h"
#include "metrics/metrics.h"

namespace loom {

namespace {

// Share of `placements` on a different partition than `earlier` put the
// same edge; 0 when there is no earlier pass.
double MovedFraction(const std::vector<uint32_t>& earlier,
                     const std::vector<uint32_t>& placements) {
  if (earlier.empty() || placements.empty()) return 0.0;
  const size_t common = std::min(earlier.size(), placements.size());
  uint64_t moved = 0;
  for (size_t i = 0; i < common; ++i) {
    moved += static_cast<uint64_t>(earlier[i] != placements[i]);
  }
  return static_cast<double>(moved) / static_cast<double>(placements.size());
}

}  // namespace

Status ValidateEdgeRestreamOptions(const EdgeRestreamOptions& options) {
  if (options.num_passes == 0) {
    return Status::InvalidArgument(
        "EdgeRestreamOptions.num_passes must be >= 1");
  }
  return Status::OK();
}

EdgeRestreamer::EdgeRestreamer(ArrivalSource* source,
                               const EdgeRestreamOptions& options)
    : source_(source), options_(options) {
  assert(ValidateEdgeRestreamOptions(options).ok());
}

Result<EdgeRestreamResult> EdgeRestreamer::Run(EdgePartitioner* partitioner) {
  if (!partitioner->options().record_placements) {
    return Status::InvalidArgument(
        "edge restreaming needs record_placements: the best pass is kept "
        "as its per-edge log");
  }
  EdgeRestreamResult result;
  partitioner->Reset();

  // The best pass so far: lowest replication factor, ties to the better
  // balance.
  std::vector<uint32_t> best_placements;
  double best_rf = 0.0;
  double best_balance = 0.0;

  for (uint32_t pass = 1; pass <= options_.num_passes; ++pass) {
    WallTimer timer;
    if (pass > 1) partitioner->BeginPass();
    source_->Reset();
    partitioner->Run(*source_);

    const EdgePartitionerStats& stats = partitioner->stats();
    EdgeRestreamPassStats row;
    row.pass = pass;
    row.replication_factor = ReplicationFactor(partitioner->replicas());
    row.balance = EdgeBalanceMaxOverAvg(partitioner->edge_counts());
    row.moved_fraction =
        MovedFraction(best_placements, partitioner->placements());
    row.overflow_fallbacks = stats.overflow_fallbacks;
    row.cap_relaxations = stats.cap_relaxations;
    row.assign_errors = stats.assign_errors;
    row.seconds = timer.ElapsedSeconds();

    if (pass == 1 || row.replication_factor < best_rf ||
        (row.replication_factor == best_rf && row.balance < best_balance)) {
      best_placements = partitioner->placements();
      best_rf = row.replication_factor;
      best_balance = row.balance;
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
