#ifndef LOOM_PARTITION_HASH_PARTITIONER_H_
#define LOOM_PARTITION_HASH_PARTITIONER_H_

/// \file
/// The default placement of distributed graph systems (§1): a hash of the
/// vertex id. Even sizes, zero locality — the paper's workload-agnostic
/// strawman baseline.

#include "partition/partitioner.h"

namespace loom {

/// hash(v) mod k, with capacity-respecting linear probing so the balance
/// constraint is honoured even under adversarial id sets.
class HashPartitioner : public StreamingPartitioner {
 public:
  /// `options` must pass ValidatePartitionerOptions (asserted in Debug).
  explicit HashPartitioner(const PartitionerOptions& options)
      : StreamingPartitioner(options) {}

  void OnVertex(VertexId v, Label label,
                Span<const VertexId> back_edges) override;

  std::string Name() const override { return "hash"; }
};

}  // namespace loom

#endif  // LOOM_PARTITION_HASH_PARTITIONER_H_
