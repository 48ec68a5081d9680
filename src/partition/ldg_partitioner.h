#ifndef LOOM_PARTITION_LDG_PARTITIONER_H_
#define LOOM_PARTITION_LDG_PARTITIONER_H_

/// \file
/// Linear Deterministic Greedy (Stanton & Kliot, KDD'12) — the paper's base
/// heuristic (§4.1): place each arriving vertex in the partition holding most
/// of its neighbours, weighted by the partition's free capacity 1 - |Vi|/C.

#include "common/small_vector.h"
#include "partition/partitioner.h"

namespace loom {

/// One-shot LDG: assigns each vertex on arrival.
class LdgPartitioner : public StreamingPartitioner {
 public:
  explicit LdgPartitioner(const PartitionerOptions& options)
      : StreamingPartitioner(options), edge_counts_(options.k, 0) {}

  void OnVertex(VertexId v, Label label,
                Span<const VertexId> back_edges) override;

  std::string Name() const override { return "ldg"; }

 private:
  /// Scratch: edges from the arriving vertex into each partition.
  std::vector<uint32_t> edge_counts_;
  /// Partitions dirtied by the last vertex (duplicates allowed); resetting
  /// these instead of std::fill-ing all k is the low-degree fast path.
  SmallVector<uint32_t, 16> touched_;
};

}  // namespace loom

#endif  // LOOM_PARTITION_LDG_PARTITIONER_H_
