#ifndef LOOM_PARTITION_PARTITION_STATE_H_
#define LOOM_PARTITION_PARTITION_STATE_H_

/// \file
/// The k-way partitioning Pk(V) of §2: a disjoint assignment of vertices to
/// partitions S_1..S_k, with the capacity constraint C that makes the
/// partitioning balanced (§4.1).

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "common/status.h"
#include "graph/graph.h"

namespace loom {

/// Mutable k-way vertex assignment with capacity accounting.
class PartitionAssignment {
 public:
  /// \param k number of partitions (>= 1).
  /// \param capacity per-partition vertex budget C (0 = unconstrained).
  PartitionAssignment(uint32_t k, size_t capacity);

  /// Assigns `v` to `part`. Fails on double assignment, bad partition index
  /// or a full partition.
  Status Assign(VertexId v, uint32_t part);

  /// **[internal]** Assigns `v` to `part` even when the partition is at
  /// capacity — the overflow escape hatch for streams that exceed k·C
  /// vertices, where
  /// dropping the vertex would be worse than stretching the bound. Still
  /// fails on double assignment or a bad partition index; placements past C
  /// are counted in NumOverflowed().
  Status ForceAssign(VertexId v, uint32_t part);

  /// Partition of `v`, or -1 while unassigned (or unknown id).
  int32_t PartOf(VertexId v) const {
    return v < part_of_.size() ? part_of_[v] : -1;
  }

  bool IsAssigned(VertexId v) const { return PartOf(v) >= 0; }

  uint32_t k() const { return k_; }
  size_t capacity() const { return capacity_; }

  /// Vertex count per partition.
  const std::vector<uint32_t>& Sizes() const { return sizes_; }

  /// Remaining capacity of `part` (SIZE_MAX when unconstrained).
  size_t FreeCapacity(uint32_t part) const {
    if (capacity_ == 0) return ~static_cast<size_t>(0);
    if (part >= k_) return 0;
    return sizes_[part] >= capacity_ ? 0 : capacity_ - sizes_[part];
  }

  /// Total vertices assigned so far.
  size_t NumAssigned() const { return num_assigned_; }

  /// Index of the partition with the fewest vertices (lowest index wins
  /// ties).
  uint32_t SmallestPartition() const;

  /// Index of the partition with the most free capacity; ties prefer the
  /// smaller partition, then the lower index. The canonical overflow
  /// fallback target when a placement heuristic finds no eligible partition.
  uint32_t MostFreePartition() const;

  /// One past the largest vertex id ever assigned; bound for PartOf scans.
  size_t IdBound() const { return part_of_.size(); }

  /// The per-id table behind PartOf: IdBound() entries, -1 where
  /// unassigned. A read-only view, valid until the next assignment.
  Span<const int32_t> PartTable() const {
    return Span<const int32_t>(part_of_.data(), part_of_.size());
  }

  /// Vertices placed past the capacity bound C via ForceAssign.
  size_t NumOverflowed() const { return num_overflowed_; }

 private:
  /// True when `part` cannot take another vertex under the bound C.
  bool AtCapacity(uint32_t part) const {
    return capacity_ != 0 && sizes_[part] >= capacity_;
  }

  uint32_t k_;
  size_t capacity_;
  std::vector<int32_t> part_of_;
  std::vector<uint32_t> sizes_;
  size_t num_assigned_ = 0;
  size_t num_overflowed_ = 0;
};

}  // namespace loom

#endif  // LOOM_PARTITION_PARTITION_STATE_H_
