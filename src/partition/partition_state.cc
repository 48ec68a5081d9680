#include "partition/partition_state.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace loom {

PartitionAssignment::PartitionAssignment(uint32_t k, size_t capacity)
    : k_(k == 0 ? 1 : k), capacity_(capacity), sizes_(k_, 0) {}

Status PartitionAssignment::Assign(VertexId v, uint32_t part) {
  if (part >= k_) return Status::InvalidArgument("partition index out of range");
  if (PartOf(v) >= 0) {
    return Status::AlreadyExists("vertex already assigned");
  }
  if (AtCapacity(part)) {
    return Status::CapacityExceeded("partition " + std::to_string(part) +
                                    " is full");
  }
  return ForceAssign(v, part);
}

Status PartitionAssignment::ForceAssign(VertexId v, uint32_t part) {
  if (part >= k_) return Status::InvalidArgument("partition index out of range");
  if (v >= part_of_.size()) part_of_.resize(v + 1, -1);
  if (part_of_[v] >= 0) {
    return Status::AlreadyExists("vertex already assigned");
  }
  if (AtCapacity(part)) ++num_overflowed_;
  part_of_[v] = static_cast<int32_t>(part);
  ++sizes_[part];
  ++num_assigned_;
  return Status::OK();
}

uint32_t PartitionAssignment::SmallestPartition() const {
  uint32_t best = 0;
  for (uint32_t p = 1; p < k_; ++p) {
    if (sizes_[p] < sizes_[best]) best = p;
  }
  return best;
}

uint32_t PartitionAssignment::MostFreePartition() const {
  uint32_t best = 0;
  for (uint32_t p = 1; p < k_; ++p) {
    const size_t free_p = FreeCapacity(p);
    const size_t free_best = FreeCapacity(best);
    if (free_p > free_best ||
        (free_p == free_best && sizes_[p] < sizes_[best])) {
      best = p;
    }
  }
  return best;
}

}  // namespace loom
