#include "partition/replica_set.h"

#include <algorithm>

namespace loom {

void ReplicaSet::SetMaskBit(VertexId v, uint32_t partition) {
  const uint32_t word = partition >> 6;
  if (word >= words_per_vertex_) {
    // Restride: the first partition index >= 64 * stride widens every
    // vertex's mask row in place (old word w of vertex v moves to the same
    // word of the wider row). Happens at most log2(k/64) times per set.
    const uint32_t new_stride = word + 1;
    std::vector<uint64_t> wide(
        (masks_.size() / words_per_vertex_) * new_stride, 0);
    const size_t num_vertices = masks_.size() / words_per_vertex_;
    for (size_t i = 0; i < num_vertices; ++i) {
      for (uint32_t w = 0; w < words_per_vertex_; ++w) {
        wide[i * new_stride + w] = masks_[i * words_per_vertex_ + w];
      }
    }
    masks_ = std::move(wide);
    words_per_vertex_ = new_stride;
  }
  const size_t base = static_cast<size_t>(v) * words_per_vertex_;
  if (base + words_per_vertex_ > masks_.size()) {
    masks_.resize((static_cast<size_t>(v) + 1) * words_per_vertex_, 0);
  }
  masks_[base + word] |= uint64_t{1} << (partition & 63);
}

void ReplicaSet::ClearMaskBit(VertexId v, uint32_t partition) {
  const uint32_t word = partition >> 6;
  if (word >= words_per_vertex_) return;
  const size_t base = static_cast<size_t>(v) * words_per_vertex_;
  if (base + word >= masks_.size()) return;
  masks_[base + word] &= ~(uint64_t{1} << (partition & 63));
}

void ReplicaSet::Add(VertexId v, uint32_t partition) {
  // Mask-first: the hot edge-partition path calls Add twice per edge and
  // the replica almost always exists already — answer that case from the
  // dense table without hashing.
  if (Has(v, partition)) return;
  SetMaskBit(v, partition);
  replicas_[v].push_back(partition);
  ++num_replicas_;
}

bool ReplicaSet::Remove(VertexId v, uint32_t partition) {
  if (!Has(v, partition)) return false;
  const auto it = replicas_.find(v);
  auto& parts = it->second;
  const auto pos = std::find(parts.begin(), parts.end(), partition);
  // erase (not swap-and-pop) keeps insertion order, so removing the
  // primary promotes the oldest surviving secondary.
  parts.erase(pos);
  ClearMaskBit(v, partition);
  --num_replicas_;
  if (parts.empty()) replicas_.erase(it);
  return true;
}

void ReplicaSet::ReserveVertices(size_t num_vertices) {
  replicas_.reserve(num_vertices);
  masks_.reserve(num_vertices * words_per_vertex_);
}

uint32_t ReplicaSet::MaskCountOf(VertexId v) const {
  const size_t base = static_cast<size_t>(v) * words_per_vertex_;
  uint32_t count = 0;
  for (uint32_t w = 0; w < words_per_vertex_; ++w) {
    if (base + w >= masks_.size()) break;
    count += static_cast<uint32_t>(__builtin_popcountll(masks_[base + w]));
  }
  return count;
}

const std::vector<uint32_t>* ReplicaSet::PartitionsOf(VertexId v) const {
  const auto it = replicas_.find(v);
  return it == replicas_.end() ? nullptr : &it->second;
}

uint32_t ReplicaSet::PrimaryOf(VertexId v) const {
  const auto it = replicas_.find(v);
  return it == replicas_.end() ? kNoReplica : it->second.front();
}

size_t ReplicaSet::NumReplicasOf(VertexId v) const {
  const auto it = replicas_.find(v);
  return it == replicas_.end() ? 0 : it->second.size();
}

bool ReplicaSet::CheckInvariants() const {
  size_t total = 0;
  VertexId max_vertex = 0;
  for (const auto& [vertex, parts] : replicas_) {
    max_vertex = std::max(max_vertex, vertex);
    if (parts.empty()) return false;
    for (size_t i = 0; i < parts.size(); ++i) {
      for (size_t j = i + 1; j < parts.size(); ++j) {
        if (parts[i] == parts[j]) return false;
      }
    }
    // Every listed partition must be set in the mask.
    for (const uint32_t p : parts) {
      if (!Has(vertex, p)) return false;
    }
    total += parts.size();
  }
  if (total != num_replicas_) return false;
  // Every set mask bit must be listed (no stale bits). Scan the dense
  // table directly so vertices absent from the map are audited too.
  const size_t num_rows = masks_.size() / words_per_vertex_;
  for (size_t i = 0; i < num_rows; ++i) {
    const VertexId v = static_cast<VertexId>(i);
    const auto it = replicas_.find(v);
    for (uint32_t w = 0; w < words_per_vertex_; ++w) {
      uint64_t bits = masks_[i * words_per_vertex_ + w];
      while (bits != 0) {
        const uint32_t p =
            (w << 6) + static_cast<uint32_t>(__builtin_ctzll(bits));
        bits &= bits - 1;
        if (it == replicas_.end()) return false;
        if (std::find(it->second.begin(), it->second.end(), p) ==
            it->second.end()) {
          return false;
        }
      }
    }
  }
  return true;
}

}  // namespace loom
