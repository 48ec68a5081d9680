#include "stream/cluster_log.h"

#include <algorithm>

namespace loom {

void ClusterLog::Reset() {
  id_bound_ = 0;
  members_.clear();
  unit_offsets_.assign(1, 0);
}

void ClusterLog::AddMember(VertexId v) {
  members_.push_back(v);
  id_bound_ = std::max(id_bound_, v + 1);
}

void ClusterLog::CommitUnit() {
  // Empty units are dropped (nothing between this boundary and the last).
  if (members_.size() == unit_offsets_.back()) return;
  unit_offsets_.push_back(static_cast<uint32_t>(members_.size()));
}

ClusterMemo::ClusterMemo(const ClusterLog* log) : log_(log) {
  unit_of_.assign(log->IdBound(), -1);
  for (uint32_t u = 0; u < log->NumUnits(); ++u) {
    for (const VertexId v : log->MembersOf(u)) {
      unit_of_[v] = static_cast<int32_t>(u);
    }
  }
}

std::vector<VertexId> GroupPermByUnits(const std::vector<VertexId>& perm,
                                       const ClusterMemo& memo) {
  std::vector<VertexId> grouped;
  grouped.reserve(perm.size());
  std::vector<uint8_t> unit_emitted(memo.log().NumUnits(), 0);
  for (const VertexId v : perm) {
    const int32_t u = memo.UnitOf(v);
    if (u < 0) {
      grouped.push_back(v);
      continue;
    }
    if (unit_emitted[u]) continue;
    unit_emitted[u] = 1;
    for (const VertexId m : memo.log().MembersOf(static_cast<uint32_t>(u))) {
      grouped.push_back(m);
    }
  }
  return grouped;
}

}  // namespace loom
