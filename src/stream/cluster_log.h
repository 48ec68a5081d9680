#ifndef LOOM_STREAM_CLUSTER_LOG_H_
#define LOOM_STREAM_CLUSTER_LOG_H_

/// \file
/// Cluster memoization for restream passes.
///
/// A LOOM pass assigns the stream as a sequence of *units*: single vertices
/// and motif-match clusters (pre-split — the capacity-driven split is a
/// placement decision, not part of the decomposition). The ClusterLog is the
/// record of that decomposition, in assignment order; a ClusterMemo indexes
/// a log so the next pass can recall each vertex's unit in O(1).
///
/// A memoized restream pass replays the previous pass's units as pre-grouped
/// arrival blocks and scores each recalled unit directly through the
/// prior-aware blocked kernel — the window/matcher pipeline is skipped for
/// every recalled vertex.
///
/// Contract: a memo is replayed over the stream it was recorded from, one
/// unit at a time (GroupPermByUnits order). Restreamer::Run, the one caller
/// that installs memos, holds one ReplaySource for the whole run and groups
/// every replay order, so a recalled unit's labels and neighbourhoods are
/// the recorded ones and its members arrive contiguously. Nothing is
/// re-checked on replay.

#include <cstdint>
#include <vector>

#include "common/span.h"
#include "graph/graph.h"

namespace loom {

/// Append-only record of the units one pass assigned, in assignment order.
class ClusterLog {
 public:
  /// Drops all units and starts a new recording.
  void Reset();

  /// Appends a member to the unit currently being recorded.
  void AddMember(VertexId v);
  /// Seals the current unit (all members since the previous CommitUnit);
  /// a commit with no new members is a no-op.
  void CommitUnit();

  size_t NumUnits() const { return unit_offsets_.size() - 1; }
  size_t NumMembers() const { return members_.size(); }

  /// Members of `unit` in the order the pass scored them (first member =
  /// the evicted vertex for clusters).
  Span<const VertexId> MembersOf(uint32_t unit) const {
    return Span<const VertexId>(members_.data() + unit_offsets_[unit],
                                unit_offsets_[unit + 1] - unit_offsets_[unit]);
  }

  /// One past the largest member id (bound for memo index sizing).
  VertexId IdBound() const { return id_bound_; }

 private:
  VertexId id_bound_ = 0;
  std::vector<VertexId> members_;
  /// CSR-style unit boundaries: unit u = members_[offsets[u], offsets[u+1]).
  std::vector<uint32_t> unit_offsets_{0};
};

/// O(1) vertex -> unit recall over a borrowed ClusterLog (which must outlive
/// the memo and any partitioner it is installed into).
class ClusterMemo {
 public:
  ClusterMemo() = default;
  explicit ClusterMemo(const ClusterLog* log);

  /// Unit the recorded pass assigned `v` in, or -1 when unrecorded.
  int32_t UnitOf(VertexId v) const {
    return v < unit_of_.size() ? unit_of_[v] : -1;
  }

  const ClusterLog& log() const { return *log_; }

 private:
  const ClusterLog* log_ = nullptr;
  std::vector<int32_t> unit_of_;
};

/// Reorders `perm` so every memoized unit's members arrive consecutively, in
/// recorded unit order, hoisted to the position of the unit's first member
/// in `perm`. Vertices outside any unit keep their relative order. This is
/// the arrival order a memoized pass needs: a unit can be scored and
/// assigned the moment its last member arrives, with at most one unit
/// buffered at any time.
std::vector<VertexId> GroupPermByUnits(const std::vector<VertexId>& perm,
                                       const ClusterMemo& memo);

}  // namespace loom

#endif  // LOOM_STREAM_CLUSTER_LOG_H_
