#ifndef LOOM_SERVING_PLACEMENT_SNAPSHOT_H_
#define LOOM_SERVING_PLACEMENT_SNAPSHOT_H_

/// \file
/// The placement views the serving layer publishes. `PlacementTable` is the
/// one live placement: an atomic partition slot per vertex id plus the
/// per-(partition, label) counts that route pattern queries, updated in
/// place by a single writer at each publish while any number of readers
/// call `Locate`/`Touches` without a lock. `PlacementSnapshot` is an
/// immutable copy of one publish epoch, made on request (`Service::
/// Snapshot`) and by `MakePlacementSnapshot`, the full-assignment oracle the
/// live table is checked against.

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "partition/partition_state.h"

namespace loom {

/// A frozen, self-contained view of one placement epoch. All fields are
/// immutable once the snapshot is handed out.
struct PlacementSnapshot {
  /// Publication epoch (1-based, monotone across a service's lifetime; 0
  /// only in the pre-ingest publish made at service creation).
  uint64_t epoch = 0;
  /// Number of partitions.
  uint32_t k = 0;
  /// Label alphabet size of `label_counts`.
  uint32_t num_labels = 0;
  /// Partition of each vertex id, -1 while unassigned; index = VertexId.
  std::vector<int32_t> part_of;
  /// Vertex count per partition.
  std::vector<uint32_t> sizes;
  /// Assigned vertices per (partition, label), flattened as
  /// `partition * num_labels + label` — the routing index for `Touches`.
  std::vector<uint32_t> label_counts;
  /// Total assigned vertices.
  size_t num_assigned = 0;

  /// Partition of `v`, or -1 when unassigned / unknown at snapshot time.
  int32_t Locate(VertexId v) const {
    return v < part_of.size() ? part_of[v] : -1;
  }
};

/// Freezes `assignment` into a snapshot. `label_of` maps VertexId to label
/// for every vertex the assignment may contain (ids past its end count as
/// label 0); `num_labels` sizes the routing histogram and must exceed every
/// label in `label_of`. `epoch` is stamped by the caller (the service owns
/// the epoch sequence).
PlacementSnapshot MakePlacementSnapshot(const PartitionAssignment& assignment,
                                        const std::vector<Label>& label_of,
                                        uint32_t num_labels, uint64_t epoch);

/// The live placement: one writer, any number of lock-free readers.
///
/// Readers: `Locate` is one acquire load of the current slot array, a
/// bounds check and one relaxed load; `Touches` reads the live label
/// counts. Neither locks, retries or waits. Each call reads the table as it
/// is at that instant, so two calls are not tied to one publish.
///
/// Writer: `Set` and `Commit`, from one thread at a time. `Set` counts a
/// vertex in its new partition before its slot points there and defers
/// uncounting it from the partition it left to the next `Commit`. So, in the
/// writer's order, no count falls below its value at the last `Commit`
/// while a publish is in flight: `Touches` stays a sound superset of the
/// last completed publish.
///
/// Memory: slots are pre-sized from a hint and grow by doubling. Outgrown
/// arrays are kept until destruction (a reader may still hold one), so the
/// table is at most twice its final size.
class PlacementTable {
 public:
  /// \param k number of partitions.
  /// \param num_labels label alphabet of the routing counts.
  /// \param num_vertices_hint initial slot count (0 = a small default).
  PlacementTable(uint32_t k, uint32_t num_labels, size_t num_vertices_hint);

  PlacementTable(const PlacementTable&) = delete;
  PlacementTable& operator=(const PlacementTable&) = delete;

  /// Partition of `v`, or -1 while unplaced or unknown. Any thread.
  int32_t Locate(VertexId v) const {
    const Slots* slots = slots_.load(std::memory_order_acquire);
    return v < slots->size ? slots->part[v].load(std::memory_order_relaxed)
                           : -1;
  }

  /// The partitions a pattern query can possibly touch: every partition
  /// holding at least one vertex whose label occurs in `query`, ascending.
  /// This is a sound *superset* of the partitions any execution of the
  /// query actually visits — the matcher only probes label-compatible
  /// candidates, so every traversal endpoint carries a query label — which
  /// makes it the broadcast set a distributed router would ship the query
  /// to. Labels outside the alphabet contribute nothing. Any thread.
  std::vector<uint32_t> Touches(const LabeledGraph& query) const;

  /// Writer: points `v`, labelled `label`, at `part` (-1 unplaces it). A
  /// no-op when `v` is already there. Labels outside the alphabet are
  /// placed but not counted.
  void Set(VertexId v, int32_t part, Label label);

  /// Writer: uncounts every vertex from the partition it left since the
  /// last call. Ends a publish.
  void Commit();

  /// One past the largest id ever placed. Writer, or with the writer
  /// excluded.
  size_t IdBound() const { return id_bound_; }

  /// A copy of the committed table stamped `epoch`, with `part_of` sized to
  /// `IdBound()`. The caller excludes the writer for the duration.
  PlacementSnapshot Freeze(uint64_t epoch) const;

 private:
  struct Slots {
    size_t size = 0;
    std::unique_ptr<std::atomic<int32_t>[]> part;
  };

  /// Writer: publishes a copy of the slots with room for id `v`.
  void GrowFor(VertexId v);

  const uint32_t k_;
  const uint32_t num_labels_;
  std::atomic<const Slots*> slots_{nullptr};
  /// Every slot array ever published, the current one last.
  std::vector<std::unique_ptr<Slots>> arrays_;
  /// Placed vertices per (partition, label), flattened as in
  /// `PlacementSnapshot::label_counts`.
  std::unique_ptr<std::atomic<uint32_t>[]> label_counts_;
  /// Writer-side state.
  size_t id_bound_ = 0;
  /// Count indices to decrement at the next `Commit`.
  std::vector<size_t> released_;
};

}  // namespace loom

#endif  // LOOM_SERVING_PLACEMENT_SNAPSHOT_H_
