#ifndef LOOM_PARTITION_BUFFERED_LDG_PARTITIONER_H_
#define LOOM_PARTITION_BUFFERED_LDG_PARTITIONER_H_

/// \file
/// Windowed LDG: buffers a sliding window over the stream (§4.1) and assigns
/// each vertex only when it is evicted, by which time more of its edges have
/// been observed. This is exactly LOOM minus the motif machinery — the
/// paper's implicit "buffering alone" ablation (experiment E8a).

#include "common/small_vector.h"
#include "partition/partitioner.h"
#include "stream/window.h"

namespace loom {

/// LDG applied at window-eviction time.
class BufferedLdgPartitioner : public StreamingPartitioner {
 public:
  explicit BufferedLdgPartitioner(const PartitionerOptions& options)
      : StreamingPartitioner(options),
        window_(options.window_size),
        edge_counts_(options.k, 0) {}

  void OnVertex(VertexId v, Label label,
                Span<const VertexId> back_edges) override;

  void Finish() override;

  /// Restream hook: also discards any still-buffered window members, so a
  /// partitioner abandoned mid-stream starts the pass clean.
  void BeginPass(const PartitionAssignment* prior) override;

  std::string Name() const override { return "ldg-buffered"; }

 private:
  void AssignMember(const WindowMember& member);

  StreamWindow window_;
  std::vector<uint32_t> edge_counts_;
  /// Partitions dirtied by the last member (sparse O(degree) reset).
  SmallVector<uint32_t, 16> touched_;
};

}  // namespace loom

#endif  // LOOM_PARTITION_BUFFERED_LDG_PARTITIONER_H_
