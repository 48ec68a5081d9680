#ifndef LOOM_PARTITION_FENNEL_PARTITIONER_H_
#define LOOM_PARTITION_FENNEL_PARTITIONER_H_

/// \file
/// Fennel (Tsourakakis, Gkantsidis, Radunovic & Vojnovic, WSDM'14), the other
/// state-of-the-art streaming heuristic the paper cites [19]: interpolates
/// between neighbour attraction and a superlinear size penalty,
/// score_i = |N(v) ∩ V_i| − α · γ · |V_i|^(γ−1).

#include "common/small_vector.h"
#include "partition/partitioner.h"

namespace loom {

/// Streaming Fennel with the paper's standard parameterisation
/// (γ = 1.5, α = m · k^(γ−1) / n^γ) and a hard capacity ν·n/k.
class FennelPartitioner : public StreamingPartitioner {
 public:
  /// `options` must pass ValidatePartitionerOptions (asserted in Debug).
  explicit FennelPartitioner(const PartitionerOptions& options);

  void OnVertex(VertexId v, Label label,
                Span<const VertexId> back_edges) override;

  std::string Name() const override { return "fennel"; }

  double alpha() const { return alpha_; }
  double gamma() const { return gamma_; }

 private:
  double gamma_ = 1.5;
  double alpha_ = 1.0;
  std::vector<uint32_t> edge_counts_;
  /// Partitions dirtied by the last vertex (sparse O(degree) reset).
  SmallVector<uint32_t, 16> touched_;
};

}  // namespace loom

#endif  // LOOM_PARTITION_FENNEL_PARTITIONER_H_
