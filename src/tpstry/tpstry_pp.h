#ifndef LOOM_TPSTRY_TPSTRY_PP_H_
#define LOOM_TPSTRY_TPSTRY_PP_H_

/// \file
/// TPSTry++ (paper §4.2): a directed acyclic graph that intensionally encodes
/// the motifs — connected sub-graphs — occurring in a workload of pattern
/// matching queries, together with the probability that a random query
/// traverses each motif.
///
/// Structure:
///  * one node per isomorphism class of connected sub-graph occurring in any
///    query graph (plus one root per distinct vertex label);
///  * a DAG edge parent -> child whenever child = parent + one edge
///    (possibly introducing one new vertex);
///  * each node carries a support value: the total relative frequency of the
///    queries containing the motif. Nodes with support >= threshold `T` are
///    *frequent*, and their motifs are what LOOM keeps within partitions.
///
/// Node identity follows the paper: the Song-et-al-style signature keyed
/// first (fast, non-authoritative), verified by an exact labelled canonical
/// form (loom's strictly-more-accurate refinement).

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/flat_map.h"
#include "common/result.h"
#include "common/small_vector.h"
#include "graph/graph.h"
#include "motif/signature.h"

namespace loom {

/// Identifier of a TPSTry++ node (dense, 0-based).
using TpstryNodeId = uint32_t;

inline constexpr TpstryNodeId kInvalidTpstryNode = ~TpstryNodeId{0};

/// One motif node of the TPSTry++.
struct TpstryNode {
  /// Representative sub-graph of the isomorphism class.
  LabeledGraph motif;
  /// Signature of `motif` under the trie's scheme.
  GraphSignature signature;
  /// Exact canonical form of `motif` (node identity verification).
  std::string canonical;
  /// Total relative frequency of queries containing this motif; after
  /// `Normalize()` this is the p-value in [0, 1].
  double support = 0.0;
  /// Children: motifs formed by adding exactly one edge.
  SmallVector<TpstryNodeId, 4> children;
  /// Parents: motifs this one extends by one edge.
  SmallVector<TpstryNodeId, 4> parents;
  size_t num_vertices = 0;
  size_t num_edges = 0;
};

/// The TPSTry++ DAG for a query workload.
class TpstryPP {
 public:
  /// \param num_labels label alphabet size shared with the graph stream.
  explicit TpstryPP(uint32_t num_labels);

  /// Algorithm 1: weaves every connected sub-graph of query graph `q` into
  /// the DAG, adding `frequency` support to each distinct motif (counted
  /// once per query, not once per embedding). Fails if `q` exceeds the
  /// small-query budgets. With `paths_only` the weave is restricted to
  /// simple-path motifs — the original TPSTry's expressiveness, kept as the
  /// E8c ablation. When `touched_out` is non-null it receives the distinct
  /// node ids this query contributed support to (sorted), which lets a
  /// sliding-window caller expire the query later via `ApplySupportDelta`
  /// without re-enumerating its sub-graphs (or retaining the graph at all).
  Status AddQuery(const LabeledGraph& q, double frequency,
                  bool paths_only = false,
                  std::vector<TpstryNodeId>* touched_out = nullptr);

  /// Applies a signed support delta to exactly the given nodes, and the
  /// same delta to the total frequency, each clamped at zero. Given the
  /// `touched_out` list of an `AddQuery` call and minus its frequency, this
  /// takes that query out in O(|touched|), without re-weaving it: the
  /// sliding window over the query stream Q that §4.2 describes
  /// ("continuously summarise the traversal patterns ... within a window
  /// over Q") expires queries this way. Nodes whose support reaches zero
  /// are kept (they simply stop being frequent); the DAG is monotone.
  void ApplySupportDelta(const std::vector<TpstryNodeId>& nodes, double delta);

  /// Rescales supports so they sum the way p-values should: divides every
  /// node's support by the total frequency added so far. Call once after all
  /// `AddQuery` calls.
  void Normalize();

  /// Nodes with support >= threshold; these are the workload's motifs.
  std::vector<TpstryNodeId> FrequentNodes(double threshold) const;

  /// Marks which nodes are frequent at `threshold` into a dense bitmap
  /// (index = node id). Convenience for the stream matcher's hot path.
  std::vector<bool> FrequentBitmap(double threshold) const;

  /// Marks the nodes from which a frequent node is reachable (including the
  /// node itself) in the child direction. A tracked sub-graph whose node is
  /// not "useful" can never grow into a motif match, so the stream matcher
  /// prunes it immediately.
  std::vector<bool> UsefulBitmap(double threshold) const;

  /// Exact-match lookup: the node whose motif is isomorphic to a sub-graph
  /// with this signature, if any. Signature buckets are verified by
  /// canonical form when `canonical` is supplied.
  std::optional<TpstryNodeId> FindBySignature(
      const GraphSignature& sig, const std::string* canonical = nullptr) const;

  /// Root node for a vertex label, if that label occurs in any query.
  std::optional<TpstryNodeId> RootFor(Label label) const;

  const TpstryNode& node(TpstryNodeId id) const { return nodes_[id]; }
  size_t NumNodes() const { return nodes_.size(); }
  size_t NumDagEdges() const;

  /// Largest motif size (edges) over all nodes; bounds the stream matcher's
  /// growth.
  size_t MaxMotifEdges() const { return max_motif_edges_; }

  const SignatureScheme& scheme() const { return scheme_; }

  /// Total frequency mass added via `AddQuery` (pre-normalisation).
  double TotalFrequency() const { return total_frequency_; }

  /// Multiline diagnostic dump (small tries only).
  std::string ToString() const;

 private:
  /// The weave of Algorithm 1: interns every connected sub-graph of `q`
  /// (creating nodes and DAG edges as needed) and reports the distinct node
  /// ids into `touched_out`. Support is NOT modified — `AddQuery` adds it.
  Status WeaveQuery(const LabeledGraph& q, double frequency, bool paths_only,
                    std::unordered_set<TpstryNodeId>* touched_out);

  /// Returns the node for the given motif, creating it if necessary.
  Result<TpstryNodeId> InternMotif(const LabeledGraph& motif);

  /// Adds a parent->child DAG edge once.
  void LinkParentChild(TpstryNodeId parent, TpstryNodeId child);

  SignatureScheme scheme_;
  std::vector<TpstryNode> nodes_;
  /// Signature hash -> candidate node ids (collisions resolved by canonical).
  FlatMap<uint64_t, SmallVector<TpstryNodeId, 2>> by_signature_;
  FlatMap<Label, TpstryNodeId> roots_;
  double total_frequency_ = 0.0;
  size_t max_motif_edges_ = 0;
};

}  // namespace loom

#endif  // LOOM_TPSTRY_TPSTRY_PP_H_
