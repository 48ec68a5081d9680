#include "tpstry/tpstry_pp.h"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "motif/canonical.h"
#include "motif/subgraph_enum.h"

namespace loom {

TpstryPP::TpstryPP(uint32_t num_labels) : scheme_(num_labels) {}

Result<TpstryNodeId> TpstryPP::InternMotif(const LabeledGraph& motif) {
  const GraphSignature sig = scheme_.SignatureOf(motif);
  LOOM_ASSIGN_OR_RETURN(std::string canonical, CanonicalForm(motif));

  auto& bucket = by_signature_[sig.Hash()];
  for (const TpstryNodeId id : bucket) {
    if (nodes_[id].signature == sig && nodes_[id].canonical == canonical) {
      return id;
    }
  }

  const TpstryNodeId id = static_cast<TpstryNodeId>(nodes_.size());
  TpstryNode node;
  node.motif = motif;
  node.signature = sig;
  node.canonical = std::move(canonical);
  node.num_vertices = motif.NumVertices();
  node.num_edges = motif.NumEdges();
  nodes_.push_back(std::move(node));
  bucket.push_back(id);
  max_motif_edges_ = std::max(max_motif_edges_, motif.NumEdges());
  return id;
}

void TpstryPP::LinkParentChild(TpstryNodeId parent, TpstryNodeId child) {
  auto& kids = nodes_[parent].children;
  if (std::find(kids.begin(), kids.end(), child) == kids.end()) {
    kids.push_back(child);
    nodes_[child].parents.push_back(parent);
  }
}

namespace {

/// A connected sub-graph is a simple path iff it is a tree of max degree 2.
bool IsSimplePath(const LabeledGraph& g) {
  if (g.NumEdges() + 1 != g.NumVertices()) return false;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) > 2) return false;
  }
  return true;
}

}  // namespace

Status TpstryPP::AddQuery(const LabeledGraph& q, double frequency,
                          bool paths_only,
                          std::vector<TpstryNodeId>* touched_out) {
  std::unordered_set<TpstryNodeId> touched;
  LOOM_RETURN_IF_ERROR(WeaveQuery(q, frequency, paths_only, &touched));
  for (const TpstryNodeId id : touched) nodes_[id].support += frequency;
  total_frequency_ += frequency;
  if (touched_out != nullptr) {
    touched_out->assign(touched.begin(), touched.end());
    std::sort(touched_out->begin(), touched_out->end());
  }
  return Status::OK();
}

void TpstryPP::ApplySupportDelta(const std::vector<TpstryNodeId>& nodes,
                                 double delta) {
  for (const TpstryNodeId id : nodes) {
    assert(id < nodes_.size());
    nodes_[id].support = std::max(0.0, nodes_[id].support + delta);
  }
  total_frequency_ = std::max(0.0, total_frequency_ + delta);
}

Status TpstryPP::WeaveQuery(const LabeledGraph& q, double frequency,
                            bool paths_only,
                            std::unordered_set<TpstryNodeId>* touched_out) {
  if (q.NumVertices() == 0) {
    return Status::InvalidArgument("empty query graph");
  }
  if (frequency <= 0.0) {
    return Status::InvalidArgument("query frequency must be positive");
  }
  for (VertexId v = 0; v < q.NumVertices(); ++v) {
    if (q.LabelOf(v) >= scheme_.num_labels()) {
      return Status::InvalidArgument("query label outside trie alphabet");
    }
  }

  // Motifs contained in this query, each counted once regardless of how many
  // embeddings the query graph holds (support is per-query probability mass).
  std::unordered_set<TpstryNodeId>& touched = *touched_out;

  // Single-vertex motifs: the DAG's roots, one per distinct label (§4.2
  // "multiple possible root nodes: one for each vertex with a distinct
  // label").
  for (VertexId v = 0; v < q.NumVertices(); ++v) {
    LabeledGraph single;
    single.AddVertex(q.LabelOf(v));
    LOOM_ASSIGN_OR_RETURN(TpstryNodeId id, InternMotif(single));
    roots_.emplace(q.LabelOf(v), id);
    touched.insert(id);
  }

  // Edge-grown motifs, smallest-first so parents always pre-exist.
  Status enum_status = Status::OK();
  const Status s = EnumerateConnectedEdgeSubgraphs(
      q, [&](const std::vector<Edge>& edges) {
        if (!enum_status.ok()) return;
        const LabeledGraph motif = EdgeSubgraph(q, edges);
        if (paths_only && !IsSimplePath(motif)) return;
        auto interned = InternMotif(motif);
        if (!interned.ok()) {
          enum_status = interned.status();
          return;
        }
        const TpstryNodeId id = interned.value();
        touched.insert(id);

        if (edges.size() == 1) {
          // Parents of a single-edge motif: the single-vertex roots of its
          // endpoint labels.
          const auto ru = roots_.find(q.LabelOf(edges[0].u));
          const auto rv = roots_.find(q.LabelOf(edges[0].v));
          assert(ru != roots_.end() && rv != roots_.end());
          LinkParentChild(ru->second, id);
          if (rv->second != ru->second) LinkParentChild(rv->second, id);
          return;
        }
        // Parents: remove one edge; keep the subsets that stay connected.
        std::vector<Edge> sub;
        sub.reserve(edges.size() - 1);
        for (size_t skip = 0; skip < edges.size(); ++skip) {
          sub.clear();
          for (size_t i = 0; i < edges.size(); ++i) {
            if (i != skip) sub.push_back(edges[i]);
          }
          const LabeledGraph parent_motif = EdgeSubgraph(q, sub);
          if (!IsConnected(parent_motif)) continue;
          auto parent = InternMotif(parent_motif);
          if (!parent.ok()) {
            enum_status = parent.status();
            return;
          }
          LinkParentChild(parent.value(), id);
        }
      });
  LOOM_RETURN_IF_ERROR(s);
  LOOM_RETURN_IF_ERROR(enum_status);
  return Status::OK();
}

void TpstryPP::Normalize() {
  if (total_frequency_ <= 0.0) return;
  for (auto& node : nodes_) node.support /= total_frequency_;
  total_frequency_ = 1.0;
}

std::vector<TpstryNodeId> TpstryPP::FrequentNodes(double threshold) const {
  std::vector<TpstryNodeId> out;
  for (TpstryNodeId id = 0; id < nodes_.size(); ++id) {
    if (nodes_[id].support >= threshold) out.push_back(id);
  }
  return out;
}

std::vector<bool> TpstryPP::FrequentBitmap(double threshold) const {
  std::vector<bool> out(nodes_.size(), false);
  for (TpstryNodeId id = 0; id < nodes_.size(); ++id) {
    out[id] = nodes_[id].support >= threshold;
  }
  return out;
}

std::vector<bool> TpstryPP::UsefulBitmap(double threshold) const {
  std::vector<bool> useful = FrequentBitmap(threshold);
  // Children always have one more edge than their parents, so processing
  // nodes in decreasing edge count is a reverse topological order of the DAG.
  std::vector<TpstryNodeId> order(nodes_.size());
  for (TpstryNodeId id = 0; id < nodes_.size(); ++id) order[id] = id;
  std::sort(order.begin(), order.end(), [this](TpstryNodeId a, TpstryNodeId b) {
    return nodes_[a].num_edges > nodes_[b].num_edges;
  });
  for (const TpstryNodeId id : order) {
    if (useful[id]) continue;
    for (const TpstryNodeId child : nodes_[id].children) {
      if (useful[child]) {
        useful[id] = true;
        break;
      }
    }
  }
  return useful;
}

std::optional<TpstryNodeId> TpstryPP::FindBySignature(
    const GraphSignature& sig, const std::string* canonical) const {
  const auto it = by_signature_.find(sig.Hash());
  if (it == by_signature_.end()) return std::nullopt;
  for (const TpstryNodeId id : it->second) {
    if (!(nodes_[id].signature == sig)) continue;
    if (canonical != nullptr && nodes_[id].canonical != *canonical) continue;
    return id;
  }
  return std::nullopt;
}

std::optional<TpstryNodeId> TpstryPP::RootFor(Label label) const {
  const auto it = roots_.find(label);
  if (it == roots_.end()) return std::nullopt;
  return it->second;
}

size_t TpstryPP::NumDagEdges() const {
  size_t count = 0;
  for (const auto& node : nodes_) count += node.children.size();
  return count;
}

std::string TpstryPP::ToString() const {
  std::string out = "TPSTry++ (" + std::to_string(nodes_.size()) + " nodes, " +
                    std::to_string(NumDagEdges()) + " dag-edges)\n";
  for (TpstryNodeId id = 0; id < nodes_.size(); ++id) {
    const TpstryNode& n = nodes_[id];
    out += "  [" + std::to_string(id) + "] v=" +
           std::to_string(n.num_vertices) + " e=" +
           std::to_string(n.num_edges) + " p=" +
           std::to_string(n.support) + " children={";
    for (size_t i = 0; i < n.children.size(); ++i) {
      if (i) out += ",";
      out += std::to_string(n.children[i]);
    }
    out += "}\n";
  }
  return out;
}

}  // namespace loom
