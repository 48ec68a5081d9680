#include "stream/arrival_source.h"

namespace loom {

bool StreamCursor::Next(ArrivalView* out) {
  if (pos_ >= stream_->NumVertices()) return false;
  *out = stream_->At(pos_++);
  return true;
}

StreamReplay::StreamReplay(const GraphStream& stream)
    : stream_(&stream), graph_(GraphFromStream(stream)) {}

ReplaySource::Record StreamReplay::At(uint64_t index) const {
  const ArrivalView a = stream_->At(index);
  Record out;
  out.vertex = a.vertex;
  out.label = a.label;
  out.back_edges = a.back_edges;
  out.full_edges = graph_.Neighbors(a.vertex);
  return out;
}

void StreamReplay::Prefetch(uint64_t index, Warm what) const {
  if (what == Warm::kRecord) {
    stream_->Prefetch(index);
    return;
  }
  // The record was warmed by the kRecord hint; its vertex names the
  // adjacency row At reads.
  __builtin_prefetch(graph_.Neighbors(stream_->At(index).vertex).data());
}

GraphStream MaterializeStream(ArrivalSource& source) {
  GraphStream stream;
  ArrivalView view;
  while (source.Next(&view)) {
    stream.Append(view.vertex, view.label, view.back_edges);
  }
  return stream;
}

}  // namespace loom
