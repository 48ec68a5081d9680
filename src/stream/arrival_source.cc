#include "stream/arrival_source.h"

namespace loom {

bool StreamCursor::Next(ArrivalView* out) {
  const std::vector<VertexArrival>& arrivals = stream_->arrivals();
  if (pos_ >= arrivals.size()) return false;
  const VertexArrival& a = arrivals[pos_++];
  out->vertex = a.vertex;
  out->label = a.label;
  out->back_edges = Span<const VertexId>(a.back_edges.data(),
                                         a.back_edges.size());
  return true;
}

StreamReplay::StreamReplay(const GraphStream& stream)
    : stream_(&stream), graph_(GraphFromStream(stream)) {}

ReplaySource::Record StreamReplay::At(uint64_t index) const {
  const VertexArrival& a = stream_->arrivals()[index];
  Record out;
  out.vertex = a.vertex;
  out.label = a.label;
  out.back_edges = a.back_edges;
  out.full_edges = graph_.Neighbors(a.vertex);
  return out;
}

void StreamReplay::Prefetch(uint64_t index, Warm what) const {
  const VertexArrival* a = &stream_->arrivals()[index];
  if (what == Warm::kRecord) {
    __builtin_prefetch(a);
    return;
  }
  // The record was warmed by the kRecord hint; its vertex names the
  // adjacency row At reads.
  __builtin_prefetch(graph_.Neighbors(a->vertex).data());
}

GraphStream MaterializeStream(ArrivalSource& source) {
  GraphStream stream;
  ArrivalView view;
  while (source.Next(&view)) {
    VertexArrival arrival;
    arrival.vertex = view.vertex;
    arrival.label = view.label;
    arrival.back_edges.assign(view.back_edges.begin(), view.back_edges.end());
    stream.Append(std::move(arrival));
  }
  return stream;
}

}  // namespace loom
