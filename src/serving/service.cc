#include "serving/service.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "core/loom.h"
#include "core/partitioner_factory.h"

namespace loom {

Status ValidateServiceOptions(const ServiceOptions& options) {
  LOOM_RETURN_IF_ERROR(ValidatePartitionerOptions(options.loom.partitioner));
  if (!IsKnownPartitioner(options.partitioner)) {
    return Status::InvalidArgument("ServiceOptions.partitioner '" +
                                   options.partitioner +
                                   "' is not a known partitioner");
  }
  if (options.drift_check_every_queries == 0) {
    return Status::InvalidArgument(
        "ServiceOptions.drift_check_every_queries must be >= 1");
  }
  if (options.publish_every_batches == 0) {
    return Status::InvalidArgument(
        "ServiceOptions.publish_every_batches must be >= 1");
  }
  if (options.tracker.window_queries == 0) {
    return Status::InvalidArgument(
        "ServiceOptions.tracker.window_queries must be >= 1");
  }
  return ValidateDriftControllerOptions(options.drift);
}

ServiceOptions SanitizeServiceOptions(ServiceOptions options) {
  if (options.loom.partitioner.k == 0) options.loom.partitioner.k = 1;
  if (!IsValidSlack(options.loom.partitioner.capacity_slack)) {
    options.loom.partitioner.capacity_slack = 1.0;
  }
  if (!IsKnownPartitioner(options.partitioner)) options.partitioner = "loom";
  if (options.drift_check_every_queries == 0) {
    options.drift_check_every_queries = 1;
  }
  if (options.publish_every_batches == 0) options.publish_every_batches = 1;
  if (options.tracker.window_queries == 0) options.tracker.window_queries = 1;
  options.drift = SanitizeDriftControllerOptions(options.drift);
  return options;
}

namespace {

Status ValidateArrival(const ArrivalView& arrival, uint32_t num_labels) {
  if (arrival.vertex == kInvalidVertex) {
    return Status::InvalidArgument("Ingest: arrival with invalid vertex id");
  }
  if (arrival.label >= num_labels) {
    return Status::InvalidArgument(
        "Ingest: arrival label outside the service's label alphabet");
  }
  for (VertexId back : arrival.back_edges) {
    if (back == kInvalidVertex) {
      return Status::InvalidArgument(
          "Ingest: back edge to invalid vertex id");
    }
    if (back == arrival.vertex) {
      return Status::InvalidArgument("Ingest: self-loop back edge");
    }
  }
  return Status::OK();
}

#ifndef NDEBUG
// True when `live` places and counts exactly what `oracle` does.
bool SamePlacement(const PlacementSnapshot& live,
                   const PlacementSnapshot& oracle) {
  if (live.sizes != oracle.sizes || live.label_counts != oracle.label_counts ||
      live.num_assigned != oracle.num_assigned) {
    return false;
  }
  const size_t bound = std::max(live.part_of.size(), oracle.part_of.size());
  for (VertexId v = 0; v < bound; ++v) {
    if (live.Locate(v) != oracle.Locate(v)) return false;
  }
  return true;
}
#endif

}  // namespace

Result<std::unique_ptr<Service>> Service::Create(
    const Workload& workload, const ServiceOptions& options) {
  LOOM_RETURN_IF_ERROR(ValidateServiceOptions(options));
  ServiceOptions opts = SanitizeServiceOptions(options);
  const uint32_t num_labels =
      std::max({opts.num_labels, workload.NumLabels(), uint32_t{1}});

  // The trie is built even for workload-oblivious partitioners: it seeds the
  // drift detector's reference distribution either way.
  LOOM_ASSIGN_OR_RETURN(std::unique_ptr<TpstryPP> trie,
                        BuildTrie(workload, opts.loom.paths_only));
  LOOM_ASSIGN_OR_RETURN(
      std::unique_ptr<StreamingPartitioner> partitioner,
      MakePartitioner(opts.partitioner, opts.loom, trie.get()));
  MotifDistribution reference = MotifDistributionOf(*trie);

  return std::unique_ptr<Service>(
      new Service(std::move(opts), num_labels, std::move(trie),
                  std::move(partitioner), std::move(reference)));
}

Service::Service(ServiceOptions options, uint32_t num_labels,
                 std::unique_ptr<TpstryPP> trie,
                 std::unique_ptr<StreamingPartitioner> partitioner,
                 MotifDistribution reference)
    : options_(std::move(options)),
      num_labels_(num_labels),
      trie_(std::move(trie)),
      partitioner_(std::move(partitioner)),
      table_(partitioner_->assignment().k(), num_labels,
             options_.loom.partitioner.num_vertices_hint),
      tracker_(num_labels, options_.tracker, options_.loom.paths_only),
      controller_(options_.drift),
      pipeline_(1) {
  loom_ = dynamic_cast<LoomPartitioner*>(partitioner_.get());
  controller_.SetReference(std::move(reference));
  // Publish epoch 0 before any caller thread exists, so reads are valid
  // from the first instant.
  Publish(/*full_diff=*/true);
}

Service::~Service() = default;

template <typename F>
void Service::EnqueuePipelineTask(F&& task) {
  // Caller holds producer_mu_.
  ++tasks_enqueued_;
  pipeline_.Submit([this, t = std::forward<F>(task)]() mutable {
    t();
    {
      std::lock_guard<std::mutex> lock(flush_mu_);
      tasks_done_.fetch_add(1, std::memory_order_release);
    }
    flush_cv_.notify_all();
  });
}

Status Service::Ingest(const VertexArrival* arrivals, size_t count) {
  if (count == 0) return Status::OK();
  if (arrivals == nullptr) {
    return Status::InvalidArgument("Ingest: null arrivals with count > 0");
  }
  return Submit(GraphStream(Span<const VertexArrival>(arrivals, count)));
}

Status Service::Submit(GraphStream batch) {
  for (size_t i = 0; i < batch.NumVertices(); ++i) {
    const Status valid = ValidateArrival(batch.At(i), num_labels_);
    if (!valid.ok()) {
      rejected_batches_.fetch_add(1, std::memory_order_relaxed);
      return valid;
    }
  }
  std::lock_guard<std::mutex> lock(producer_mu_);
  if (sealed_) {
    return Status::FailedPrecondition("Ingest after Seal");
  }
  const uint64_t seq = next_batch_seq_++;
  EnqueuePipelineTask(
      [this, seq, b = std::move(batch)] { ProcessBatch(seq, b); });
  return Status::OK();
}

Status Service::IngestSource(ArrivalSource& source, size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  source.Reset();
  // Each batch is sized like the one before it, so after the first its
  // arrays are allocated once.
  size_t edges_hint = 0;
  GraphStream batch;
  batch.Reserve(batch_size, edges_hint);
  ArrivalView view;
  while (source.Next(&view)) {
    batch.Append(view.vertex, view.label, view.back_edges);
    if (batch.NumVertices() >= batch_size) {
      edges_hint = batch.NumEdges();
      const Status status = Submit(std::move(batch));
      if (!status.ok()) return status;
      batch = GraphStream();
      batch.Reserve(batch_size, edges_hint);
    }
  }
  if (batch.NumVertices() > 0) return Submit(std::move(batch));
  return Status::OK();
}

void Service::ProcessBatch(uint64_t seq, const GraphStream& batch) {
  for (size_t i = 0; i < batch.NumVertices(); ++i) {
    const ArrivalView arrival = batch.At(i);
    if (arrival.vertex >= label_of_.size()) {
      label_of_.resize(arrival.vertex + 1, 0);
    }
    label_of_[arrival.vertex] = arrival.label;
    unpublished_.push_back(arrival.vertex);
    partitioner_->OnVertex(arrival.vertex, arrival.label, arrival.back_edges);
  }
  recorded_.Append(batch);
  ingested_vertices_.fetch_add(batch.NumVertices(), std::memory_order_relaxed);
  ingested_batches_.fetch_add(1, std::memory_order_relaxed);
  SyncPressureCounters();
  if ((seq + 1) % options_.publish_every_batches == 0) {
    Publish(/*full_diff=*/false);
  }
  if (options_.on_batch_processed) options_.on_batch_processed(seq);
}

int32_t Service::Locate(VertexId v) const {
  locate_queries_.fetch_add(1, std::memory_order_relaxed);
  return table_.Locate(v);
}

std::vector<uint32_t> Service::Touches(const LabeledGraph& query) const {
  touches_queries_.fetch_add(1, std::memory_order_relaxed);
  return table_.Touches(query);
}

const PlacementSnapshot* Service::Snapshot() const {
  std::lock_guard<std::mutex> lock(publish_mu_);
  const uint64_t epoch = snapshot_epoch_.load(std::memory_order_relaxed);
  if (frozen_.empty() || frozen_.back()->epoch != epoch) {
    frozen_.push_back(
        std::make_unique<const PlacementSnapshot>(table_.Freeze(epoch)));
  }
  return frozen_.back().get();
}

Status Service::ObserveQuery(const LabeledGraph& query) {
  std::lock_guard<std::mutex> lock(tracker_mu_);
  LOOM_RETURN_IF_ERROR(tracker_.Observe(query));
  const uint64_t observed =
      observed_queries_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!options_.enable_drift_reactions) return Status::OK();
  if (observed % options_.drift_check_every_queries != 0) return Status::OK();
  // While a reaction is pending the controller belongs to the pipeline
  // thread — skip the check entirely (see the tracker_mu_ comment).
  if (reaction_pending_.load(std::memory_order_acquire)) return Status::OK();
  drift_checks_.fetch_add(1, std::memory_order_relaxed);
  MotifDistribution current = tracker_.SupportDistribution();
  const DriftSignal signal = controller_.Check(current);
  if (!signal.fired) return Status::OK();
  auto drifted = std::make_unique<TpstryPP>(tracker_.Snapshot());
  reaction_pending_.store(true, std::memory_order_release);
  std::lock_guard<std::mutex> plock(producer_mu_);
  if (sealed_) {
    reaction_pending_.store(false, std::memory_order_release);
    return Status::OK();
  }
  drift_fires_.fetch_add(1, std::memory_order_relaxed);
  EnqueuePipelineTask(
      [this, t = std::move(drifted), cur = std::move(current)]() mutable {
        RunReaction(std::move(t), std::move(cur));
      });
  return Status::OK();
}

void Service::RunReaction(std::unique_ptr<TpstryPP> drifted_trie,
                          MotifDistribution current) {
  reaction_running_.store(true, std::memory_order_release);
  // Drain the assignment window first: SetTrie requires it empty, and the
  // replay prior should cover every ingested vertex.
  partitioner_->Finish();
  if (loom_ != nullptr) {
    loom_->SetTrie(drifted_trie.get());
    trie_ = std::move(drifted_trie);
  }
  DriftReaction reaction =
      controller_.React(recorded_, partitioner_.get(), std::move(current));
  // React leaves the partitioner on the LAST pass's assignment; continue
  // live ingest from the adopted keep-best one instead.
  partitioner_->AdoptAssignment(std::move(reaction.assignment),
                                partitioner_->stats());
  last_reaction_seconds_.store(reaction.seconds, std::memory_order_relaxed);
  last_reaction_cut_before_.store(reaction.edge_cut_before,
                                  std::memory_order_relaxed);
  last_reaction_cut_after_.store(reaction.edge_cut_after,
                                 std::memory_order_relaxed);
  last_reaction_migration_.store(reaction.migration_fraction,
                                 std::memory_order_relaxed);
  SyncPressureCounters();
  Publish(/*full_diff=*/true);
  drift_reactions_.fetch_add(1, std::memory_order_relaxed);
  reaction_running_.store(false, std::memory_order_release);
  reaction_pending_.store(false, std::memory_order_release);
}

void Service::Publish(bool full_diff) {
  const PartitionAssignment& assignment = partitioner_->assignment();
  auto label_of = [this](VertexId v) {
    return v < label_of_.size() ? label_of_[v] : Label{0};
  };
  std::lock_guard<std::mutex> lock(publish_mu_);
  if (full_diff) {
    const size_t bound = std::max(assignment.IdBound(), table_.IdBound());
    for (VertexId v = 0; v < bound; ++v) {
      table_.Set(v, assignment.PartOf(v), label_of(v));
    }
  }
  // Streaming partitioners place each vertex once, after its arrival, so
  // the unpublished ids are the only ones whose placement can be new.
  size_t kept = 0;
  for (const VertexId v : unpublished_) {
    const int32_t part = assignment.PartOf(v);
    if (part < 0) {
      unpublished_[kept++] = v;
    } else {
      table_.Set(v, part, label_of(v));
    }
  }
  unpublished_.resize(kept);
  table_.Commit();
  const uint64_t epoch = next_epoch_++;
  snapshot_epoch_.store(epoch, std::memory_order_relaxed);
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
  assert(SamePlacement(
      table_.Freeze(epoch),
      MakePlacementSnapshot(assignment, label_of_, num_labels_, epoch)));
}

void Service::SyncPressureCounters() {
  const PartitionerStats& stats = partitioner_->stats();
  overflow_fallbacks_.store(stats.overflow_fallbacks,
                            std::memory_order_relaxed);
  forced_placements_.store(stats.forced_placements,
                           std::memory_order_relaxed);
  assign_errors_.store(stats.assign_errors, std::memory_order_relaxed);
}

ServiceStats Service::Stats() const {
  ServiceStats stats;
  stats.ingested_vertices = ingested_vertices_.load(std::memory_order_relaxed);
  stats.ingested_batches = ingested_batches_.load(std::memory_order_relaxed);
  stats.rejected_batches = rejected_batches_.load(std::memory_order_relaxed);
  stats.locate_queries = locate_queries_.load(std::memory_order_relaxed);
  stats.touches_queries = touches_queries_.load(std::memory_order_relaxed);
  stats.observed_queries = observed_queries_.load(std::memory_order_relaxed);
  stats.snapshots_published =
      snapshots_published_.load(std::memory_order_relaxed);
  stats.snapshot_epoch = snapshot_epoch_.load(std::memory_order_relaxed);
  stats.drift_checks = drift_checks_.load(std::memory_order_relaxed);
  stats.drift_fires = drift_fires_.load(std::memory_order_relaxed);
  stats.drift_reactions = drift_reactions_.load(std::memory_order_relaxed);
  stats.reaction_running = reaction_running_.load(std::memory_order_acquire);
  stats.last_reaction_seconds =
      last_reaction_seconds_.load(std::memory_order_relaxed);
  stats.last_reaction_edge_cut_before =
      last_reaction_cut_before_.load(std::memory_order_relaxed);
  stats.last_reaction_edge_cut_after =
      last_reaction_cut_after_.load(std::memory_order_relaxed);
  stats.last_reaction_migration_fraction =
      last_reaction_migration_.load(std::memory_order_relaxed);
  stats.overflow_fallbacks =
      overflow_fallbacks_.load(std::memory_order_relaxed);
  stats.forced_placements =
      forced_placements_.load(std::memory_order_relaxed);
  stats.assign_errors = assign_errors_.load(std::memory_order_relaxed);
  stats.sealed = sealed_flag_.load(std::memory_order_relaxed);
  return stats;
}

void Service::Flush() {
  uint64_t target;
  {
    std::lock_guard<std::mutex> lock(producer_mu_);
    target = tasks_enqueued_;
  }
  std::unique_lock<std::mutex> lock(flush_mu_);
  flush_cv_.wait(lock, [&] {
    return tasks_done_.load(std::memory_order_acquire) >= target;
  });
}

Status Service::Seal() {
  {
    std::lock_guard<std::mutex> lock(producer_mu_);
    if (sealed_) {
      return Status::FailedPrecondition("Service::Seal called twice");
    }
    sealed_ = true;
    sealed_flag_.store(true, std::memory_order_relaxed);
    EnqueuePipelineTask([this] {
      partitioner_->Finish();
      SyncPressureCounters();
      Publish(/*full_diff=*/false);
    });
  }
  Flush();
  return Status::OK();
}

}  // namespace loom
