#include "serving/service.h"

#include <algorithm>
#include <utility>

#include "core/loom.h"
#include "core/partitioner_factory.h"

namespace loom {

Status ValidateServiceOptions(const ServiceOptions& options) {
  if (options.loom.partitioner.k == 0) {
    return Status::InvalidArgument(
        "ServiceOptions.loom.partitioner.k must be >= 1");
  }
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

Status ValidateArrival(const VertexArrival& arrival) {
  if (arrival.vertex == kInvalidVertex) {
    return Status::InvalidArgument("Ingest: arrival with invalid vertex id");
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
      tracker_(num_labels, options_.tracker),
      controller_(options_.drift),
      pipeline_(1) {
  loom_ = dynamic_cast<LoomPartitioner*>(partitioner_.get());
  controller_.SetReference(std::move(reference));
  // Publish the empty epoch-0 snapshot before any caller thread exists, so
  // reads are valid from the first instant.
  PublishSnapshot();
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

Status Service::ValidateBatch(const VertexArrival* arrivals,
                              size_t count) const {
  for (size_t i = 0; i < count; ++i) {
    LOOM_RETURN_IF_ERROR(ValidateArrival(arrivals[i]));
  }
  return Status::OK();
}

Status Service::Ingest(const VertexArrival* arrivals, size_t count) {
  if (count == 0) return Status::OK();
  if (arrivals == nullptr) {
    return Status::InvalidArgument("Ingest: null arrivals with count > 0");
  }
  Status valid = ValidateBatch(arrivals, count);
  if (!valid.ok()) {
    rejected_batches_.fetch_add(1, std::memory_order_relaxed);
    return valid;
  }
  std::vector<VertexArrival> batch(arrivals, arrivals + count);
  std::lock_guard<std::mutex> lock(producer_mu_);
  if (sealed_) {
    return Status::FailedPrecondition("Ingest after Seal");
  }
  const uint64_t seq = next_batch_seq_++;
  EnqueuePipelineTask([this, seq, b = std::move(batch)]() mutable {
    ProcessBatch(seq, &b);
  });
  return Status::OK();
}

Status Service::IngestSource(ArrivalSource& source, size_t batch_size) {
  if (batch_size == 0) batch_size = 1;
  source.Reset();
  std::vector<VertexArrival> batch;
  batch.reserve(batch_size);
  ArrivalView view;
  while (source.Next(&view)) {
    VertexArrival arrival;
    arrival.vertex = view.vertex;
    arrival.label = view.label;
    arrival.back_edges.assign(view.back_edges.begin(), view.back_edges.end());
    batch.push_back(std::move(arrival));
    if (batch.size() >= batch_size) {
      const Status status = Ingest(batch);
      if (!status.ok()) return status;
      batch.clear();
    }
  }
  if (!batch.empty()) return Ingest(batch);
  return Status::OK();
}

void Service::ProcessBatch(uint64_t seq, std::vector<VertexArrival>* batch) {
  for (VertexArrival& arrival : *batch) {
    if (arrival.vertex >= label_of_.size()) {
      label_of_.resize(arrival.vertex + 1, 0);
    }
    label_of_[arrival.vertex] = arrival.label;
    partitioner_->OnVertex(arrival.vertex, arrival.label, arrival.back_edges);
    recorded_.Append(std::move(arrival));
  }
  ingested_vertices_.fetch_add(batch->size(), std::memory_order_relaxed);
  ingested_batches_.fetch_add(1, std::memory_order_relaxed);
  SyncPressureCounters();
  if ((seq + 1) % options_.publish_every_batches == 0) PublishSnapshot();
  if (options_.on_batch_processed) options_.on_batch_processed(seq);
}

int32_t Service::Locate(VertexId v) const {
  locate_queries_.fetch_add(1, std::memory_order_relaxed);
  const PlacementSnapshot* snapshot = board_.Read();
  return snapshot != nullptr ? snapshot->Locate(v) : -1;
}

std::vector<uint32_t> Service::Touches(const LabeledGraph& query) const {
  touches_queries_.fetch_add(1, std::memory_order_relaxed);
  const PlacementSnapshot* snapshot = board_.Read();
  if (snapshot == nullptr) return {};
  return TouchedPartitions(*snapshot, query);
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
  PublishSnapshot();
  drift_reactions_.fetch_add(1, std::memory_order_relaxed);
  reaction_running_.store(false, std::memory_order_release);
  reaction_pending_.store(false, std::memory_order_release);
}

void Service::PublishSnapshot() {
  auto snapshot = std::make_unique<PlacementSnapshot>(MakePlacementSnapshot(
      partitioner_->assignment(), label_of_, num_labels_, next_epoch_));
  snapshot_epoch_.store(next_epoch_, std::memory_order_relaxed);
  ++next_epoch_;
  board_.Publish(std::move(snapshot));
  snapshots_published_.fetch_add(1, std::memory_order_relaxed);
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
      PublishSnapshot();
    });
  }
  Flush();
  return Status::OK();
}

}  // namespace loom
