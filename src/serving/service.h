#ifndef LOOM_SERVING_SERVICE_H_
#define LOOM_SERVING_SERVICE_H_

/// \file
/// `loom::Service` — the concurrent online serving facade and the one
/// supported way to stand up the full pipeline (window → matcher →
/// partitioner → workload tracker → drift controller). See docs/API.md for
/// the quickstart and the supported public surface.
///
/// Threading model:
///
///  * **Ingest** (`Ingest`, any thread): arrivals are validated on the
///    calling thread, then handed to a single pipeline worker
///    (SPSC: producers serialise on a mutex, one `ThreadPool(1)` consumes
///    FIFO) that drives the streaming partitioner, records the live stream
///    for later replay, and publishes the new placements. Batches are
///    processed strictly in submission order, so batched ingest through one
///    worker is result-identical to the serial pipeline on the same stream.
///  * **Reads** (`Locate`, `Touches`, `Stats`, any thread, any
///    concurrency): served from one live `PlacementTable`
///    (serving/placement_snapshot.h) that each publish updates in place.
///    `Locate` is one acquire load of the slot array plus one relaxed load;
///    `Touches` reads the live per-(partition, label) counts. Neither takes
///    a lock or blocks on an ingest batch or a drift reaction. Each call
///    sees the table as it is at that instant, not as of one publish: a
///    placed vertex never reads -1 again, and while a publish is in flight
///    `Touches` still covers the last completed one.
///  * **Publish** (pipeline thread): every `publish_every_batches` batches
///    the worker writes the vertices placed since the last publish into the
///    table — it keeps the ids ingested but not yet published as placed,
///    at most window + batch ids per publish for a streaming partitioner —
///    so a publish costs O(changed), not O(vertices). Construction and each
///    reaction diff the whole assignment instead, O(vertices) once.
///  * **Snapshots** (`Snapshot`, any thread): an immutable copy of the
///    latest publish, made under a mutex every publish also holds, so it is
///    never torn. Repeated calls in one epoch return the same pointer;
///    copies are kept until destruction, one per epoch someone asked for.
///  * **Workload + drift** (`ObserveQuery`, any thread): observed queries
///    feed the sliding-window `WorkloadTracker` under a mutex; every
///    `drift_check_every_queries` observations the `DriftController` checks
///    the summary against the expectation the live placement was built for.
///    On a confirmed fire the service enqueues a *reaction task* onto the
///    pipeline worker: re-point LOOM at the drifted summary, run the
///    bounded-migration restream reaction (`DriftController::React`) against
///    the recorded stream, adopt the keep-best result, and publish it. Reads
///    continue un-blocked throughout; ingest batches queue behind the
///    reaction (FIFO) and resume after it.
///
/// Lifecycle: `Create` → any interleaving of `Ingest` / reads /
/// `ObserveQuery` → `Seal` (drain, final `Finish`, final publish) → reads
/// remain valid until destruction. `Seal` requires that no thread is still
/// calling `Ingest`/`ObserveQuery`.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "core/loom_partitioner.h"
#include "drift/drift_controller.h"
#include "partition/partitioner.h"
#include "serving/placement_snapshot.h"
#include "serving/service_options.h"
#include "stream/arrival_source.h"
#include "stream/stream.h"
#include "tpstry/workload_tracker.h"
#include "workload/workload.h"

namespace loom {

/// Point-in-time counters returned by `Service::Stats()` — every field is
/// read from atomics, so `Stats` is safe (and cheap) to call concurrently
/// with ingest, queries and reactions.
struct ServiceStats {
  // --- ingest ---
  uint64_t ingested_vertices = 0;
  uint64_t ingested_batches = 0;
  /// Batches rejected by front-end validation (nothing partial is applied).
  uint64_t rejected_batches = 0;

  // --- queries ---
  uint64_t locate_queries = 0;
  uint64_t touches_queries = 0;
  uint64_t observed_queries = 0;

  // --- snapshots ---
  uint64_t snapshots_published = 0;
  /// Epoch of the latest published snapshot.
  uint64_t snapshot_epoch = 0;

  // --- drift loop ---
  uint64_t drift_checks = 0;
  uint64_t drift_fires = 0;
  /// Completed reactions (a fire enqueues exactly one).
  uint64_t drift_reactions = 0;
  /// True while a reaction task is executing on the pipeline worker.
  bool reaction_running = false;
  double last_reaction_seconds = 0.0;
  double last_reaction_edge_cut_before = 0.0;
  double last_reaction_edge_cut_after = 0.0;
  double last_reaction_migration_fraction = 0.0;

  // --- partitioner pressure (from PartitionerStats, synced per batch) ---
  uint64_t overflow_fallbacks = 0;
  uint64_t forced_placements = 0;
  uint64_t assign_errors = 0;

  bool sealed = false;
};

/// The serving facade. Construct via `Create`; all public methods are
/// thread-safe per the header contract above.
class Service {
 public:
  /// Builds the full pipeline for `workload`: the TPSTry++ summary, the
  /// partitioner named by `options.partitioner` (via the factory), the
  /// workload tracker and the drift controller primed with the workload's
  /// motif distribution as reference. Errors with InvalidArgument when
  /// `ValidateServiceOptions` rejects, or, for the "loom" partitioner,
  /// `ValidateLoomOptions`, and propagates trie/partitioner construction
  /// failures. The empty placement is published as epoch 0 immediately, so
  /// reads are valid before the first arrival.
  static Result<std::unique_ptr<Service>> Create(const Workload& workload,
                                                 const ServiceOptions& options);

  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Ingests one batch of arrivals (the span is copied into one flat batch
  /// before return).
  /// The batch is validated on the front end — an invalid vertex id, a
  /// self-loop back edge or a label outside the service's alphabet (see
  /// `ServiceOptions::num_labels`) rejects the WHOLE batch with
  /// InvalidArgument and applies nothing — then enqueued for the pipeline
  /// worker. Returns FailedPrecondition after `Seal`. Arrivals must satisfy
  /// the stream invariants (each vertex once, back edges to earlier
  /// arrivals); batches from multiple threads are applied in `Ingest`-call
  /// order.
  Status Ingest(const VertexArrival* arrivals, size_t count);

  /// Vector convenience overload of the span form.
  Status Ingest(const std::vector<VertexArrival>& arrivals) {
    return Ingest(arrivals.data(), arrivals.size());
  }

  /// Drains `source` (rewound via `Reset` first) into batches of
  /// `batch_size` arrivals, each validated as by `Ingest` and handed to the
  /// pipeline without a further copy — the bridge from any ArrivalSource
  /// (an mmap-ed stream file, a streaming generator) to the serving
  /// pipeline. The source is never copied whole: it is read one batch at
  /// a time (the service still records every arrival for drift reactions).
  /// Stops at the first rejected batch and returns its status; OK once the
  /// source is exhausted. Same concurrency contract as `Ingest`.
  Status IngestSource(ArrivalSource& source, size_t batch_size = 1024);

  /// Partition of `v` in the live placement table, or -1 while unassigned
  /// (still windowed, not yet published, or never ingested). Lock-free;
  /// never blocks.
  int32_t Locate(VertexId v) const;

  /// Partitions the pattern `query` can touch under the live placement
  /// table (sorted; a sound superset of any execution's actual partitions —
  /// the broadcast set a distributed router would use). Lock-free; never
  /// blocks. Does NOT feed the drift loop — pair with `ObserveQuery`.
  std::vector<uint32_t> Touches(const LabeledGraph& query) const;

  /// An immutable copy of the latest publish (never null; epoch 0 before
  /// the first ingest publish). Valid until the service is destroyed. The
  /// first call in an epoch copies the table, O(vertices), and waits for an
  /// in-flight publish; later calls in the same epoch return the same
  /// pointer. For per-vertex reads use `Locate`, which never copies.
  const PlacementSnapshot* Snapshot() const;

  /// Feeds one executed query into the workload tracker and, at the
  /// configured cadence, runs a drift check that may enqueue a background
  /// reaction. Serialised internally; errors propagate from
  /// `WorkloadTracker::Observe` (e.g. out-of-alphabet labels).
  Status ObserveQuery(const LabeledGraph& query);

  /// Point-in-time counters; safe from any thread.
  ServiceStats Stats() const;

  /// Blocks until every batch (and reaction) enqueued before the call has
  /// been processed. Reads observe the resulting placements only after the
  /// publish cadence allows — `Seal` for an unconditional final publish.
  void Flush();

  /// Drains the pipeline, finishes the partitioner (assigning every
  /// windowed vertex) and publishes the final placement. Further `Ingest`
  /// calls fail; reads stay valid. Idempotent-hostile: second call returns
  /// FailedPrecondition. Callers must have stopped `Ingest`/`ObserveQuery`
  /// concurrency before sealing.
  Status Seal();

  const ServiceOptions& options() const { return options_; }

 private:
  Service(ServiceOptions options, uint32_t num_labels,
          std::unique_ptr<TpstryPP> trie,
          std::unique_ptr<StreamingPartitioner> partitioner,
          MotifDistribution reference);

  /// Validates `batch` on the calling thread and, if it passes, moves it
  /// onto the pipeline. The one path of `Ingest` and `IngestSource`.
  Status Submit(GraphStream batch);

  /// Pipeline-thread batch body: partitioner feed + stream recording (one
  /// bulk append) + publish cadence.
  void ProcessBatch(uint64_t seq, const GraphStream& batch);

  /// Pipeline-thread reaction body (see the header contract).
  void RunReaction(std::unique_ptr<TpstryPP> drifted_trie,
                   MotifDistribution current);

  /// Pipeline-thread (or construction): writes the placements made since
  /// the last publish into `table_` and starts a new epoch. `full_diff`
  /// compares every id against the assignment instead of only the
  /// unpublished ones — needed once the assignment was replaced wholesale.
  void Publish(bool full_diff);

  /// Pipeline-thread: mirror PartitionerStats pressure counters into
  /// atomics for `Stats`.
  void SyncPressureCounters();

  /// Wraps a pipeline task with the flush/drain accounting.
  template <typename F>
  void EnqueuePipelineTask(F&& task);

  ServiceOptions options_;
  const uint32_t num_labels_;

  /// Workload summary the partitioner scores against; swapped on reaction
  /// (pipeline thread only after construction). Null for non-LOOM
  /// partitioners... except it also seeds the drift reference, so it is
  /// always built.
  std::unique_ptr<TpstryPP> trie_;
  std::unique_ptr<StreamingPartitioner> partitioner_;
  /// Non-null iff `partitioner_` is the LOOM partitioner (SetTrie target).
  LoomPartitioner* loom_ = nullptr;

  /// Live stream recording + label table (pipeline thread only).
  GraphStream recorded_;
  std::vector<Label> label_of_;
  /// Ids ingested but not yet published as placed (pipeline thread only).
  std::vector<VertexId> unpublished_;

  /// The live placement `Locate`/`Touches` read without a lock.
  PlacementTable table_;
  /// Held by every publish and by `Snapshot`; never on the read path.
  mutable std::mutex publish_mu_;
  uint64_t next_epoch_ = 0;  // guarded by publish_mu_
  /// `Snapshot` copies, one per epoch asked for; guarded by publish_mu_.
  mutable std::vector<std::unique_ptr<const PlacementSnapshot>> frozen_;

  /// Workload/drift state, guarded by `tracker_mu_`. The controller is
  /// additionally touched by the reaction task WITHOUT this mutex — that is
  /// safe because `reaction_pending_` gates every mutex-side access: the
  /// flag is set (release) before the reaction is enqueued and cleared
  /// (release) after it completes, and `ObserveQuery` skips the controller
  /// while it is set (acquire), so controller accesses are totally ordered
  /// through the flag and the pipeline queue.
  mutable std::mutex tracker_mu_;
  WorkloadTracker tracker_;
  DriftController controller_;
  std::atomic<bool> reaction_pending_{false};
  std::atomic<bool> reaction_running_{false};

  /// Producer-side pipeline accounting.
  std::mutex producer_mu_;
  uint64_t tasks_enqueued_ = 0;   // guarded by producer_mu_
  uint64_t next_batch_seq_ = 0;   // guarded by producer_mu_
  bool sealed_ = false;           // guarded by producer_mu_
  std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  std::atomic<uint64_t> tasks_done_{0};

  // Counters (relaxed atomics; Stats() reads them individually).
  std::atomic<uint64_t> ingested_vertices_{0};
  std::atomic<uint64_t> ingested_batches_{0};
  std::atomic<uint64_t> rejected_batches_{0};
  mutable std::atomic<uint64_t> locate_queries_{0};
  mutable std::atomic<uint64_t> touches_queries_{0};
  std::atomic<uint64_t> observed_queries_{0};
  std::atomic<uint64_t> snapshots_published_{0};
  std::atomic<uint64_t> snapshot_epoch_{0};
  std::atomic<uint64_t> drift_checks_{0};
  std::atomic<uint64_t> drift_fires_{0};
  std::atomic<uint64_t> drift_reactions_{0};
  std::atomic<double> last_reaction_seconds_{0.0};
  std::atomic<double> last_reaction_cut_before_{0.0};
  std::atomic<double> last_reaction_cut_after_{0.0};
  std::atomic<double> last_reaction_migration_{0.0};
  std::atomic<uint64_t> overflow_fallbacks_{0};
  std::atomic<uint64_t> forced_placements_{0};
  std::atomic<uint64_t> assign_errors_{0};
  std::atomic<bool> sealed_flag_{false};

  /// The single pipeline worker. Declared LAST so its destructor — which
  /// drains and joins — runs FIRST, before any state its tasks reference.
  ThreadPool pipeline_;
};

}  // namespace loom

#endif  // LOOM_SERVING_SERVICE_H_
