// Contract tests of the loom::Service serving facade: options validation,
// snapshot publication under concurrent readers, batched-vs-serial ingest
// equivalence, Locate/Touches correctness against the query engine's ground
// truth, and the drift loop reacting while clients keep reading. Suite
// names contain "Serving" so CI's TSan job picks every test up.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/loom.h"
#include "core/partitioner_factory.h"
#include "metrics/metrics.h"
#include "restream/restreamer.h"
#include "serving/service.h"
#include "serving_scenario.h"
#include "workload/query_builders.h"
#include "workload/query_engine.h"

namespace loom {
namespace {

using bench::GraphKind;
using bench::MakeGraph;
using bench::PlantWorkloadMotifs;
using bench::RunServingScenario;
using bench::ServingScenarioConfig;
using bench::ServingScenarioResult;

Workload SmallWorkload() {
  Workload w;
  (void)w.Add("path", PathQuery({0, 1, 0}), 2.0);
  (void)w.Add("cycle", CycleQuery({0, 1, 0, 1}), 1.0);
  w.Normalize();
  return w;
}

/// Graph + stream fixture shared by the equivalence and query tests.
struct Scenario {
  LabeledGraph g;
  GraphStream stream;
};

Scenario MakeScenario(uint32_t n, uint64_t seed) {
  Scenario s;
  Rng rng(seed);
  s.g = MakeGraph(GraphKind::kBarabasiAlbert, n, 6, LabelConfig{4, 0.2}, rng);
  PlantWorkloadMotifs(&s.g, SmallWorkload(), n / 24, rng,
                      /*locality_span=*/48);
  s.stream = MakeStream(s.g, StreamOrder::kDfs, rng);
  return s;
}

ServiceOptions BaseOptions(const Scenario& s, uint32_t k) {
  ServiceOptions opts;
  opts.loom.partitioner.k = k;
  opts.loom.partitioner.num_vertices_hint = s.g.NumVertices();
  opts.loom.partitioner.num_edges_hint = s.g.NumEdges();
  opts.loom.partitioner.window_size = 64;
  opts.loom.matcher.frequency_threshold = 0.2;
  opts.num_labels = 4;
  return opts;
}

// ------------------------------------------------------ options validation

TEST(ServingOptionsTest, DefaultsValidateAndSanitizeIsIdentityOnThem) {
  const ServiceOptions defaults;
  EXPECT_TRUE(ValidateServiceOptions(defaults).ok());
  const ServiceOptions sanitized = SanitizeServiceOptions(defaults);
  EXPECT_TRUE(ValidateServiceOptions(sanitized).ok());
  EXPECT_EQ(sanitized.partitioner, defaults.partitioner);
}

TEST(ServingOptionsTest, ValidateRejectsTheFirstBadFieldWithoutMutating) {
  ServiceOptions opts;
  opts.loom.partitioner.k = 0;
  Status status = ValidateServiceOptions(opts);
  EXPECT_TRUE(status.code() == StatusCode::kInvalidArgument);
  EXPECT_EQ(opts.loom.partitioner.k, 0u);  // untouched

  for (const double slack : {std::nan(""), -1.0, 0.5, HUGE_VAL}) {
    opts = ServiceOptions();
    opts.loom.partitioner.capacity_slack = slack;
    EXPECT_EQ(ValidateServiceOptions(opts).code(),
              StatusCode::kInvalidArgument)
        << slack;
  }

  opts = ServiceOptions();
  opts.partitioner = "metis";
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.drift_check_every_queries = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.publish_every_batches = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.tracker.window_queries = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  // Nested drift options are validated through the same contract.
  opts = ServiceOptions();
  opts.drift.reaction_passes = 0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);

  opts = ServiceOptions();
  opts.drift.detector.fire_threshold = 2.0;
  EXPECT_EQ(ValidateServiceOptions(opts).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServingOptionsTest, SanitizeClampsEveryFieldValidateRejects) {
  ServiceOptions opts;
  opts.loom.partitioner.k = 0;
  opts.partitioner = "no-such-partitioner";
  opts.drift_check_every_queries = 0;
  opts.publish_every_batches = 0;
  opts.tracker.window_queries = 0;
  opts.drift.reaction_passes = 0;
  opts.drift.max_migration_fraction = std::nan("");
  const ServiceOptions sane = SanitizeServiceOptions(opts);
  EXPECT_TRUE(ValidateServiceOptions(sane).ok());
  EXPECT_EQ(sane.loom.partitioner.k, 1u);
  EXPECT_EQ(sane.partitioner, "loom");
  EXPECT_EQ(sane.drift_check_every_queries, 1u);
  EXPECT_EQ(sane.publish_every_batches, 1u);
  EXPECT_EQ(sane.tracker.window_queries, 1u);
  EXPECT_EQ(sane.drift.reaction_passes, 1u);
  EXPECT_EQ(sane.drift.max_migration_fraction, 0.0);  // migration frozen
  for (const double slack : {std::nan(""), -1.0, 0.5, HUGE_VAL}) {
    opts.loom.partitioner.capacity_slack = slack;
    EXPECT_EQ(SanitizeServiceOptions(opts).loom.partitioner.capacity_slack,
              1.0)
        << slack;
  }
}

TEST(ServingOptionsTest, UniformContractAcrossTheOptionsFamily) {
  // The same Validate/Sanitize pairing holds for the restream and drift
  // structs the service composes.
  RestreamOptions ropts;
  ropts.num_passes = 0;
  EXPECT_EQ(ValidateRestreamOptions(ropts).code(),
            StatusCode::kInvalidArgument);
  EXPECT_GE(SanitizeRestreamOptions(ropts).num_passes, 1u);

  DriftControllerOptions dopts;
  dopts.detector.clear_threshold = 0.9;  // above fire_threshold: inverted
  EXPECT_EQ(ValidateDriftControllerOptions(dopts).code(),
            StatusCode::kInvalidArgument);
  const DriftControllerOptions sane = SanitizeDriftControllerOptions(dopts);
  EXPECT_TRUE(ValidateDriftControllerOptions(sane).ok());
  EXPECT_LE(sane.detector.clear_threshold, sane.detector.fire_threshold);
}

TEST(ServingOptionsTest, CreateRejectsInvalidOptions) {
  ServiceOptions opts;
  opts.publish_every_batches = 0;
  auto created = Service::Create(SmallWorkload(), opts);
  EXPECT_FALSE(created.ok());
  EXPECT_TRUE(created.status().code() == StatusCode::kInvalidArgument);
}

TEST(ServingOptionsTest, CreateRejectsInvalidLoomOptions) {
  // The service builds LOOM through the partitioner factory, which refuses
  // what Loom::Create refuses: a zero window, and a frequency threshold
  // that is negative or NaN.
  ServiceOptions zero_window;
  zero_window.loom.partitioner.window_size = 0;
  ServiceOptions negative_threshold;
  negative_threshold.loom.matcher.frequency_threshold = -1.0;
  ServiceOptions nan_threshold;
  nan_threshold.loom.matcher.frequency_threshold = std::nan("");
  for (const ServiceOptions& bad :
       {zero_window, negative_threshold, nan_threshold}) {
    auto created = Service::Create(SmallWorkload(), bad);
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);
  }
}

// ------------------------------------------------- ingest + rejection path

TEST(ServingIngestTest, InvalidBatchesAreRejectedWholeAndCounted) {
  const Scenario s = MakeScenario(400, 7);
  auto created = Service::Create(SmallWorkload(), BaseOptions(s, 4));
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  // Self-loop back edge: reject, apply nothing.
  std::vector<VertexArrival> bad(2);
  bad[0].vertex = 0;
  bad[1].vertex = 1;
  bad[1].back_edges = {1};
  EXPECT_TRUE(service.Ingest(bad).code() == StatusCode::kInvalidArgument);

  // Invalid vertex id: same.
  bad[1].vertex = kInvalidVertex;
  bad[1].back_edges = {0};
  EXPECT_TRUE(service.Ingest(bad).code() == StatusCode::kInvalidArgument);

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected_batches, 2u);
  EXPECT_EQ(stats.ingested_vertices, 0u);
  EXPECT_EQ(stats.ingested_batches, 0u);

  // Empty batches are a no-op, not an error.
  EXPECT_TRUE(service.Ingest(nullptr, 0).ok());
  EXPECT_TRUE((*created)->Seal().ok());
}

// A vertex labelled outside the alphabet would sit in a partition that no
// `Touches` could route to, so the batch carrying it is rejected whole.
TEST(ServingIngestTest, OutOfAlphabetLabelRejectsTheBatch) {
  Workload workload;
  (void)workload.Add("path", PathQuery({0, 1, 0}), 1.0);
  workload.Normalize();
  ServiceOptions opts;
  opts.loom.partitioner.k = 2;
  auto created = Service::Create(workload, opts);  // alphabet {0, 1}
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  std::vector<VertexArrival> batch(2);
  batch[0].vertex = 0;
  batch[0].label = 1;
  batch[1].vertex = 1;
  batch[1].label = 3;
  batch[1].back_edges = {0};
  EXPECT_EQ(service.Ingest(batch).code(), StatusCode::kInvalidArgument);
  const GraphStream stream(batch);
  StreamCursor cursor(stream);
  EXPECT_EQ(service.IngestSource(cursor).code(),
            StatusCode::kInvalidArgument);
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.rejected_batches, 2u);
  EXPECT_EQ(stats.ingested_batches, 0u);

  // The in-alphabet arrival alone is accepted and placed.
  batch.resize(1);
  ASSERT_TRUE(service.Ingest(batch).ok());
  ASSERT_TRUE(service.Seal().ok());
  EXPECT_GE(service.Locate(0), 0);
  EXPECT_EQ(service.Locate(1), -1);
  stats = service.Stats();
  EXPECT_EQ(stats.ingested_vertices, 1u);
  EXPECT_EQ(stats.rejected_batches, 2u);

  // Routing and the drift loop agree that label 3 is not in the alphabet.
  EXPECT_TRUE(service.Touches(PathQuery({3, 3})).empty());
  EXPECT_EQ(service.ObserveQuery(PathQuery({3, 3})).code(),
            StatusCode::kInvalidArgument);
}

TEST(ServingIngestTest, SealStopsIngestAndIsNotRepeatable) {
  const Scenario s = MakeScenario(300, 11);
  auto created = Service::Create(SmallWorkload(), BaseOptions(s, 4));
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  ASSERT_TRUE(service.Seal().ok());
  EXPECT_TRUE(service.Stats().sealed);
  EXPECT_EQ(service.Stats().ingested_vertices, s.g.NumVertices());

  EXPECT_EQ(service.Ingest(s.stream.arrivals()).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Seal().code(), StatusCode::kFailedPrecondition);
  // Reads stay valid after sealing.
  EXPECT_GE(service.Locate(0), 0);
}

// The tentpole equivalence: batched ingest through the single pipeline
// worker must be result-identical to the serial pipeline on the same
// stream, for every batch size.
TEST(ServingIngestTest, BatchedIngestMatchesSerialPipelineBitForBit) {
  const Scenario s = MakeScenario(800, 13);
  const Workload workload = SmallWorkload();

  for (const char* name : {"ldg", "loom"}) {
    // Serial reference: the same partitioner fed by Run(stream).
    ServiceOptions ref_opts = BaseOptions(s, 6);
    ref_opts.partitioner = name;
    auto trie = BuildTrie(workload, ref_opts.loom.paths_only);
    ASSERT_TRUE(trie.ok());
    auto serial = MakePartitioner(name, ref_opts.loom, trie->get());
    ASSERT_TRUE(serial.ok());
    (*serial)->Run(s.stream);
    const PartitionAssignment& want = (*serial)->assignment();

    for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
      ServiceOptions opts = BaseOptions(s, 6);
      opts.partitioner = name;
      opts.enable_drift_reactions = false;
      opts.publish_every_batches = 3;
      auto created = Service::Create(workload, opts);
      ASSERT_TRUE(created.ok());
      Service& service = **created;

      const std::vector<VertexArrival>& arrivals = s.stream.arrivals();
      for (size_t off = 0; off < arrivals.size(); off += batch_size) {
        const size_t count = std::min(batch_size, arrivals.size() - off);
        ASSERT_TRUE(service.Ingest(arrivals.data() + off, count).ok());
      }
      ASSERT_TRUE(service.Seal().ok());

      const PlacementSnapshot* snapshot = service.Snapshot();
      ASSERT_NE(snapshot, nullptr);
      ASSERT_EQ(snapshot->num_assigned, want.NumAssigned())
          << name << " batch=" << batch_size;
      for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
        ASSERT_EQ(snapshot->Locate(v), want.PartOf(v))
            << name << " batch=" << batch_size << " vertex=" << v;
      }
      EXPECT_EQ(service.Stats().assign_errors, 0u);
    }
  }
}

TEST(ServingIngestTest, IngestSourceMatchesBatchedIngest) {
  // The ArrivalSource bridge: draining a cursor (here a StreamCursor, in
  // production an mmap-ed stream file or a generator) must place every
  // vertex exactly where the equivalent hand-batched Ingest calls would.
  const Scenario s = MakeScenario(600, 17);
  const Workload workload = SmallWorkload();

  ServiceOptions opts = BaseOptions(s, 6);
  opts.enable_drift_reactions = false;
  auto reference = Service::Create(workload, opts);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE((*reference)->Ingest(s.stream.arrivals()).ok());
  ASSERT_TRUE((*reference)->Seal().ok());
  const PlacementSnapshot* want = (*reference)->Snapshot();
  ASSERT_NE(want, nullptr);

  for (const size_t batch_size : {size_t{1}, size_t{50}, size_t{100000}}) {
    auto created = Service::Create(workload, opts);
    ASSERT_TRUE(created.ok());
    Service& service = **created;
    StreamCursor cursor(s.stream);
    ASSERT_TRUE(service.IngestSource(cursor, batch_size).ok());
    ASSERT_TRUE(service.Seal().ok());

    const PlacementSnapshot* got = service.Snapshot();
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->num_assigned, want->num_assigned);
    for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
      ASSERT_EQ(got->Locate(v), want->Locate(v))
          << "batch=" << batch_size << " vertex=" << v;
    }
    EXPECT_EQ(service.Stats().ingested_vertices, s.g.NumVertices());
  }
}

// Both ingest paths copy each batch into one flat stream, which the
// pipeline appends to the service's recording in bulk; a drift reaction
// replays that recording. Fed the same arrivals in the same batches, either
// path must publish the same placement through a reaction, and the reaction
// must sweep the cut of the whole stream.
TEST(ServingIngestTest, IngestAndIngestSourceRecordTheSameStream) {
  Workload drifted;
  (void)drifted.Add("tri", TriangleQuery(2, 3, 2), 2.0);
  (void)drifted.Add("star", StarQuery(3, {2, 2}), 1.0);
  drifted.Normalize();
  const uint32_t n = 1200;
  Scenario s;
  Rng rng(41);
  s.g = MakeGraph(GraphKind::kBarabasiAlbert, n, 6, LabelConfig{4, 0.2}, rng);
  PlantWorkloadMotifs(&s.g, SmallWorkload(), n / 24, rng,
                      /*locality_span=*/48);
  PlantWorkloadMotifs(&s.g, drifted, n / 24, rng, /*locality_span=*/48);
  s.stream = MakeStream(s.g, StreamOrder::kDfs, rng);
  const std::vector<VertexArrival> records = s.stream.arrivals();

  ServiceOptions opts = BaseOptions(s, 4);
  opts.publish_every_batches = 1;
  opts.drift_check_every_queries = 8;
  opts.tracker.window_queries = 32;
  // The reaction starts from the placement a serial pass makes.
  auto trie = BuildTrie(SmallWorkload(), opts.loom.paths_only);
  ASSERT_TRUE(trie.ok());
  auto serial = MakePartitioner("loom", opts.loom, trie->get());
  ASSERT_TRUE(serial.ok());
  (*serial)->Run(s.stream);
  StreamCursor sweep(s.stream);
  const double cut_before = EdgeCutFraction(sweep, (*serial)->assignment());

  for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
    std::vector<std::vector<int32_t>> placements;
    for (const bool from_source : {false, true}) {
      SCOPED_TRACE(testing::Message() << "batch=" << batch_size
                                      << " from_source=" << from_source);
      auto created = Service::Create(SmallWorkload(), opts);
      ASSERT_TRUE(created.ok());
      Service& service = **created;
      if (from_source) {
        StreamCursor cursor(s.stream);
        ASSERT_TRUE(service.IngestSource(cursor, batch_size).ok());
      } else {
        for (size_t off = 0; off < records.size(); off += batch_size) {
          const size_t count = std::min(batch_size, records.size() - off);
          ASSERT_TRUE(service.Ingest(records.data() + off, count).ok());
        }
      }
      service.Flush();
      for (int q = 0; q < 2000 && service.Stats().drift_fires == 0; ++q) {
        const LabeledGraph& pattern = drifted.queries()[q % 2].pattern;
        ASSERT_TRUE(service.ObserveQuery(pattern).ok());
      }
      ASSERT_TRUE(service.Seal().ok());

      const ServiceStats stats = service.Stats();
      EXPECT_EQ(stats.ingested_vertices, n);
      ASSERT_EQ(stats.drift_reactions, 1u);
      EXPECT_EQ(stats.last_reaction_edge_cut_before, cut_before);
      std::vector<int32_t> placement;
      for (VertexId v = 0; v < n; ++v) placement.push_back(service.Locate(v));
      placements.push_back(std::move(placement));
    }
    EXPECT_EQ(placements[0], placements[1]) << "batch=" << batch_size;
  }
}

// Each publish writes only the vertices placed since the last one; after
// every batch the live table must still equal the whole assignment of a
// serial partitioner fed the same prefix.
TEST(ServingIngestTest, PublishedPlacementMatchesSerialPrefixAfterEveryBatch) {
  const Scenario s = MakeScenario(500, 29);
  const Workload workload = SmallWorkload();
  const std::vector<VertexArrival>& arrivals = s.stream.arrivals();

  for (const char* name : {"ldg", "loom"}) {
    for (const size_t batch_size : {size_t{1}, size_t{7}, size_t{64}}) {
      ServiceOptions opts = BaseOptions(s, 6);
      opts.partitioner = name;
      opts.enable_drift_reactions = false;
      opts.publish_every_batches = 1;
      auto trie = BuildTrie(workload, opts.loom.paths_only);
      ASSERT_TRUE(trie.ok());
      auto serial = MakePartitioner(name, opts.loom, trie->get());
      ASSERT_TRUE(serial.ok());
      auto created = Service::Create(workload, opts);
      ASSERT_TRUE(created.ok());
      Service& service = **created;

      for (size_t off = 0; off < arrivals.size(); off += batch_size) {
        const size_t end = std::min(off + batch_size, arrivals.size());
        for (size_t i = off; i < end; ++i) {
          (*serial)->OnVertex(arrivals[i].vertex, arrivals[i].label,
                              arrivals[i].back_edges);
        }
        ASSERT_TRUE(service.Ingest(arrivals.data() + off, end - off).ok());
        service.Flush();
        const PartitionAssignment& want = (*serial)->assignment();
        for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
          ASSERT_EQ(service.Locate(v), want.PartOf(v))
              << name << " batch=" << batch_size << " prefix=" << end
              << " vertex=" << v;
        }
      }
      ASSERT_TRUE(service.Seal().ok());
    }
  }
}

// --------------------------------------------------- reads vs. ground truth

TEST(ServingQueryTest, LocateAndTouchesMatchTheQueryEngineGroundTruth) {
  const Scenario s = MakeScenario(900, 17);
  const Workload workload = SmallWorkload();
  ServiceOptions opts = BaseOptions(s, 6);
  opts.enable_drift_reactions = false;
  auto created = Service::Create(workload, opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;
  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  ASSERT_TRUE(service.Seal().ok());

  // Rebuild the assignment from the published snapshot; Locate must agree.
  const PlacementSnapshot* snapshot = service.Snapshot();
  ASSERT_NE(snapshot, nullptr);
  PartitionAssignment assignment(snapshot->k, /*capacity=*/0);
  for (VertexId v = 0; v < s.g.NumVertices(); ++v) {
    const int32_t part = service.Locate(v);
    ASSERT_GE(part, 0);
    ASSERT_TRUE(assignment.Assign(v, static_cast<uint32_t>(part)).ok());
  }

  // Touches must be a superset of every partition the matcher actually
  // visits executing the query (soundness of the broadcast set).
  for (const QuerySpec& q : workload.queries()) {
    const std::vector<uint32_t> touches = service.Touches(q.pattern);
    EXPECT_TRUE(std::is_sorted(touches.begin(), touches.end()));
    std::set<uint32_t> visited;
    const TraversalObserver observer = [&](VertexId from, VertexId to,
                                           bool /*cross*/) {
      visited.insert(static_cast<uint32_t>(assignment.PartOf(from)));
      visited.insert(static_cast<uint32_t>(assignment.PartOf(to)));
    };
    const QueryExecutionStats stats = ExecuteQuery(
        s.g, assignment, q.pattern, /*max_embeddings=*/5000,
        /*replicas=*/nullptr, observer);
    EXPECT_GT(stats.total_traversals, 0u) << q.name;
    for (const uint32_t part : visited) {
      EXPECT_TRUE(
          std::binary_search(touches.begin(), touches.end(), part))
          << q.name << " visited partition " << part
          << " missing from Touches";
    }
  }

  // Unknown vertices are -1, not garbage.
  EXPECT_EQ(service.Locate(static_cast<VertexId>(s.g.NumVertices() + 1000)),
            -1);
}

// ----------------------------------------------- snapshots under concurrency

TEST(ServingSnapshotTest, EpochsAreMonotoneAndSizesStayConsistent) {
  const Scenario s = MakeScenario(600, 19);
  ServiceOptions opts = BaseOptions(s, 4);
  opts.enable_drift_reactions = false;
  opts.publish_every_batches = 1;
  auto created = Service::Create(SmallWorkload(), opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;

  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const PlacementSnapshot* snap = service.Snapshot();
        if (snap == nullptr) continue;
        // Epochs only move forward, and every snapshot is internally
        // consistent: the per-partition sizes sum to the assigned count.
        if (snap->epoch < last_epoch) torn.store(true);
        last_epoch = snap->epoch;
        size_t total = 0;
        for (const uint32_t size : snap->sizes) total += size;
        if (total != snap->num_assigned) torn.store(true);
      }
    });
  }

  const std::vector<VertexArrival>& arrivals = s.stream.arrivals();
  for (size_t off = 0; off < arrivals.size(); off += 32) {
    ASSERT_TRUE(service
                    .Ingest(arrivals.data() + off,
                            std::min<size_t>(32, arrivals.size() - off))
                    .ok());
  }
  ASSERT_TRUE(service.Seal().ok());
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_FALSE(torn.load());
  const ServiceStats stats = service.Stats();
  EXPECT_GE(stats.snapshots_published,
            arrivals.size() / 32 / opts.publish_every_batches);
  EXPECT_EQ(stats.snapshot_epoch + 1, stats.snapshots_published);
}

// Readers sweep every id while the pipeline ingests and publishes: in the
// first round the placement table grows, in the second a drift reaction
// moves vertices. Per reader, a placed vertex never reads -1 again; without
// reactions a placement never changes; snapshot epochs never decrease and
// every snapshot is internally consistent.
TEST(ServingSnapshotTest, LocateIsMonotoneUnderIngestAndReaction) {
  // Label-{2,3} traffic, far from SmallWorkload's label-{0,1} reference,
  // planted too so that the reaction has vertices to move.
  Workload drifted;
  (void)drifted.Add("tri", TriangleQuery(2, 3, 2), 2.0);
  (void)drifted.Add("star", StarQuery(3, {2, 2}), 1.0);
  drifted.Normalize();
  const uint32_t n = 2500;
  Scenario s;
  Rng rng(31);
  s.g = MakeGraph(GraphKind::kBarabasiAlbert, n, 6, LabelConfig{4, 0.2}, rng);
  PlantWorkloadMotifs(&s.g, SmallWorkload(), n / 24, rng,
                      /*locality_span=*/48);
  PlantWorkloadMotifs(&s.g, drifted, n / 24, rng, /*locality_span=*/48);
  s.stream = MakeStream(s.g, StreamOrder::kDfs, rng);
  const std::vector<VertexArrival>& arrivals = s.stream.arrivals();

  for (const bool reactions : {false, true}) {
    ServiceOptions opts = BaseOptions(s, 4);
    // Without a size hint the table starts small and grows under the
    // readers; with it, capacities are tight enough that the reaction
    // moves vertices.
    if (!reactions) opts.loom.partitioner.num_vertices_hint = 0;
    opts.enable_drift_reactions = reactions;
    opts.publish_every_batches = 1;
    opts.drift_check_every_queries = 8;
    opts.tracker.window_queries = 32;
    auto created = Service::Create(SmallWorkload(), opts);
    ASSERT_TRUE(created.ok());
    Service& service = **created;

    std::atomic<bool> stop{false};
    std::atomic<uint32_t> unplaced{0};
    std::atomic<uint32_t> moved{0};
    std::atomic<uint32_t> inconsistent{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&] {
        std::vector<int32_t> seen(n, -1);
        uint64_t last_epoch = 0;
        while (!stop.load(std::memory_order_acquire)) {
          for (VertexId v = 0; v < n; ++v) {
            const int32_t part = service.Locate(v);
            if (seen[v] >= 0 && part < 0) unplaced.fetch_add(1);
            if (!reactions && seen[v] >= 0 && part != seen[v]) {
              moved.fetch_add(1);
            }
            seen[v] = part;
          }
          const PlacementSnapshot* snap = service.Snapshot();
          size_t total = 0;
          for (const uint32_t size : snap->sizes) total += size;
          if (snap->epoch < last_epoch || total != snap->num_assigned) {
            inconsistent.fetch_add(1);
          }
          last_epoch = snap->epoch;
        }
      });
    }

    // First half, then drifted traffic until the detector fires (with
    // reactions on), then the rest of the stream behind the reaction.
    const size_t half = arrivals.size() / 2;
    std::vector<int32_t> before_reaction;
    for (size_t off = 0; off < arrivals.size(); off += 16) {
      if (off == half / 16 * 16 && reactions) {
        service.Flush();
        for (VertexId v = 0; v < n; ++v) {
          before_reaction.push_back(service.Locate(v));
        }
        for (int q = 0; q < 2000 && service.Stats().drift_fires == 0; ++q) {
          const LabeledGraph& pattern = drifted.queries()[q % 2].pattern;
          ASSERT_TRUE(service.ObserveQuery(pattern).ok());
        }
      }
      const size_t count = std::min<size_t>(16, arrivals.size() - off);
      ASSERT_TRUE(service.Ingest(arrivals.data() + off, count).ok());
    }
    ASSERT_TRUE(service.Seal().ok());
    stop.store(true, std::memory_order_release);
    for (std::thread& t : readers) t.join();

    EXPECT_EQ(unplaced.load(), 0u) << "reactions=" << reactions;
    EXPECT_EQ(moved.load(), 0u);
    EXPECT_EQ(inconsistent.load(), 0u) << "reactions=" << reactions;
    const ServiceStats stats = service.Stats();
    EXPECT_EQ(stats.drift_reactions, reactions ? 1u : 0u);
    for (VertexId v = 0; v < n; ++v) {
      ASSERT_GE(service.Locate(v), 0) << "reactions=" << reactions;
    }
    if (reactions) {
      // The reaction migrated vertices, and the table shows the moves.
      EXPECT_GT(stats.last_reaction_migration_fraction, 0.0);
      size_t moved_by_reaction = 0;
      for (VertexId v = 0; v < n; ++v) {
        const int32_t before = before_reaction[v];
        if (before >= 0 && service.Locate(v) != before) ++moved_by_reaction;
      }
      EXPECT_GT(moved_by_reaction, 0u);
    }
  }
}

// --------------------------------------------------------- drift reactions

TEST(ServingDriftTest, ScenarioServesQueriesWhileTheReactionRuns) {
  ServingScenarioConfig config;
  // Large enough that the serial reaction runs for several milliseconds.
  config.n = 10000;
  config.num_clients = 4;
  config.arrivals_per_second = 200000.0;
  const ServingScenarioResult r = RunServingScenario(config);

  ASSERT_TRUE(r.ok) << "reactions=" << r.drift_reactions
                    << " assign_errors=" << r.assign_errors
                    << " ingested=" << r.ingested_vertices;
  EXPECT_GE(r.drift_fires, 1u);
  EXPECT_GE(r.drift_reactions, 1u);
  EXPECT_GT(r.queries_during_reaction, 0u)
      << "reads must proceed while the pipeline worker repartitions";
  EXPECT_EQ(r.assign_errors, 0u);
  EXPECT_GT(r.locate_queries, 0u);
  EXPECT_GT(r.touches_queries, 0u);
  // The reaction improved (or at worst kept) the cut: keep-best adoption.
  EXPECT_LE(r.reaction_cut_after, r.reaction_cut_before + 1e-12);
}

TEST(ServingDriftTest, StableWorkloadNeverTriggersAReaction) {
  const Scenario s = MakeScenario(500, 23);
  const Workload workload = SmallWorkload();
  ServiceOptions opts = BaseOptions(s, 4);
  opts.drift_check_every_queries = 8;
  auto created = Service::Create(workload, opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;
  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  service.Flush();

  // Traffic matching the reference distribution: checks run, nothing fires.
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    const QuerySpec& q = workload.queries()[workload.SampleIndex(rng)];
    ASSERT_TRUE(service.ObserveQuery(q.pattern).ok());
  }
  ASSERT_TRUE(service.Seal().ok());

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.drift_checks, 0u);
  EXPECT_EQ(stats.drift_fires, 0u);
  EXPECT_EQ(stats.drift_reactions, 0u);
  EXPECT_EQ(stats.observed_queries, 200u);
}

// The tracker weaves queries in the mode of the trie the drift reference
// was built from. A paths-only service fed its own workload must stay
// quiet: a full-motif summary of that traffic would read as drift against
// the paths-only reference, and a reaction would re-point LOOM at a
// full-motif snapshot.
TEST(ServingDriftTest, PathsOnlyServiceIsQuietOnItsOwnWorkload) {
  const Scenario s = MakeScenario(500, 23);
  Workload workload;
  ASSERT_TRUE(workload.Add("triangle", TriangleQuery(0, 1, 2), 1.0).ok());
  ASSERT_TRUE(workload.Add("path", PathQuery({0, 1, 2}), 1.0).ok());
  workload.Normalize();
  ServiceOptions opts = BaseOptions(s, 4);
  opts.loom.paths_only = true;
  opts.drift_check_every_queries = 8;
  opts.tracker.window_queries = 64;
  auto created = Service::Create(workload, opts);
  ASSERT_TRUE(created.ok());
  Service& service = **created;
  ASSERT_TRUE(service.Ingest(s.stream.arrivals()).ok());
  service.Flush();

  Rng rng(3);
  for (int i = 0; i < 2000; ++i) {
    const QuerySpec& q = workload.queries()[workload.SampleIndex(rng)];
    ASSERT_TRUE(service.ObserveQuery(q.pattern).ok());
  }
  ASSERT_TRUE(service.Seal().ok());

  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.drift_checks, 250u);
  EXPECT_EQ(stats.drift_fires, 0u);
  EXPECT_EQ(stats.drift_reactions, 0u);
}

}  // namespace
}  // namespace loom
