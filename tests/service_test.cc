// Tests for the concurrent serving layer: ingest/flush semantics, epoch
// snapshot isolation, affected-area cache invalidation, backpressure, and
// the headline multi-threaded consistency property — N writers + M readers
// running concurrently must leave the service exactly equal (to 1e-9) to a
// fresh batch-built index on the final graph once Flush() returns. The
// whole suite is TSan-clean; CI runs it under -fsanitize=thread.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <map>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "datasets/datasets.h"
#include "graph/generators.h"
#include "graph/update_stream.h"
#include "la/score_store.h"
#include "service/query_cache.h"
#include "service/simrank_service.h"
#include "service/topk_index.h"

namespace incsr::service {
namespace {

using core::DynamicSimRank;
using core::ScoredPair;
using graph::DynamicDiGraph;
using graph::EdgeUpdate;
using graph::UpdateKind;

simrank::SimRankOptions Converged(double damping = 0.6) {
  simrank::SimRankOptions options;
  options.damping = damping;
  options.iterations =
      static_cast<int>(std::log(1e-13) / std::log(damping)) + 2;
  return options;
}

DynamicDiGraph TestGraph(std::uint64_t seed = 3, std::size_t n = 16,
                         std::size_t m = 40) {
  auto stream = graph::ErdosRenyiGnm(n, m, seed);
  INCSR_CHECK(stream.ok(), "generator");
  return graph::MaterializeGraph(n, stream.value());
}

std::unique_ptr<SimRankService> MakeService(const DynamicDiGraph& graph,
                                            ServiceOptions options = {}) {
  auto index = DynamicSimRank::Create(graph, Converged());
  INCSR_CHECK(index.ok(), "index build");
  auto service = SimRankService::Create(std::move(index).value(), options);
  INCSR_CHECK(service.ok(), "service build");
  return std::move(service).value();
}

la::DenseMatrix OracleScores(const DynamicDiGraph& graph) {
  auto oracle = DynamicSimRank::Create(graph, Converged());
  INCSR_CHECK(oracle.ok(), "oracle build");
  return oracle->scores().ToDense();
}

TEST(SimRankService, CreateRejectsBadOptions) {
  auto index = DynamicSimRank::Create(TestGraph(), Converged());
  ASSERT_TRUE(index.ok());
  ServiceOptions bad;
  bad.queue_capacity = 0;
  EXPECT_EQ(SimRankService::Create(std::move(index).value(), bad).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SimRankService, ServesInitialEpochBeforeAnyUpdate) {
  DynamicDiGraph graph = TestGraph(7);
  auto service = MakeService(graph);
  auto snap = service->Snapshot();
  EXPECT_EQ(snap->epoch, 0u);
  EXPECT_EQ(snap->graph.num_edges(), graph.num_edges());
  EXPECT_LT(la::MaxAbsDiff(snap->scores, OracleScores(graph)), 1e-11);

  auto score = service->Score(0, 1);
  ASSERT_TRUE(score.ok());
  EXPECT_DOUBLE_EQ(score.value(), snap->scores(0, 1));
  EXPECT_EQ(service->Score(-1, 0).status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(service->TopKFor(99, 3).status().code(), StatusCode::kOutOfRange);
}

TEST(SimRankService, SerialIngestMatchesOracleAfterFlush) {
  DynamicDiGraph graph = TestGraph(11, 16, 40);
  auto service = MakeService(graph);

  Rng rng(5);
  auto inserts = graph::SampleInsertions(graph, 8, &rng);
  ASSERT_TRUE(inserts.ok());
  auto deletions = graph::SampleDeletions(graph, 4, &rng);
  ASSERT_TRUE(deletions.ok());
  std::vector<EdgeUpdate> updates = inserts.value();
  updates.insert(updates.end(), deletions->begin(), deletions->end());

  ASSERT_TRUE(service->SubmitBatch(updates).ok());
  ASSERT_TRUE(service->Flush().ok());

  DynamicDiGraph final_graph = graph;
  ASSERT_TRUE(graph::ApplyUpdates(updates, &final_graph).ok());
  auto snap = service->Snapshot();
  EXPECT_GE(snap->epoch, 1u);
  EXPECT_EQ(snap->graph.Edges(), final_graph.Edges());
  EXPECT_LT(la::MaxAbsDiff(snap->scores, OracleScores(final_graph)), 1e-9);

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, updates.size());
  EXPECT_EQ(stats.applied, updates.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.queue_depth, 0u);
}

// The acceptance-criteria test: N writer threads enqueue a random update
// stream while M reader threads query concurrently; after Flush() the
// served scores equal a fresh batch build on the final graph to 1e-9.
TEST(SimRankService, ConcurrentWritersAndReadersMatchOracle) {
  constexpr int kWriters = 3;
  constexpr int kReaders = 2;
  DynamicDiGraph graph = TestGraph(21, 24, 60);
  ServiceOptions options;
  options.max_batch = 8;  // force several epochs
  auto service = MakeService(graph, options);

  // Insertions of distinct non-edges stay valid under every interleaving
  // of the writer threads (deletion validity would depend on order).
  Rng rng(17);
  auto sampled = graph::SampleInsertions(graph, 30, &rng);
  ASSERT_TRUE(sampled.ok());
  const std::vector<EdgeUpdate>& updates = sampled.value();

  std::atomic<bool> writers_done{false};
  std::atomic<std::uint64_t> reader_queries{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < updates.size(); i += kWriters) {
        Status s = service->Submit(updates[i]);
        INCSR_CHECK(s.ok(), "submit failed: %s", s.ToString().c_str());
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Rng reader_rng(100 + static_cast<std::uint64_t>(r));
      // do-while: at least one query each, even if the writers finish
      // before this thread is first scheduled.
      do {
        const auto node = static_cast<graph::NodeId>(
            reader_rng.NextBounded(graph.num_nodes()));
        auto top = service->TopKFor(node, 5);
        INCSR_CHECK(top.ok(), "TopKFor failed");
        INCSR_CHECK(top->size() <= 5, "TopKFor overshot k");
        auto score = service->Score(node, 0);
        INCSR_CHECK(score.ok(), "Score failed");
        INCSR_CHECK(score.value() >= -1e-12 && score.value() <= 1.0 + 1e-12,
                    "score out of [0, 1]");
        auto pairs = service->TopKPairs(10);
        INCSR_CHECK(pairs.size() <= 10, "TopKPairs overshot k");
        reader_queries.fetch_add(1, std::memory_order_relaxed);
      } while (!writers_done.load(std::memory_order_acquire));
    });
  }
  for (int w = 0; w < kWriters; ++w) threads[w].join();
  writers_done.store(true, std::memory_order_release);
  for (std::size_t t = kWriters; t < threads.size(); ++t) threads[t].join();

  ASSERT_TRUE(service->Flush().ok());

  DynamicDiGraph final_graph = graph;
  for (const EdgeUpdate& u : updates) {
    ASSERT_TRUE(final_graph.AddEdge(u.src, u.dst).ok());
  }
  auto snap = service->Snapshot();
  EXPECT_EQ(snap->graph.Edges(), final_graph.Edges());
  EXPECT_LT(la::MaxAbsDiff(snap->scores, OracleScores(final_graph)), 1e-9);

  // Post-flush queries see the final state, cache included.
  for (graph::NodeId q = 0; q < 4; ++q) {
    auto served = service->TopKFor(q, 5);
    ASSERT_TRUE(served.ok());
    EXPECT_EQ(served.value(), core::TopKForOf(snap->scores, q, 5));
  }

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.submitted, updates.size());
  EXPECT_EQ(stats.applied, updates.size());
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.epoch, 1u);
  EXPECT_GT(reader_queries.load(), 0u);
}

TEST(SimRankService, SelectiveCacheInvalidationAcrossComponents) {
  // Two disjoint 8-node components: SimRank never couples them, so an
  // update inside component A has an affected area wholly inside A and
  // must leave cached queries for component B warm.
  const std::size_t half = 8;
  auto stream_a = graph::ErdosRenyiGnm(half, 20, 3);
  auto stream_b = graph::ErdosRenyiGnm(half, 20, 4);
  ASSERT_TRUE(stream_a.ok() && stream_b.ok());
  DynamicDiGraph graph(2 * half);
  for (const auto& e : stream_a.value()) {
    ASSERT_TRUE(graph.AddEdge(e.edge.src, e.edge.dst).ok());
  }
  for (const auto& e : stream_b.value()) {
    ASSERT_TRUE(
        graph
            .AddEdge(e.edge.src + static_cast<graph::NodeId>(half),
                     e.edge.dst + static_cast<graph::NodeId>(half))
            .ok());
  }
  auto service = MakeService(graph);

  const graph::NodeId in_b = static_cast<graph::NodeId>(half) + 2;
  ASSERT_TRUE(service->TopKFor(in_b, 4).ok());  // warms the cache
  QueryCacheStats before = service->stats().cache;

  // An insert inside component A (nodes 0..7 only).
  EdgeUpdate update{UpdateKind::kInsert, 0, 5};
  if (graph.HasEdge(0, 5)) update = {UpdateKind::kDelete, 0, 5};
  ASSERT_TRUE(service->Submit(update).ok());
  ASSERT_TRUE(service->Flush().ok());

  auto again = service->TopKFor(in_b, 4);
  ASSERT_TRUE(again.ok());
  QueryCacheStats after = service->stats().cache;
  EXPECT_EQ(after.hits, before.hits + 1);  // entry survived the epoch bump
  // And the survivor is still exact for the new epoch.
  auto snap = service->Snapshot();
  EXPECT_EQ(again.value(), core::TopKForOf(snap->scores, in_b, 4));
}

TEST(SimRankService, PublishCostIsTouchedRowsNotN) {
  // Two disjoint 8-node components: an update inside component A has an
  // affected area wholly inside A, so the COW publish must copy at most
  // |A| rows — not the full n rows the old full-copy snapshot paid.
  const std::size_t half = 8;
  auto stream_a = graph::ErdosRenyiGnm(half, 20, 5);
  auto stream_b = graph::ErdosRenyiGnm(half, 20, 6);
  ASSERT_TRUE(stream_a.ok() && stream_b.ok());
  DynamicDiGraph graph(2 * half);
  for (const auto& e : stream_a.value()) {
    ASSERT_TRUE(graph.AddEdge(e.edge.src, e.edge.dst).ok());
  }
  for (const auto& e : stream_b.value()) {
    ASSERT_TRUE(
        graph
            .AddEdge(e.edge.src + static_cast<graph::NodeId>(half),
                     e.edge.dst + static_cast<graph::NodeId>(half))
            .ok());
  }
  auto service = MakeService(graph);
  EXPECT_EQ(service->stats().rows_published, 0u);  // epoch 0 copies nothing

  EdgeUpdate update{UpdateKind::kInsert, 0, 5};
  if (graph.HasEdge(0, 5)) update = {UpdateKind::kDelete, 0, 5};
  ASSERT_TRUE(service->Submit(update).ok());
  ASSERT_TRUE(service->Flush().ok());

  ServiceStats stats = service->stats();
  EXPECT_GT(stats.rows_published, 0u);
  EXPECT_LE(stats.rows_published, half);  // affected area stayed inside A
  EXPECT_EQ(stats.bytes_published,
            stats.rows_published * 2 * half * sizeof(double));
}

TEST(SimRankService, PinnedSnapshotStaysByteStableAcrossEpochs) {
  DynamicDiGraph graph = TestGraph(61, 16, 40);
  auto service = MakeService(graph);
  auto pinned = service->Snapshot();
  la::DenseMatrix pinned_bytes = pinned->scores.ToDense();

  Rng rng(19);
  auto inserts = graph::SampleInsertions(graph, 10, &rng);
  ASSERT_TRUE(inserts.ok());
  ASSERT_TRUE(service->SubmitBatch(inserts.value()).ok());
  ASSERT_TRUE(service->Flush().ok());

  // New epochs exist and the live snapshot moved on...
  auto latest = service->Snapshot();
  EXPECT_GT(latest->epoch, pinned->epoch);
  EXPECT_GT(la::MaxAbsDiff(latest->scores, pinned_bytes), 0.0);
  // ...but the pinned snapshot's bytes are exactly what they were.
  EXPECT_EQ(la::MaxAbsDiff(pinned->scores, pinned_bytes), 0.0);
}

TEST(SimRankService, InvalidUpdatesAreSkippedNotFatal) {
  DynamicDiGraph graph = TestGraph(31);
  auto edges = graph.Edges();
  ASSERT_FALSE(edges.empty());
  auto service = MakeService(graph);

  std::vector<EdgeUpdate> updates = {
      {UpdateKind::kInsert, edges[0].src, edges[0].dst},  // duplicate
      {UpdateKind::kDelete, 0, 0},                        // absent (no loop)
      {UpdateKind::kInsert, 500, 1},                      // bad node id
  };
  ASSERT_FALSE(graph.HasEdge(0, 0));
  ASSERT_TRUE(service->SubmitBatch(updates).ok());
  ASSERT_TRUE(service->Flush().ok());

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.failed, 3u);
  EXPECT_EQ(stats.applied, 0u);
  auto snap = service->Snapshot();
  EXPECT_EQ(snap->graph.Edges(), graph.Edges());
  EXPECT_LT(la::MaxAbsDiff(snap->scores, OracleScores(graph)), 1e-11);
}

TEST(SimRankService, RejectBackpressureSurfacesResourceExhausted) {
  DynamicDiGraph graph = TestGraph(41, 20, 50);
  ServiceOptions options;
  options.queue_capacity = 1;
  options.max_batch = 1;
  options.backpressure = BackpressurePolicy::kReject;
  auto service = MakeService(graph, options);

  Rng rng(9);
  auto inserts = graph::SampleInsertions(graph, 40, &rng);
  ASSERT_TRUE(inserts.ok());
  std::uint64_t rejected = 0;
  for (const EdgeUpdate& u : inserts.value()) {
    Status s = service->Submit(u);
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  ASSERT_TRUE(service->Flush().ok());
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.submitted, inserts->size() - rejected);
  EXPECT_EQ(stats.applied + stats.failed, stats.submitted);
}

TEST(SimRankService, StopDrainsQueueAndRefusesLateSubmits) {
  DynamicDiGraph graph = TestGraph(51);
  auto service = MakeService(graph);
  Rng rng(13);
  auto inserts = graph::SampleInsertions(graph, 6, &rng);
  ASSERT_TRUE(inserts.ok());
  ASSERT_TRUE(service->SubmitBatch(inserts.value()).ok());
  service->Stop();

  EXPECT_EQ(service->Submit({UpdateKind::kInsert, 0, 1}).code(),
            StatusCode::kFailedPrecondition);
  // All pre-stop updates were drained and published.
  DynamicDiGraph final_graph = graph;
  ASSERT_TRUE(graph::ApplyUpdates(inserts.value(), &final_graph).ok());
  auto snap = service->Snapshot();
  EXPECT_EQ(snap->graph.Edges(), final_graph.Edges());
  EXPECT_TRUE(service->Flush().ok());  // no-op barrier after stop
}

// ---- Per-node top-k index ------------------------------------------------

std::unique_ptr<SimRankService> MakeServiceThreads(const DynamicDiGraph& graph,
                                                   ServiceOptions options,
                                                   int num_threads) {
  simrank::SimRankOptions sr = Converged();
  sr.num_threads = num_threads;
  auto index = DynamicSimRank::Create(graph, sr);
  INCSR_CHECK(index.ok(), "index build");
  auto service = SimRankService::Create(std::move(index).value(), options);
  INCSR_CHECK(service.ok(), "service build");
  return std::move(service).value();
}

// Interleaved mixed churn stream: deletions of existing edges, insertions
// of non-edges — disjoint sets, so valid in any batch decomposition.
std::vector<EdgeUpdate> MixedStream(const DynamicDiGraph& graph,
                                    std::size_t deletions,
                                    std::size_t insertions,
                                    std::uint64_t seed) {
  Rng rng(seed);
  auto del = graph::SampleDeletions(graph, deletions, &rng);
  auto ins = graph::SampleInsertions(graph, insertions, &rng);
  INCSR_CHECK(del.ok() && ins.ok(), "sampling");
  std::vector<EdgeUpdate> mixed;
  std::size_t a = 0;
  std::size_t b = 0;
  while (a < del->size() || b < ins->size()) {
    if (a < del->size()) mixed.push_back((*del)[a++]);
    if (b < ins->size()) mixed.push_back((*ins)[b++]);
  }
  return mixed;
}

// The tentpole acceptance property: a TopKFor answered from the per-node
// index is BITWISE identical to TopKForOf on the same snapshot, across a
// mixed insert/delete churn stream, cache on/off, update-kernel threads
// 1 and 4, and k spanning the index-served (k <= capacity) and underfull
// fallback (k > capacity) paths — and every cache miss is accounted to
// exactly one of the two counters. Runs in the TSan CI job with the rest
// of this suite.
TEST(TopKIndexService, IndexVsOracleAcrossChurnCacheAndThreads) {
  constexpr std::size_t kIndexCapacity = 6;
  DynamicDiGraph graph = TestGraph(71, 20, 50);
  const std::size_t n = graph.num_nodes();
  std::vector<EdgeUpdate> stream = MixedStream(graph, 10, 14, 23);
  for (int threads : {1, 4}) {
    for (std::size_t cache_capacity : {std::size_t{0}, std::size_t{64}}) {
      ServiceOptions options;
      options.max_batch = 4;  // several epochs per run
      options.cache_capacity = cache_capacity;
      options.topk_index_capacity = kIndexCapacity;
      auto service = MakeServiceThreads(graph, options, threads);

      const std::size_t kk[] = {0, 1, 3, kIndexCapacity, kIndexCapacity + 1,
                                n - 1, n, n + 3};
      // Query between every few updates so results span many epochs.
      for (std::size_t next = 0; next <= stream.size(); next += 5) {
        for (std::size_t i = next; i < std::min(next + 5, stream.size());
             ++i) {
          ASSERT_TRUE(service->Submit(stream[i]).ok());
        }
        ASSERT_TRUE(service->Flush().ok());
        auto snap = service->Snapshot();
        for (std::size_t q = 0; q < n; ++q) {
          for (std::size_t k : kk) {
            auto got = service->TopKFor(static_cast<graph::NodeId>(q), k);
            ASSERT_TRUE(got.ok());
            ASSERT_EQ(got.value(),
                      core::TopKForOf(snap->scores,
                                      static_cast<graph::NodeId>(q), k))
                << "q=" << q << " k=" << k << " threads=" << threads
                << " cache=" << cache_capacity;
          }
        }
      }

      ServiceStats stats = service->stats();
      EXPECT_GT(stats.topk_index_served, 0u);
      EXPECT_GT(stats.topk_index_fallbacks, 0u);  // k > capacity occurred
      // Every TopKFor miss was answered by exactly one of the two paths.
      EXPECT_EQ(stats.cache.misses,
                stats.topk_index_served + stats.topk_index_fallbacks);
      if (cache_capacity > 0) EXPECT_GT(stats.cache.hits, 0u);
      // Initial build re-ranked all n rows; every epoch after re-ranked
      // exactly the rows the batch COW'd — nothing more.
      EXPECT_EQ(stats.topk_index_rows_reranked, n + stats.rows_published);
    }
  }
}

TEST(TopKIndexService, UnderfullEntriesFallBackToRowScan) {
  DynamicDiGraph graph = TestGraph(91, 16, 40);
  ServiceOptions options;
  options.cache_capacity = 0;  // every query is a miss
  options.topk_index_capacity = 3;
  auto service = MakeService(graph, options);

  auto served = service->TopKFor(2, 3);  // k == capacity: index answers
  ASSERT_TRUE(served.ok());
  auto fallback = service->TopKFor(2, 10);  // k > capacity: row scan
  ASSERT_TRUE(fallback.ok());
  auto snap = service->Snapshot();
  EXPECT_EQ(served.value(), core::TopKForOf(snap->scores, 2, 3));
  EXPECT_EQ(fallback.value(), core::TopKForOf(snap->scores, 2, 10));

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.topk_index_served, 1u);
  EXPECT_EQ(stats.topk_index_fallbacks, 1u);
}

// The pair merge serves each case's k from the index, bitwise equal to
// the pair scan, across churn. Two shapes: complete entries (capacity n,
// any k), and the default bounded entries at the k callers ask for, on a
// graph with n > capacity + 1 and the heavy-tailed shape of the serving
// benchmarks.
TEST(TopKIndexService, PairMergeStaysExactAcrossChurnAndCounts) {
  struct PairCase {
    DynamicDiGraph graph;
    std::vector<EdgeUpdate> stream;
    std::size_t capacity;
    std::vector<std::size_t> ks;
  };
  std::vector<PairCase> cases;
  {
    DynamicDiGraph graph = TestGraph(101, 18, 44);
    const std::size_t n = graph.num_nodes();
    std::vector<EdgeUpdate> stream = MixedStream(graph, 8, 10, 53);
    cases.push_back({std::move(graph), std::move(stream), n, {1, 7, n, n * n}});
  }
  {
    auto series = datasets::MakeDataset(
        datasets::DatasetKind::kDblp, {.scale = 0.01, .num_snapshots = 2});
    ASSERT_TRUE(series.ok());
    std::vector<EdgeUpdate> stream = series->DeltaBetween(0, 1);
    stream.resize(std::min<std::size_t>(stream.size(), 12));
    const std::size_t capacity = ServiceOptions{}.topk_index_capacity;
    ASSERT_LT(capacity + 1, series->GraphAt(0).num_nodes());
    cases.push_back({series->GraphAt(0), std::move(stream), capacity,
                     {10, 100}});
  }
  for (const PairCase& c : cases) {
    ServiceOptions options;
    options.cache_capacity = 0;  // every pair query is a miss
    options.topk_index_capacity = c.capacity;
    auto service = MakeService(c.graph, options);

    std::uint64_t queries = 0;
    for (std::size_t next = 0; next <= c.stream.size(); next += 6) {
      for (std::size_t i = next; i < std::min(next + 6, c.stream.size());
           ++i) {
        ASSERT_TRUE(service->Submit(c.stream[i]).ok());
      }
      ASSERT_TRUE(service->Flush().ok());
      auto snap = service->Snapshot();
      for (std::size_t k : c.ks) {
        ASSERT_EQ(service->TopKPairs(k), core::TopKPairsOf(snap->scores, k))
            << "k=" << k << " capacity=" << c.capacity << " after " << next
            << " updates";
        ++queries;
      }
    }
    ServiceStats stats = service->stats();
    EXPECT_EQ(stats.topk_pairs_served, queries) << "capacity=" << c.capacity;
    EXPECT_EQ(stats.topk_pairs_fallbacks, 0u) << "capacity=" << c.capacity;
  }
}

TEST(TopKIndexService, DeepPairQueriesFallBackPastBoundedEntries) {
  DynamicDiGraph graph = TestGraph(91, 16, 40);
  const std::size_t n = graph.num_nodes();
  ServiceOptions options;
  options.cache_capacity = 0;
  options.topk_index_capacity = 2;  // incomplete entries at n = 16
  auto service = MakeService(graph, options);
  auto snap = service->Snapshot();
  // k past the total pair count can never be proven by bounded entries.
  EXPECT_EQ(service->TopKPairs(n * n), core::TopKPairsOf(snap->scores, n * n));
  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.topk_pairs_fallbacks, 1u);
  EXPECT_EQ(stats.topk_pairs_served, 0u);
}

TEST(TopKIndexService, RerankCostIsTouchedRowsNotN) {
  // Two disjoint 8-node components (as in PublishCostIsTouchedRowsNotN):
  // an update inside component A must re-rank at most |A| index entries —
  // and in fact exactly the rows the batch copy-on-wrote.
  const std::size_t half = 8;
  auto stream_a = graph::ErdosRenyiGnm(half, 20, 5);
  auto stream_b = graph::ErdosRenyiGnm(half, 20, 6);
  ASSERT_TRUE(stream_a.ok() && stream_b.ok());
  DynamicDiGraph graph(2 * half);
  for (const auto& e : stream_a.value()) {
    ASSERT_TRUE(graph.AddEdge(e.edge.src, e.edge.dst).ok());
  }
  for (const auto& e : stream_b.value()) {
    ASSERT_TRUE(
        graph
            .AddEdge(e.edge.src + static_cast<graph::NodeId>(half),
                     e.edge.dst + static_cast<graph::NodeId>(half))
            .ok());
  }
  auto service = MakeService(graph);
  EXPECT_EQ(service->stats().topk_index_rows_reranked, 2 * half);  // build

  EdgeUpdate update{UpdateKind::kInsert, 0, 5};
  if (graph.HasEdge(0, 5)) update = {UpdateKind::kDelete, 0, 5};
  ASSERT_TRUE(service->Submit(update).ok());
  ASSERT_TRUE(service->Flush().ok());

  ServiceStats stats = service->stats();
  EXPECT_EQ(stats.topk_index_rows_reranked, 2 * half + stats.rows_published);
  EXPECT_LE(stats.topk_index_rows_reranked, 3 * half);  // stayed inside A
}

// ---- TopKFor/TopKPairs edge cases (k = 0, k >= n, single node,
// isolated node) pinned against the oracle, index on and off ---------------

TEST(SimRankService, TopKEdgeCasesMatchOracleIndexOnAndOff) {
  DynamicDiGraph graph = TestGraph(81, 12, 30);
  const std::size_t n = graph.num_nodes();
  for (std::size_t index_capacity : {std::size_t{0}, std::size_t{4096}}) {
    ServiceOptions options;
    options.topk_index_capacity = index_capacity;
    auto service = MakeService(graph, options);
    auto snap = service->Snapshot();

    auto zero = service->TopKFor(3, 0);  // k == 0: empty, not an error
    ASSERT_TRUE(zero.ok());
    EXPECT_TRUE(zero->empty());

    for (std::size_t k : {n - 1, n, n + 100}) {  // k >= n: all n-1 others
      auto all = service->TopKFor(3, k);
      ASSERT_TRUE(all.ok());
      EXPECT_EQ(all->size(), n - 1);
      EXPECT_EQ(all.value(), core::TopKForOf(snap->scores, 3, k));
    }

    EXPECT_TRUE(service->TopKPairs(0).empty());
    EXPECT_EQ(service->TopKPairs(n * n).size(), n * (n - 1) / 2);
  }
}

TEST(SimRankService, SingleNodeGraphServesEmptyTopK) {
  DynamicDiGraph graph(1);
  auto service = MakeService(graph);
  auto top = service->TopKFor(0, 5);
  ASSERT_TRUE(top.ok());
  EXPECT_TRUE(top->empty());
  EXPECT_TRUE(service->TopKPairs(5).empty());
  auto self = service->Score(0, 0);
  ASSERT_TRUE(self.ok());
  EXPECT_GT(self.value(), 0.0);  // s(v, v) = 1 - C
  EXPECT_EQ(service->TopKFor(1, 5).status().code(), StatusCode::kOutOfRange);
}

TEST(SimRankService, IsolatedNodeQueryIsAscendingZeroTail) {
  // Node n-1 is isolated: its row is exactly 0 off-diagonal, so TopKFor
  // must return the other nodes in ascending id order with score 0.0 —
  // identically from the index and from the row scan.
  auto stream = graph::ErdosRenyiGnm(6, 14, 9);
  ASSERT_TRUE(stream.ok());
  DynamicDiGraph graph(7);
  for (const auto& e : stream.value()) {
    ASSERT_TRUE(graph.AddEdge(e.edge.src, e.edge.dst).ok());
  }
  for (std::size_t index_capacity : {std::size_t{0}, std::size_t{4096}}) {
    ServiceOptions options;
    options.topk_index_capacity = index_capacity;
    auto service = MakeService(graph, options);
    auto top = service->TopKFor(6, 10);
    ASSERT_TRUE(top.ok());
    ASSERT_EQ(top->size(), 6u);
    for (std::size_t i = 0; i < top->size(); ++i) {
      EXPECT_EQ((*top)[i].b, static_cast<graph::NodeId>(i));
      EXPECT_EQ((*top)[i].score, 0.0);
    }
  }
}

// ---- ServiceStats aggregation (regression: epoch must not sum) -----------

// A ServiceStats whose listed metrics hold distinct values: the i-th
// scalar is start + i·step, the i-th histogram records three samples
// around that value.
ServiceStats DistinctStats(std::int64_t start, std::int64_t step) {
  ServiceStats stats;
  std::int64_t next = start;
  ForEachServiceMetric(
      [&](const char*, MetricRule, auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
          obs::Histogram hist;
          for (std::uint64_t k = 1; k <= 3; ++k) {
            hist.Record(static_cast<std::uint64_t>(next) * 1000 * k);
          }
          value = hist.snapshot();
        } else if constexpr (std::is_floating_point_v<T>) {
          value = static_cast<double>(next) + 0.5;
        } else {
          value = static_cast<T>(next);
        }
        next += step;
      },
      stats);
  return stats;
}

TEST(ServiceStats, AggregationTakesMaxEpochAndSumsCounters) {
  ServiceStats a;
  a.epoch = 7;
  a.applied = 3;
  a.topk_index_served = 2;
  ServiceStats b;
  b.epoch = 4;
  b.applied = 5;
  b.topk_index_fallbacks = 1;
  a += b;
  EXPECT_EQ(a.epoch, 7u);  // max, not 11
  EXPECT_EQ(a.applied, 8u);
  EXPECT_EQ(a.topk_index_served, 2u);
  EXPECT_EQ(a.topk_index_fallbacks, 1u);
  ServiceStats c;
  c.epoch = 9;
  a += c;
  EXPECT_EQ(a.epoch, 9u);

  // Every listed metric, by its rule: x ascends through the list and y
  // descends, so MAX and SUM disagree on every metric (and x < y on some,
  // x > y on others).
  ServiceStats x = DistinctStats(1, 1);
  ServiceStats y = DistinctStats(200, -3);
  ServiceStats sum = x;
  sum += y;
  ForEachServiceMetric(
      [](const char* name, MetricRule rule, const auto& lhs, const auto& rhs,
         const auto& total) {
        using T = std::decay_t<decltype(lhs)>;
        constexpr bool kHistogram = std::is_same_v<T, obs::HistogramSnapshot>;
        EXPECT_EQ(rule == MetricRule::kMerge, kHistogram) << name;
        if constexpr (kHistogram) {
          EXPECT_EQ(total.count, lhs.count + rhs.count) << name;
          EXPECT_EQ(total.sum, lhs.sum + rhs.sum) << name;
          EXPECT_EQ(total.min, std::min(lhs.min, rhs.min)) << name;
          EXPECT_EQ(total.max, std::max(lhs.max, rhs.max)) << name;
          for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
            EXPECT_EQ(total.buckets[i], lhs.buckets[i] + rhs.buckets[i])
                << name << " bucket " << i;
          }
        } else if (rule == MetricRule::kMax) {
          EXPECT_EQ(total, std::max(lhs, rhs)) << name;
        } else {
          EXPECT_EQ(total, lhs + rhs) << name;
        }
      },
      x, y, sum);
  // The two MAX rules of today's list.
  EXPECT_EQ(sum.epoch, std::max(x.epoch, y.epoch));
  EXPECT_EQ(sum.sparse_max_error_bound,
            std::max(x.sparse_max_error_bound, y.sparse_max_error_bound));
}

// The text dump names every listed metric exactly once (a histogram as
// its five derived lines) and prints each scalar's value.
TEST(ServiceStats, FormatEmitsEveryListedMetricOnce) {
  const ServiceStats stats = DistinctStats(1, 1);
  std::map<std::string, int> seen;
  std::map<std::string, std::string> values;
  std::istringstream dump(FormatServiceStats(stats));
  std::string line;
  while (std::getline(dump, line)) {
    const std::size_t space = line.find(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ++seen[line.substr(0, space)];
    values[line.substr(0, space)] = line.substr(space + 1);
  }
  std::size_t expected_lines = 0;
  ForEachServiceMetric(
      [&](const char* name, MetricRule, const auto& value) {
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
          for (const char* suffix : {".p50", ".p99", ".mean", ".max",
                                     ".count"}) {
            EXPECT_EQ(seen[std::string(name) + suffix], 1) << name << suffix;
            ++expected_lines;
          }
          EXPECT_EQ(values[std::string(name) + ".count"],
                    std::to_string(value.count));
        } else {
          EXPECT_EQ(seen[name], 1) << name;
          ++expected_lines;
          std::ostringstream want;
          want << value;
          EXPECT_EQ(values[name], want.str()) << name;
        }
      },
      stats);
  EXPECT_EQ(seen.size(), expected_lines);
}

// ---- TopKIndex unit tests ------------------------------------------------

la::ScoreStore StoreFromRows(std::vector<std::vector<double>> rows) {
  la::DenseMatrix dense(rows.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t j = 0; j < rows.size(); ++j) dense(i, j) = rows[i][j];
  }
  return la::ScoreStore(std::move(dense));
}

TEST(TopKIndexUnit, DisabledIndexNeverServes) {
  la::ScoreStore store = StoreFromRows({{1.0, 0.5}, {0.5, 1.0}});
  TopKIndex index(0, 1);
  index.RebuildAll(store);
  EXPECT_EQ(index.rows_reranked(), 0u);
  TopKIndex::View view = index.Publish();
  EXPECT_TRUE(view.empty());
  std::vector<ScoredPair> out;
  EXPECT_FALSE(view.Serve(0, 1, &out));
}

TEST(TopKIndexUnit, CompleteEntryServesAnyKUnderfullRefuses) {
  la::ScoreStore store = StoreFromRows({{1.0, 0.3, 0.7, 0.1},
                                        {0.3, 1.0, 0.2, 0.2},
                                        {0.7, 0.2, 1.0, 0.4},
                                        {0.1, 0.2, 0.4, 1.0}});
  TopKIndex full(8, 1);  // capacity >= n-1: entries complete
  full.RebuildAll(store);
  TopKIndex::View view = full.Publish();
  std::vector<ScoredPair> out;
  ASSERT_TRUE(view.Serve(0, 100, &out));  // k >= n served from a complete entry
  EXPECT_EQ(out, core::TopKForOf(store, 0, 100));
  ASSERT_TRUE(view.Serve(0, 0, &out));
  EXPECT_TRUE(out.empty());

  TopKIndex bounded(2, 1);  // capacity < n-1: k past the entry must refuse
  bounded.RebuildAll(store);
  TopKIndex::View small = bounded.Publish();
  ASSERT_TRUE(small.Serve(2, 2, &out));
  EXPECT_EQ(out, core::TopKForOf(store, 2, 2));
  EXPECT_FALSE(small.Serve(2, 3, &out));  // underfull
}

TEST(TopKIndexUnit, RebuildRowsPatchesOnlyNamedRows) {
  la::ScoreStore store = StoreFromRows({{1.0, 0.3, 0.2},
                                        {0.3, 1.0, 0.6},
                                        {0.2, 0.6, 1.0}});
  TopKIndex index(4, 1);
  index.RebuildAll(store);
  store.Publish();  // start COW tracking
  // Rewrite row 1 (and symmetric column entries in rows 0/2 would follow
  // in real use; here only row 1 is re-ranked on purpose).
  la::RowWriter writer;
  store.BeginWriteRow(1, &writer);
  writer.Dense()[0] = 0.9;
  store.CommitWriteRow(&writer);
  const std::vector<std::int32_t> touched = {1};
  index.RebuildRows(store, touched);
  TopKIndex::View view = index.Publish();
  std::vector<ScoredPair> out;
  ASSERT_TRUE(view.Serve(1, 2, &out));
  EXPECT_EQ(out, core::TopKForOf(store, 1, 2));  // sees the new bytes
  // Row 0's entry was NOT rebuilt: it still serves the old ranking.
  ASSERT_TRUE(view.Serve(0, 2, &out));
  EXPECT_EQ(out[0].score, 0.3);
}

TEST(TopKIndexUnit, ServePairsCompleteEntriesMatchPairScanExactly) {
  // Deliberately NOT bitwise symmetric: s(a,b) and s(b,a) differ by ~an
  // ulp, exactly like incrementally maintained S. The merge must read
  // row min(a,b)'s copy — the same bytes TopKPairsOf reads — or scores
  // (and hence tie-breaks) drift off the scan's.
  const double kJitter = 1e-15;
  la::ScoreStore store = StoreFromRows({
      {1.0, 0.8, 0.3, 0.5},
      {0.8 + kJitter, 1.0, 0.5, 0.2},
      {0.3 - kJitter, 0.5 + kJitter, 1.0, 0.4},
      {0.5 - kJitter, 0.2, 0.4 + kJitter, 1.0}});
  TopKIndex index(8, 1);  // capacity >= n-1: every entry complete
  index.RebuildAll(store);
  TopKIndex::View view = index.Publish();
  for (std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                        std::size_t{3}, std::size_t{6}, std::size_t{100}}) {
    std::vector<ScoredPair> out;
    ASSERT_TRUE(view.ServePairs(k, &out)) << "k=" << k;
    EXPECT_EQ(out, core::TopKPairsOf(store, k)) << "k=" << k;
  }
}

TEST(TopKIndexUnit, ServePairsBoundedEntriesServeHeadRefusePastBound) {
  // n = 5, capacity 2: entries are incomplete, so only pairs strictly
  // above the worst stored-tail score (0.7, row 1's last item) are
  // provably exact. k = 1 rides the merge; k = 2 would emit the 0.7
  // pair, which an unstored pair could tie — refuse and fall back.
  la::ScoreStore store = StoreFromRows({
      {1.0, 0.9, 0.1, 0.1, 0.1},
      {0.9, 1.0, 0.7, 0.1, 0.1},
      {0.1, 0.7, 1.0, 0.6, 0.1},
      {0.1, 0.1, 0.6, 1.0, 0.1},
      {0.1, 0.1, 0.1, 0.1, 1.0}});
  TopKIndex index(2, 1);
  index.RebuildAll(store);
  TopKIndex::View view = index.Publish();
  std::vector<ScoredPair> out;
  ASSERT_TRUE(view.ServePairs(1, &out));
  EXPECT_EQ(out, core::TopKPairsOf(store, 1));
  EXPECT_FALSE(view.ServePairs(2, &out));
  EXPECT_TRUE(out.empty());

  TopKIndex disabled(0, 1);
  disabled.RebuildAll(store);
  EXPECT_FALSE(disabled.Publish().ServePairs(1, &out));
}

// ---- Selection kernel vs the heap oracle ---------------------------------

// The pre-selection TopKForOf, kept here as the reference: a bounded
// min-heap over the gathered row, O(n log k). The kernel under test must
// return exactly its items, score bits included.
std::vector<ScoredPair> HeapTopKFor(const double* row, std::size_t n,
                                    graph::NodeId query, std::size_t k) {
  const auto q = static_cast<std::size_t>(query);
  const auto cmp = &core::ScoredPairRanksBefore;
  std::vector<ScoredPair> heap;
  for (std::size_t b = 0; b < n; ++b) {
    if (b == q) continue;
    ScoredPair cand{query, static_cast<graph::NodeId>(b), row[b]};
    if (heap.size() < k) {
      heap.push_back(cand);
      std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (!heap.empty() && cmp(cand, heap.front())) {
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.back() = cand;
      std::push_heap(heap.begin(), heap.end(), cmp);
    }
  }
  std::sort_heap(heap.begin(), heap.end(), cmp);
  return heap;
}

template <typename SLike>
std::vector<ScoredPair> HeapTopKForOf(const SLike& s, graph::NodeId query,
                                      std::size_t k) {
  la::Vector scratch;
  return HeapTopKFor(s.ReadRow(static_cast<std::size_t>(query), &scratch),
                     s.rows(), query, k);
}

// Bitwise equality: operator== would let +0.0 and -0.0 pass as equal.
void ExpectSameBits(const std::vector<ScoredPair>& got,
                    const std::vector<ScoredPair>& want,
                    const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].a, want[i].a) << what << " item " << i;
    EXPECT_EQ(got[i].b, want[i].b) << what << " item " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].score),
              std::bit_cast<std::uint64_t>(want[i].score))
        << what << " item " << i;
  }
}

std::vector<std::size_t> OracleKs(std::size_t n) {
  return {0, 1, 3, n - 2, n - 1, n, n + 3, 4096};
}

// n×n scores drawn from a small alphabet, so ties, +0.0, -0.0 and
// negatives are everywhere; every `sparse_every`-th row is demoted to the
// sparse layout at epsilon = 0 (positives, negatives and -0.0 stored,
// +0.0 elided). sparse_every = 0 keeps every row dense.
la::ScoreStore MixedStore(std::size_t n, std::uint64_t seed,
                          std::size_t sparse_every) {
  const double kAlphabet[] = {0.5, 0.25, 0.25, 1e-3, 0.0, 0.0,
                              0.0, -0.0, -1e-3, -0.25};
  Rng rng(seed);
  la::DenseMatrix dense(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      dense(i, j) = kAlphabet[rng.NextBounded(std::size(kAlphabet))];
    }
  }
  la::ScoreStore store(std::move(dense));
  store.set_sparsity({.epsilon = 0.0, .max_density = 1.0});
  for (std::size_t i = 0; sparse_every > 0 && i < n; i += sparse_every) {
    INCSR_CHECK(store.SparsifyRow(i, {}), "sparsify row %zu", i);
  }
  return store;
}

TEST(TopKSelection, MatchesHeapOracleBitwiseOnDenseAndSparseRows) {
  // Dense rows take the bounded heap when n >= 20·k and selection
  // otherwise: n = 67 and n = 200 put k = 1 and 3 on the heap; every
  // other (n, k) here is a selection.
  for (std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{12},
                        std::size_t{67}, std::size_t{200}}) {
    la::ScoreStore store = MixedStore(n, 41 + n, /*sparse_every=*/2);
    const la::ScoreStore::View view = store.Publish();
    for (std::size_t q = 0; q < n; ++q) {
      for (std::size_t k : OracleKs(n)) {
        const auto query = static_cast<graph::NodeId>(q);
        const std::string what = "n=" + std::to_string(n) +
                                 " q=" + std::to_string(q) +
                                 " k=" + std::to_string(k) +
                                 (store.RowIsSparse(q) ? " sparse" : " dense");
        const std::vector<ScoredPair> want = HeapTopKForOf(store, query, k);
        ExpectSameBits(core::TopKForOf(store, query, k), want, what);
        ExpectSameBits(core::TopKForOf(view, query, k), want, what + " view");
      }
    }
  }
}

TEST(TopKSelection, SparseRowsWithStoredZerosAndDiagonal) {
  // Hand-built sparse rows the store never produces itself: a stored
  // +0.0, a stored -0.0, a stored diagonal, only negatives, and an empty
  // row. Each must rank exactly like its gathered dense twin.
  const std::size_t n = 9;
  struct Case {
    std::vector<std::int32_t> cols;
    std::vector<double> vals;
    graph::NodeId query;
  };
  const std::vector<Case> cases = {
      {{0, 2, 3, 5, 8}, {0.0, -0.0, 0.5, 0.5, -0.25}, 3},
      {{1, 4, 6}, {-0.5, -0.5, -1e-9}, 4},
      {{}, {}, 0},
      {{0, 1, 2, 3, 4, 5, 6, 7, 8},
       {1.0, 0.3, -0.0, 0.3, 0.0, 0.7, -0.1, 0.3, 0.0},
       8},
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const Case& test = cases[c];
    std::vector<double> dense(n, 0.0);
    for (std::size_t e = 0; e < test.cols.size(); ++e) {
      dense[static_cast<std::size_t>(test.cols[e])] = test.vals[e];
    }
    const la::RawRow sparse{nullptr, test.cols, test.vals};
    const la::RawRow flat{dense.data(), {}, {}};
    for (std::size_t k : OracleKs(n)) {
      const std::string what =
          "case " + std::to_string(c) + " k=" + std::to_string(k);
      const std::vector<ScoredPair> want =
          HeapTopKFor(dense.data(), n, test.query, k);
      ExpectSameBits(core::TopKForRow(sparse, n, test.query, k), want,
                     what + " sparse");
      ExpectSameBits(core::TopKForRow(flat, n, test.query, k), want,
                     what + " dense");
    }
  }
}

// Every entry of `index` (built over `store`) equals the heap oracle at
// the row's capacity, bitwise.
void ExpectEntriesMatchOracle(const TopKIndex& index,
                              const la::ScoreStore& store,
                              const std::string& what) {
  for (std::size_t q = 0; q < store.rows(); ++q) {
    const auto items = index.EntryItems(q);
    ExpectSameBits(std::vector<ScoredPair>(items.begin(), items.end()),
                   HeapTopKForOf(store, static_cast<graph::NodeId>(q),
                                 index.NodeCapacity(q)),
                   what + " row " + std::to_string(q));
  }
}

TEST(TopKIndexUnit, RebuildIsBitwiseAtOneAndFourThreads) {
  // n = 300 puts several rows in each scheduler chunk, so the 4-thread
  // index really runs row-parallel.
  const std::size_t n = 300;
  for (std::size_t capacity : {std::size_t{5}, n - 1, std::size_t{4096}}) {
    la::ScoreStore store = MixedStore(n, 7, /*sparse_every=*/3);
    TopKIndex serial(capacity, 1);
    TopKIndex parallel(capacity, 4);
    serial.RebuildAll(store);
    parallel.RebuildAll(store);
    const std::string what = "capacity " + std::to_string(capacity);
    ExpectEntriesMatchOracle(serial, store, what + " serial");
    ExpectEntriesMatchOracle(parallel, store, what + " parallel");
    EXPECT_EQ(serial.rows_reranked(), n);
    EXPECT_EQ(parallel.rows_reranked(), n);
    EXPECT_EQ(parallel.bytes(), serial.bytes());
    EXPECT_EQ(serial.bytes(),
              n * std::min(capacity, n - 1) * sizeof(ScoredPair));

    // Rewrite some rows, then re-rank them plus an unwritten one: each
    // listed row is rebuilt (and counted) once, at either thread count.
    store.Publish();
    for (std::size_t row : {std::size_t{3}, std::size_t{4}, std::size_t{250}}) {
      la::RowWriter writer;
      store.BeginWriteRow(row, &writer);
      writer.Add(row == 3 ? 10 : 11, 0.75);
      writer.Add(12, -0.0);
      store.CommitWriteRow(&writer);
    }
    const std::vector<std::int32_t> rows = {3, 4, 9, 250};
    serial.RebuildRows(store, rows);
    parallel.RebuildRows(store, rows);
    EXPECT_EQ(serial.rows_reranked(), n + 4);
    EXPECT_EQ(parallel.rows_reranked(), n + 4);
    ExpectEntriesMatchOracle(serial, store, what + " serial rows");
    ExpectEntriesMatchOracle(parallel, store, what + " parallel rows");
    EXPECT_EQ(parallel.bytes(), serial.bytes());
  }
}

// ---- TopKQueryCache unit tests -------------------------------------------

std::vector<ScoredPair> FakeResults(graph::NodeId node, std::size_t k) {
  std::vector<ScoredPair> results;
  for (std::size_t i = 0; i < k; ++i) {
    results.push_back({node, static_cast<graph::NodeId>(i + 1),
                       1.0 / static_cast<double>(i + 1)});
  }
  return results;
}

TEST(TopKQueryCache, PrefixHitsAndLargerKMisses) {
  TopKQueryCache cache(4);
  std::vector<ScoredPair> out;
  EXPECT_FALSE(cache.Lookup(1, 3, &out));
  cache.Insert(1, 5, 0, FakeResults(1, 5));
  ASSERT_TRUE(cache.Lookup(1, 3, &out));
  EXPECT_EQ(out.size(), 3u);
  EXPECT_EQ(out, FakeResults(1, 3));
  EXPECT_FALSE(cache.Lookup(1, 8, &out));  // cached k too small
}

TEST(TopKQueryCache, SelectiveInvalidationEvictsOnlyTouchedNodes) {
  TopKQueryCache cache(8);
  cache.Insert(1, 2, 0, FakeResults(1, 2));
  cache.Insert(2, 2, 0, FakeResults(2, 2));
  cache.Insert(3, 2, 0, FakeResults(3, 2));
  std::vector<std::int32_t> touched = {2, 7};
  cache.OnPublish(1, touched);
  std::vector<ScoredPair> out;
  EXPECT_TRUE(cache.Lookup(1, 2, &out));
  EXPECT_FALSE(cache.Lookup(2, 2, &out));
  EXPECT_TRUE(cache.Lookup(3, 2, &out));
  EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(TopKQueryCache, StaleEpochInsertIsDropped) {
  TopKQueryCache cache(4);
  cache.OnPublish(2, {});
  cache.Insert(1, 2, 1, FakeResults(1, 2));  // computed at old epoch 1
  std::vector<ScoredPair> out;
  EXPECT_FALSE(cache.Lookup(1, 2, &out));
  EXPECT_EQ(cache.stats().stale_inserts, 1u);
  cache.Insert(1, 2, 2, FakeResults(1, 2));  // current epoch: admitted
  EXPECT_TRUE(cache.Lookup(1, 2, &out));
}

TEST(TopKQueryCache, LruEvictionAtCapacity) {
  TopKQueryCache cache(2);
  cache.Insert(1, 1, 0, FakeResults(1, 1));
  cache.Insert(2, 1, 0, FakeResults(2, 1));
  std::vector<ScoredPair> out;
  ASSERT_TRUE(cache.Lookup(1, 1, &out));  // 1 becomes most recent
  cache.Insert(3, 1, 0, FakeResults(3, 1));
  EXPECT_TRUE(cache.Lookup(1, 1, &out));
  EXPECT_FALSE(cache.Lookup(2, 1, &out));  // LRU victim
  EXPECT_TRUE(cache.Lookup(3, 1, &out));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(TopKQueryCache, ZeroCapacityDisablesCaching) {
  TopKQueryCache cache(0);
  cache.Insert(1, 2, 0, FakeResults(1, 2));
  std::vector<ScoredPair> out;
  EXPECT_FALSE(cache.Lookup(1, 2, &out));
  cache.InsertPairs(2, 0, FakeResults(0, 2));
  EXPECT_FALSE(cache.LookupPairs(2, &out));
}

TEST(TopKQueryCache, PairsMemoInvalidatedByAnyTouch) {
  TopKQueryCache cache(4);
  cache.InsertPairs(3, 0, FakeResults(0, 3));
  std::vector<ScoredPair> out;
  ASSERT_TRUE(cache.LookupPairs(2, &out));
  EXPECT_EQ(out.size(), 2u);
  std::vector<std::int32_t> touched = {5};
  cache.OnPublish(1, touched);
  EXPECT_FALSE(cache.LookupPairs(2, &out));
}

}  // namespace
}  // namespace incsr::service
