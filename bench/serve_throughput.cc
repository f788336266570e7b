// serve_throughput — load generator for the concurrent serving layer.
// Builds a synthetic link-evolving workload (ER base graph + a sampled
// update stream), replays it through SimRankService from W writer threads
// while R reader threads issue top-k queries in a closed loop, and reports
// ingest throughput (updates/s), query latency percentiles (p50/p99), and
// the epoch-publish cost (rows/bytes copy-on-written per epoch) under the
// mixed read/write load. Runs twice — query cache enabled and disabled —
// so the affected-area invalidation win is visible directly.
//
// Sharding: --components C builds the base graph as C disjoint ER blocks
// (a multi-component graph, the shape that shards cleanly) with the
// update stream confined to blocks and interleaved round-robin across
// them; --shards K replays the workload through a ShardedSimRankService
// with K shards instead of a single service — K appliers absorb updates
// concurrently, which is the scale-out path of src/shard/. Per-shard
// stats land in the --json trajectory as arrays. --shards 0 (default)
// keeps the single-service path even for multi-component graphs.
//
// Query skew: --zipf THETA draws reader query nodes Zipf(θ)-skewed over
// the node ids (0 = uniform), modeling hot-node traffic — which is also
// where the affected-area cache invalidation matters most.
//
// Churn: --churn delete-heavy replays a 70/30 delete/insert mix (every
// edge appears once, so the stream is valid under any writer
// interleaving) instead of the default insert-only stream.
//
// Kernel parallelism: --threads T runs the applier's update kernels
// (seed scan, support expansion, scatter) T-way parallel on the shared
// scheduler (0 = INCSR_THREADS / hardware default). Results are bitwise
// independent of T; only the applied-updates/s changes.
//
// Top-k index: --index-capacity C sets the per-node top-k index size
// (0 disables it), so the index's O(k) miss path can be compared against
// the O(n) row-scan miss path under the same load; served/fallback
// counters land in the report and the JSON trajectory.
//
// Network modes (bench the serving tier over real sockets):
//   --connect HOST:PORT drives an external `incsr_cli serve --listen`
//   server over the wire instead of an in-process service: W writer
//   clients stream batched Submit RPCs (--net-batch updates per RPC, with
//   per-RPC latency percentiles) while R reader clients issue TopKFor
//   RPCs; reports over-the-wire qps + p50/p99 for both sides in the same
//   --json schema (ingest percentiles land in ingest_p50_us/p99_us).
//   Query/update node ids are drawn from the server's reported node count.
//
//   --replicas R runs the loopback read-scaling sweep in one process: a
//   primary server ingests the synthetic stream over the wire, R replica
//   servers subscribe to its applied stream and converge, then the same
//   number of closed-loop query clients (--net-clients per endpoint)
//   measures aggregate read qps against the primary alone vs spread
//   round-robin across primary + replicas. The ratio is the read-scaling
//   factor of the replica tier (replicas serve bitwise-identical epochs,
//   so spreading is safe).
//
// Tracing: --trace-out FILE replays the workload twice more — tracing off
// then tracing on (obs::Tracer writing FILE) — and reports the applier
// throughput delta as trace_overhead_pct in the JSON, with
// trace_overhead_ok asserting the <= 3% budget the serve-path
// instrumentation is designed to (docs/tracing.md). Latency percentiles
// everywhere come from streaming obs::Histogram (log-bucketed, mergeable,
// bounded memory) rather than sorting every sample.
//
// Usage: bench_serve_throughput [--nodes N] [--edges M] [--updates U]
//          [--writers W] [--readers R] [--topk K] [--max-batch B]
//          [--zipf THETA] [--churn insert|delete-heavy] [--threads T]
//          [--components C] [--shards K] [--index-capacity C] [--json PATH]
//          [--connect HOST:PORT] [--replicas R] [--net-batch B]
//          [--net-clients C] [--measure-seconds S] [--trace-out FILE]
//          [--trace-buffer-kb N]
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "incsr/incsr.h"

namespace {

using namespace incsr;

struct LoadConfig {
  std::size_t nodes = 200;
  std::size_t edges = 1200;
  std::size_t updates = 400;
  std::size_t writers = 2;
  std::size_t readers = 2;
  std::size_t topk = 10;
  std::size_t max_batch = 64;
  double zipf_theta = 0.0;   // 0 = uniform query nodes
  bool delete_heavy = false; // 70/30 delete/insert churn stream
  int threads = 0;           // update-kernel parallelism (0 = default)
  // Per-node top-k index capacity (0 = off); the library default.
  std::size_t index_capacity = service::ServiceOptions{}.topk_index_capacity;
  std::size_t components = 1; // disjoint ER blocks in the base graph
  std::size_t shards = 0;     // 0 = single service; K = sharded service
  std::string json_path;     // when set, emit a BENCH json trajectory file
  std::string connect;       // drive an external server over the wire
  std::size_t replicas = 0;  // loopback read-scaling sweep with R replicas
  std::size_t net_batch = 64;    // updates per Submit RPC
  std::size_t net_clients = 4;   // query clients per endpoint (sweep)
  double measure_seconds = 1.0;  // read-only measurement window (sweep)
  std::string trace_out;         // when set, run the tracing-overhead A/B
  std::size_t trace_buffer_kb = 1024;  // per-thread trace ring size
};

// The tracing-overhead budget the serve-path instrumentation must fit in
// (ISSUE: tracing on must stay within 3% of tracing off).
constexpr double kTraceOverheadLimitPct = 3.0;

std::uint64_t ElapsedNs(const WallTimer& timer) {
  return static_cast<std::uint64_t>(timer.ElapsedSeconds() * 1e9);
}

struct LoadResult {
  double ingest_seconds = 0.0;
  std::uint64_t total_queries = 0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  obs::HistogramSnapshot query_lat;     // per-query latency, nanoseconds
  service::ServiceStats stats;          // single-service or sharded total
  shard::ShardedStats sharded_stats;    // populated when config.shards > 0
};

// One churn stream per component block (deletions of existing edges,
// insertions of non-edges; disjoint sets, so valid in any interleaving),
// offset to global ids and interleaved round-robin across blocks.
void BuildWorkload(const LoadConfig& config, graph::DynamicDiGraph* graph,
                   std::vector<graph::EdgeUpdate>* updates) {
  const std::size_t blocks = std::max<std::size_t>(1, config.components);
  *graph = graph::DynamicDiGraph(config.nodes);
  std::vector<std::vector<graph::EdgeUpdate>> per_block;
  Rng rng(11);
  std::size_t base = 0;
  for (std::size_t c = 0; c < blocks; ++c) {
    const std::size_t bn =
        config.nodes / blocks + (c + 1 == blocks ? config.nodes % blocks : 0);
    const std::size_t bm =
        config.edges / blocks + (c + 1 == blocks ? config.edges % blocks : 0);
    const std::size_t bu =
        config.updates / blocks +
        (c + 1 == blocks ? config.updates % blocks : 0);
    auto stream = graph::ErdosRenyiGnm(bn, bm, 7 + c);
    INCSR_CHECK(stream.ok(), "generator failed");
    graph::DynamicDiGraph block = graph::MaterializeGraph(bn, stream.value());
    for (const graph::Edge& e : block.Edges()) {
      INCSR_CHECK(graph
                      ->AddEdge(static_cast<graph::NodeId>(base + e.src),
                                static_cast<graph::NodeId>(base + e.dst))
                      .ok(),
                  "block edge insert failed");
    }
    std::vector<graph::EdgeUpdate> block_updates;
    if (config.delete_heavy) {
      const std::size_t deletions = std::min(block.num_edges(), bu * 7 / 10);
      const std::size_t insertions = bu - deletions;
      auto del = graph::SampleDeletions(block, deletions, &rng);
      INCSR_CHECK(del.ok(), "deletion sampling failed: %s",
                  del.status().ToString().c_str());
      auto ins = graph::SampleInsertions(block, insertions, &rng);
      INCSR_CHECK(ins.ok(), "insertion sampling failed: %s",
                  ins.status().ToString().c_str());
      std::size_t a = 0;
      std::size_t b = 0;
      // Deterministic 7:3 interleave.
      while (a < del->size() || b < ins->size()) {
        for (int d = 0; d < 7 && a < del->size(); ++d) {
          block_updates.push_back((*del)[a++]);
        }
        for (int s = 0; s < 3 && b < ins->size(); ++s) {
          block_updates.push_back((*ins)[b++]);
        }
      }
    } else {
      auto ins = graph::SampleInsertions(block, bu, &rng);
      INCSR_CHECK(ins.ok(), "sampling failed: %s",
                  ins.status().ToString().c_str());
      block_updates = std::move(ins).value();
    }
    for (graph::EdgeUpdate& u : block_updates) {
      u.src = static_cast<graph::NodeId>(base + u.src);
      u.dst = static_cast<graph::NodeId>(base + u.dst);
    }
    per_block.push_back(std::move(block_updates));
    base += bn;
  }
  updates->clear();
  for (std::size_t k = 0;; ++k) {
    bool any = false;
    for (const auto& stream : per_block) {
      if (k < stream.size()) {
        updates->push_back(stream[k]);
        any = true;
      }
    }
    if (!any) break;
  }
}

// Drives the writer/reader load against any service exposing Submit /
// Flush / TopKFor (service::SimRankService or shard::ShardedSimRankService).
template <typename Service>
void DriveLoad(const LoadConfig& config,
               const std::vector<graph::EdgeUpdate>& updates, Service* svc,
               LoadResult* result) {
  std::atomic<bool> done{false};
  // One streaming histogram per reader (lock-free Record), merged exactly
  // at the end — bounded memory however long the closed loop runs, unlike
  // the sort-every-sample percentile pass this replaced.
  std::vector<obs::Histogram> latencies(config.readers);
  std::vector<std::thread> threads;
  bench::ZipfSampler zipf(config.nodes, config.zipf_theta);
  WallTimer timer;
  for (std::size_t w = 0; w < config.writers; ++w) {
    threads.emplace_back([&, w] {
      for (std::size_t i = w; i < updates.size(); i += config.writers) {
        Status s = svc->Submit(updates[i]);
        INCSR_CHECK(s.ok(), "submit failed: %s", s.ToString().c_str());
      }
    });
  }
  for (std::size_t r = 0; r < config.readers; ++r) {
    threads.emplace_back([&, r] {
      Rng rng(999 + static_cast<std::uint64_t>(r));
      obs::Histogram& mine = latencies[r];
      while (!done.load(std::memory_order_acquire)) {
        const auto node = static_cast<graph::NodeId>(zipf.Next(&rng));
        WallTimer query_timer;
        auto top = svc->TopKFor(node, config.topk);
        INCSR_CHECK(top.ok(), "query failed");
        mine.Record(ElapsedNs(query_timer));
      }
    });
  }
  for (std::size_t w = 0; w < config.writers; ++w) threads[w].join();
  INCSR_CHECK(svc->Flush().ok(), "flush failed");
  result->ingest_seconds = timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  for (std::size_t t = config.writers; t < threads.size(); ++t) {
    threads[t].join();
  }
  obs::HistogramSnapshot merged;
  for (const obs::Histogram& per_reader : latencies) {
    merged += per_reader.snapshot();
  }
  result->query_lat = merged;
  result->total_queries = merged.count;
  result->p50_us = merged.Percentile(0.50) / 1e3;
  result->p99_us = merged.Percentile(0.99) / 1e3;
}

LoadResult RunLoad(const LoadConfig& config,
                   const graph::DynamicDiGraph& graph,
                   const std::vector<graph::EdgeUpdate>& updates,
                   std::size_t cache_capacity) {
  simrank::SimRankOptions options;  // paper defaults: C = 0.6, K = 15
  options.num_threads = config.threads;
  service::ServiceOptions service_options;
  service_options.max_batch = config.max_batch;
  service_options.cache_capacity = cache_capacity;
  service_options.topk_index_capacity = config.index_capacity;

  LoadResult result;
  if (config.shards > 0) {
    shard::ShardedServiceOptions sharded_options;
    sharded_options.num_shards = config.shards;
    sharded_options.per_shard = service_options;
    auto service =
        shard::ShardedSimRankService::Create(graph, options, sharded_options);
    INCSR_CHECK(service.ok(), "sharded service build failed");
    DriveLoad(config, updates, service->get(), &result);
    result.sharded_stats = (*service)->stats();
    result.stats = result.sharded_stats.total;
  } else {
    auto index = core::DynamicSimRank::Create(graph, options);
    INCSR_CHECK(index.ok(), "index build failed");
    auto service = service::SimRankService::Create(std::move(index).value(),
                                                   service_options);
    INCSR_CHECK(service.ok(), "service build failed");
    DriveLoad(config, updates, service->get(), &result);
    result.stats = (*service)->stats();
  }
  return result;
}

// Number of epoch publishes the run performed. stats.epoch aggregates as
// the MAX per-shard epoch in sharded runs (epochs are per-shard sequence
// numbers), so the publish count there is the SUM of per-shard epochs —
// that is what per-epoch ratios must divide by.
std::uint64_t PublishCount(const LoadConfig& config,
                           const LoadResult& result) {
  if (config.shards == 0) return result.stats.epoch;
  std::uint64_t publishes = 0;
  for (const auto& entry : result.sharded_stats.per_shard) {
    publishes += entry.stats.epoch;
  }
  return publishes;
}

void Report(const char* label, const LoadConfig& config,
            std::size_t total_updates, const LoadResult& result) {
  const double updates_per_sec =
      static_cast<double>(result.stats.applied) / result.ingest_seconds;
  const double queries_per_sec =
      static_cast<double>(result.total_queries) / result.ingest_seconds;
  const std::uint64_t lookups = result.stats.cache.hits +
                                result.stats.cache.misses;
  const std::uint64_t publishes = PublishCount(config, result);
  std::printf(
      "%-14s %9.0f upd/s  %8.0f qry/s  p50 %7.1f us  p99 %7.1f us  "
      "hit-rate %5.1f%%  (%llu queries, %llu epochs)\n",
      label, updates_per_sec, queries_per_sec, result.p50_us, result.p99_us,
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(result.stats.cache.hits) /
                         static_cast<double>(lookups),
      static_cast<unsigned long long>(result.total_queries),
      static_cast<unsigned long long>(publishes));
  // Zero-update runs publish no epoch: the ratio must stay finite (0),
  // not divide by zero.
  const double rows_per_epoch =
      publishes > 0 ? static_cast<double>(result.stats.rows_published) /
                          static_cast<double>(publishes)
                    : 0.0;
  std::printf(
      "%-14s publish cost: %llu rows, %.2f MB copy-on-written "
      "(%.1f rows/epoch; full-copy would be %zu rows/epoch)\n",
      "", static_cast<unsigned long long>(result.stats.rows_published),
      static_cast<double>(result.stats.bytes_published) / 1e6, rows_per_epoch,
      config.nodes);
  const std::uint64_t index_misses =
      result.stats.topk_index_served + result.stats.topk_index_fallbacks;
  std::printf(
      "%-14s top-k index: %llu misses served O(k), %llu row-scan fallbacks "
      "(%.1f%% of misses), %llu rows re-ranked\n",
      "", static_cast<unsigned long long>(result.stats.topk_index_served),
      static_cast<unsigned long long>(result.stats.topk_index_fallbacks),
      index_misses == 0
          ? 0.0
          : 100.0 * static_cast<double>(result.stats.topk_index_fallbacks) /
                static_cast<double>(index_misses),
      static_cast<unsigned long long>(result.stats.topk_index_rows_reranked));
  if (config.shards > 0) {
    std::printf("%-14s shards:", "");
    for (const auto& entry : result.sharded_stats.per_shard) {
      std::printf("  [%zu] %zu nodes, %llu applied, %llu epochs", entry.slot,
                  entry.nodes,
                  static_cast<unsigned long long>(entry.stats.applied),
                  static_cast<unsigned long long>(entry.stats.epoch));
    }
    std::printf("  (%llu merges)\n",
                static_cast<unsigned long long>(result.sharded_stats.merges));
  }
  INCSR_CHECK(result.stats.applied == total_updates,
              "lost updates: applied %llu of %zu",
              static_cast<unsigned long long>(result.stats.applied),
              total_updates);
}

void RecordRun(bench::JsonObject* root, const char* label,
               const LoadConfig& config, const LoadResult& result) {
  const std::uint64_t lookups =
      result.stats.cache.hits + result.stats.cache.misses;
  const std::uint64_t publishes = PublishCount(config, result);
  bench::JsonObject* run = root->AddObject("runs");
  run->Set("label", label)
      .Set("updates_per_sec", static_cast<double>(result.stats.applied) /
                                  result.ingest_seconds)
      .Set("queries_per_sec",
           static_cast<double>(result.total_queries) / result.ingest_seconds)
      .Set("p50_us", result.p50_us)
      .Set("p99_us", result.p99_us)
      .Set("cache_hit_rate",
           lookups == 0 ? 0.0
                        : static_cast<double>(result.stats.cache.hits) /
                              static_cast<double>(lookups))
      .Set("epochs", publishes)
      .Set("rows_published", result.stats.rows_published)
      .Set("bytes_published", result.stats.bytes_published)
      // Guarded: a zero-update run publishes no epoch and must emit a
      // finite ratio, not NaN/inf, or it poisons the trajectory files.
      .Set("rows_per_epoch",
           publishes > 0 ? static_cast<double>(result.stats.rows_published) /
                               static_cast<double>(publishes)
                         : 0.0)
      .Set("rows_per_epoch_full_copy_equivalent", config.nodes)
      .Set("topk_index_served", result.stats.topk_index_served)
      .Set("topk_index_fallbacks", result.stats.topk_index_fallbacks)
      .Set("topk_index_rows_reranked", result.stats.topk_index_rows_reranked);
  if (config.shards > 0) {
    // Per-shard trajectories as parallel scalar arrays (index = position
    // in the live-shard list).
    run->Set("active_shards", result.sharded_stats.active_shards)
        .Set("merges", result.sharded_stats.merges)
        .Set("merge_rebuild_rows", result.sharded_stats.merge_rebuild_rows);
    for (const auto& entry : result.sharded_stats.per_shard) {
      run->Append("shard_slot", entry.slot)
          .Append("shard_nodes", entry.nodes)
          .Append("shard_applied", entry.stats.applied)
          .Append("shard_epochs", entry.stats.epoch)
          .Append("shard_rows_published", entry.stats.rows_published)
          .Append("shard_cache_hits", entry.stats.cache.hits);
    }
  }
}

// ---- Network modes ---------------------------------------------------------

struct NetLoadResult {
  double ingest_seconds = 0.0;
  std::uint64_t ingest_rpcs = 0;
  std::uint64_t accepted = 0;
  std::uint64_t dropped = 0;  // rejected by reject-mode backpressure
  double ingest_p50_us = 0.0;
  double ingest_p99_us = 0.0;
  std::uint64_t total_queries = 0;
  double query_seconds = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

// Streams `updates` to endpoints[0] as batched Submit RPCs from `writers`
// client threads (per-RPC latency recorded) while `readers` client
// threads round-robin closed-loop TopKFor RPCs across every endpoint;
// flushes, then reports both sides' throughput and percentiles.
NetLoadResult DriveNetLoad(const std::vector<std::string>& endpoints,
                           const std::vector<graph::EdgeUpdate>& updates,
                           std::size_t writers, std::size_t readers,
                           std::size_t net_batch, std::size_t num_nodes,
                           std::size_t topk, double zipf_theta) {
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> dropped{0};
  std::vector<obs::Histogram> ingest_lat(writers);
  std::vector<obs::Histogram> query_lat(readers);
  std::vector<std::thread> threads;
  bench::ZipfSampler zipf(num_nodes, zipf_theta);

  // Pre-chunk the stream so writer w owns batches w, w+W, w+2W, ...
  std::vector<std::vector<graph::EdgeUpdate>> batches;
  for (std::size_t at = 0; at < updates.size(); at += net_batch) {
    const std::size_t end = std::min(updates.size(), at + net_batch);
    batches.emplace_back(updates.begin() + static_cast<std::ptrdiff_t>(at),
                         updates.begin() + static_cast<std::ptrdiff_t>(end));
  }

  WallTimer timer;
  for (std::size_t w = 0; w < writers; ++w) {
    threads.emplace_back([&, w] {
      auto client = net::IncSrClient::Connect(endpoints[0]);
      INCSR_CHECK(client.ok(), "writer connect failed: %s",
                  client.status().ToString().c_str());
      for (std::size_t i = w; i < batches.size(); i += writers) {
        WallTimer rpc_timer;
        auto response = client->Submit(batches[i]);
        INCSR_CHECK(response.ok(), "submit RPC failed: %s",
                    response.status().ToString().c_str());
        ingest_lat[w].Record(ElapsedNs(rpc_timer));
        accepted.fetch_add(response->accepted, std::memory_order_relaxed);
        dropped.fetch_add(response->rejected, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t r = 0; r < readers; ++r) {
    threads.emplace_back([&, r] {
      auto client =
          net::IncSrClient::Connect(endpoints[r % endpoints.size()]);
      INCSR_CHECK(client.ok(), "reader connect failed: %s",
                  client.status().ToString().c_str());
      Rng rng(999 + static_cast<std::uint64_t>(r));
      while (!done.load(std::memory_order_acquire)) {
        const auto node = static_cast<graph::NodeId>(zipf.Next(&rng));
        WallTimer query_timer;
        auto top = client->TopKFor(node, static_cast<std::uint32_t>(topk));
        INCSR_CHECK(top.ok(), "query RPC failed: %s",
                    top.status().ToString().c_str());
        query_lat[r].Record(ElapsedNs(query_timer));
      }
    });
  }
  for (std::size_t w = 0; w < writers; ++w) threads[w].join();
  {
    auto client = net::IncSrClient::Connect(endpoints[0]);
    INCSR_CHECK(client.ok(), "flush connect failed");
    INCSR_CHECK(client->Flush().ok(), "flush RPC failed");
  }
  NetLoadResult result;
  result.ingest_seconds = timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  for (std::size_t t = writers; t < threads.size(); ++t) threads[t].join();
  result.query_seconds = result.ingest_seconds;

  obs::HistogramSnapshot ingest_merged;
  for (const obs::Histogram& per : ingest_lat) {
    ingest_merged += per.snapshot();
  }
  result.ingest_rpcs = ingest_merged.count;
  result.ingest_p50_us = ingest_merged.Percentile(0.50) / 1e3;
  result.ingest_p99_us = ingest_merged.Percentile(0.99) / 1e3;
  result.accepted = accepted.load();
  result.dropped = dropped.load();
  obs::HistogramSnapshot query_merged;
  for (const obs::Histogram& per : query_lat) {
    query_merged += per.snapshot();
  }
  result.total_queries = query_merged.count;
  result.p50_us = query_merged.Percentile(0.50) / 1e3;
  result.p99_us = query_merged.Percentile(0.99) / 1e3;
  return result;
}

// Read-only closed loop: `total_clients` threads round-robin across the
// endpoints for `seconds`; aggregate qps + percentiles.
NetLoadResult MeasureNetQueries(const std::vector<std::string>& endpoints,
                                std::size_t total_clients, double seconds,
                                std::size_t num_nodes, std::size_t topk,
                                double zipf_theta) {
  std::vector<obs::Histogram> query_lat(total_clients);
  std::vector<std::thread> threads;
  bench::ZipfSampler zipf(num_nodes, zipf_theta);
  std::atomic<bool> done{false};
  WallTimer timer;
  for (std::size_t t = 0; t < total_clients; ++t) {
    threads.emplace_back([&, t] {
      auto client =
          net::IncSrClient::Connect(endpoints[t % endpoints.size()]);
      INCSR_CHECK(client.ok(), "query client connect failed: %s",
                  client.status().ToString().c_str());
      Rng rng(4242 + static_cast<std::uint64_t>(t));
      while (!done.load(std::memory_order_acquire)) {
        const auto node = static_cast<graph::NodeId>(zipf.Next(&rng));
        WallTimer query_timer;
        auto top = client->TopKFor(node, static_cast<std::uint32_t>(topk));
        INCSR_CHECK(top.ok(), "query RPC failed: %s",
                    top.status().ToString().c_str());
        query_lat[t].Record(ElapsedNs(query_timer));
      }
    });
  }
  while (timer.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  done.store(true, std::memory_order_release);
  NetLoadResult result;
  result.query_seconds = timer.ElapsedSeconds();
  for (std::thread& thread : threads) thread.join();
  obs::HistogramSnapshot merged;
  for (const obs::Histogram& per : query_lat) {
    merged += per.snapshot();
  }
  result.total_queries = merged.count;
  result.p50_us = merged.Percentile(0.50) / 1e3;
  result.p99_us = merged.Percentile(0.99) / 1e3;
  return result;
}

void ReportNet(const char* label, const NetLoadResult& result) {
  const double updates_per_sec =
      result.ingest_seconds > 0.0
          ? static_cast<double>(result.accepted) / result.ingest_seconds
          : 0.0;
  const double queries_per_sec =
      result.query_seconds > 0.0
          ? static_cast<double>(result.total_queries) / result.query_seconds
          : 0.0;
  std::printf(
      "%-14s %9.0f upd/s  %8.0f qry/s  p50 %7.1f us  p99 %7.1f us  "
      "(%llu queries over the wire)\n",
      label, updates_per_sec, queries_per_sec, result.p50_us, result.p99_us,
      static_cast<unsigned long long>(result.total_queries));
  if (result.ingest_rpcs > 0) {
    std::printf(
        "%-14s ingest RPCs: %llu (%llu updates accepted, %llu rejected by "
        "backpressure), p50 %.1f us, p99 %.1f us\n",
        "", static_cast<unsigned long long>(result.ingest_rpcs),
        static_cast<unsigned long long>(result.accepted),
        static_cast<unsigned long long>(result.dropped),
        result.ingest_p50_us, result.ingest_p99_us);
  }
}

void RecordNetRun(bench::JsonObject* root, const char* label,
                  const NetLoadResult& result) {
  bench::JsonObject* run = root->AddObject("runs");
  run->Set("label", label)
      .Set("updates_per_sec",
           result.ingest_seconds > 0.0
               ? static_cast<double>(result.accepted) / result.ingest_seconds
               : 0.0)
      .Set("queries_per_sec",
           result.query_seconds > 0.0
               ? static_cast<double>(result.total_queries) /
                     result.query_seconds
               : 0.0)
      .Set("p50_us", result.p50_us)
      .Set("p99_us", result.p99_us)
      .Set("ingest_rpcs", result.ingest_rpcs)
      .Set("ingest_p50_us", result.ingest_p50_us)
      .Set("ingest_p99_us", result.ingest_p99_us)
      .Set("updates_accepted", result.accepted)
      .Set("updates_rejected", result.dropped);
}

// --connect: the server already exists; draw node ids from its reported
// graph and synthesize an insert stream over them (duplicates are
// validated server-side, exactly like in-process Submit).
int RunConnectMode(const LoadConfig& config) {
  auto probe = net::IncSrClient::Connect(config.connect);
  if (!probe.ok()) {
    std::fprintf(stderr, "connect %s: %s\n", config.connect.c_str(),
                 probe.status().ToString().c_str());
    return 1;
  }
  auto stats = probe->Stats();
  INCSR_CHECK(stats.ok(), "stats RPC failed: %s",
              stats.status().ToString().c_str());
  const auto num_nodes = static_cast<std::size_t>(stats->num_nodes);
  INCSR_CHECK(num_nodes >= 2, "server graph too small to bench");
  std::printf(
      "over-the-wire against %s: %s, %llu nodes, %llu edges, epoch %llu\n",
      config.connect.c_str(), stats->is_replica ? "replica" : "primary",
      static_cast<unsigned long long>(stats->num_nodes),
      static_cast<unsigned long long>(stats->num_edges),
      static_cast<unsigned long long>(stats->stats.epoch));

  std::vector<graph::EdgeUpdate> updates;
  Rng rng(77);
  for (std::size_t i = 0; i < config.updates; ++i) {
    const auto src = static_cast<graph::NodeId>(rng.NextBounded(num_nodes));
    auto dst = static_cast<graph::NodeId>(rng.NextBounded(num_nodes));
    if (dst == src) dst = static_cast<graph::NodeId>((dst + 1) % num_nodes);
    updates.push_back({graph::UpdateKind::kInsert, src, dst});
  }

  NetLoadResult result =
      DriveNetLoad({config.connect}, updates, config.writers, config.readers,
                   config.net_batch, num_nodes, config.topk,
                   config.zipf_theta);
  ReportNet("net:", result);

  if (!config.json_path.empty()) {
    bench::JsonObject root;
    root.Set("bench", "serve_throughput")
        .Set("mode", "connect")
        .Set("endpoint", config.connect)
        .Set("nodes", num_nodes)
        .Set("updates", config.updates)
        .Set("writers", config.writers)
        .Set("readers", config.readers)
        .Set("topk", config.topk)
        .Set("net_batch", config.net_batch)
        .Set("zipf_theta", config.zipf_theta);
    RecordNetRun(&root, "net", result);
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}

// --replicas R: primary + R replicas in one process over loopback; the
// deliverable number is aggregate read qps across all endpoints vs the
// primary alone, with the same client count in both runs.
int RunReplicaSweep(const LoadConfig& config) {
  graph::DynamicDiGraph graph;
  std::vector<graph::EdgeUpdate> updates;
  BuildWorkload(config, &graph, &updates);

  simrank::SimRankOptions sr_options;
  sr_options.num_threads = config.threads;
  service::ServiceOptions service_options;
  service_options.max_batch = config.max_batch;
  service_options.topk_index_capacity = config.index_capacity;

  auto index = core::DynamicSimRank::Create(graph, sr_options);
  INCSR_CHECK(index.ok(), "index build failed");
  auto primary = service::SimRankService::Create(std::move(index).value(),
                                                 service_options);
  INCSR_CHECK(primary.ok(), "primary service build failed");
  auto primary_server = net::IncSrServer::Serve(primary->get());
  INCSR_CHECK(primary_server.ok(), "primary server failed: %s",
              primary_server.status().ToString().c_str());
  const std::string primary_endpoint =
      "127.0.0.1:" + std::to_string((*primary_server)->port());

  // Replicas subscribe from seq 0 BEFORE ingest so the sweep also
  // exercises live streaming, not just backlog catch-up.
  std::vector<std::unique_ptr<service::SimRankService>> replica_services;
  std::vector<std::unique_ptr<net::IncSrServer>> replica_servers;
  std::vector<std::unique_ptr<net::ReplicationClient>> replication;
  std::vector<std::string> endpoints{primary_endpoint};
  for (std::size_t r = 0; r < config.replicas; ++r) {
    auto replica_index = core::DynamicSimRank::Create(graph, sr_options);
    INCSR_CHECK(replica_index.ok(), "replica index build failed");
    auto replica = service::SimRankService::CreateReplica(
        std::move(replica_index).value(), service_options);
    INCSR_CHECK(replica.ok(), "replica service build failed");
    auto server = net::IncSrServer::Serve(replica->get());
    INCSR_CHECK(server.ok(), "replica server failed");
    net::ReplicationClientOptions repl_options;
    repl_options.primary_port = (*primary_server)->port();
    auto client =
        net::ReplicationClient::Start(replica->get(), repl_options);
    INCSR_CHECK(client.ok(), "replication client failed: %s",
                client.status().ToString().c_str());
    endpoints.push_back("127.0.0.1:" +
                        std::to_string((*server)->port()));
    replica_services.push_back(std::move(*replica));
    replica_servers.push_back(std::move(*server));
    replication.push_back(std::move(*client));
  }

  // Phase 1: over-the-wire mixed ingest + query load against the primary.
  NetLoadResult ingest = DriveNetLoad(
      {primary_endpoint}, updates, config.writers, config.readers,
      config.net_batch, config.nodes, config.topk, config.zipf_theta);
  ReportNet("net primary:", ingest);

  // Convergence barrier: every replica reaches the primary's epoch.
  const std::uint64_t target_epoch = (*primary)->stats().epoch;
  WallTimer catch_up;
  for (const auto& replica : replica_services) {
    while (replica->stats().epoch < target_epoch) {
      INCSR_CHECK(catch_up.ElapsedSeconds() < 30.0,
                  "replica catch-up timed out at epoch %llu of %llu",
                  static_cast<unsigned long long>(replica->stats().epoch),
                  static_cast<unsigned long long>(target_epoch));
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  std::printf(
      "%zu replica(s) converged to epoch %llu in %.3f s after flush\n",
      config.replicas, static_cast<unsigned long long>(target_epoch),
      catch_up.ElapsedSeconds());

  // Phase 2: same client count, primary only vs spread across all.
  const std::size_t total_clients =
      config.net_clients * (config.replicas + 1);
  NetLoadResult single =
      MeasureNetQueries({primary_endpoint}, total_clients,
                        config.measure_seconds, config.nodes, config.topk,
                        config.zipf_theta);
  ReportNet("net 1 server:", single);
  NetLoadResult spread =
      MeasureNetQueries(endpoints, total_clients, config.measure_seconds,
                        config.nodes, config.topk, config.zipf_theta);
  ReportNet("net spread:", spread);
  const double single_qps =
      static_cast<double>(single.total_queries) / single.query_seconds;
  const double spread_qps =
      static_cast<double>(spread.total_queries) / spread.query_seconds;
  const double speedup = single_qps > 0.0 ? spread_qps / single_qps : 0.0;
  const unsigned cores = std::thread::hardware_concurrency();
  std::printf(
      "read scaling: %.0f qry/s on 1 server -> %.0f qry/s on %zu servers "
      "(%.2fx aggregate, %u core(s))\n",
      single_qps, spread_qps, endpoints.size(), speedup, cores);
  if (cores < endpoints.size()) {
    std::printf(
        "note: %u core(s) < %zu server loops — all endpoints share the same "
        "CPU, so the aggregate cannot scale; rerun on >= %zu cores for the "
        "read-scaling number\n",
        cores, endpoints.size(), endpoints.size());
  }

  if (!config.json_path.empty()) {
    bench::JsonObject root;
    root.Set("bench", "serve_throughput")
        .Set("mode", "replica-sweep")
        .Set("nodes", config.nodes)
        .Set("edges", config.edges)
        .Set("updates", config.updates)
        .Set("writers", config.writers)
        .Set("readers", config.readers)
        .Set("topk", config.topk)
        .Set("net_batch", config.net_batch)
        .Set("replicas", config.replicas)
        .Set("net_clients_per_endpoint", config.net_clients)
        .Set("measure_seconds", config.measure_seconds)
        .Set("zipf_theta", config.zipf_theta)
        .Set("read_scaling", speedup)
        .Set("cores", static_cast<std::uint64_t>(cores));
    RecordNetRun(&root, "net_primary_mixed", ingest);
    RecordNetRun(&root, "net_single_server", single);
    RecordNetRun(&root, "net_spread", spread);
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }

  // Orderly teardown: replication streams first, then servers, services.
  for (auto& client : replication) client->Stop();
  for (auto& server : replica_servers) server->Stop();
  (*primary_server)->Stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench();
  LoadConfig config;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> std::size_t {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      return static_cast<std::size_t>(std::atoll(argv[++i]));
    };
    if (std::strcmp(argv[i], "--nodes") == 0) {
      config.nodes = next();
    } else if (std::strcmp(argv[i], "--edges") == 0) {
      config.edges = next();
    } else if (std::strcmp(argv[i], "--updates") == 0) {
      config.updates = next();
    } else if (std::strcmp(argv[i], "--writers") == 0) {
      config.writers = next();
    } else if (std::strcmp(argv[i], "--readers") == 0) {
      config.readers = next();
    } else if (std::strcmp(argv[i], "--topk") == 0) {
      config.topk = next();
    } else if (std::strcmp(argv[i], "--max-batch") == 0) {
      config.max_batch = next();
    } else if (std::strcmp(argv[i], "--components") == 0) {
      config.components = next();
      INCSR_CHECK(config.components >= 1, "--components needs >= 1");
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      config.shards = next();
    } else if (std::strcmp(argv[i], "--index-capacity") == 0) {
      config.index_capacity = next();
    } else if (std::strcmp(argv[i], "--zipf") == 0) {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      const char* value = argv[++i];
      char* end = nullptr;
      config.zipf_theta = std::strtod(value, &end);
      INCSR_CHECK(end != value && *end == '\0' && config.zipf_theta >= 0.0,
                  "--zipf needs a theta >= 0, got '%s'", value);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      config.threads = static_cast<int>(next());
    } else if (std::strcmp(argv[i], "--json") == 0) {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      config.json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--connect") == 0) {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      config.connect = argv[++i];
      INCSR_CHECK(net::ParseHostPort(config.connect).ok(),
                  "--connect needs HOST:PORT, got '%s'",
                  config.connect.c_str());
    } else if (std::strcmp(argv[i], "--replicas") == 0) {
      config.replicas = next();
    } else if (std::strcmp(argv[i], "--net-batch") == 0) {
      config.net_batch = next();
      INCSR_CHECK(config.net_batch >= 1, "--net-batch needs >= 1");
    } else if (std::strcmp(argv[i], "--net-clients") == 0) {
      config.net_clients = next();
      INCSR_CHECK(config.net_clients >= 1, "--net-clients needs >= 1");
    } else if (std::strcmp(argv[i], "--measure-seconds") == 0) {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      const char* value = argv[++i];
      char* end = nullptr;
      config.measure_seconds = std::strtod(value, &end);
      INCSR_CHECK(end != value && *end == '\0' && config.measure_seconds > 0.0,
                  "--measure-seconds needs a duration > 0, got '%s'", value);
    } else if (std::strcmp(argv[i], "--trace-out") == 0) {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      config.trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-buffer-kb") == 0) {
      config.trace_buffer_kb = next();
      INCSR_CHECK(config.trace_buffer_kb >= 1, "--trace-buffer-kb needs >= 1");
    } else if (std::strcmp(argv[i], "--churn") == 0) {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      const char* mode = argv[++i];
      if (std::strcmp(mode, "delete-heavy") == 0) {
        config.delete_heavy = true;
      } else {
        INCSR_CHECK(std::strcmp(mode, "insert") == 0,
                    "unknown churn mode %s", mode);
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  INCSR_CHECK(config.connect.empty() || config.replicas == 0,
              "--connect and --replicas are mutually exclusive");
  if (!config.connect.empty()) {
    bench::PrintHeader("serve_throughput — over-the-wire client load");
    return RunConnectMode(config);
  }
  if (config.replicas > 0) {
    bench::PrintHeader("serve_throughput — replica read-scaling sweep");
    return RunReplicaSweep(config);
  }

  bench::PrintHeader("serve_throughput — mixed read/write serving load");
  std::printf(
      "n = %zu, |E| = %zu, |dG| = %zu (%s), %zu components, %zu shard(s), "
      "%zu writers, %zu readers, k = %zu, max_batch = %zu, zipf = %.2f, "
      "kernel threads = %zu, index capacity = %zu\n",
      config.nodes, config.edges, config.updates,
      config.delete_heavy ? "70/30 delete/insert churn" : "insertions",
      config.components, config.shards == 0 ? std::size_t{1} : config.shards,
      config.writers, config.readers, config.topk, config.max_batch,
      config.zipf_theta, Scheduler::EffectiveNumThreads(config.threads),
      config.index_capacity);

  graph::DynamicDiGraph graph;
  std::vector<graph::EdgeUpdate> updates;
  BuildWorkload(config, &graph, &updates);

  LoadResult cached = RunLoad(config, graph, updates,
                              /*cache_capacity=*/4096);
  Report("cache on:", config, updates.size(), cached);
  LoadResult uncached = RunLoad(config, graph, updates,
                                /*cache_capacity=*/0);
  Report("cache off:", config, updates.size(), uncached);

  // Tracing-overhead A/B: interleaved PAIRS of untraced/traced ingest
  // replays, overhead = median of the per-pair throughput ratios.
  // Pairing + median is what makes the number usable on a noisy (or
  // single-core) box: machine-load drift hits both halves of a pair
  // equally, and the median discards the pairs a descheduling ruined.
  // The arms run WITHOUT readers: every trace event rides the applier,
  // readers emit none — they only add closed-loop scheduler noise orders
  // of magnitude larger than the ~20 ns ring write being measured. Each
  // traced half is its own Tracer session on config.trace_out, so the
  // file ends up with the LAST pair's trace — a real multi-epoch artifact
  // for `incsr_cli trace summarize`.
  double trace_overhead_pct = 0.0;
  bool trace_overhead_ok = true;
  LoadResult trace_off;
  LoadResult trace_on;
  if (!config.trace_out.empty()) {
    constexpr int kPairs = 7;
    LoadConfig ab = config;
    ab.readers = 0;
    std::vector<double> ratios;
    double off_best = 0.0;
    double on_best = 0.0;
    std::uint64_t trace_events = 0;
    std::uint64_t trace_dropped = 0;
    for (int pair = 0; pair < kPairs; ++pair) {
      LoadResult off = RunLoad(ab, graph, updates, /*cache_capacity=*/4096);
      const double off_ups =
          static_cast<double>(off.stats.applied) / off.ingest_seconds;
      obs::Tracer& tracer = obs::Tracer::Instance();
      Status started =
          tracer.Start(config.trace_out, config.trace_buffer_kb);
      INCSR_CHECK(started.ok(), "trace start failed: %s",
                  started.ToString().c_str());
      LoadResult on = RunLoad(ab, graph, updates, /*cache_capacity=*/4096);
      trace_events = tracer.TotalEventsRecorded();
      trace_dropped = tracer.TotalEventsDropped();
      tracer.Stop();
      const double on_ups =
          static_cast<double>(on.stats.applied) / on.ingest_seconds;
      // Ratio of applier WORK time (sum of per-batch apply walls from the
      // always-on apply histogram), not end-to-end wall: both runs apply
      // the identical update stream, and work time excludes the queue
      // idle + writer-scheduling gaps that dominate wall-clock jitter.
      const double off_work = static_cast<double>(off.stats.apply_ns.sum);
      const double on_work = static_cast<double>(on.stats.apply_ns.sum);
      if (off_work > 0.0) ratios.push_back(on_work / off_work);
      if (off_ups > off_best) {
        off_best = off_ups;
        trace_off = off;
      }
      if (on_ups > on_best) {
        on_best = on_ups;
        trace_on = on;
      }
    }
    Report("trace off:", config, updates.size(), trace_off);
    Report("trace on:", config, updates.size(), trace_on);
    INCSR_CHECK(!ratios.empty(), "no tracing A/B pairs completed");
    std::sort(ratios.begin(), ratios.end());
    trace_overhead_pct = 100.0 * (ratios[ratios.size() / 2] - 1.0);
    trace_overhead_ok = trace_overhead_pct <= kTraceOverheadLimitPct;
    std::printf(
        "tracing overhead: %.2f%% on applier throughput (median of %d "
        "interleaved pairs; best %.0f vs %.0f upd/s; budget %.1f%%: %s); "
        "%llu events/run (%llu dropped) -> %s\n",
        trace_overhead_pct, kPairs, off_best, on_best, kTraceOverheadLimitPct,
        trace_overhead_ok ? "ok" : "EXCEEDED",
        static_cast<unsigned long long>(trace_events),
        static_cast<unsigned long long>(trace_dropped),
        config.trace_out.c_str());
  }

  if (!config.json_path.empty()) {
    bench::JsonObject root;
    root.Set("bench", "serve_throughput")
        .Set("nodes", config.nodes)
        .Set("edges", config.edges)
        .Set("updates", config.updates)
        .Set("writers", config.writers)
        .Set("readers", config.readers)
        .Set("topk", config.topk)
        .Set("max_batch", config.max_batch)
        .Set("components", config.components)
        .Set("shards", config.shards)
        .Set("zipf_theta", config.zipf_theta)
        .Set("churn", config.delete_heavy ? "delete-heavy" : "insert")
        .Set("threads", Scheduler::EffectiveNumThreads(config.threads))
        .Set("topk_index_capacity", config.index_capacity);
    RecordRun(&root, "cache_on", config, cached);
    RecordRun(&root, "cache_off", config, uncached);
    if (!config.trace_out.empty()) {
      root.Set("trace_file", config.trace_out)
          .Set("trace_overhead_pct", trace_overhead_pct)
          .Set("trace_overhead_limit_pct", kTraceOverheadLimitPct)
          .Set("trace_overhead_ok", trace_overhead_ok);
      RecordRun(&root, "trace_off", config, trace_off);
      RecordRun(&root, "trace_on", config, trace_on);
    }
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}
