// topk_index — miss-path microbenchmark for the per-node top-k index
// (service/topk_index.h): does a TopKFor cache MISS still scale with n?
//
// For each n in --nodes-list it builds a service over a synthetic
// similarity matrix (random symmetric scores through
// DynamicSimRank::FromState — ranking mechanics are what is measured, not
// SimRank values, and this keeps the sweep off the O(K·n·m) batch solve),
// DISABLES the query cache so every query is a miss, and times --queries
// TopKFor misses twice: index on (O(k) entry reads) and index off (O(n)
// row scans). At fixed k and capacity the index path should be flat in n
// while the scan path grows linearly — that is the acceptance criterion
// for the last O(n)-per-query hot path becoming affected-area-
// proportional. Results are cross-checked against the row-scan oracle.
//
// A churn phase then replays --updates insertions through the index-on
// service and reports the applier-side maintenance cost: index rows
// re-ranked per epoch (== rows the batch touched, never n).
//
// Last comes the index-maintenance ledger: for each n, over a dense store
// and a sparse one (~2 % of each row stored), it times
// TopKIndex::RebuildAll (ms) and RebuildRows over n/4 distinct random rows
// (ns per row) at 1 and 4 threads, and checks that both thread counts
// build bitwise-identical entries. Results land in the JSON's "rebuild"
// array.
//
// Usage: bench_topk_index [--nodes-list 1000,2000,4000] [--queries Q]
//          [--topk K] [--index-capacity C] [--edges-per-node D]
//          [--updates U] [--json PATH]
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "incsr/incsr.h"

namespace {

using namespace incsr;

struct Config {
  std::vector<std::size_t> nodes_list = {1000, 2000, 4000};
  std::size_t queries = 20000;
  std::size_t topk = 10;
  std::size_t index_capacity = 64;
  std::size_t edges_per_node = 4;
  std::size_t updates = 32;
  std::string json_path;
};

// Random symmetric scores with a unit-ish diagonal: what the ranking
// paths see is shaped like a similarity matrix, generated in O(n²)
// instead of solved.
la::DenseMatrix SyntheticScores(std::size_t n, std::uint64_t seed) {
  la::DenseMatrix s(n, n);
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    s(i, i) = 1.0;
    for (std::size_t j = i + 1; j < n; ++j) {
      const double v = rng.NextDouble();
      s(i, j) = v;
      s(j, i) = v;
    }
  }
  return s;
}

std::unique_ptr<service::SimRankService> MakeService(
    const graph::DynamicDiGraph& graph, std::size_t index_capacity,
    std::uint64_t score_seed) {
  auto index = core::DynamicSimRank::FromState(
      graph, SyntheticScores(graph.num_nodes(), score_seed), {});
  INCSR_CHECK(index.ok(), "FromState failed: %s",
              index.status().ToString().c_str());
  service::ServiceOptions options;
  options.cache_capacity = 0;  // every query is a miss — the path under test
  options.max_batch = 8;       // several epochs during the churn phase
  options.topk_index_capacity = index_capacity;
  auto svc = service::SimRankService::Create(std::move(index).value(),
                                             options);
  INCSR_CHECK(svc.ok(), "service build failed");
  return std::move(svc).value();
}

// Entries of every row, bitwise (score bits included).
bool SameEntries(const service::TopKIndex& x, const service::TopKIndex& y,
                 std::size_t n) {
  for (std::size_t row = 0; row < n; ++row) {
    const auto a = x.EntryItems(row);
    const auto b = y.EntryItems(row);
    if (a.size() != b.size() ||
        (!a.empty() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) != 0)) {
      return false;
    }
  }
  return true;
}

// The maintenance ledger for one n: RebuildAll and RebuildRows cost over a
// dense and a sparse store, at 1 and 4 threads.
void RebuildSweep(std::size_t n, std::size_t capacity,
                  bench::JsonObject* root) {
  la::ScoreStore dense(SyntheticScores(n, 23));
  la::ScoreStore sparse(SyntheticScores(n, 23));
  // Scores are uniform in [0, 1): epsilon 0.98 keeps ~2 % of each row.
  sparse.set_sparsity({.epsilon = 0.98, .max_density = 0.5});
  for (std::size_t row = 0; row < n; ++row) sparse.SparsifyRow(row, {});
  Rng rng(31);
  std::vector<std::int32_t> rows(std::max<std::size_t>(1, n / 4));
  for (std::int32_t& row : rows) {
    row = static_cast<std::int32_t>(rng.NextBounded(n));
  }
  std::sort(rows.begin(), rows.end());  // RebuildRows' input contract
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  for (const auto& [name, store] :
       {std::pair<const char*, const la::ScoreStore*>{"dense", &dense},
        {"sparse", &sparse}}) {
    std::unique_ptr<service::TopKIndex> serial;
    for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      auto index = std::make_unique<service::TopKIndex>(capacity, threads);
      WallTimer all_timer;
      index->RebuildAll(*store);
      const double all_ms = all_timer.ElapsedSeconds() * 1e3;
      const std::uint64_t before = index->rows_reranked();
      WallTimer rows_timer;
      index->RebuildRows(*store, rows);
      const double rows_seconds = rows_timer.ElapsedSeconds();
      const std::uint64_t reranked = index->rows_reranked() - before;
      const double ns_per_row =
          rows_seconds * 1e9 /
          static_cast<double>(std::max<std::uint64_t>(1, reranked));
      bool identical = true;
      if (serial == nullptr) {
        serial = std::move(index);
      } else {
        identical = SameEntries(*serial, *index, n);
        INCSR_CHECK(identical, "rebuild at %zu threads differs from serial",
                    threads);
      }
      std::printf("  %8zu %8s %8zu %16.2f %20.0f\n", n, name, threads,
                  all_ms, ns_per_row);
      root->AddObject("rebuild")
          ->Set("nodes", n)
          .Set("store", name)
          .Set("threads", threads)
          .Set("index_capacity", capacity)
          .Set("rebuild_all_ms", all_ms)
          .Set("rebuild_rows", reranked)
          .Set("rebuild_rows_ns_per_row", ns_per_row)
          .Set("bitwise_equal_to_serial", identical);
    }
  }
}

// Times `queries` uniform-random TopKFor misses; returns seconds.
double TimeMisses(service::SimRankService* svc, std::size_t n,
                  std::size_t queries, std::size_t k) {
  Rng rng(99);
  std::size_t consumed = 0;
  WallTimer timer;
  for (std::size_t q = 0; q < queries; ++q) {
    const auto node = static_cast<graph::NodeId>(rng.NextBounded(n));
    auto top = svc->TopKFor(node, k);
    INCSR_CHECK(top.ok(), "query failed");
    consumed += top->size();
  }
  const double seconds = timer.ElapsedSeconds();
  INCSR_CHECK(consumed > 0, "no results consumed");
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench();
  Config config;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> const char* {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--nodes-list") == 0) {
      config.nodes_list.clear();
      std::stringstream list(next());
      std::string part;
      while (std::getline(list, part, ',')) {
        config.nodes_list.push_back(
            static_cast<std::size_t>(std::atoll(part.c_str())));
      }
      INCSR_CHECK(!config.nodes_list.empty(), "--nodes-list needs values");
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      config.queries = static_cast<std::size_t>(std::atoll(next()));
      INCSR_CHECK(config.queries >= 1, "--queries needs >= 1");
    } else if (std::strcmp(argv[i], "--topk") == 0) {
      config.topk = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--index-capacity") == 0) {
      config.index_capacity = static_cast<std::size_t>(std::atoll(next()));
      INCSR_CHECK(config.index_capacity >= 1,
                  "--index-capacity needs >= 1 (the bench compares the "
                  "index path against the scan path)");
    } else if (std::strcmp(argv[i], "--edges-per-node") == 0) {
      config.edges_per_node = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--updates") == 0) {
      config.updates = static_cast<std::size_t>(std::atoll(next()));
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_path = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  INCSR_CHECK(config.topk <= config.index_capacity,
              "--topk must be <= --index-capacity, or every miss falls "
              "back to the scan and the two runs measure the same path");

  bench::PrintHeader("topk_index — TopKFor miss path: index vs row scan");
  std::printf(
      "queries = %zu, k = %zu, index capacity = %zu, cache disabled "
      "(every query is a miss)\n",
      config.queries, config.topk, config.index_capacity);
  std::printf("  %8s %16s %16s %9s %22s\n", "n", "index ns/miss",
              "scan ns/miss", "speedup", "reranked rows/epoch");

  bench::JsonObject root;
  root.Set("bench", "topk_index")
      .Set("queries", config.queries)
      .Set("topk", config.topk)
      .Set("index_capacity", config.index_capacity)
      .Set("updates", config.updates);

  for (std::size_t n : config.nodes_list) {
    INCSR_CHECK(n >= 2, "--nodes-list entries need n >= 2");
    auto stream = graph::ErdosRenyiGnm(n, n * config.edges_per_node, 5);
    INCSR_CHECK(stream.ok(), "generator failed");
    graph::DynamicDiGraph graph = graph::MaterializeGraph(n, stream.value());

    auto indexed = MakeService(graph, config.index_capacity, 11);
    auto scanning = MakeService(graph, 0, 11);

    // Cross-check: the index path must be bitwise what the scan returns.
    {
      Rng probe(3);
      for (int p = 0; p < 8; ++p) {
        const auto node = static_cast<graph::NodeId>(probe.NextBounded(n));
        auto a = indexed->TopKFor(node, config.topk);
        auto b = scanning->TopKFor(node, config.topk);
        INCSR_CHECK(a.ok() && b.ok() && a.value() == b.value(),
                    "index/scan divergence at node %d", node);
      }
    }

    const double index_seconds =
        TimeMisses(indexed.get(), n, config.queries, config.topk);
    const double scan_seconds =
        TimeMisses(scanning.get(), n, config.queries, config.topk);
    service::ServiceStats stats = indexed->stats();
    INCSR_CHECK(stats.topk_index_fallbacks == 0,
                "unexpected fallbacks: k <= capacity");

    // Churn phase: maintenance cost lands on the applier, proportional to
    // the rows each batch touches.
    std::uint64_t churn_epochs = 0;
    double reranked_per_epoch = 0.0;
    if (config.updates > 0) {
      Rng rng(17);
      auto ins = graph::SampleInsertions(graph, config.updates, &rng);
      INCSR_CHECK(ins.ok(), "sampling failed");
      const std::uint64_t reranked_before = stats.topk_index_rows_reranked;
      const std::uint64_t epoch_before = stats.epoch;
      INCSR_CHECK(indexed->SubmitBatch(ins.value()).ok(), "submit failed");
      INCSR_CHECK(indexed->Flush().ok(), "flush failed");
      stats = indexed->stats();
      churn_epochs = stats.epoch - epoch_before;
      reranked_per_epoch =
          churn_epochs > 0
              ? static_cast<double>(stats.topk_index_rows_reranked -
                                    reranked_before) /
                    static_cast<double>(churn_epochs)
              : 0.0;
    }

    const double index_ns =
        index_seconds * 1e9 / static_cast<double>(config.queries);
    const double scan_ns =
        scan_seconds * 1e9 / static_cast<double>(config.queries);
    std::printf("  %8zu %13.0f ns %13.0f ns %8.1fx %19.1f\n", n, index_ns,
                scan_ns, index_seconds > 0.0 ? scan_seconds / index_seconds
                                             : 0.0,
                reranked_per_epoch);
    root.AddObject("results")
        ->Set("nodes", n)
        .Set("index_ns_per_miss", index_ns)
        .Set("scan_ns_per_miss", scan_ns)
        .Set("scan_over_index_speedup",
             index_seconds > 0.0 ? scan_seconds / index_seconds : 0.0)
        .Set("churn_epochs", churn_epochs)
        .Set("reranked_rows_per_epoch", reranked_per_epoch)
        .Set("topk_index_served", stats.topk_index_served)
        .Set("topk_index_fallbacks", stats.topk_index_fallbacks);
  }

  std::printf("\nindex maintenance (capacity %zu): RebuildAll, and "
              "RebuildRows over n/4 distinct random rows\n",
              config.index_capacity);
  std::printf("  %8s %8s %8s %16s %20s\n", "n", "store", "threads",
              "RebuildAll ms", "RebuildRows ns/row");
  root.Set("cores", static_cast<std::uint64_t>(
                        std::thread::hardware_concurrency()));
  for (std::size_t n : config.nodes_list) {
    RebuildSweep(n, config.index_capacity, &root);
  }

  if (!config.json_path.empty()) {
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}
