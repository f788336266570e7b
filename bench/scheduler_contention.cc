// scheduler_contention — the multi-applier ingest bench behind the
// work-stealing scheduler: K concurrent appliers (one thread each, bound
// to distinct affinity groups like the sharded service's shard slots)
// replay independent IncSR insertion streams through the SHARED global
// scheduler, at each thread count in --threads-list. Concurrent regions
// interleave across the worker set.
//
// Reported per thread count: aggregate applied-updates/s across the
// appliers and the per-run regions_parallel / steals / tickets_pushed
// deltas. Determinism is checked, not assumed: every applier's final S
// must be bitwise identical to its own serial (1-thread, uncontended)
// replay, at every thread count.
//
// Usage: bench_scheduler_contention [--nodes N] [--degree D]
//          [--updates U] [--iterations K] [--appliers A]
//          [--threads-list 1,2,4] [--publish-every P] [--json PATH]
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "incsr/incsr.h"

namespace {

using namespace incsr;

struct Config {
  std::size_t nodes = 400;        // per applier
  double degree = 8.0;
  std::size_t updates = 96;       // per applier
  int iterations = 10;
  std::size_t appliers = 4;
  std::vector<int> threads_list = {1, 2, 4};
  std::size_t publish_every = 32;  // epoch cadence, like the applier
  std::string json_path;
};

// One applier's private world: a clustered base graph, its batch-solved
// S0, and a fixed insertion stream. Seeds differ per applier so the
// affected areas (and hence region sizes) are not in lockstep.
struct Applier {
  graph::DynamicDiGraph base;
  la::DenseMatrix s0;
  std::vector<graph::EdgeUpdate> stream;
};

Applier MakeApplier(const Config& config, std::uint64_t seed) {
  Applier applier;
  auto stream = graph::EvolvingLinkage(
      {.num_nodes = config.nodes,
       .num_edges = static_cast<std::size_t>(config.degree *
                                             static_cast<double>(config.nodes)),
       .num_communities = std::max<std::size_t>(1, config.nodes / 65),
       .intra_community_prob = 1.0,
       .seed = seed});
  INCSR_CHECK(stream.ok(), "generator failed");
  applier.base = graph::MaterializeGraph(config.nodes, stream.value());
  simrank::SimRankOptions batch_options;
  batch_options.iterations = config.iterations;
  applier.s0 = simrank::BatchMatrix(applier.base, batch_options);
  Rng rng(seed * 7 + 3);
  auto sampled = graph::SampleInsertions(applier.base, config.updates, &rng);
  INCSR_CHECK(sampled.ok(), "sampling failed: %s",
              sampled.status().ToString().c_str());
  applier.stream = std::move(sampled).value();
  return applier;
}

// Replays one applier's stream (the serving applier's write path: unit
// updates on a COW store with periodic publishes) and returns final S.
la::DenseMatrix ReplayStream(const Config& config, const Applier& applier,
                             int threads) {
  simrank::SimRankOptions options;
  options.iterations = config.iterations;
  options.num_threads = threads;
  graph::DynamicDiGraph g = applier.base;
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  la::ScoreStore store{la::DenseMatrix(applier.s0)};
  core::IncSrEngine engine(options);
  for (std::size_t k = 0; k < applier.stream.size(); ++k) {
    Status s = engine.ApplyUpdate(applier.stream[k], &g, &q, &store);
    INCSR_CHECK(s.ok(), "update failed: %s", s.ToString().c_str());
    if ((k + 1) % config.publish_every == 0) store.Publish();
  }
  return store.ToDense();
}

struct RunResult {
  int threads = 0;
  double seconds = 0.0;
  double aggregate_updates_per_sec = 0.0;
  std::uint64_t regions_parallel = 0;
  std::uint64_t steals = 0;
  std::uint64_t tickets_pushed = 0;
};

RunResult RunContended(const Config& config,
                       const std::vector<Applier>& appliers,
                       const std::vector<la::DenseMatrix>& reference,
                       int threads) {
  Scheduler& scheduler = Scheduler::Global();
  const SchedulerStats before = scheduler.stats();

  std::vector<la::DenseMatrix> finals(appliers.size());
  std::vector<std::thread> workers;
  WallTimer timer;
  for (std::size_t i = 0; i < appliers.size(); ++i) {
    workers.emplace_back([&config, &appliers, &finals, i, threads] {
      Scheduler::BindCurrentThreadToGroup(static_cast<int>(i));
      finals[i] = ReplayStream(config, appliers[i], threads);
    });
  }
  for (std::thread& worker : workers) worker.join();

  RunResult result;
  result.threads = threads;
  result.seconds = timer.ElapsedSeconds();

  const double total_updates =
      static_cast<double>(config.updates * appliers.size());
  result.aggregate_updates_per_sec =
      result.seconds > 0.0 ? total_updates / result.seconds : 0.0;
  const SchedulerStats after = scheduler.stats();
  result.regions_parallel = after.regions_parallel - before.regions_parallel;
  result.steals = after.steals - before.steals;
  result.tickets_pushed = after.tickets_pushed - before.tickets_pushed;

  for (std::size_t i = 0; i < appliers.size(); ++i) {
    INCSR_CHECK(la::BitwiseEqual(finals[i], reference[i]),
                "applier %zu S diverged (threads=%d) — contention broke the "
                "determinism contract",
                i, threads);
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bench::InitBench();
  Config config;
  for (int i = 1; i < argc; ++i) {
    auto next = [&]() -> std::string {
      INCSR_CHECK(i + 1 < argc, "flag %s needs a value", argv[i]);
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--nodes") == 0) {
      config.nodes = static_cast<std::size_t>(std::atoll(next().c_str()));
    } else if (std::strcmp(argv[i], "--degree") == 0) {
      config.degree = std::atof(next().c_str());
    } else if (std::strcmp(argv[i], "--updates") == 0) {
      config.updates = static_cast<std::size_t>(std::atoll(next().c_str()));
    } else if (std::strcmp(argv[i], "--iterations") == 0) {
      config.iterations = std::atoi(next().c_str());
    } else if (std::strcmp(argv[i], "--appliers") == 0) {
      config.appliers = static_cast<std::size_t>(std::atoll(next().c_str()));
      INCSR_CHECK(config.appliers > 0, "--appliers needs >= 1");
    } else if (std::strcmp(argv[i], "--publish-every") == 0) {
      config.publish_every =
          static_cast<std::size_t>(std::atoll(next().c_str()));
      INCSR_CHECK(config.publish_every > 0, "--publish-every needs >= 1");
    } else if (std::strcmp(argv[i], "--threads-list") == 0) {
      config.threads_list.clear();
      std::string csv = next();
      std::size_t start = 0;
      while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::string part =
            csv.substr(start, comma == std::string::npos ? std::string::npos
                                                         : comma - start);
        const int t = std::atoi(part.c_str());
        INCSR_CHECK(t > 0, "--threads-list needs positive ints, got '%s'",
                    part.c_str());
        config.threads_list.push_back(t);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (std::strcmp(argv[i], "--json") == 0) {
      config.json_path = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  INCSR_CHECK(!config.threads_list.empty(), "--threads-list is empty");

  bench::PrintHeader(
      "scheduler_contention — concurrent appliers on the shared scheduler");
  std::printf(
      "%zu appliers × (n = %zu, degree = %.1f, |dG| = %zu insertions), "
      "K = %d, publish every %zu, scheduler = %zu threads, host = %u "
      "hardware threads\n",
      config.appliers, config.nodes, config.degree, config.updates,
      config.iterations, config.publish_every,
      Scheduler::Global().num_threads(),
      std::thread::hardware_concurrency());

  std::vector<Applier> appliers;
  std::vector<la::DenseMatrix> reference;
  WallTimer build_timer;
  for (std::size_t i = 0; i < config.appliers; ++i) {
    appliers.push_back(MakeApplier(config, 11 + 6 * i));
    // Uncontended serial replay: the bitwise reference every contended
    // run must reproduce.
    reference.push_back(ReplayStream(config, appliers.back(), 1));
  }
  std::printf("built %zu appliers (batch solves + serial references): %.2f s\n",
              config.appliers, build_timer.ElapsedSeconds());

  std::vector<RunResult> results;
  std::printf("  %8s %10s %14s %10s %8s\n", "threads", "seconds",
              "agg upd/s", "parallel", "steals");
  for (int threads : config.threads_list) {
    results.push_back(RunContended(config, appliers, reference, threads));
    const RunResult& run = results.back();
    std::printf("  %8d %8.3f s %14.0f %10llu %8llu\n", run.threads,
                run.seconds, run.aggregate_updates_per_sec,
                static_cast<unsigned long long>(run.regions_parallel),
                static_cast<unsigned long long>(run.steals));
  }

  if (!config.json_path.empty()) {
    bench::JsonObject root;
    root.Set("bench", "scheduler_contention")
        .Set("appliers", config.appliers)
        .Set("nodes", config.nodes)
        .Set("degree", config.degree)
        .Set("updates_per_applier", config.updates)
        .Set("iterations", config.iterations)
        .Set("publish_every", config.publish_every)
        .Set("scheduler_threads", Scheduler::Global().num_threads())
        .Set("hardware_threads",
             static_cast<std::size_t>(std::thread::hardware_concurrency()));
    for (const RunResult& run : results) {
      root.AddObject("results")
          ->Set("mode", "work_stealing")
          .Set("threads", run.threads)
          .Set("seconds", run.seconds)
          .Set("aggregate_updates_per_sec", run.aggregate_updates_per_sec)
          .Set("regions_parallel", run.regions_parallel)
          .Set("steals", run.steals)
          .Set("tickets_pushed", run.tickets_pushed)
          .Set("bitwise_identical_to_serial", true);
    }
    INCSR_CHECK(bench::WriteJsonFile(config.json_path, root),
                "failed to write %s", config.json_path.c_str());
    std::printf("wrote %s\n", config.json_path.c_str());
  }
  return 0;
}
