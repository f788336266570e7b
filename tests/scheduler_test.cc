// Concurrent-region scheduler tests: the work-stealing guarantees the
// single-region ThreadPool could not make. K independent submitters on
// one Scheduler must (a) each see their range covered exactly once,
// (b) all run PARALLEL on the worker set whenever workers exist (no
// submitter is degraded to inline-serial by another's region), and (c) leave
// every kernel bitwise deterministic: K appliers driving IncSR streams
// concurrently through the shared Global() scheduler produce S matrices
// and epoch-view sequences byte-identical to a serial replay, at every
// thread count. The suite runs in the TSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/scheduler.h"
#include "core/inc_sr.h"
#include "graph/generators.h"
#include "graph/transition.h"
#include "graph/update_stream.h"
#include "la/dense_matrix.h"
#include "la/score_store.h"
#include "simrank/batch_matrix.h"

namespace incsr {
namespace {

// ---- Concurrent regions share the worker set ------------------------------

TEST(SchedulerConcurrent, ConcurrentRegionsCoverRangesAndStayParallel) {
  Scheduler scheduler(4);
  constexpr std::size_t kSubmitters = 4;
  constexpr std::size_t kRegionsEach = 8;
  constexpr std::size_t kCount = 513;
  const SchedulerStats before = scheduler.stats();

  std::vector<std::vector<std::atomic<int>>> hits(kSubmitters);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kCount);
  }
  std::vector<std::thread> submitters;
  for (std::size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&scheduler, &hits, s] {
      Scheduler::BindCurrentThreadToGroup(static_cast<int>(s));
      for (std::size_t r = 0; r < kRegionsEach; ++r) {
        scheduler.ParallelForChunks(
            0, kCount, /*num_chunks=*/8, /*max_threads=*/4,
            [&hits, s](std::size_t, std::size_t lo, std::size_t hi) {
              for (std::size_t k = lo; k < hi; ++k) {
                hits[s][k].fetch_add(1, std::memory_order_relaxed);
              }
            });
      }
    });
  }
  for (std::thread& t : submitters) t.join();

  for (std::size_t s = 0; s < kSubmitters; ++s) {
    for (std::size_t k = 0; k < kCount; ++k) {
      ASSERT_EQ(hits[s][k].load(), static_cast<int>(kRegionsEach))
          << "submitter " << s << " index " << k;
    }
  }
  const SchedulerStats after = scheduler.stats();
  // Every region ran on the worker set — the old pool would have
  // degraded all but one concurrent submitter to inline-serial.
  EXPECT_EQ(after.regions_parallel - before.regions_parallel,
            kSubmitters * kRegionsEach);
  EXPECT_GT(after.tickets_pushed, before.tickets_pushed);
}

TEST(SchedulerConcurrent, GroupBindingIsThreadLocal) {
  const int main_before = Scheduler::CurrentThreadGroup();
  Scheduler::BindCurrentThreadToGroup(3);
  EXPECT_EQ(Scheduler::CurrentThreadGroup(), 3);
  std::thread other([] {
    EXPECT_EQ(Scheduler::CurrentThreadGroup(), -1);  // fresh thread: unbound
    Scheduler::BindCurrentThreadToGroup(7);
    EXPECT_EQ(Scheduler::CurrentThreadGroup(), 7);
  });
  other.join();
  EXPECT_EQ(Scheduler::CurrentThreadGroup(), 3);  // unaffected by `other`
  Scheduler::BindCurrentThreadToGroup(main_before);
}

// ---- Concurrent appliers stay bitwise deterministic ------------------------

struct Fixture {
  graph::DynamicDiGraph base;
  la::DenseMatrix s0;
  std::vector<graph::EdgeUpdate> stream;
  simrank::SimRankOptions options;
};

Fixture MakeFixture(std::uint64_t seed) {
  constexpr std::size_t kNodes = 260;
  Fixture f;
  auto stream = graph::EvolvingLinkage({.num_nodes = kNodes,
                                        .num_edges = 8 * kNodes,
                                        .num_communities = kNodes / 65,
                                        .intra_community_prob = 1.0,
                                        .seed = seed});
  EXPECT_TRUE(stream.ok());
  f.base = graph::MaterializeGraph(kNodes, stream.value());
  f.options.iterations = 6;
  f.s0 = simrank::BatchMatrix(f.base, f.options);

  Rng rng(seed * 2 + 1);
  auto ins = graph::SampleInsertions(f.base, 10, &rng);
  auto del = graph::SampleDeletions(f.base, 6, &rng);
  EXPECT_TRUE(ins.ok() && del.ok());
  f.stream = *ins;
  f.stream.insert(f.stream.end(), del->begin(), del->end());
  return f;
}

struct Replay {
  la::DenseMatrix final_s;
  std::vector<la::DenseMatrix> epochs;  // published every 4 updates
};

// One applier's life: replay the fixture's stream through IncSR on a
// COW store, publishing epoch views along the way. Kernels submit to
// the shared Scheduler::Global() — concurrently with every other
// applier in the test.
Replay ReplayStream(const Fixture& f, int threads) {
  graph::DynamicDiGraph g = f.base;
  la::DynamicRowMatrix q = graph::BuildTransition(g);
  la::ScoreStore s{la::DenseMatrix(f.s0)};
  simrank::SimRankOptions options = f.options;
  options.num_threads = threads;
  core::IncSrEngine engine(options);
  Replay replay;
  std::size_t applied = 0;
  for (const graph::EdgeUpdate& u : f.stream) {
    EXPECT_TRUE(engine.ApplyUpdate(u, &g, &q, &s).ok());
    if (++applied % 4 == 0) {
      replay.epochs.push_back(s.Publish().ToDense());
    }
  }
  replay.final_s = s.ToDense();
  return replay;
}

TEST(SchedulerConcurrent, AppliersBitwiseIdenticalAcrossThreadCounts) {
  constexpr std::size_t kAppliers = 3;
  std::vector<Fixture> fixtures;
  std::vector<Replay> serial;
  for (std::size_t i = 0; i < kAppliers; ++i) {
    fixtures.push_back(MakeFixture(29 + 14 * i));
    serial.push_back(ReplayStream(fixtures.back(), /*threads=*/1));
  }

  const SchedulerStats before = Scheduler::Global().stats();
  const std::vector<int> thread_counts = {
      1, 2, 4, static_cast<int>(Scheduler::ResolveNumThreads(0))};
  for (int threads : thread_counts) {
    std::vector<Replay> got(kAppliers);
    std::vector<std::thread> appliers;
    for (std::size_t i = 0; i < kAppliers; ++i) {
      appliers.emplace_back([&fixtures, &got, i, threads] {
        // Distinct groups, like the sharded service's appliers.
        Scheduler::BindCurrentThreadToGroup(static_cast<int>(i));
        got[i] = ReplayStream(fixtures[i], threads);
      });
    }
    for (std::thread& t : appliers) t.join();

    for (std::size_t i = 0; i < kAppliers; ++i) {
      EXPECT_TRUE(BitwiseEqual(got[i].final_s, serial[i].final_s))
          << "applier " << i << " final S diverged at " << threads
          << " threads";
      ASSERT_EQ(got[i].epochs.size(), serial[i].epochs.size());
      for (std::size_t e = 0; e < got[i].epochs.size(); ++e) {
        EXPECT_TRUE(BitwiseEqual(got[i].epochs[e], serial[i].epochs[e]))
            << "applier " << i << " epoch " << e << " diverged at "
            << threads << " threads";
      }
    }
  }
  // The multi-thread replays really ran regions on the worker set.
  const SchedulerStats after = Scheduler::Global().stats();
  EXPECT_GT(after.regions_parallel, before.regions_parallel);
}

}  // namespace
}  // namespace incsr
