// Scheduler — the repo's parallelism primitive: a persistent worker set
// with a work-stealing ticket scheduler. Any number of concurrent
// regions share the worker set; a region never runs inline because
// another one is in flight.
//
// Determinism contract: ParallelForChunks
// runs a caller-chosen number of contiguous chunks whose geometry depends
// only on (begin, end, num_chunks) — never on the thread count, the
// worker that runs a chunk, or scheduling order. Kernels that merge
// per-chunk accumulators in chunk order therefore produce
// bitwise-identical results at any parallelism, including the serial
// fallback, as long as they derive num_chunks from the data shape alone
// (see PlanChunks). Which worker executes which chunk is unspecified;
// only the chunk geometry and the caller's merge order are.
//
// Scheduling model: a region is an atomic chunk cursor shared by every
// participant — claiming a chunk is one fetch_add, so work balances at
// chunk granularity no matter which workers show up. The submitter
// always drains the cursor itself (a region never depends on a worker
// being free), and additionally publishes up to max_threads - 1
// *tickets* ("come help with this region") into per-worker ticket rings.
// Idle workers pop their own ring first and steal from the others'
// rings, so K concurrent regions from independent appliers interleave
// across the worker set instead of convoying or falling back to serial.
// Tickets are advisory: a dropped or stale ticket (ring full, or the
// region finished first) affects load balance only, never correctness.
//
// Shard-group affinity: a thread that calls BindCurrentThreadToGroup(g)
// gets a stable home worker (g mod workers), and its tickets target
// workers (home, home+1, ...). A hot shard therefore saturates its own
// neighborhood first and only spills onto other shards' home workers via
// stealing when they are idle — it cannot starve another group's
// submissions out of the ring they are published to.
//
// Nested submissions (a ParallelFor from inside a chunk fn) run their
// chunks inline on the calling thread — same geometry, same results, no
// deadlock.
#ifndef INCSR_COMMON_SCHEDULER_H_
#define INCSR_COMMON_SCHEDULER_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace incsr {

/// Monotonic scheduler counters (process lifetime; benches and tests
/// read deltas). regions = every ParallelForChunks call; each one is
/// also counted in exactly one of the parallel/inline buckets.
struct SchedulerStats {
  std::uint64_t regions = 0;
  /// Regions that published tickets and ran on the worker set.
  std::uint64_t regions_parallel = 0;
  /// Inline because the region was trivially serial (one chunk,
  /// max_threads <= 1, or a scheduler with no workers).
  std::uint64_t regions_inline_serial = 0;
  /// Inline because the submitter was already inside a region (nested).
  std::uint64_t regions_inline_nested = 0;
  std::uint64_t tickets_pushed = 0;
  /// Tickets dropped on a full ring (load-balance loss only).
  std::uint64_t tickets_dropped = 0;
  /// Tickets a worker popped from another worker's ring.
  std::uint64_t steals = 0;
};

/// Persistent work-stealing worker set. See file comment for the
/// determinism, scheduling, and affinity contracts.
class Scheduler {
 public:
  /// fn(chunk, begin, end) over one contiguous chunk of the range.
  using ChunkFn =
      std::function<void(std::size_t, std::size_t, std::size_t)>;
  /// fn(begin, end) over one contiguous sub-range.
  using RangeFn = std::function<void(std::size_t, std::size_t)>;

  /// A scheduler with `num_threads` total parallelism: the submitting
  /// thread participates, so num_threads - 1 workers are spawned (0
  /// workers for num_threads <= 1 — every region then runs inline).
  explicit Scheduler(std::size_t num_threads);
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Total parallelism (workers + the submitting thread).
  std::size_t num_threads() const { return threads_.size() + 1; }

  /// Deterministic chunk plan: ceil(count / grain) chunks, clamped to
  /// [1, max_chunks] (0 for an empty range). Depends only on the
  /// arguments — use it to fix a kernel's merge tree independently of
  /// the thread count.
  static std::size_t PlanChunks(std::size_t count, std::size_t grain,
                                std::size_t max_chunks);

  /// Runs fn over `num_chunks` contiguous chunks of [begin, end), using
  /// at most `max_threads` threads (including the caller). Chunk c
  /// covers [begin + c·s, begin + (c+1)·s) with s = ceil(count /
  /// num_chunks); fn is never invoked for an empty chunk. Returns after
  /// every chunk has finished.
  void ParallelForChunks(std::size_t begin, std::size_t end,
                         std::size_t num_chunks, std::size_t max_threads,
                         const ChunkFn& fn);

  /// Convenience wrapper for kernels with disjoint writes (no merge, so
  /// chunk identity is irrelevant): partitions [begin, end) into chunks
  /// of at least `grain` elements, at most min(max_threads,
  /// num_threads()) of them.
  void ParallelFor(std::size_t begin, std::size_t end, std::size_t grain,
                   std::size_t max_threads, const RangeFn& fn);

  /// Thread count for a `num_threads` knob: `requested` if positive,
  /// else the INCSR_THREADS environment variable if set to a positive
  /// integer, else std::thread::hardware_concurrency() (at least 1).
  static std::size_t ResolveNumThreads(int requested);

  /// The parallelism a kernel ACTUALLY gets for a `num_threads` knob:
  /// ResolveNumThreads clamped to the Global scheduler's size (a region
  /// can never have more participants than workers + the caller).
  /// Reporting surfaces (CLI, benches) must print this, not the
  /// request, or thread-sweep numbers above the worker-set size get
  /// attributed to the wrong thread count.
  static std::size_t EffectiveNumThreads(int requested);

  /// The process-wide shared scheduler every kernel submits to. Sized
  /// once at first use to max(ResolveNumThreads(0), 4) — the floor
  /// keeps determinism and sanitizer tests exercising real cross-thread
  /// execution on small machines, and idle workers cost nothing.
  /// Deliberately leaked so worker shutdown never races static
  /// destruction in user code.
  static Scheduler& Global();

  /// Binds the calling thread to an affinity group: its regions' tickets
  /// start at home worker `group mod workers` instead of a rotating
  /// default. Appliers that share a scheduler (one per shard) bind
  /// distinct groups so a hot shard fills its own neighborhood first.
  /// Thread-local; pass a negative group to unbind.
  static void BindCurrentThreadToGroup(int group);
  /// The calling thread's bound group, or -1 if unbound.
  static int CurrentThreadGroup();

  /// Snapshot of the monotonic counters.
  SchedulerStats stats() const;

 private:
  // One parallel region: an atomic chunk cursor plus completion state.
  // Workers hold the Region via shared_ptr tickets, so a stale ticket
  // popped after the region completed claims nothing and never touches
  // a newer region's state.
  struct Region {
    const ChunkFn* fn = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunk_size = 0;
    std::size_t num_chunks = 0;
    std::size_t max_participants = 0;
    std::atomic<std::size_t> participants{1};  // the submitter
    std::atomic<std::size_t> next_chunk{0};
    std::atomic<std::size_t> done_chunks{0};
    std::mutex mu;                // guards done_cv wakeups
    std::condition_variable done_cv;  // submitter: all chunks finished
  };
  class TicketRing;
  struct Worker;

  void WorkerLoop(std::size_t worker_index);
  // Claims a participation slot (so max_threads is honored) and drains.
  void RunTicket(Region* region);
  // Claims and runs chunks until the cursor is exhausted; the last
  // finisher signals region->done_cv.
  void Drain(Region* region);
  // Distributes `count` tickets for `region` across the per-worker
  // rings starting at the submitter's home worker, then wakes sleepers.
  void PublishTickets(const std::shared_ptr<Region>& region,
                      std::size_t count);

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  // Sleep protocol: pending_tickets_ is incremented before a ticket is
  // pushed and decremented after one is popped (or on push failure), so
  // the idle predicate "pending_tickets_ > 0" can never miss published
  // work; the pusher takes sleep_mu_ (empty critical section) before
  // notifying so a worker between its predicate check and wait() cannot
  // lose the wakeup.
  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_tickets_{0};
  // Workers currently blocked in sleep_cv_.wait. Publishers skip the
  // notify path entirely when it reads 0 — seq_cst on this counter and
  // pending_tickets_ makes "publisher sees no sleeper AND sleeper sees
  // no pending ticket" impossible (store-buffer litmus), so a worker
  // can never sleep through a ticket it was supposed to see.
  std::atomic<std::size_t> sleeping_workers_{0};
  std::atomic<bool> shutdown_{false};

  // Home-worker rotation for threads with no bound group.
  std::atomic<std::uint64_t> next_home_{0};

  std::atomic<std::uint64_t> regions_{0};
  std::atomic<std::uint64_t> regions_parallel_{0};
  std::atomic<std::uint64_t> regions_inline_serial_{0};
  std::atomic<std::uint64_t> regions_inline_nested_{0};
  std::atomic<std::uint64_t> tickets_pushed_{0};
  std::atomic<std::uint64_t> tickets_dropped_{0};
  std::atomic<std::uint64_t> steals_{0};
};

}  // namespace incsr

#endif  // INCSR_COMMON_SCHEDULER_H_
