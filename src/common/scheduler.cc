#include "common/scheduler.h"

#include <algorithm>
#include <cstdlib>

#include "obs/trace.h"

namespace incsr {

namespace {

// True while this thread is executing chunks of a region (scoped around
// Drain for submitters and workers alike). A region submitted from
// inside one (nested parallelism) runs inline: same chunk geometry,
// same results, and the thread never blocks on workers that may all be
// busy executing the region it is itself part of.
thread_local bool tls_in_region = false;

// Affinity group of this thread; negative = unbound (rotating home).
thread_local int tls_group = -1;

}  // namespace

// Bounded MPMC ticket ring (Vyukov): every slot carries a sequence
// number that encodes which lap of the ring it is valid for, so pushes
// and pops are a single CAS each with no shared lock. Push fails on a
// full ring (the ticket is dropped — advisory only), pop fails on an
// empty one.
class Scheduler::TicketRing {
 public:
  explicit TicketRing(std::size_t capacity) : mask_(capacity - 1) {
    // capacity must be a power of two for the mask arithmetic.
    cells_ = std::make_unique<Cell[]>(capacity);
    for (std::size_t i = 0; i < capacity; ++i) {
      cells_[i].seq.store(i, std::memory_order_relaxed);
    }
  }

  bool TryPush(std::shared_ptr<Region> ticket) {
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(
                pos, pos + 1, std::memory_order_relaxed)) {
          cell.ticket = std::move(ticket);
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

  std::shared_ptr<Region> TryPop() {
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[pos & mask_];
      const std::size_t seq = cell.seq.load(std::memory_order_acquire);
      const std::intptr_t dif = static_cast<std::intptr_t>(seq) -
                                static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(
                pos, pos + 1, std::memory_order_relaxed)) {
          std::shared_ptr<Region> out = std::move(cell.ticket);
          cell.seq.store(pos + mask_ + 1, std::memory_order_release);
          return out;
        }
      } else if (dif < 0) {
        return nullptr;  // empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
  }

 private:
  struct Cell {
    std::atomic<std::size_t> seq{0};
    std::shared_ptr<Region> ticket;
  };

  std::unique_ptr<Cell[]> cells_;
  std::size_t mask_;
  std::atomic<std::size_t> enqueue_pos_{0};
  std::atomic<std::size_t> dequeue_pos_{0};
};

struct Scheduler::Worker {
  // 128 outstanding tickets per worker is far beyond what concurrent
  // appliers produce (tickets per region <= workers); overflow only
  // drops load-balance hints, never work.
  TicketRing ring{128};
};

Scheduler::Scheduler(std::size_t num_threads) {
  const std::size_t workers = num_threads > 1 ? num_threads - 1 : 0;
  workers_.reserve(workers);
  threads_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    workers_.push_back(std::make_unique<Worker>());
  }
  for (std::size_t w = 0; w < workers; ++w) {
    threads_.emplace_back([this, w] { WorkerLoop(w); });
  }
}

Scheduler::~Scheduler() {
  shutdown_.store(true, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  sleep_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
  // Unconsumed tickets (regions long since drained by their submitters)
  // are released with the rings.
}

std::size_t Scheduler::PlanChunks(std::size_t count, std::size_t grain,
                                  std::size_t max_chunks) {
  if (count == 0) return 0;
  grain = std::max<std::size_t>(grain, 1);
  max_chunks = std::max<std::size_t>(max_chunks, 1);
  return std::min(max_chunks, (count + grain - 1) / grain);
}

void Scheduler::ParallelForChunks(std::size_t begin, std::size_t end,
                                  std::size_t num_chunks,
                                  std::size_t max_threads,
                                  const ChunkFn& fn) {
  if (begin >= end || num_chunks == 0) return;
  const std::size_t count = end - begin;
  const std::size_t chunk_size = (count + num_chunks - 1) / num_chunks;
  auto run_inline = [&] {
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::size_t lo = begin + c * chunk_size;
      if (lo >= end) break;
      fn(c, lo, std::min(end, lo + chunk_size));
    }
  };
  regions_.fetch_add(1, std::memory_order_relaxed);
  if (num_chunks == 1 || max_threads <= 1 || workers_.empty()) {
    regions_inline_serial_.fetch_add(1, std::memory_order_relaxed);
    run_inline();
    return;
  }
  if (tls_in_region) {
    regions_inline_nested_.fetch_add(1, std::memory_order_relaxed);
    run_inline();
    return;
  }
  auto region = std::make_shared<Region>();
  region->fn = &fn;
  region->begin = begin;
  region->end = end;
  region->chunk_size = chunk_size;
  region->num_chunks = num_chunks;
  region->max_participants = std::min(max_threads, num_threads());
  const std::size_t tickets =
      std::min(region->max_participants - 1, num_chunks - 1);
  regions_parallel_.fetch_add(1, std::memory_order_relaxed);
  // Submitter-side span over the whole region: publish + own drain +
  // completion wait, so the duration is the region's critical path.
  TRACE_SCOPE_ARG(kSchedRegion, num_chunks);
  PublishTickets(region, tickets);
  // The submitter drains the cursor itself — region completion never
  // depends on a worker picking a ticket up.
  Drain(region.get());
  if (region->done_chunks.load(std::memory_order_acquire) != num_chunks) {
    std::unique_lock<std::mutex> lock(region->mu);
    region->done_cv.wait(lock, [&region] {
      return region->done_chunks.load(std::memory_order_acquire) ==
             region->num_chunks;
    });
  }
}

void Scheduler::ParallelFor(std::size_t begin, std::size_t end,
                            std::size_t grain, std::size_t max_threads,
                            const RangeFn& fn) {
  if (begin >= end) return;
  const std::size_t chunks = PlanChunks(
      end - begin, grain, std::min(max_threads, num_threads()));
  if (chunks <= 1) {
    fn(begin, end);
    return;
  }
  ChunkFn body = [&fn](std::size_t, std::size_t lo, std::size_t hi) {
    fn(lo, hi);
  };
  ParallelForChunks(begin, end, chunks, max_threads, body);
}

void Scheduler::PublishTickets(const std::shared_ptr<Region>& region,
                               std::size_t count) {
  const std::size_t num_workers = workers_.size();
  const std::size_t home =
      tls_group >= 0
          ? static_cast<std::size_t>(tls_group) % num_workers
          : static_cast<std::size_t>(next_home_.fetch_add(
                1, std::memory_order_relaxed)) %
                num_workers;
  count = std::min(count, num_workers);
  std::size_t pushed = 0;
  for (std::size_t k = 0; k < count; ++k) {
    // Increment before the push so a worker's idle predicate can never
    // observe the ticket without the pending count that keeps it awake.
    // seq_cst pairs with the sleeping_workers_ handshake (see header).
    pending_tickets_.fetch_add(1, std::memory_order_seq_cst);
    if (workers_[(home + k) % num_workers]->ring.TryPush(region)) {
      ++pushed;
    } else {
      pending_tickets_.fetch_sub(1, std::memory_order_relaxed);
      tickets_dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (pushed > 0) {
    tickets_pushed_.fetch_add(pushed, std::memory_order_relaxed);
    // Already-awake workers poll the rings themselves; only actual
    // sleepers need a futex round-trip. The seq_cst pending/sleeping
    // handshake makes the load safe: a worker that this load missed is
    // guaranteed to see pending_tickets_ > 0 before it can sleep.
    const std::size_t sleepers =
        sleeping_workers_.load(std::memory_order_seq_cst);
    if (sleepers > 0) {
      {
        // Empty critical section: serializes with a worker that checked
        // the predicate and is about to wait, so the notifies below
        // cannot land in that gap and get lost.
        std::lock_guard<std::mutex> lock(sleep_mu_);
      }
      // One wake per ticket, not notify_all: a woken worker drains every
      // ring before re-sleeping and tickets are advisory anyway (the
      // submitter always drains its own region), so waking exactly as
      // many sleepers as there are new tickets is enough — and spares
      // the rest a spurious wake per region.
      const std::size_t wakes = std::min(pushed, sleepers);
      for (std::size_t k = 0; k < wakes; ++k) sleep_cv_.notify_one();
    }
  }
}

void Scheduler::RunTicket(Region* region) {
  const std::size_t slot =
      region->participants.fetch_add(1, std::memory_order_relaxed);
  if (slot >= region->max_participants) return;
  Drain(region);
}

void Scheduler::Drain(Region* region) {
  const bool was_in_region = tls_in_region;
  tls_in_region = true;
  for (;;) {
    const std::size_t c =
        region->next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= region->num_chunks) break;
    const std::size_t lo = region->begin + c * region->chunk_size;
    const std::size_t hi = std::min(region->end, lo + region->chunk_size);
    if (lo < hi) (*region->fn)(c, lo, hi);
    // acq_rel: the submitter's acquire read of done_chunks must observe
    // every write this chunk made.
    if (region->done_chunks.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        region->num_chunks) {
      std::lock_guard<std::mutex> lock(region->mu);
      region->done_cv.notify_all();
    }
  }
  tls_in_region = was_in_region;
}

void Scheduler::WorkerLoop(std::size_t worker_index) {
  const std::size_t num_workers = workers_.size();
  for (;;) {
    std::shared_ptr<Region> ticket =
        workers_[worker_index]->ring.TryPop();
    if (!ticket) {
      for (std::size_t k = 1; k < num_workers && !ticket; ++k) {
        ticket = workers_[(worker_index + k) % num_workers]->ring.TryPop();
        if (ticket) {
          steals_.fetch_add(1, std::memory_order_relaxed);
          TRACE_COUNTER(kSchedSteal, 1);
        }
      }
    }
    if (ticket) {
      pending_tickets_.fetch_sub(1, std::memory_order_relaxed);
      RunTicket(ticket.get());
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleeping_workers_.fetch_add(1, std::memory_order_seq_cst);
    sleep_cv_.wait(lock, [this] {
      return shutdown_.load(std::memory_order_relaxed) ||
             pending_tickets_.load(std::memory_order_seq_cst) > 0;
    });
    sleeping_workers_.fetch_sub(1, std::memory_order_seq_cst);
    if (shutdown_.load(std::memory_order_relaxed)) return;
  }
}

std::size_t Scheduler::ResolveNumThreads(int requested) {
  if (requested > 0) return static_cast<std::size_t>(requested);
  static const std::size_t kDefault = [] {
    if (const char* env = std::getenv("INCSR_THREADS")) {
      char* end = nullptr;
      const long parsed = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && parsed > 0) {
        return static_cast<std::size_t>(parsed);
      }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? std::size_t{1} : static_cast<std::size_t>(hw);
  }();
  return kDefault;
}

std::size_t Scheduler::EffectiveNumThreads(int requested) {
  return std::min(ResolveNumThreads(requested), Global().num_threads());
}

Scheduler& Scheduler::Global() {
  static Scheduler* scheduler =
      new Scheduler(std::max<std::size_t>(ResolveNumThreads(0), 4));
  return *scheduler;
}

void Scheduler::BindCurrentThreadToGroup(int group) { tls_group = group; }

int Scheduler::CurrentThreadGroup() { return tls_group; }

SchedulerStats Scheduler::stats() const {
  SchedulerStats out;
  out.regions = regions_.load(std::memory_order_relaxed);
  out.regions_parallel = regions_parallel_.load(std::memory_order_relaxed);
  out.regions_inline_serial =
      regions_inline_serial_.load(std::memory_order_relaxed);
  out.regions_inline_nested =
      regions_inline_nested_.load(std::memory_order_relaxed);
  out.tickets_pushed = tickets_pushed_.load(std::memory_order_relaxed);
  out.tickets_dropped = tickets_dropped_.load(std::memory_order_relaxed);
  out.steals = steals_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace incsr
