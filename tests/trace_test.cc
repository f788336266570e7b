// Tests for the obs/ serve-path tracing subsystem:
//   - TraceRing SPSC mechanics: push order preserved, overflow DROPS and
//     counts instead of blocking or resizing, drained slots are reusable.
//   - Tracer end-to-end: concurrent producers + the drainer thread write
//     a file that ReadTraceFile decodes back to exactly the accepted
//     events, with footer drop accounting. The suite is TSan-clean; CI
//     runs it under -fsanitize=thread.
//   - Binary round-trip: every EventKind and every field survives the
//     file format bit-exactly; truncated files keep the complete prefix
//     (footer reported missing), corrupted headers fail cleanly.
//   - Disabled-macro zero cost: TRACE_* macros record nothing anywhere
//     while no session is active (verified via session counter deltas).
//   - Histogram: count == Σ buckets, merge is associative + commutative,
//     percentiles track the log-bucket error envelope.
//   - Summarize: phase rollups, applier pipeline coverage, and the epoch
//     timeline computed from a hand-built TraceFile.
//   - Trace ↔ stats cross-check: a traced tiered service's counters equal
//     the sums of the trace events that record the same work.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/dynamic_simrank.h"
#include "graph/generators.h"
#include "graph/update_stream.h"
#include "obs/histogram.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "service/simrank_service.h"

namespace incsr::obs {
namespace {

std::string TempTracePath(const char* tag) {
  return testing::TempDir() + "/incsr_trace_test_" + tag + "_%p.trace";
}

TraceEvent MakeEvent(EventId id, EventKind kind, std::uint32_t arg,
                     std::uint64_t ts_ns, std::uint64_t value) {
  TraceEvent event;
  event.id = static_cast<std::uint16_t>(id);
  event.kind = static_cast<std::uint8_t>(kind);
  event.arg = arg;
  event.ts_ns = ts_ns;
  event.value = value;
  return event;
}

// ---- TraceRing -------------------------------------------------------------

TEST(TraceRing, PreservesPushOrder) {
  TraceRing ring(/*capacity=*/64, /*thread_id=*/7);
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(ring.TryPush(
        MakeEvent(EventId::kKernelApply, EventKind::kSpan, 0, i, i * 2)));
  }
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.Drain(&out), 10u);
  ASSERT_EQ(out.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out[i].ts_ns, i);
    EXPECT_EQ(out[i].value, i * 2);
  }
  EXPECT_EQ(ring.written(), 10u);
  EXPECT_EQ(ring.dropped(), 0u);
}

TEST(TraceRing, OverflowDropsAndCountsInsteadOfBlocking) {
  TraceRing ring(/*capacity=*/8, /*thread_id=*/1);
  ASSERT_EQ(ring.capacity(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.TryPush(
        MakeEvent(EventId::kRerank, EventKind::kSpan, 0, i, 1)));
  }
  // Full: pushes return immediately with false, each counted once.
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(ring.TryPush(
        MakeEvent(EventId::kRerank, EventKind::kSpan, 0, 100 + i, 1)));
  }
  EXPECT_EQ(ring.written(), 8u);
  EXPECT_EQ(ring.dropped(), 5u);
  // Draining frees the slots; the dropped events are gone for good (the
  // ring never buffers what it rejected), new pushes land.
  std::vector<TraceEvent> out;
  EXPECT_EQ(ring.Drain(&out), 8u);
  EXPECT_TRUE(ring.TryPush(
      MakeEvent(EventId::kRerank, EventKind::kSpan, 0, 200, 1)));
  out.clear();
  ASSERT_EQ(ring.Drain(&out), 1u);
  EXPECT_EQ(out[0].ts_ns, 200u);
  EXPECT_EQ(ring.dropped(), 5u);
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  TraceRing ring(/*capacity=*/9, /*thread_id=*/0);
  EXPECT_EQ(ring.capacity(), 16u);
  TraceRing tiny(/*capacity=*/1, /*thread_id=*/0);
  EXPECT_EQ(tiny.capacity(), 8u);  // clamped minimum
}

// SPSC under real concurrency: one pusher, one drainer, no lost or
// duplicated ACCEPTED events, dropped only ever counted. TSan-clean.
TEST(TraceRing, ConcurrentProducerAndDrainer) {
  TraceRing ring(/*capacity=*/64, /*thread_id=*/3);
  constexpr std::uint64_t kEvents = 20000;
  std::vector<TraceEvent> drained;
  std::atomic<bool> done{false};
  std::thread consumer([&] {
    while (!done.load(std::memory_order_acquire)) {
      ring.Drain(&drained);
    }
    ring.Drain(&drained);  // final sweep after the producer finished
  });
  std::uint64_t pushed = 0;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    if (ring.TryPush(MakeEvent(EventId::kSchedSteal, EventKind::kCounter,
                               0, i, i))) {
      ++pushed;
    }
  }
  done.store(true, std::memory_order_release);
  consumer.join();
  EXPECT_EQ(pushed + ring.dropped(), kEvents);
  EXPECT_EQ(ring.written(), pushed);
  ASSERT_EQ(drained.size(), pushed);
  // Accepted events arrive in push order with none duplicated: ts_ns is
  // strictly increasing across the drained sequence.
  for (std::size_t i = 1; i < drained.size(); ++i) {
    EXPECT_LT(drained[i - 1].ts_ns, drained[i].ts_ns);
  }
}

// ---- Tracer + file round-trip ----------------------------------------------

TEST(Tracer, RoundTripsEveryEventKindThroughTheFile) {
  Tracer& tracer = Tracer::Instance();
  const std::string path = TempTracePath("kinds");
  ASSERT_TRUE(tracer.Start(path, /*buffer_kb=*/64).ok());
  const std::string resolved = tracer.active_path();

  // One event per kind with every field loaded with distinct values —
  // TraceEmit stamps ts_ns itself, so spans with a controlled payload go
  // through Emit directly.
  tracer.Emit(MakeEvent(EventId::kBatchApply, EventKind::kSpan, 0xA1B2C3D4,
                        0x1122334455667788ull, 0x99AABBCCDDEEFF00ull));
  TraceEmit(EventId::kQueueWait, EventKind::kCounter, 17, 123456789ull);
  TraceEmit(EventId::kEpochPublished, EventKind::kInstant, 42, 64ull);
  { TRACE_SCOPE_ARG(kRerank, 9); }
  TRACE_COUNTER(kSchedSteal, 3);

  tracer.Stop();
  EXPECT_EQ(tracer.active_path(), "");

  auto file = ReadTraceFile(resolved);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(file->version, kTraceVersion);
  EXPECT_TRUE(file->footer_present);
  EXPECT_EQ(file->total_events(), 5u);
  EXPECT_EQ(file->total_dropped(), 0u);
  EXPECT_LE(file->start_ns, file->stop_ns);
  ASSERT_EQ(file->threads.size(), 1u);  // all five came from this thread

  const std::vector<TraceEvent>& events = file->threads.begin()->second;
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].id, static_cast<std::uint16_t>(EventId::kBatchApply));
  EXPECT_EQ(events[0].kind, static_cast<std::uint8_t>(EventKind::kSpan));
  EXPECT_EQ(events[0].arg, 0xA1B2C3D4u);
  EXPECT_EQ(events[0].ts_ns, 0x1122334455667788ull);
  EXPECT_EQ(events[0].value, 0x99AABBCCDDEEFF00ull);
  EXPECT_EQ(events[1].id, static_cast<std::uint16_t>(EventId::kQueueWait));
  EXPECT_EQ(events[1].kind, static_cast<std::uint8_t>(EventKind::kCounter));
  EXPECT_EQ(events[1].arg, 17u);
  EXPECT_EQ(events[1].value, 123456789ull);
  EXPECT_EQ(events[2].id,
            static_cast<std::uint16_t>(EventId::kEpochPublished));
  EXPECT_EQ(events[2].kind, static_cast<std::uint8_t>(EventKind::kInstant));
  EXPECT_EQ(events[2].arg, 42u);
  EXPECT_EQ(events[2].value, 64u);
  EXPECT_EQ(events[3].id, static_cast<std::uint16_t>(EventId::kRerank));
  EXPECT_EQ(events[3].kind, static_cast<std::uint8_t>(EventKind::kSpan));
  EXPECT_EQ(events[3].arg, 9u);
  EXPECT_EQ(events[4].id, static_cast<std::uint16_t>(EventId::kSchedSteal));
  EXPECT_EQ(events[4].value, 3u);

  std::remove(resolved.c_str());
}

// Many producer threads + the drainer, small rings so overflow actually
// happens: every ACCEPTED event reaches the file, drops are counted in
// the footer, and nothing ever blocks a producer. TSan-clean.
TEST(Tracer, ConcurrentProducersDrainToFileWithDropAccounting) {
  Tracer& tracer = Tracer::Instance();
  const std::string path = TempTracePath("concurrent");
  // 1 KB ring = ~42 events: guarantees overflow under the burst below.
  ASSERT_TRUE(tracer.Start(path, /*buffer_kb=*/1).ok());
  const std::string resolved = tracer.active_path();

  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 50000;
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        TraceEmit(EventId::kKernelExpand, EventKind::kCounter,
                  static_cast<std::uint32_t>(t), i);
        if ((i & 1023) == 0) {
          TRACE_SCOPE(kKernelScatter);  // span path under contention too
        }
      }
    });
  }
  for (std::thread& producer : producers) producer.join();

  const std::uint64_t recorded = tracer.TotalEventsRecorded();
  const std::uint64_t dropped = tracer.TotalEventsDropped();
  EXPECT_GE(tracer.ring_count(), static_cast<std::size_t>(kThreads));
  // Producers never block: every emission was either accepted or counted.
  // Per thread: kPerThread counters + one span per 1024 (i = 0 included).
  constexpr std::uint64_t kTotal =
      kThreads * (kPerThread + (kPerThread + 1023) / 1024);
  EXPECT_EQ(recorded + dropped, kTotal);
  EXPECT_GT(dropped, 0u) << "rings were sized to overflow";
  tracer.Stop();

  auto file = ReadTraceFile(resolved);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_TRUE(file->footer_present);
  EXPECT_EQ(file->total_events(), recorded);
  EXPECT_EQ(file->total_dropped(), dropped);
  // Per-thread streams kept their push order.
  for (const auto& [thread_id, events] : file->threads) {
    std::uint64_t last_counter = 0;
    bool first = true;
    for (const TraceEvent& event : events) {
      if (event.id != static_cast<std::uint16_t>(EventId::kKernelExpand)) {
        continue;
      }
      if (!first) EXPECT_GT(event.value, last_counter);
      last_counter = event.value;
      first = false;
    }
  }
  std::remove(resolved.c_str());
}

TEST(Tracer, StartRejectsASecondSessionAndStopIsIdempotent) {
  Tracer& tracer = Tracer::Instance();
  const std::string path = TempTracePath("lifecycle");
  ASSERT_TRUE(tracer.Start(path, 64).ok());
  const std::string resolved = tracer.active_path();
  EXPECT_FALSE(tracer.Start(path, 64).ok());
  tracer.Stop();
  tracer.Stop();  // idempotent
  EXPECT_FALSE(Tracer::Enabled());
  std::remove(resolved.c_str());
}

// The disabled macros must leave no trace anywhere — not an event, not a
// registered ring. Measured as deltas on the NEXT session's counters.
TEST(Tracer, DisabledMacrosRecordNothing) {
  Tracer& tracer = Tracer::Instance();
  ASSERT_FALSE(Tracer::Enabled());
  for (int i = 0; i < 1000; ++i) {
    TRACE_SCOPE(kKernelApply);
    TRACE_SCOPE_ARG(kRerank, i);
    TRACE_COUNTER(kSchedSteal, i);
    TRACE_INSTANT(kEpochPublished, i, i);
  }
  const std::string path = TempTracePath("disabled");
  ASSERT_TRUE(tracer.Start(path, 64).ok());
  const std::string resolved = tracer.active_path();
  // Nothing from the disabled loop leaked into the fresh session.
  EXPECT_EQ(tracer.TotalEventsRecorded(), 0u);
  EXPECT_EQ(tracer.TotalEventsDropped(), 0u);
  EXPECT_EQ(tracer.ring_count(), 0u);
  TRACE_COUNTER(kSchedSteal, 1);
  EXPECT_EQ(tracer.TotalEventsRecorded(), 1u);  // exactly the enabled one
  tracer.Stop();
  std::remove(resolved.c_str());
}

// ---- Defensive decoding ----------------------------------------------------

TEST(TraceFileFormat, TruncationKeepsTheCompletePrefix) {
  Tracer& tracer = Tracer::Instance();
  const std::string path = TempTracePath("trunc");
  ASSERT_TRUE(tracer.Start(path, 64).ok());
  const std::string resolved = tracer.active_path();
  for (int i = 0; i < 100; ++i) {
    TraceEmit(EventId::kKernelSeed, EventKind::kCounter, 0,
              static_cast<std::uint64_t>(i));
  }
  tracer.Stop();

  std::string bytes;
  {
    std::ifstream in(resolved, std::ios::binary);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  auto intact = ReadTraceFile(resolved);
  ASSERT_TRUE(intact.ok());
  ASSERT_TRUE(intact->footer_present);
  const std::uint64_t total = intact->total_events();
  ASSERT_EQ(total, 100u);

  // Drop the tail (footer + part of the last block): the reader keeps
  // every complete block and reports the footer missing — the shape a
  // crashed producer leaves behind.
  const std::string truncated_path = resolved + ".trunc";
  {
    std::ofstream out(truncated_path, std::ios::binary);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() * 2 / 3));
  }
  auto truncated = ReadTraceFile(truncated_path);
  ASSERT_TRUE(truncated.ok()) << truncated.status().ToString();
  EXPECT_FALSE(truncated->footer_present);
  EXPECT_LT(truncated->total_events(), total);

  // Corrupted magic fails cleanly.
  const std::string corrupt_path = resolved + ".corrupt";
  {
    std::string corrupt = bytes;
    corrupt[0] = 'X';
    std::ofstream out(corrupt_path, std::ios::binary);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
  }
  EXPECT_FALSE(ReadTraceFile(corrupt_path).ok());

  // Unknown future version fails cleanly (offset 8 = LE version field).
  const std::string version_path = resolved + ".version";
  {
    std::string newer = bytes;
    newer[8] = static_cast<char>(kTraceVersion + 1);
    std::ofstream out(version_path, std::ios::binary);
    out.write(newer.data(), static_cast<std::streamsize>(newer.size()));
  }
  EXPECT_FALSE(ReadTraceFile(version_path).ok());

  std::remove(resolved.c_str());
  std::remove(truncated_path.c_str());
  std::remove(corrupt_path.c_str());
  std::remove(version_path.c_str());
}

// Little-endian field writers for hand-built trace files.
void PutLe(std::string* out, std::uint64_t v, std::size_t bytes) {
  for (std::size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

TEST(TraceFileFormat, ManySmallBlocksRoundTripEveryEvent) {
  // The drainer writes each thread's events as many small blocks (one per
  // ~5 ms wakeup). Decoding must append every block's events in file
  // order, and stay linear in the block count.
  constexpr std::uint32_t kThreads = 3;
  constexpr std::size_t kBlocks = 20000;
  std::string bytes(kTraceMagic, sizeof kTraceMagic);
  PutLe(&bytes, kTraceVersion, 4);
  PutLe(&bytes, sizeof(TraceEvent), 4);
  std::vector<std::vector<TraceEvent>> want(kThreads);
  Rng rng(5);
  for (std::size_t b = 0; b < kBlocks; ++b) {
    const auto thread = static_cast<std::uint32_t>(b % kThreads);
    const auto count = static_cast<std::uint32_t>(1 + rng.NextBounded(3));
    std::string block(1, static_cast<char>(kTraceBlockEvents));
    PutLe(&block, thread, 4);
    PutLe(&block, count, 4);
    for (std::uint32_t i = 0; i < count; ++i) {
      TraceEvent event = MakeEvent(
          static_cast<EventId>(1 + rng.NextBounded(21)), EventKind::kSpan,
          static_cast<std::uint32_t>(rng.NextBounded(1u << 30)),
          rng.NextBounded(1ull << 60), rng.NextBounded(1ull << 60));
      event.reserved = static_cast<std::uint8_t>(b);
      PutLe(&block, event.id, 2);
      PutLe(&block, event.kind, 1);
      PutLe(&block, event.reserved, 1);
      PutLe(&block, event.arg, 4);
      PutLe(&block, event.ts_ns, 8);
      PutLe(&block, event.value, 8);
      want[thread].push_back(event);
    }
    PutLe(&bytes, block.size(), 4);
    bytes += block;
  }
  std::string footer(1, static_cast<char>(kTraceBlockFooter));
  PutLe(&footer, 1, 8);
  PutLe(&footer, 2, 8);
  PutLe(&footer, kThreads, 4);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    PutLe(&footer, t, 4);
    PutLe(&footer, want[t].size(), 8);
    PutLe(&footer, 0, 8);
  }
  PutLe(&bytes, footer.size(), 4);
  bytes += footer;

  const std::string path =
      testing::TempDir() + "/incsr_trace_test_blocks.trace";
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto file = ReadTraceFile(path);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_TRUE(file->footer_present);
  ASSERT_EQ(file->threads.size(), kThreads);
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    const std::vector<TraceEvent>& got = file->threads.at(t);
    ASSERT_EQ(got.size(), want[t].size()) << "thread " << t;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(std::memcmp(&got[i], &want[t][i], sizeof(TraceEvent)), 0)
          << "thread " << t << " event " << i;
    }
  }
  std::remove(path.c_str());
}

// ---- Histogram -------------------------------------------------------------

TEST(Histogram, CountIsAlwaysTheBucketSum) {
  Histogram hist;
  const std::uint64_t values[] = {0, 1, 7, 8, 9, 100, 1000, 123456789,
                                  ~std::uint64_t{0}};
  for (std::uint64_t v : values) hist.Record(v);
  HistogramSnapshot snap = hist.snapshot();
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t b : snap.buckets) bucket_sum += b;
  EXPECT_EQ(snap.count, bucket_sum);
  EXPECT_EQ(snap.count, 9u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, ~std::uint64_t{0});
}

TEST(Histogram, MergeIsAssociativeAndCommutative) {
  Histogram ha;
  Histogram hb;
  Histogram hc;
  for (std::uint64_t v = 1; v < 2000; v += 3) ha.Record(v * 17);
  for (std::uint64_t v = 1; v < 1500; v += 2) hb.Record(v * v);
  for (std::uint64_t v = 0; v < 64; ++v) hc.Record(std::uint64_t{1} << v);
  const HistogramSnapshot a = ha.snapshot();
  const HistogramSnapshot b = hb.snapshot();
  const HistogramSnapshot c = hc.snapshot();

  HistogramSnapshot ab = a;
  ab += b;
  HistogramSnapshot ab_c = ab;
  ab_c += c;
  HistogramSnapshot bc = b;
  bc += c;
  HistogramSnapshot a_bc = a;
  a_bc += bc;
  HistogramSnapshot ba = b;
  ba += a;

  EXPECT_EQ(ab_c.count, a_bc.count);
  EXPECT_EQ(ab_c.sum, a_bc.sum);
  EXPECT_EQ(ab_c.min, a_bc.min);
  EXPECT_EQ(ab_c.max, a_bc.max);
  EXPECT_EQ(ab_c.buckets, a_bc.buckets);
  EXPECT_EQ(ab.buckets, ba.buckets);
  EXPECT_EQ(ab_c.count, a.count + b.count + c.count);
  // Identity: merging an empty snapshot changes nothing.
  HistogramSnapshot with_empty = ab_c;
  with_empty += HistogramSnapshot{};
  EXPECT_EQ(with_empty.buckets, ab_c.buckets);
  EXPECT_EQ(with_empty.min, ab_c.min);
}

TEST(Histogram, PercentilesTrackTheLogBucketErrorEnvelope) {
  Histogram hist;
  for (std::uint64_t v = 1; v <= 100000; ++v) hist.Record(v);
  HistogramSnapshot snap = hist.snapshot();
  // 4 sub-buckets per octave bound relative error by 25%.
  EXPECT_NEAR(snap.Percentile(0.50), 50000.0, 50000.0 * 0.25);
  EXPECT_NEAR(snap.Percentile(0.99), 99000.0, 99000.0 * 0.25);
  EXPECT_EQ(snap.Percentile(0.0), 1.0);    // clamped to min
  EXPECT_EQ(snap.Percentile(1.0), 100000.0);  // clamped to max
  EXPECT_NEAR(snap.Mean(), 50000.5, 1.0);
  EXPECT_EQ(HistogramSnapshot{}.Percentile(0.5), 0.0);
}

TEST(Histogram, ConcurrentRecordersKeepTheInvariant) {
  Histogram hist;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPer = 25000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t] {
      for (std::uint64_t i = 0; i < kPer; ++i) {
        hist.Record(i * static_cast<std::uint64_t>(t + 1));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kThreads * kPer);
  std::uint64_t bucket_sum = 0;
  for (std::uint64_t b : snap.buckets) bucket_sum += b;
  EXPECT_EQ(snap.count, bucket_sum);
}

// ---- Summarize -------------------------------------------------------------

// Hand-built applier timeline: 100 us wall split exactly into the four
// top-level phases, with nested sub-phases that must NOT double-count.
TEST(Summarize, ComputesPhaseRollupsAndApplierCoverage) {
  constexpr std::uint64_t kUs = 1000;
  TraceFile file;
  file.version = kTraceVersion;
  file.footer_present = true;
  std::vector<TraceEvent>& applier = file.threads[7];
  const std::uint64_t t0 = 5'000'000;
  applier.push_back(MakeEvent(EventId::kQueueIdle, EventKind::kSpan, 0,
                              t0, 10 * kUs));
  applier.push_back(MakeEvent(EventId::kBatchApply, EventKind::kSpan, 64,
                              t0 + 10 * kUs, 90 * kUs));
  applier.push_back(MakeEvent(EventId::kCoalesce, EventKind::kSpan, 64,
                              t0 + 10 * kUs, 10 * kUs));
  applier.push_back(MakeEvent(EventId::kKernelApply, EventKind::kSpan, 60,
                              t0 + 20 * kUs, 50 * kUs));
  // Nested inside kernel.apply — excluded from coverage.
  applier.push_back(MakeEvent(EventId::kKernelSeed, EventKind::kSpan, 0,
                              t0 + 21 * kUs, 5 * kUs));
  applier.push_back(MakeEvent(EventId::kPublish, EventKind::kSpan, 0,
                              t0 + 70 * kUs, 30 * kUs));
  applier.push_back(MakeEvent(EventId::kRerank, EventKind::kSpan, 12,
                              t0 + 80 * kUs, 10 * kUs));
  applier.push_back(MakeEvent(EventId::kEpochPublished, EventKind::kInstant,
                              3, t0 + 99 * kUs, 60));
  applier.push_back(MakeEvent(EventId::kQueueWait, EventKind::kCounter, 64,
                              t0 + 15 * kUs, 999));
  // A second, non-applier thread outside the applier extent.
  file.threads[9].push_back(MakeEvent(
      EventId::kSchedRegion, EventKind::kSpan, 8, t0 + 25 * kUs, 4 * kUs));

  TraceSummary summary = Summarize(file);
  EXPECT_EQ(summary.total_events, 10u);
  EXPECT_EQ(summary.first_ts_ns, t0);
  // Wall = first event start .. last span end (publish ends at t0+100us).
  EXPECT_EQ(summary.wall_ns, 100 * kUs);

  const PhaseStat& kernel =
      summary.spans.at(static_cast<std::uint16_t>(EventId::kKernelApply));
  EXPECT_EQ(kernel.count, 1u);
  EXPECT_EQ(kernel.total_ns, 50 * kUs);
  EXPECT_EQ(kernel.arg_sum, 60u);
  const PhaseStat& wait =
      summary.counters.at(static_cast<std::uint16_t>(EventId::kQueueWait));
  EXPECT_EQ(wait.total_ns, 999u);

  // Applier: 10+10+50+30 = 100 us of phases over a 100 us extent.
  EXPECT_EQ(summary.applier_wall_ns, 100 * kUs);
  EXPECT_EQ(summary.applier_phase_ns, 100 * kUs);
  EXPECT_DOUBLE_EQ(summary.applier_coverage, 1.0);

  ASSERT_EQ(summary.epochs.size(), 1u);
  EXPECT_EQ(summary.epochs[0].epoch, 3u);
  EXPECT_EQ(summary.epochs[0].batch_size, 60u);
  EXPECT_EQ(summary.epochs[0].ts_ns, 99 * kUs);

  ASSERT_EQ(summary.threads.size(), 2u);
  EXPECT_TRUE(summary.threads[0].thread_id == 7
                  ? summary.threads[0].is_applier
                  : summary.threads[1].is_applier);

  const std::string report = RenderSummary(summary);
  EXPECT_NE(report.find("kernel.apply"), std::string::npos);
  EXPECT_NE(report.find("queue.wait"), std::string::npos);
  EXPECT_NE(report.find("epoch"), std::string::npos);
  EXPECT_NE(report.find("100.0%"), std::string::npos);  // coverage line
}

TEST(Summarize, EmptyTraceIsWellFormed) {
  TraceFile file;
  file.version = kTraceVersion;
  TraceSummary summary = Summarize(file);
  EXPECT_EQ(summary.total_events, 0u);
  EXPECT_EQ(summary.wall_ns, 0u);
  EXPECT_EQ(summary.applier_coverage, 0.0);
  EXPECT_TRUE(summary.epochs.empty());
  // Rendering an empty summary must not crash or divide by zero.
  EXPECT_FALSE(RenderSummary(summary).empty());
}

// ---- Trace ↔ service stats cross-check -------------------------------------

// The trace and ServiceStats record the same work from two sides; on a
// drained run with no dropped events they must agree exactly. Tiered
// storage (ε > 0) and the top-k index are on so every compared counter
// moves. The tracer starts before the service exists, so the initial
// index build and tier pass are on both sides too.
TEST(TraceStatsCrossCheck, ServiceCountersEqualTraceEventSums) {
  auto seed = graph::ErdosRenyiGnm(48, 120, 13);
  ASSERT_TRUE(seed.ok());
  const graph::DynamicDiGraph graph = graph::MaterializeGraph(48, *seed);
  simrank::SimRankOptions sr;
  sr.damping = 0.6;
  sr.iterations = 8;
  auto index = core::DynamicSimRank::Create(graph, sr);
  ASSERT_TRUE(index.ok());
  Rng rng(29);
  auto inserts = graph::SampleInsertions(graph, 24, &rng);
  auto deletes = graph::SampleDeletions(graph, 12, &rng);
  ASSERT_TRUE(inserts.ok());
  ASSERT_TRUE(deletes.ok());
  service::ServiceOptions options;
  options.max_batch = 4;
  options.topk_index_capacity = 8;
  options.sparse.enabled = true;
  options.sparse.epsilon = 1e-4;

  Tracer& tracer = Tracer::Instance();
  ASSERT_TRUE(tracer.Start(TempTracePath("stats"), 4096).ok());
  const std::string resolved = tracer.active_path();
  auto service =
      service::SimRankService::Create(std::move(index).value(), options);
  ASSERT_TRUE(service.ok());
  // Flush per update pins the batch boundaries, so every count below is
  // the same on every run; interleaved reads feed the tier policy.
  for (std::size_t i = 0; i < inserts->size(); ++i) {
    ASSERT_TRUE((*service)->Submit((*inserts)[i]).ok());
    ASSERT_TRUE((*service)->Flush().ok());
    if (i < deletes->size()) {
      ASSERT_TRUE((*service)->Submit((*deletes)[i]).ok());
      ASSERT_TRUE((*service)->Flush().ok());
    }
    ASSERT_TRUE((*service)->TopKFor(static_cast<graph::NodeId>(i), 4).ok());
  }
  (*service)->Stop();
  const service::ServiceStats stats = (*service)->stats();
  tracer.Stop();

  auto file = ReadTraceFile(resolved);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const TraceSummary summary = Summarize(*file);
  ASSERT_TRUE(summary.footer_present);
  EXPECT_EQ(summary.total_dropped, 0u);
  const auto span = [&](EventId id) {
    auto it = summary.spans.find(static_cast<std::uint16_t>(id));
    return it == summary.spans.end() ? PhaseStat{} : it->second;
  };
  const auto counter = [&](EventId id) {
    auto it = summary.counters.find(static_cast<std::uint16_t>(id));
    return it == summary.counters.end() ? PhaseStat{} : it->second;
  };
  EXPECT_EQ(span(EventId::kRerank).arg_sum, stats.topk_index_rows_reranked);
  EXPECT_EQ(counter(EventId::kStoreRowCow).total_ns, stats.bytes_published);
  EXPECT_EQ(counter(EventId::kStoreWriteSpill).count,
            stats.rows_spilled_dense);
  EXPECT_EQ(counter(EventId::kStoreSparseMerge).count,
            stats.sparse_write_merges);
  // Non-vacuous: the run exercised each compared path.
  EXPECT_GT(stats.topk_index_rows_reranked, 0u);
  EXPECT_GT(stats.bytes_published, 0u);
  EXPECT_GT(stats.sparse_write_merges, 0u);
  EXPECT_GT(stats.rows_spilled_dense, 0u);
}

TEST(EventNames, CoverEveryKnownId) {
  for (std::uint16_t id = 1; id <= 21; ++id) {
    EXPECT_STRNE(EventName(static_cast<EventId>(id)), "unknown")
        << "missing name for event id " << id;
  }
  EXPECT_STREQ(EventName(static_cast<EventId>(999)), "unknown");
}

}  // namespace
}  // namespace incsr::obs
