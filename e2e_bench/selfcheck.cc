// e2e_selfcheck — checks the benchmark's own measurement code against
// hand-built inputs whose answers are known: the percentile helper, and
// the self-time decoder on a hand-built trace, both in memory and after a
// round trip through obs::Tracer's file format. Exit status 0 = all pass.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "stats.h"
#include "trace_selftime.h"

namespace incsr::e2e {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

void ExpectNear(double got, double want, const std::string& what) {
  Expect(std::abs(got - want) <= 1e-9 * std::max(1.0, std::abs(want)),
         what + ": got " + std::to_string(got) + ", want " +
             std::to_string(want));
}

void CheckPercentiles() {
  std::vector<double> ramp;
  for (int i = 100; i >= 1; --i) ramp.push_back(i);  // unsorted on purpose
  ExpectNear(Percentile(ramp, 0.0), 1.0, "p0 of 1..100");
  ExpectNear(Percentile(ramp, 0.5), 50.5, "p50 of 1..100");
  ExpectNear(Percentile(ramp, 0.99), 99.01, "p99 of 1..100");
  ExpectNear(Percentile(ramp, 1.0), 100.0, "p100 of 1..100");
  ExpectNear(Median({3.0, 1.0, 2.0}), 2.0, "median of 3 samples");
  ExpectNear(Percentile({7.0}, 0.99), 7.0, "p99 of one sample");
  ExpectNear(Percentile({}, 0.5), 0.0, "percentile of no samples");
  Expect(TailCount(ramp, 0.99) == 1, "one sample above p99 of 1..100");
  Expect(TailCount(ramp, 0.5) == 50, "fifty samples above p50 of 1..100");
}

obs::TraceEvent Span(obs::EventId id, std::uint64_t start,
                     std::uint64_t duration) {
  obs::TraceEvent e;
  e.id = static_cast<std::uint16_t>(id);
  e.kind = static_cast<std::uint8_t>(obs::EventKind::kSpan);
  e.ts_ns = start;
  e.value = duration;
  return e;
}

obs::TraceEvent Counter(obs::EventId id, std::uint64_t ts,
                        std::uint64_t value) {
  obs::TraceEvent e;
  e.id = static_cast<std::uint16_t>(id);
  e.kind = static_cast<std::uint8_t>(obs::EventKind::kCounter);
  e.ts_ns = ts;
  e.value = value;
  return e;
}

// Thread 1, in end (emission) order:
//   publish [1000, 1100) contains rerank [1010, 1040) and
//   cache_invalidate [1050, 1060); rerank contains store [1020, 1030).
//   A second publish [1200, 1220) has no children.
// Thread 2: kernel.scatter [1005, 1050), overlapping thread 1 in time but
//   never nested under it (nesting is per thread).
constexpr auto kPublish = obs::EventId::kPublish;
constexpr auto kRerank = obs::EventId::kRerank;
constexpr auto kStore = obs::EventId::kStorePublish;
constexpr auto kInvalidate = obs::EventId::kCacheInvalidate;
constexpr auto kScatter = obs::EventId::kKernelScatter;
constexpr auto kCow = obs::EventId::kStoreRowCow;

std::vector<obs::TraceEvent> Thread1() {
  return {Span(kStore, 1020, 10), Span(kRerank, 1010, 30),
          Counter(kCow, 1025, 64), Span(kInvalidate, 1050, 10),
          Span(kPublish, 1000, 100), Span(kPublish, 1200, 20),
          Counter(kCow, 1210, 32)};
}

std::vector<obs::TraceEvent> Thread2() { return {Span(kScatter, 1005, 45)}; }

void CheckDecoded(const obs::TraceFile& file, const std::string& label) {
  const SelfTimes self = ComputeSelfTimes(file, {{1000, 1100}});
  auto span = [&self](obs::EventId id) {
    auto it = self.spans.find(static_cast<std::uint16_t>(id));
    return it == self.spans.end() ? SpanTotals{} : it->second;
  };
  auto windowed = [&self](obs::EventId id) {
    auto it = self.windowed_spans.find(static_cast<std::uint16_t>(id));
    return it == self.windowed_spans.end() ? SpanTotals{} : it->second;
  };
  // publish: 100 - (30 + 10) = 60 self, plus 20 for the childless one.
  Expect(span(kPublish).count == 2, label + ": publish count");
  Expect(span(kPublish).total_ns == 120, label + ": publish total");
  Expect(span(kPublish).self_ns == 80, label + ": publish self");
  Expect(span(kRerank).self_ns == 20, label + ": rerank self");
  Expect(span(kStore).self_ns == 10, label + ": store self");
  Expect(span(kInvalidate).self_ns == 10, label + ": invalidate self");
  Expect(span(kScatter).self_ns == 45, label + ": scatter self");
  // The window [1000, 1100) holds the first publish only.
  Expect(windowed(kPublish).count == 1, label + ": windowed publish count");
  Expect(windowed(kPublish).self_ns == 60, label + ": windowed publish self");
  Expect(windowed(kScatter).self_ns == 45, label + ": windowed scatter");
  Expect(self.counters.at(static_cast<std::uint16_t>(kCow)) == 96,
         label + ": counter sum");
  Expect(self.windowed_counters.at(static_cast<std::uint16_t>(kCow)) == 64,
         label + ": windowed counter sum");
  const std::string mismatch =
      CheckAgainstSummary(self, obs::Summarize(file));
  Expect(mismatch.empty(), label + ": decoder vs Summarize: " + mismatch);
}

void CheckSelfTimes() {
  obs::TraceFile file;
  file.threads[1] = Thread1();
  file.threads[2] = Thread2();
  CheckDecoded(file, "in-memory trace");

  // The same events through the Tracer's ring, drainer and file format.
  const std::string path =
      ".bench_build/e2e_selfcheck_" + std::to_string(getpid()) + ".bin";
  Status started = obs::Tracer::Instance().Start(path, 64);
  Expect(started.ok(), "tracer start: " + started.ToString());
  if (!started.ok()) return;
  for (const auto& events : {Thread1(), Thread2()}) {
    std::thread([&events] {
      for (const obs::TraceEvent& e : events) obs::Tracer::Instance().Emit(e);
    }).join();
  }
  obs::Tracer::Instance().Stop();
  auto read = obs::ReadTraceFile(path);
  std::remove(path.c_str());
  Expect(read.ok(), "trace file read back");
  if (!read.ok()) return;
  Expect(read->threads.size() == 2, "trace file has two threads");
  CheckDecoded(*read, "trace file");
}

}  // namespace
}  // namespace incsr::e2e

int main() {
  incsr::e2e::CheckPercentiles();
  incsr::e2e::CheckSelfTimes();
  std::printf("selfcheck: %s (%d failure(s))\n",
              incsr::e2e::failures == 0 ? "PASS" : "FAIL",
              incsr::e2e::failures);
  return incsr::e2e::failures == 0 ? 0 : 1;
}
