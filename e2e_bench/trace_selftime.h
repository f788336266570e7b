// Per-layer self times from an obs::Tracer trace, computed outside the
// library: the benchmark decodes the trace file with obs::ReadTraceFile
// and nests each thread's spans by interval. A span's self time is its
// duration minus the part of it that its direct child spans on the same
// thread cover; a child that crosses its parent's end is clipped to it.
//
// The benchmark also records spans of its own, around its calls into the
// library, through the same Tracer. Their ids (BenchSpan) lie far above
// obs::EventId's range, so they never collide with library spans; the
// library's EventName prints them as "unknown".
#ifndef INCSR_E2E_BENCH_TRACE_SELFTIME_H_
#define INCSR_E2E_BENCH_TRACE_SELFTIME_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "obs/trace_analysis.h"

namespace incsr::e2e {

/// Span ids the benchmark emits around its own calls into the library.
enum class BenchSpan : std::uint16_t {
  kSimRankCreate = 0x4001,  ///< DynamicSimRank::Create / CreateIsolated
  kServiceCreate = 0x4002,  ///< SimRankService::Create
  kServerStart = 0x4003,    ///< net::IncSrServer::Serve
  kSubmit = 0x4004,         ///< one Submit call or Submit RPC
  kFlush = 0x4005,          ///< Flush call or Flush RPC
  kTopKRpc = 0x4006,        ///< one TopKFor RPC
  kReferenceCheck = 0x4007, ///< the correctness gate
  kMeasure = 0x4008,        ///< the measured window of a pass
};

/// The obs::EventId under which a benchmark span is recorded.
inline obs::EventId SpanId(BenchSpan span) {
  return static_cast<obs::EventId>(span);
}

/// Span count, summed duration and summed self time of one span id.
struct SpanTotals {
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Closed-open interval [begin_ns, end_ns) of steady-clock time.
struct TimeWindow {
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
};

struct SelfTimes {
  /// Every span of the trace, by span id.
  std::map<std::uint16_t, SpanTotals> spans;
  /// Counter and instant values summed by id.
  std::map<std::uint16_t, std::uint64_t> counters;
  /// Spans whose START lies inside one of the windows, and counters
  /// emitted inside one.
  std::map<std::uint16_t, SpanTotals> windowed_spans;
  std::map<std::uint16_t, std::uint64_t> windowed_counters;
};

/// Decodes self times for every span of `file`; `windows` selects the
/// windowed subset.
SelfTimes ComputeSelfTimes(const obs::TraceFile& file,
                           const std::vector<TimeWindow>& windows);

/// The intervals of every `span` span in the trace, in start order.
std::vector<TimeWindow> SpanWindows(const obs::TraceFile& file,
                                    BenchSpan span);

/// Cross-checks the decoder against obs::Summarize: span counts and
/// summed durations per id, and counter sums per id, must be identical.
/// Returns "" when they are, else the first mismatch.
std::string CheckAgainstSummary(const SelfTimes& self,
                                const obs::TraceSummary& summary);

}  // namespace incsr::e2e

#endif  // INCSR_E2E_BENCH_TRACE_SELFTIME_H_
