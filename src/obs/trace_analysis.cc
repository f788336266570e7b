#include "obs/trace_analysis.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace incsr::obs {

namespace {

// Bounds-checked little-endian reads over a byte buffer (the trace-file
// mirror of the wire Reader; see obs/trace.h for why net/ is not reused).
class ByteReader {
 public:
  ByteReader(const char* data, std::size_t size) : data_(data), size_(size) {}

  bool U8(std::uint8_t* v) { return Raw(v, sizeof *v); }
  bool U16(std::uint16_t* v) { return Raw(v, sizeof *v); }
  bool U32(std::uint32_t* v) { return Raw(v, sizeof *v); }
  bool U64(std::uint64_t* v) { return Raw(v, sizeof *v); }
  std::size_t Remaining() const { return size_ - pos_; }
  bool Complete() const { return pos_ == size_; }

 private:
  bool Raw(void* v, std::size_t n) {
    if (size_ - pos_ < n) return false;
    std::memcpy(v, data_ + pos_, n);
    pos_ += n;
    return true;
  }
  const char* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

bool DecodeEvent(ByteReader* reader, TraceEvent* out) {
  return reader->U16(&out->id) && reader->U8(&out->kind) &&
         reader->U8(&out->reserved) && reader->U32(&out->arg) &&
         reader->U64(&out->ts_ns) && reader->U64(&out->value);
}

constexpr std::size_t kSerializedEventBytes = 24;

// The applier pipeline's top-level, non-overlapping phases: together they
// tile the applier thread's wall time (sub-spans like kernel.seed or
// publish.rerank nest INSIDE these and are excluded to avoid double
// counting).
constexpr EventId kTopLevelPhases[] = {EventId::kQueueIdle, EventId::kCoalesce,
                                       EventId::kKernelApply,
                                       EventId::kPublish};

bool IsTopLevelPhase(std::uint16_t id) {
  for (EventId phase : kTopLevelPhases) {
    if (static_cast<std::uint16_t>(phase) == id) return true;
  }
  return false;
}

std::string FormatNs(std::uint64_t ns) {
  char buf[32];
  if (ns >= 1'000'000'000ull) {
    std::snprintf(buf, sizeof buf, "%.3f s",
                  static_cast<double>(ns) / 1e9);
  } else if (ns >= 1'000'000ull) {
    std::snprintf(buf, sizeof buf, "%.3f ms",
                  static_cast<double>(ns) / 1e6);
  } else if (ns >= 1'000ull) {
    std::snprintf(buf, sizeof buf, "%.3f us",
                  static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%llu ns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

}  // namespace

std::uint64_t TraceFile::total_events() const {
  std::uint64_t total = 0;
  for (const auto& [thread_id, events] : threads) total += events.size();
  return total;
}

std::uint64_t TraceFile::total_dropped() const {
  std::uint64_t total = 0;
  for (const RingAccount& ring : rings) total += ring.dropped;
  return total;
}

Result<TraceFile> ReadTraceFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::IoError("cannot open trace file '" + path + "'");
  std::ostringstream contents;
  contents << file.rdbuf();
  const std::string bytes = contents.str();

  if (bytes.size() < sizeof kTraceMagic + 8 ||
      std::memcmp(bytes.data(), kTraceMagic, sizeof kTraceMagic) != 0) {
    return Status::InvalidArgument("'" + path + "' is not an incsr trace");
  }
  ByteReader header(bytes.data() + sizeof kTraceMagic,
                    bytes.size() - sizeof kTraceMagic);
  TraceFile out;
  std::uint32_t event_size = 0;
  if (!header.U32(&out.version) || !header.U32(&event_size)) {
    return Status::InvalidArgument("truncated trace header");
  }
  if (out.version != kTraceVersion) {
    return Status::InvalidArgument("unsupported trace version " +
                                   std::to_string(out.version));
  }
  if (event_size != kSerializedEventBytes) {
    return Status::InvalidArgument("unexpected trace event size " +
                                   std::to_string(event_size));
  }

  std::size_t at = sizeof kTraceMagic + 8;
  while (at < bytes.size()) {
    if (bytes.size() - at < 4) break;  // truncated length prefix: stop
    std::uint32_t block_len;
    std::memcpy(&block_len, bytes.data() + at, 4);
    at += 4;
    if (bytes.size() - at < block_len) break;  // truncated block: stop
    ByteReader block(bytes.data() + at, block_len);
    at += block_len;
    std::uint8_t type;
    if (!block.U8(&type)) {
      return Status::InvalidArgument("empty trace block");
    }
    if (type == kTraceBlockEvents) {
      std::uint32_t thread_id, count;
      if (!block.U32(&thread_id) || !block.U32(&count) ||
          block.Remaining() != count * kSerializedEventBytes) {
        return Status::InvalidArgument("malformed trace event block");
      }
      // No reserve(size + count) here: a thread's events arrive in many
      // small blocks, and an exact-fit reserve per block defeats the
      // vector's geometric growth — every block would re-copy the whole
      // vector, quadratic in the trace length.
      std::vector<TraceEvent>& events = out.threads[thread_id];
      for (std::uint32_t i = 0; i < count; ++i) {
        TraceEvent event;
        if (!DecodeEvent(&block, &event)) {
          return Status::InvalidArgument("malformed trace event");
        }
        events.push_back(event);
      }
    } else if (type == kTraceBlockFooter) {
      std::uint32_t ring_count;
      if (!block.U64(&out.start_ns) || !block.U64(&out.stop_ns) ||
          !block.U32(&ring_count) ||
          block.Remaining() != ring_count * 20u) {
        return Status::InvalidArgument("malformed trace footer");
      }
      for (std::uint32_t i = 0; i < ring_count; ++i) {
        TraceFile::RingAccount ring;
        if (!block.U32(&ring.thread_id) || !block.U64(&ring.written) ||
            !block.U64(&ring.dropped)) {
          return Status::InvalidArgument("malformed trace footer entry");
        }
        out.rings.push_back(ring);
      }
      out.footer_present = true;
    } else {
      return Status::InvalidArgument("unknown trace block type " +
                                     std::to_string(type));
    }
  }
  return out;
}

TraceSummary Summarize(const TraceFile& file) {
  TraceSummary summary;
  summary.footer_present = file.footer_present;
  summary.total_events = file.total_events();
  summary.total_dropped = file.total_dropped();

  // Pass 1: the trace's time origin (earliest event start).
  std::uint64_t first = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t last = 0;
  for (const auto& [thread_id, events] : file.threads) {
    for (const TraceEvent& event : events) {
      first = std::min(first, event.ts_ns);
      const std::uint64_t end =
          event.kind == static_cast<std::uint8_t>(EventKind::kSpan)
              ? event.ts_ns + event.value
              : event.ts_ns;
      last = std::max(last, end);
    }
  }
  if (summary.total_events == 0) return summary;
  summary.first_ts_ns = first;
  summary.wall_ns = last - first;

  for (const auto& [thread_id, events] : file.threads) {
    ThreadExtent extent;
    extent.thread_id = thread_id;
    extent.events = events.size();
    std::uint64_t thread_first = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t thread_last = 0;
    std::uint64_t phase_ns = 0;
    for (const TraceEvent& event : events) {
      thread_first = std::min(thread_first, event.ts_ns);
      const bool is_span =
          event.kind == static_cast<std::uint8_t>(EventKind::kSpan);
      const std::uint64_t end =
          is_span ? event.ts_ns + event.value : event.ts_ns;
      thread_last = std::max(thread_last, end);
      if (is_span) {
        PhaseStat& stat = summary.spans[event.id];
        ++stat.count;
        stat.total_ns += event.value;
        stat.arg_sum += event.arg;
        stat.durations.count += 1;
        stat.durations.sum += event.value;
        stat.durations.min = std::min(stat.durations.min, event.value);
        stat.durations.max = std::max(stat.durations.max, event.value);
        ++stat.durations.buckets[HistogramBucketFor(event.value)];
        if (event.id == static_cast<std::uint16_t>(EventId::kBatchApply)) {
          extent.is_applier = true;
        }
        if (IsTopLevelPhase(event.id)) phase_ns += event.value;
      } else {
        PhaseStat& stat = summary.counters[event.id];
        ++stat.count;
        stat.total_ns += event.value;
        stat.arg_sum += event.arg;
        if (event.id ==
            static_cast<std::uint16_t>(EventId::kEpochPublished)) {
          EpochPoint point;
          point.epoch = event.arg;
          point.ts_ns = event.ts_ns - first;
          point.batch_size = event.value;
          summary.epochs.push_back(point);
        }
      }
    }
    extent.first_ns = thread_first - first;
    extent.last_ns = thread_last - first;
    summary.threads.push_back(extent);
    if (extent.is_applier) {
      summary.applier_phase_ns += phase_ns;
      summary.applier_wall_ns += thread_last - thread_first;
    }
  }
  std::sort(summary.epochs.begin(), summary.epochs.end(),
            [](const EpochPoint& a, const EpochPoint& b) {
              return a.ts_ns < b.ts_ns;
            });
  if (summary.applier_wall_ns > 0) {
    summary.applier_coverage =
        static_cast<double>(summary.applier_phase_ns) /
        static_cast<double>(summary.applier_wall_ns);
  }
  return summary;
}

std::string RenderSummary(const TraceSummary& summary) {
  std::ostringstream out;
  char line[256];
  std::snprintf(line, sizeof line,
                "trace: %llu events on %zu thread(s) over %s, %llu dropped%s\n",
                static_cast<unsigned long long>(summary.total_events),
                summary.threads.size(), FormatNs(summary.wall_ns).c_str(),
                static_cast<unsigned long long>(summary.total_dropped),
                summary.footer_present ? "" : " (no footer: truncated file)");
  out << line;
  if (summary.total_events == 0) return out.str();

  out << "\nspans (per-phase wall time):\n";
  std::snprintf(line, sizeof line, "  %-26s %10s %14s %12s %12s %12s\n",
                "phase", "count", "total", "mean", "p50", "p99");
  out << line;
  // Widest total first: the report reads as "where did the time go".
  std::vector<std::pair<std::uint16_t, const PhaseStat*>> ordered;
  for (const auto& [id, stat] : summary.spans) ordered.emplace_back(id, &stat);
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.second->total_ns > b.second->total_ns;
  });
  for (const auto& [id, stat] : ordered) {
    std::snprintf(
        line, sizeof line, "  %-26s %10llu %14s %12s %12s %12s\n",
        EventName(static_cast<EventId>(id)),
        static_cast<unsigned long long>(stat->count),
        FormatNs(stat->total_ns).c_str(),
        FormatNs(stat->count == 0 ? 0 : stat->total_ns / stat->count).c_str(),
        FormatNs(static_cast<std::uint64_t>(stat->durations.Percentile(0.50)))
            .c_str(),
        FormatNs(static_cast<std::uint64_t>(stat->durations.Percentile(0.99)))
            .c_str());
    out << line;
  }

  if (summary.applier_wall_ns > 0) {
    std::snprintf(
        line, sizeof line,
        "\napplier pipeline coverage: %.1f%% of %s applier wall time "
        "(queue.idle + coalesce + kernel.apply + publish)%s\n",
        100.0 * summary.applier_coverage,
        FormatNs(summary.applier_wall_ns).c_str(),
        summary.applier_coverage >= 0.9
            ? ""
            : "  ** below the 90% bar: unattributed time between phases **");
    out << line;
  }

  if (!summary.counters.empty()) {
    out << "\ncounters:\n";
    std::snprintf(line, sizeof line, "  %-26s %10s %16s\n", "counter",
                  "count", "value sum");
    out << line;
    for (const auto& [id, stat] : summary.counters) {
      std::snprintf(line, sizeof line, "  %-26s %10llu %16llu\n",
                    EventName(static_cast<EventId>(id)),
                    static_cast<unsigned long long>(stat.count),
                    static_cast<unsigned long long>(stat.total_ns));
      out << line;
    }
  }

  if (!summary.epochs.empty()) {
    std::snprintf(line, sizeof line,
                  "\nepoch timeline: %zu epochs published",
                  summary.epochs.size());
    out << line;
    std::uint64_t updates = 0;
    for (const EpochPoint& point : summary.epochs) {
      updates += point.batch_size;
    }
    std::snprintf(line, sizeof line, ", %llu updates total\n",
                  static_cast<unsigned long long>(updates));
    out << line;
    const std::size_t tail =
        std::min<std::size_t>(summary.epochs.size(), 10);
    for (std::size_t i = summary.epochs.size() - tail;
         i < summary.epochs.size(); ++i) {
      const EpochPoint& point = summary.epochs[i];
      std::snprintf(line, sizeof line,
                    "  t+%-12s epoch %-8u batch %llu\n",
                    FormatNs(point.ts_ns).c_str(), point.epoch,
                    static_cast<unsigned long long>(point.batch_size));
      out << line;
    }
  }

  out << "\nthreads:\n";
  for (const ThreadExtent& extent : summary.threads) {
    std::snprintf(
        line, sizeof line,
        "  thread %-4u %8llu events, active t+%s .. t+%s%s\n",
        extent.thread_id, static_cast<unsigned long long>(extent.events),
        FormatNs(extent.first_ns).c_str(), FormatNs(extent.last_ns).c_str(),
        extent.is_applier ? "  [applier]" : "");
    out << line;
  }
  return out.str();
}

}  // namespace incsr::obs
