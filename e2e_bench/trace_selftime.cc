#include "trace_selftime.h"

#include <algorithm>

namespace incsr::e2e {

namespace {

bool IsSpan(const obs::TraceEvent& event) {
  return event.kind == static_cast<std::uint8_t>(obs::EventKind::kSpan);
}

bool InWindows(const std::vector<TimeWindow>& windows, std::uint64_t ts) {
  for (const TimeWindow& w : windows) {
    if (ts >= w.begin_ns && ts < w.end_ns) return true;
  }
  return false;
}

}  // namespace

SelfTimes ComputeSelfTimes(const obs::TraceFile& file,
                           const std::vector<TimeWindow>& windows) {
  SelfTimes out;
  for (const auto& [thread_id, events] : file.threads) {
    std::vector<const obs::TraceEvent*> spans;
    for (const obs::TraceEvent& event : events) {
      if (IsSpan(event)) {
        spans.push_back(&event);
        continue;
      }
      out.counters[event.id] += event.value;
      if (InWindows(windows, event.ts_ns)) {
        out.windowed_counters[event.id] += event.value;
      }
    }
    // Events arrive in end order (a scope emits at exit); nesting needs
    // start order, parents (longer) before children starting with them.
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceEvent* a, const obs::TraceEvent* b) {
                if (a->ts_ns != b->ts_ns) return a->ts_ns < b->ts_ns;
                return a->value > b->value;
              });
    std::vector<std::uint64_t> covered(spans.size(), 0);
    std::vector<std::size_t> open;  // stack of enclosing spans
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const std::uint64_t start = spans[i]->ts_ns;
      const std::uint64_t end = start + spans[i]->value;
      while (!open.empty() &&
             spans[open.back()]->ts_ns + spans[open.back()]->value <= start) {
        open.pop_back();
      }
      if (!open.empty()) {
        const std::uint64_t parent_end =
            spans[open.back()]->ts_ns + spans[open.back()]->value;
        covered[open.back()] += std::min(end, parent_end) - start;
      }
      open.push_back(i);
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const obs::TraceEvent& span = *spans[i];
      const std::uint64_t self =
          span.value - std::min(covered[i], span.value);
      auto add = [&span, self](SpanTotals* t) {
        ++t->count;
        t->total_ns += span.value;
        t->self_ns += self;
      };
      add(&out.spans[span.id]);
      if (InWindows(windows, span.ts_ns)) add(&out.windowed_spans[span.id]);
    }
  }
  return out;
}

std::vector<TimeWindow> SpanWindows(const obs::TraceFile& file,
                                    BenchSpan span) {
  std::vector<TimeWindow> out;
  for (const auto& [thread_id, events] : file.threads) {
    for (const obs::TraceEvent& event : events) {
      if (IsSpan(event) && event.id == static_cast<std::uint16_t>(span)) {
        out.push_back({event.ts_ns, event.ts_ns + event.value});
      }
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TimeWindow& a, const TimeWindow& b) {
              return a.begin_ns < b.begin_ns;
            });
  return out;
}

std::string CheckAgainstSummary(const SelfTimes& self,
                                const obs::TraceSummary& summary) {
  if (self.spans.size() != summary.spans.size()) {
    return "span id sets differ: decoder " +
           std::to_string(self.spans.size()) + " ids, Summarize " +
           std::to_string(summary.spans.size());
  }
  for (const auto& [id, stat] : summary.spans) {
    auto it = self.spans.find(id);
    if (it == self.spans.end() || it->second.count != stat.count ||
        it->second.total_ns != stat.total_ns) {
      return "span id " + std::to_string(id) + " totals differ";
    }
  }
  if (self.counters.size() != summary.counters.size()) {
    return "counter id sets differ";
  }
  for (const auto& [id, stat] : summary.counters) {
    auto it = self.counters.find(id);
    if (it == self.counters.end() || it->second != stat.total_ns) {
      return "counter id " + std::to_string(id) + " sums differ";
    }
  }
  return "";
}

}  // namespace incsr::e2e
