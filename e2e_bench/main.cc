// incsr_e2e — the repository's end-to-end benchmark (see README.md in this
// directory for the workloads, every metric and the layer -> end-to-end
// map). One invocation runs one workload:
//
//   incsr_e2e --workload ingest|serve|sparse_churn --seed N --seconds S
//             --trace 0|1 [--smoke]
//
// It prints every metric as "name = value unit" lines and, as its last
// line, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, measured with tracing off;
// --trace 1 runs the workload twice, untraced then traced, and reports the
// per-layer metrics of the traced pass plus the tracing overhead. Exit
// status 0 means every correctness check passed.
#include <sched.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/scheduler.h"
#include "core/dynamic_simrank.h"
#include "graph/components.h"
#include "inputs.h"
#include "la/score_store.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "service/simrank_service.h"
#include "simrank/batch_matrix_parallel.h"
#include "stats.h"
#include "trace_selftime.h"

namespace incsr::e2e {
namespace {

using graph::EdgeUpdate;

// ---- Fixed workload parameters (README.md explains each choice) ----------
constexpr double kDamping = 0.6;
constexpr double kDblpScale = 0.1;          // n = 1363
constexpr double kDblpDeleteShare = 0.25;   // deletions per insertion
// The bulk workloads let the applier drain a whole pass in one batch.
// With the default 512 the applier's first drain races the submitter, so
// batch boundaries, and with them every freshness percentile, jumped by
// a batch between runs.
constexpr std::size_t kBulkMaxBatch = 4096;
constexpr std::size_t kSparseNodes = 8192;
constexpr std::size_t kSparseUpdates = 4096;
constexpr double kSparseEpsilon = 1e-5;
constexpr std::size_t kTopK = 10;
constexpr double kZipfTheta = 1.0;
constexpr int kReaders = 2;
constexpr double kReaderQps = 2000.0;       // per reader connection
constexpr double kServeUpdatesPerSecond = 100.0;
constexpr double kProbeSeconds = 5.0;       // read probe after bulk ingest
constexpr double kReadWarmupSeconds = 0.5;  // reads sent, not recorded
// Query percentiles are taken per window of due times, then the median
// over windows is reported: 0.25 s at 2 x 2000 qps is 1000 samples, 10 of
// them above the window's p99. A stall of a few ms (a descheduled vCPU)
// sets the p99 of the window it falls in; short windows keep such
// windows a minority, so the median stays on the unstalled ones.
constexpr std::uint64_t kQueryWindowNs = 250'000'000;
constexpr int kSetupRepeats = 3;
constexpr double kExactTolerance = 1e-7;
constexpr std::size_t kWireCheckSamples = 256;
constexpr std::size_t kTraceBufferKb = 4096;  // per traced thread

std::uint64_t NowNs() { return obs::Tracer::NowNs(); }

double SecondsBetween(std::uint64_t from_ns, std::uint64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e9;
}

void SleepUntil(std::uint64_t due_ns) {
  const std::uint64_t now = NowNs();
  if (due_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
  }
}

std::size_t HardwareThreads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// The CPUs this process may run on, split into a read side (server loop
/// and load generators) and a write side (applier and kernel workers), so
/// the serve workload's writers and readers do not oversubscribe the box.
/// Threads inherit the affinity of the thread that creates them: pinning
/// the main thread around each creation places the library's threads
/// without touching the library. With one CPU, nothing is pinned.
class CpuSplit {
 public:
  CpuSplit() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    CPU_ZERO(&read_);
    CPU_ZERO(&write_);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
    if (cpus.size() < 2) return;
    for (std::size_t i = 0; i < cpus.size(); ++i) {
      CPU_SET(cpus[i], i < cpus.size() / 2 ? &read_ : &write_);
    }
    write_cpus_ = cpus.size() - cpus.size() / 2;
  }

  /// Kernel threads for the write side (at least 1).
  std::size_t write_cpus() const {
    return std::max<std::size_t>(1, write_cpus_);
  }
  void PinToRead() const { Pin(read_); }
  void PinToWrite() const { Pin(write_); }

 private:
  void Pin(const cpu_set_t& set) const {
    if (write_cpus_ > 0) sched_setaffinity(0, sizeof set, &set);
  }

  cpu_set_t read_;
  cpu_set_t write_;
  std::size_t write_cpus_ = 0;
};

/// Iteration count that makes the batch fixed point exact to ~1e-13, so
/// the incremental results can be held to kExactTolerance against a
/// from-scratch solve (the same rule the repository's integration test
/// uses).
simrank::SimRankOptions ConvergedOptions(std::size_t threads) {
  simrank::SimRankOptions options;
  options.damping = kDamping;
  options.iterations =
      static_cast<int>(std::log(1e-13) / std::log(kDamping)) + 2;
  options.num_threads = static_cast<int>(threads);
  return options;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
};

/// Everything one pass of a workload measured.
struct Pass {
  bool correct = true;
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  std::vector<double> setup_s;
  std::vector<double> simrank_create_s;
  std::vector<double> service_create_s;

  /// A measured stretch of ingest: on the bulk workloads one replay pass
  /// pair (backward + forward, after a first forward pass that is only
  /// warm-up), on serve the whole window.
  struct Segment {
    std::uint64_t updates = 0;
    double seconds = 0.0;
    std::vector<double> fresh_ms;
  };
  std::vector<Segment> segments;
  std::vector<std::vector<double>> query_us;  // by window of due times
  std::vector<double> gen_lag_ms;
  double score_mb = 0.0;

  std::vector<double> batch_sizes;
  std::vector<double> batch_targets;
  service::ServiceStats service_before;
  service::ServiceStats service_after;
  SchedulerStats sched_before;
  SchedulerStats sched_after;
  net::ServerStats server;

  std::optional<SelfTimes> trace;
  obs::TraceSummary trace_summary;
  std::uint64_t trace_dropped = 0;

  void Fail(std::string message) {
    correct = false;
    errors.push_back(std::move(message));
  }
  /// The segments the figures come from: all but the warm-up one.
  std::vector<const Segment*> scored() const {
    std::vector<const Segment*> out;
    for (std::size_t i = segments.size() > 1 ? 1 : 0; i < segments.size();
         ++i) {
      out.push_back(&segments[i]);
    }
    return out;
  }
  /// Median over scored segments of updates applied per second.
  double ingest_ups() const {
    std::vector<double> rates;
    for (const Segment* seg : scored()) {
      if (seg->seconds > 0.0) {
        rates.push_back(static_cast<double>(seg->updates) / seg->seconds);
      }
    }
    return Median(std::move(rates));
  }
  /// Median over scored segments of each segment's freshness percentile.
  double fresh_ms(double q) const {
    std::vector<double> per_segment;
    for (const Segment* seg : scored()) {
      if (!seg->fresh_ms.empty()) {
        per_segment.push_back(Percentile(seg->fresh_ms, q));
      }
    }
    return Median(std::move(per_segment));
  }
};

// ---- Freshness: due time -> publish of the batch holding the update -------

/// Applied-batch listener that matches each published update to the time
/// it was due (offered), giving the per-update freshness, and records the
/// batch shapes the applier coalesced. Runs on the applier thread.
class FreshnessRecorder {
 public:
  void Expect(const EdgeUpdate& u, std::uint64_t due_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    due_[Key(u)].push_back(due_ns);
  }

  void OnBatch(const std::vector<EdgeUpdate>& batch) {
    const std::uint64_t now = NowNs();
    std::unordered_set<graph::NodeId> targets;
    std::lock_guard<std::mutex> lock(mu_);
    for (const EdgeUpdate& u : batch) {
      targets.insert(u.dst);
      auto it = due_.find(Key(u));
      if (it == due_.end() || it->second.empty()) continue;
      fresh_ms_.push_back(static_cast<double>(now - it->second.front()) /
                          1e6);
      it->second.pop_front();
    }
    if (!batch.empty()) {
      batch_sizes_.push_back(static_cast<double>(batch.size()));
      batch_targets_.push_back(static_cast<double>(targets.size()));
    }
  }

  service::AppliedBatchListener Listener() {
    return [this](std::uint64_t, const std::vector<EdgeUpdate>& batch) {
      OnBatch(batch);
    };
  }

  /// Appends the freshness samples recorded so far to *out.
  void TakeFresh(std::vector<double>* out) {
    std::lock_guard<std::mutex> lock(mu_);
    out->insert(out->end(), fresh_ms_.begin(), fresh_ms_.end());
    fresh_ms_.clear();
  }

  void TakeBatchShapes(Pass* pass) {
    std::lock_guard<std::mutex> lock(mu_);
    pass->batch_sizes = std::move(batch_sizes_);
    pass->batch_targets = std::move(batch_targets_);
  }

 private:
  static std::uint64_t Key(const EdgeUpdate& u) {
    const std::uint64_t kind =
        u.kind == graph::UpdateKind::kDelete ? std::uint64_t{1} << 63 : 0;
    return graph::EdgeKey(u.src, u.dst) | kind;
  }

  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::deque<std::uint64_t>> due_;
  std::vector<double> fresh_ms_;
  std::vector<double> batch_sizes_;
  std::vector<double> batch_targets_;
};

// ---- Set-up ---------------------------------------------------------------

struct DeploySpec {
  simrank::SimRankOptions simrank;
  service::ServiceOptions service;
  bool serve = false;  // also start a loopback IncSrServer
  // serve: index, service and the kernel workers go to the write side,
  // the server loop (and later the load generators) to the read side.
  const CpuSplit* split = nullptr;
};

/// The program under test, as a user stands it up. Members are declared
/// so the server is destroyed (stopped) before the service it serves.
struct Deployment {
  std::unique_ptr<service::SimRankService> service;
  std::unique_ptr<net::IncSrServer> server;
};

Status StartServer(Deployment* d) {
  obs::TraceScope span(SpanId(BenchSpan::kServerStart));
  auto server = net::IncSrServer::Serve(d->service.get());
  if (!server.ok()) return server.status();
  d->server = std::move(*server);
  return Status::OK();
}

/// Sets the program up `repeats` times (each instance torn down before
/// the next) and keeps the last; records each step's time per repeat.
Result<Deployment> SetUp(const DeploySpec& spec,
                         const graph::DynamicDiGraph& base, int repeats,
                         Pass* pass) {
  Deployment kept;
  for (int r = 0; r < repeats; ++r) {
    kept.server.reset();  // the server first: it serves the service
    kept.service.reset();
    if (spec.split != nullptr) {
      spec.split->PinToWrite();
      Scheduler::Global();  // spawns the kernel workers on the write side
    }
    const std::uint64_t t0 = NowNs();
    std::optional<core::DynamicSimRank> index;
    {
      obs::TraceScope span(SpanId(BenchSpan::kSimRankCreate));
      // The tiered workload starts from isolated nodes, never dense.
      auto created =
          spec.service.sparse.enabled
              ? core::DynamicSimRank::CreateIsolated(base.num_nodes(),
                                                     spec.simrank)
              : core::DynamicSimRank::Create(base, spec.simrank);
      if (!created.ok()) return created.status();
      index.emplace(std::move(*created));
    }
    const std::uint64_t t1 = NowNs();
    {
      obs::TraceScope span(SpanId(BenchSpan::kServiceCreate));
      auto service =
          service::SimRankService::Create(std::move(*index), spec.service);
      if (!service.ok()) return service.status();
      kept.service = std::move(*service);
    }
    const std::uint64_t t2 = NowNs();
    if (spec.split != nullptr) spec.split->PinToRead();
    if (spec.serve) {
      Status started = StartServer(&kept);
      if (!started.ok()) return started;
    }
    const std::uint64_t t3 = NowNs();
    pass->simrank_create_s.push_back(SecondsBetween(t0, t1));
    pass->service_create_s.push_back(SecondsBetween(t1, t2));
    pass->setup_s.push_back(SecondsBetween(t0, t3));
  }
  return kept;
}

// ---- Load -----------------------------------------------------------------

struct LoadSamples {
  std::vector<std::vector<double>> latency_us;  // by window of due times
  std::vector<double> lag_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::size_t offered = 0;  // writer: updates sent
};

/// One open-loop reader connection: TopKFor of a Zipf-drawn node every
/// 1/qps seconds from start_ns until end_ns. Latency runs from each
/// request's due time, so a stall also delays the requests behind it.
void RunReader(std::uint16_t port, const ZipfNodes& zipf, std::uint64_t seed,
               double qps, std::uint64_t start_ns, std::uint64_t record_ns,
               std::uint64_t end_ns, LoadSamples* out) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  auto client = net::IncSrClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  Rng rng(seed);
  const double period_ns = 1e9 / qps;
  for (std::uint64_t i = 0;; ++i) {
    const std::uint64_t due =
        start_ns + static_cast<std::uint64_t>(static_cast<double>(i) *
                                              period_ns);
    if (due >= end_ns) break;
    const graph::NodeId node = zipf.Sample(&rng);
    SleepUntil(due);
    const std::uint64_t sent = NowNs();
    bool ok = false;
    {
      obs::TraceScope span(SpanId(BenchSpan::kTopKRpc));
      ok = client->TopKFor(node, kTopK).ok();
    }
    const std::uint64_t done = NowNs();
    ++out->attempted;
    if (!ok) ++out->failed;
    if (due < record_ns) continue;  // warm-up: connections, caches
    const std::size_t window = (due - record_ns) / kQueryWindowNs;
    if (window >= out->latency_us.size()) out->latency_us.resize(window + 1);
    out->latency_us[window].push_back(static_cast<double>(done - due) / 1e3);
    out->lag_ms.push_back(static_cast<double>(sent - due) / 1e6);
  }
}

/// The serve workload's writer connection: one single-update Submit RPC
/// every 1/rate seconds (open loop) replaying the churn stream.
void RunWriter(std::uint16_t port, const ChurnInputs& inputs, double rate,
               std::uint64_t start_ns, std::uint64_t end_ns,
               FreshnessRecorder* recorder, LoadSamples* out) {
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  auto client = net::IncSrClient::Connect("127.0.0.1", port);
  if (!client.ok()) {
    ++out->attempted;
    ++out->failed;
    return;
  }
  const double period_ns = 1e9 / rate;
  for (std::size_t i = 0;; ++i) {
    const std::uint64_t due =
        start_ns + static_cast<std::uint64_t>(static_cast<double>(i) *
                                              period_ns);
    if (due >= end_ns) break;
    const EdgeUpdate& update = ReplayAt(inputs, i);
    SleepUntil(due);
    out->lag_ms.push_back(static_cast<double>(NowNs() - due) / 1e6);
    recorder->Expect(update, due);
    bool ok = false;
    {
      obs::TraceScope span(SpanId(BenchSpan::kSubmit));
      auto response = client->Submit({update});
      ok = response.ok() && response->accepted == 1;
    }
    ++out->attempted;
    ++out->offered;
    if (!ok) ++out->failed;
  }
}

/// Open-loop Zipf TopKFor readers against `port` for `seconds`; samples
/// due in the first kReadWarmupSeconds are sent but not recorded.
void RunReaders(std::uint16_t port, const ZipfNodes& zipf, std::uint64_t seed,
                std::uint64_t start_ns, double seconds, Pass* pass) {
  const std::uint64_t end_ns =
      start_ns + static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t record_ns =
      start_ns + static_cast<std::uint64_t>(
                     std::min(kReadWarmupSeconds, seconds / 4) * 1e9);
  std::vector<LoadSamples> samples(kReaders);
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back(RunReader, port, std::cref(zipf),
                         seed * 1000003 + static_cast<std::uint64_t>(r),
                         kReaderQps, start_ns, record_ns, end_ns,
                         &samples[r]);
  }
  for (std::thread& t : threads) t.join();
  for (const LoadSamples& s : samples) {
    if (s.latency_us.size() > pass->query_us.size()) {
      pass->query_us.resize(s.latency_us.size());
    }
    for (std::size_t w = 0; w < s.latency_us.size(); ++w) {
      pass->query_us[w].insert(pass->query_us[w].end(),
                               s.latency_us[w].begin(), s.latency_us[w].end());
    }
    pass->gen_lag_ms.insert(pass->gen_lag_ms.end(), s.lag_ms.begin(),
                            s.lag_ms.end());
    pass->attempted += s.attempted;
    pass->failed += s.failed;
  }
}

/// Offers `updates` to the service all at once, then waits on Flush, and
/// adds the pass to `segment`. Every update is due at the moment the
/// stream is offered.
void BulkIngest(service::SimRankService* service,
                const std::vector<EdgeUpdate>& updates,
                FreshnessRecorder* recorder, Pass::Segment* segment,
                Pass* pass) {
  const std::uint64_t due = NowNs();
  for (const EdgeUpdate& u : updates) recorder->Expect(u, due);
  const std::uint64_t start = NowNs();
  for (const EdgeUpdate& u : updates) {
    obs::TraceScope span(SpanId(BenchSpan::kSubmit));
    ++pass->attempted;
    if (!service->Submit(u).ok()) ++pass->failed;
  }
  {
    obs::TraceScope span(SpanId(BenchSpan::kFlush));
    if (!service->Flush().ok()) pass->Fail("Flush failed");
  }
  segment->seconds += SecondsBetween(start, NowNs());
  segment->updates += updates.size();
  recorder->TakeFresh(&segment->fresh_ms);
}

// ---- Correctness gate -----------------------------------------------------

/// Served S against a from-scratch converged batch solve of the graph the
/// stream should have produced.
void CheckDense(const service::SimRankService& service,
                const graph::DynamicDiGraph& expected, Pass* pass) {
  obs::TraceScope span(SpanId(BenchSpan::kReferenceCheck));
  auto snapshot = service.Snapshot();
  const la::DenseMatrix reference = simrank::BatchMatrixParallel(
      expected, ConvergedOptions(HardwareThreads()));
  const double err = la::MaxAbsDiff(snapshot->scores, reference);
  if (!(err <= kExactTolerance)) {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "served S differs from batch solve: max |err| = %.3g > %.0e",
                  err, kExactTolerance);
    pass->Fail(buf);
  }
}

/// Served S against a converged batch solve per weakly connected
/// component (cross-component scores are exactly 0). The tolerance is the
/// store's recorded epsilon-drop bound plus the dense gate's tolerance for
/// the converged solve itself.
void CheckSparse(const service::SimRankService& service,
                 const graph::DynamicDiGraph& expected, Pass* pass) {
  obs::TraceScope span(SpanId(BenchSpan::kReferenceCheck));
  auto snapshot = service.Snapshot();
  const double bound = service.stats().sparse_max_error_bound;
  const std::size_t n = expected.num_nodes();
  const graph::ComponentDecomposition comps =
      graph::WeaklyConnectedComponents(expected);
  std::vector<std::vector<graph::NodeId>> members(comps.num_components());
  std::vector<std::size_t> local(n);
  for (std::size_t v = 0; v < n; ++v) {
    auto& m = members[comps.component_of[v]];
    local[v] = m.size();
    m.push_back(static_cast<graph::NodeId>(v));
  }
  std::vector<la::DenseMatrix> reference(comps.num_components());
  const simrank::SimRankOptions options = ConvergedOptions(HardwareThreads());
  for (std::size_t c = 0; c < members.size(); ++c) {
    if (members[c].size() < 2) continue;
    graph::DynamicDiGraph sub(members[c].size());
    for (graph::NodeId v : members[c]) {
      for (graph::NodeId w : expected.OutNeighbors(v)) {
        Status added = sub.AddEdge(static_cast<graph::NodeId>(local[v]),
                                   static_cast<graph::NodeId>(local[w]));
        if (!added.ok()) {
          pass->Fail("component subgraph: " + added.ToString());
          return;
        }
      }
    }
    reference[c] = simrank::BatchMatrixParallel(sub, options);
  }
  double err = 0.0;
  la::Vector scratch;
  for (std::size_t i = 0; i < n; ++i) {
    const double* row = snapshot->scores.ReadRow(i, &scratch);
    const std::int32_t c = comps.component_of[i];
    for (std::size_t j = 0; j < n; ++j) {
      double want = 0.0;
      if (comps.component_of[j] == c) {
        want = members[c].size() < 2 ? 1.0 - kDamping
                                     : reference[c](local[i], local[j]);
      }
      err = std::max(err, std::abs(row[j] - want));
    }
  }
  if (!(err <= bound + kExactTolerance)) {
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "served S exceeds the recorded error bound: max |err| = "
                  "%.3g > %.3g + %.0e",
                  err, bound, kExactTolerance);
    pass->Fail(buf);
  }
}

/// Sampled TopKFor over the wire against core::TopKForOf on the final
/// snapshot.
void CheckWireTopK(const Deployment& d, std::uint64_t seed, Pass* pass) {
  obs::TraceScope span(SpanId(BenchSpan::kReferenceCheck));
  auto snapshot = d.service->Snapshot();
  auto client = net::IncSrClient::Connect("127.0.0.1", d.server->port());
  if (!client.ok()) {
    pass->Fail("wire check: connect failed");
    return;
  }
  const std::size_t n = snapshot->scores.rows();
  Rng rng(seed ^ 0xC0FFEEull);
  for (std::size_t s = 0; s < kWireCheckSamples; ++s) {
    const auto node = static_cast<graph::NodeId>(rng.NextBounded(n));
    auto served = client->TopKFor(node, kTopK);
    if (!served.ok() ||
        *served != core::TopKForOf(snapshot->scores, node, kTopK)) {
      pass->Fail("wire TopKFor(" + std::to_string(node) +
                 ") differs from TopKForOf on the final snapshot");
      return;
    }
  }
}

double ScoreMb(const service::ServiceStats& stats, std::size_t n) {
  const double dense = static_cast<double>(n) * static_cast<double>(n) * 8.0;
  return (dense - static_cast<double>(stats.bytes_saved)) / 1e6;
}

/// Common tail of every pass: counters after, correctness, score size.
void Finish(const Deployment& d, const graph::DynamicDiGraph& expected,
            bool sparse, std::uint64_t seed, Pass* pass) {
  pass->service_after = d.service->stats();
  pass->server = d.server->stats();
  pass->failed +=
      (pass->service_after.failed - pass->service_before.failed) +
      (pass->service_after.rejected - pass->service_before.rejected);
  pass->score_mb = ScoreMb(pass->service_after, expected.num_nodes());
  if (sparse) {
    CheckSparse(*d.service, expected, pass);
  } else {
    CheckDense(*d.service, expected, pass);
  }
  CheckWireTopK(d, seed, pass);
}

// ---- Workloads ------------------------------------------------------------

/// Bulk ingest in process (`ingest`, `sparse_churn`): the stream is
/// replayed forward, backward, forward, ... until the time budget is
/// spent, always ending on a forward pass so the final graph is the
/// same whatever the machine's speed. Then, with ingest over, a read
/// probe over a loopback server and the correctness gate.
Pass RunBulk(const ChurnInputs& inputs, const DeploySpec& spec,
             const Args& args, int setup_repeats) {
  Pass pass;
  // Declared before the deployment so it outlives the applier thread
  // that calls it.
  FreshnessRecorder recorder;
  auto deployed = SetUp(spec, inputs.base, setup_repeats, &pass);
  if (!deployed.ok()) {
    pass.Fail("set-up failed: " + deployed.status().ToString());
    return pass;
  }
  Deployment& d = *deployed;
  d.service->SetAppliedBatchListener(recorder.Listener());
  pass.service_before = d.service->stats();
  pass.sched_before = Scheduler::Global().stats();
  {
    obs::TraceScope span(SpanId(BenchSpan::kMeasure));
    const std::uint64_t start = NowNs();
    pass.segments.emplace_back();  // warm-up: the first forward pass
    BulkIngest(d.service.get(), inputs.forward, &recorder,
               &pass.segments.back(), &pass);
    // A backward+forward pair takes about two forward passes; add one
    // while that lands nearer the budget than stopping here.
    const double pair_s = 2.0 * SecondsBetween(start, NowNs());
    while (SecondsBetween(start, NowNs()) + pair_s / 2 < args.seconds) {
      pass.segments.emplace_back();
      BulkIngest(d.service.get(), inputs.backward, &recorder,
                 &pass.segments.back(), &pass);
      BulkIngest(d.service.get(), inputs.forward, &recorder,
                 &pass.segments.back(), &pass);
    }
  }
  pass.sched_after = Scheduler::Global().stats();
  d.service->SetAppliedBatchListener(nullptr);
  recorder.TakeBatchShapes(&pass);

  Status started = StartServer(&d);
  if (!started.ok()) {
    pass.Fail("server start failed: " + started.ToString());
    return pass;
  }
  {
    obs::TraceScope span(SpanId(BenchSpan::kMeasure));
    const ZipfNodes zipf(inputs.base.num_nodes(), kZipfTheta, args.seed);
    RunReaders(d.server->port(), zipf, args.seed, NowNs() + 10'000'000,
               args.smoke ? 0.2 : kProbeSeconds, &pass);
  }
  Finish(d, inputs.final_graph, spec.service.sparse.enabled, args.seed,
         &pass);
  return pass;
}

/// `serve`: one writer and kReaders reader connections, all open loop, at
/// fixed rates over a loopback IncSrServer for the whole time budget.
Pass RunServe(const ChurnInputs& inputs, const DeploySpec& spec,
              const Args& args, int setup_repeats) {
  Pass pass;
  // Declared before the deployment so it outlives the applier thread
  // that calls it.
  FreshnessRecorder recorder;
  auto deployed = SetUp(spec, inputs.base, setup_repeats, &pass);
  if (!deployed.ok()) {
    pass.Fail("set-up failed: " + deployed.status().ToString());
    return pass;
  }
  Deployment& d = *deployed;
  // The server registered its replication listener at start; this
  // replaces it (no replica subscribes in this benchmark).
  d.service->SetAppliedBatchListener(recorder.Listener());
  pass.service_before = d.service->stats();
  pass.sched_before = Scheduler::Global().stats();
  const ZipfNodes zipf(inputs.base.num_nodes(), kZipfTheta, args.seed);
  auto flusher = net::IncSrClient::Connect("127.0.0.1", d.server->port());
  if (!flusher.ok()) {
    pass.Fail("flush client: " + flusher.status().ToString());
    return pass;
  }
  LoadSamples writer;
  std::uint64_t start = 0;
  std::uint64_t flushed = 0;
  {
    obs::TraceScope span(SpanId(BenchSpan::kMeasure));
    start = NowNs() + 10'000'000;  // let every connection open first
    const std::uint64_t end =
        start + static_cast<std::uint64_t>(args.seconds * 1e9);
    std::thread writer_thread(RunWriter, d.server->port(), std::cref(inputs),
                              kServeUpdatesPerSecond, start, end, &recorder,
                              &writer);
    RunReaders(d.server->port(), zipf, args.seed, start, args.seconds, &pass);
    writer_thread.join();
    // Flush only once the readers are done: the server answers a Flush
    // RPC by blocking its event loop until the applier drains.
    obs::TraceScope flush_span(SpanId(BenchSpan::kFlush));
    ++pass.attempted;
    if (!flusher->Flush().ok()) ++pass.failed;
    flushed = NowNs();
  }
  pass.sched_after = Scheduler::Global().stats();
  d.service->SetAppliedBatchListener(nullptr);
  recorder.TakeBatchShapes(&pass);
  pass.attempted += writer.attempted;
  pass.failed += writer.failed;
  pass.gen_lag_ms.insert(pass.gen_lag_ms.end(), writer.lag_ms.begin(),
                         writer.lag_ms.end());
  Pass::Segment& window = pass.segments.emplace_back();
  window.updates = writer.offered;
  window.seconds = SecondsBetween(start, flushed);
  recorder.TakeFresh(&window.fresh_ms);
  auto expected = GraphAfter(inputs, writer.offered);
  if (!expected.ok()) {
    pass.Fail("expected graph: " + expected.status().ToString());
    return pass;
  }
  Finish(d, *expected, /*sparse=*/false, args.seed, &pass);
  return pass;
}

// ---- Workload table -------------------------------------------------------

struct Workload {
  CpuSplit split;
  ChurnInputs inputs;
  DeploySpec spec;
};

Result<Workload> MakeWorkload(const Args& args) {
  Workload w;
  const std::size_t hw = HardwareThreads();
  if (args.workload == "ingest" || args.workload == "serve") {
    auto inputs = MakeDblpChurn(args.seed, args.smoke ? 0.02 : kDblpScale,
                                kDblpDeleteShare);
    if (!inputs.ok()) return inputs.status();
    w.inputs = std::move(*inputs);
    w.spec.serve = args.workload == "serve";
    if (!w.spec.serve) w.spec.service.max_batch = kBulkMaxBatch;
    // serve shares the box with a writer, two readers and the server
    // loop, so its kernels get the write half of the cores; ingest has
    // the box alone.
    w.spec.simrank =
        ConvergedOptions(w.spec.serve ? w.split.write_cpus() : hw);
  } else if (args.workload == "sparse_churn") {
    auto inputs = MakeCitationInserts(args.seed,
                                      args.smoke ? 1024 : kSparseNodes,
                                      args.smoke ? 512 : kSparseUpdates);
    if (!inputs.ok()) return inputs.status();
    w.inputs = std::move(*inputs);
    w.spec.simrank = ConvergedOptions(hw);
    w.spec.service.max_batch = kBulkMaxBatch;
    w.spec.service.sparse.enabled = true;
    w.spec.service.sparse.epsilon = kSparseEpsilon;
  } else {
    return Status::InvalidArgument("unknown workload '" + args.workload +
                                   "' (ingest, serve, sparse_churn)");
  }
  return w;
}

Pass RunPass(const Workload& w, const Args& args, int setup_repeats,
             const std::string& trace_path) {
  if (!trace_path.empty()) {
    Status started = obs::Tracer::Instance().Start(trace_path, kTraceBufferKb);
    if (!started.ok()) {
      Pass pass;
      pass.Fail("tracer: " + started.ToString());
      return pass;
    }
  }
  DeploySpec spec = w.spec;
  if (spec.serve) spec.split = &w.split;
  Pass pass = spec.serve ? RunServe(w.inputs, spec, args, setup_repeats)
                         : RunBulk(w.inputs, spec, args, setup_repeats);
  if (trace_path.empty()) return pass;
  obs::Tracer::Instance().Stop();
  auto file = obs::ReadTraceFile(trace_path);
  std::remove(trace_path.c_str());
  if (!file.ok()) {
    pass.Fail("trace decode: " + file.status().ToString());
    return pass;
  }
  pass.trace =
      ComputeSelfTimes(*file, SpanWindows(*file, BenchSpan::kMeasure));
  pass.trace_summary = obs::Summarize(*file);
  pass.trace_dropped = file->total_dropped();
  const std::string mismatch =
      CheckAgainstSummary(*pass.trace, pass.trace_summary);
  if (!mismatch.empty()) {
    pass.Fail("self-time decoder vs Summarize: " + mismatch);
  }
  return pass;
}

// ---- Report ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::vector<Metric> EndToEnd(const Pass& p) {
  return {
      {"setup_s", Median(p.setup_s), "s"},
      {"ingest_ups", p.ingest_ups(), "1/s"},
      {"fresh_ms_p50", p.fresh_ms(0.50), "ms"},
      {"fresh_ms_p99", p.fresh_ms(0.99), "ms"},
      {"score_mb", p.score_mb, "MB"},
  };
}

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

double SelfMs(const Pass& p, std::uint16_t id) {
  auto it = p.trace->windowed_spans.find(id);
  return it == p.trace->windowed_spans.end()
             ? 0.0
             : static_cast<double>(it->second.self_ns) / 1e6;
}

double CounterSum(const Pass& p, obs::EventId id) {
  auto it = p.trace->windowed_counters.find(static_cast<std::uint16_t>(id));
  return it == p.trace->windowed_counters.end()
             ? 0.0
             : static_cast<double>(it->second);
}

std::vector<Metric> PerLayer(const Pass& p, double overhead_pct) {
  const service::ServiceStats& a = p.service_before;
  const service::ServiceStats& b = p.service_after;
  const std::uint64_t batches = b.batches - a.batches;
  const std::uint64_t hits = b.cache.hits - a.cache.hits;
  const std::uint64_t misses = b.cache.misses - a.cache.misses;
  const double create_s = Median(p.simrank_create_s);
  auto self = [&p](obs::EventId id) {
    return SelfMs(p, static_cast<std::uint16_t>(id));
  };
  using obs::EventId;
  return {
      {"simrank.create_s", create_s, "s"},
      {"service.create_s", Median(p.service_create_s), "s"},
      {"simrank.batch_equiv_updates", create_s * p.ingest_ups(), "count"},
      {"core.targets_per_batch", Mean(p.batch_targets), "count"},
      {"service.batch_size_mean", Mean(p.batch_sizes), "count"},
      {"service.apply_ms_p50", b.apply_ns.Percentile(0.50) / 1e6, "ms"},
      {"service.apply_ms_p99", b.apply_ns.Percentile(0.99) / 1e6, "ms"},
      {"service.queue_wait_ms_p50", b.queue_wait_ns.Percentile(0.50) / 1e6,
       "ms"},
      {"service.queue_wait_ms_p99", b.queue_wait_ns.Percentile(0.99) / 1e6,
       "ms"},
      {"service.cache_hit_rate", Ratio(hits, hits + misses), "ratio"},
      {"service.index_served",
       static_cast<double>(b.topk_index_served - a.topk_index_served),
       "count"},
      {"service.index_fallbacks",
       static_cast<double>(b.topk_index_fallbacks - a.topk_index_fallbacks),
       "count"},
      {"service.rows_reranked_per_epoch",
       Ratio(b.topk_index_rows_reranked - a.topk_index_rows_reranked,
             batches),
       "count"},
      {"la.rows_cow_per_epoch",
       Ratio(b.rows_published - a.rows_published, batches), "count"},
      {"la.mb_cow",
       static_cast<double>(b.bytes_published - a.bytes_published) / 1e6,
       "MB"},
      {"la.sparse_merges",
       static_cast<double>(b.sparse_write_merges - a.sparse_write_merges),
       "count"},
      {"la.rows_spilled_dense",
       static_cast<double>(b.rows_spilled_dense - a.rows_spilled_dense),
       "count"},
      {"la.rows_sparse", static_cast<double>(b.rows_sparse), "count"},
      {"graph.bytes_cow",
       static_cast<double>(b.graph_bytes_copied - a.graph_bytes_copied),
       "B"},
      {"sched.regions_parallel",
       static_cast<double>(p.sched_after.regions_parallel -
                           p.sched_before.regions_parallel),
       "count"},
      {"sched.steals",
       static_cast<double>(p.sched_after.steals - p.sched_before.steals),
       "count"},
      {"sched.tickets_dropped",
       static_cast<double>(p.sched_after.tickets_dropped -
                           p.sched_before.tickets_dropped),
       "count"},
      {"net.requests_served", static_cast<double>(p.server.requests_served),
       "count"},
      {"net.protocol_errors", static_cast<double>(p.server.protocol_errors),
       "count"},
      {"net.gen_lag_ms_p99", Percentile(p.gen_lag_ms, 0.99), "ms"},
      {"query_us_p50", MedianOfWindows(p.query_us, 0.50), "us"},
      {"query_us_p90", MedianOfWindows(p.query_us, 0.90), "us"},
      {"query_us_p99", MedianOfWindows(p.query_us, 0.99), "us"},
      {"trace.queue.idle", self(EventId::kQueueIdle), "ms"},
      {"trace.coalesce", self(EventId::kCoalesce), "ms"},
      {"trace.kernel.apply", self(EventId::kKernelApply), "ms"},
      {"trace.kernel.expand", self(EventId::kKernelExpand), "ms"},
      {"trace.kernel.scatter", self(EventId::kKernelScatter), "ms"},
      {"trace.publish.graph_snapshot", self(EventId::kGraphSnapshot), "ms"},
      {"trace.publish.store", self(EventId::kStorePublish), "ms"},
      {"trace.publish.tier_policy", self(EventId::kTierPolicy), "ms"},
      {"trace.publish.rerank", self(EventId::kRerank), "ms"},
      {"trace.publish.cache_invalidate", self(EventId::kCacheInvalidate),
       "ms"},
      {"trace.rpc", self(EventId::kRpc), "ms"},
      {"trace.sched.region", self(EventId::kSchedRegion), "ms"},
      {"trace.store.row_cow_bytes", CounterSum(p, EventId::kStoreRowCow),
       "B"},
      {"trace.store.sparse_merge_bytes",
       CounterSum(p, EventId::kStoreSparseMerge), "B"},
      {"trace.store.write_spill", CounterSum(p, EventId::kStoreWriteSpill),
       "count"},
      {"trace.applier_coverage", p.trace_summary.applier_coverage, "ratio"},
      {"trace.dropped_events", static_cast<double>(p.trace_dropped),
       "count"},
      {"trace_overhead_pct", overhead_pct, "%"},
      {"failed_frac", Ratio(p.failed, p.attempted), "ratio"},
  };
}

/// The metric a workload is primarily about, higher = better, for the
/// tracing-overhead comparison.
double OverheadBasis(const Pass& p, bool serve) {
  // serve runs at a fixed offered rate, so its throughput cannot show a
  // slowdown; its freshness (apply + publish on the write path) can.
  return serve ? 1.0 / std::max(p.fresh_ms(0.50), 1e-9)
               : p.ingest_ups();
}

void PrintSampleCounts(const Pass& p) {
  std::vector<double> pooled;
  for (const auto& w : p.query_us) {
    pooled.insert(pooled.end(), w.begin(), w.end());
  }
  std::size_t fresh = 0;
  std::size_t fresh_tail = 0;
  const auto scored = p.scored();
  for (const Pass::Segment* seg : scored) {
    fresh += seg->fresh_ms.size();
    fresh_tail += TailCount(seg->fresh_ms, 0.99);
  }
  std::printf("# samples: fresh %zu in %zu segment(s) (%zu above their "
              "p99s); query %zu in %zu windows; setup repeats %zu\n",
              fresh, scored.size(), fresh_tail, pooled.size(),
              p.query_us.size(), p.setup_s.size());
  // Query latency is not gated (README.md, "Query latency"): printed here
  // for reading, and per-layer metrics of the traced run.
  std::printf("# query_us_p50 = %.6g us, query_us_p90 = %.6g us, "
              "query_us_p99 = %.6g us (medians over windows; pooled p99 "
              "%.6g us)\n",
              MedianOfWindows(p.query_us, 0.50),
              MedianOfWindows(p.query_us, 0.90),
              MedianOfWindows(p.query_us, 0.99), Percentile(pooled, 0.99));
}

int Report(const Args& args, const std::vector<Metric>& metrics,
           const std::vector<const Pass*>& passes, const Pass& counted) {
  bool correct = true;
  for (const Pass* p : passes) {
    correct = correct && p->correct;
    for (const std::string& e : p->errors) {
      std::printf("# CHECK FAILED: %s\n", e.c_str());
    }
  }
  for (const Metric& m : metrics) {
    std::printf("%s = %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("failed_frac = %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              Ratio(counted.failed, counted.attempted), counted.failed,
              counted.attempted);
  std::printf("correct = %s (workload %s, seed %" PRIu64 ")\n",
              correct ? "true" : "false", args.workload.c_str(), args.seed);
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(counted.attempted);
  json += ", \"failed\": " + std::to_string(counted.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: incsr_e2e --workload ingest|serve|sparse_churn "
                 "--seed N --seconds S --trace 0|1 [--smoke]\n");
    return 2;
  }
  auto workload = MakeWorkload(args);
  if (!workload.ok()) {
    std::fprintf(stderr, "incsr_e2e: %s\n",
                 workload.status().ToString().c_str());
    return 2;
  }
  const int repeats = args.smoke || args.trace ? 1 : kSetupRepeats;
  const Pass plain = RunPass(*workload, args, repeats, "");
  if (!args.trace) {
    PrintSampleCounts(plain);
    return Report(args, EndToEnd(plain), {&plain}, plain);
  }
  const std::string path =
      ".bench_build/incsr_e2e_trace_" + std::to_string(getpid()) + ".bin";
  const Pass traced = RunPass(*workload, args, repeats, path);
  if (!traced.trace.has_value()) {
    return Report(args, {}, {&plain, &traced}, traced);
  }
  const double overhead_pct =
      100.0 * (OverheadBasis(plain, workload->spec.serve) /
                   OverheadBasis(traced, workload->spec.serve) -
               1.0);
  PrintSampleCounts(traced);
  return Report(args, PerLayer(traced, overhead_pct), {&plain, &traced},
                traced);
}

}  // namespace
}  // namespace incsr::e2e

int main(int argc, char** argv) { return incsr::e2e::Main(argc, argv); }
