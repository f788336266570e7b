#include "core/dynamic_simrank.h"

#include <algorithm>
#include <cmath>

#include "core/coalesced_update.h"
#include "core/inc_usr.h"
#include "graph/transition.h"
#include "simrank/batch_matrix.h"

namespace incsr::core {

namespace {

// Iterations for the initial batch solve so that S is the fixed point of
// Eq. (2) to ~1e-12 — the exactness the incremental theorems assume.
int DefaultBatchIterations(double damping) {
  // damping^(K+1) <= 1e-13  =>  K >= log(1e-13)/log(damping) - 1.
  double k = std::log(1e-13) / std::log(damping) - 1.0;
  return std::max(20, static_cast<int>(std::ceil(k)));
}

// Per-thread candidate scratch for TopKForRow: selection partitions the
// candidates in place and copies only the winning prefix out, so a
// returned entry holds exactly min(k, n-1) items and the O(n) buffers are
// reused across rows and calls (the index re-rank runs TopKForRow once
// per touched row on every scheduler worker).
thread_local std::vector<ScoredPair> tls_candidates;
thread_local std::vector<ScoredPair> tls_negatives;

// Appends the best min(m, |*cands|) of *cands to *out in contract order.
// Reorders *cands.
void AppendBest(std::vector<ScoredPair>* cands, std::size_t m,
                std::vector<ScoredPair>* out) {
  const auto mid = cands->begin() +
                   static_cast<std::ptrdiff_t>(std::min(m, cands->size()));
  // A lambda, not &ScoredPairRanksBefore: the comparator's type then
  // names the function, so the sort inlines it instead of calling
  // through a pointer.
  const auto ranks_before = [](const ScoredPair& x, const ScoredPair& y) {
    return ScoredPairRanksBefore(x, y);
  };
  if (mid != cands->end()) {
    std::nth_element(cands->begin(), mid, cands->end(), ranks_before);
  }
  std::sort(cands->begin(), mid, ranks_before);
  out->insert(out->end(), cands->begin(), mid);
}

// Dense rows with at least this many columns per requested item take the
// bounded heap instead of selection. A heap of m rejects a non-entrant
// with one compare and never copies the row, so it wins while m is small
// against n; selection's O(n) copy and partition win past that. On
// uniform random rows (n in [256, 8192]) the heap won at n/m >= 25 and
// lost at n/m <= 16.
constexpr std::size_t kHeapRowsPerItem = 20;

// Appends the best m off-diagonal items of dense row `query` to *out
// (empty on entry) in contract order: a bounded heap whose front is the
// worst kept item.
void AppendBestByHeap(std::span<const double> row, graph::NodeId query,
                      std::size_t m, std::vector<ScoredPair>* out) {
  const auto ranks_before = [](const ScoredPair& x, const ScoredPair& y) {
    return ScoredPairRanksBefore(x, y);
  };
  const auto q = static_cast<std::size_t>(query);
  for (std::size_t b = 0; b < row.size(); ++b) {
    if (b == q) continue;
    const ScoredPair item{query, static_cast<graph::NodeId>(b), row[b]};
    if (out->size() < m) {
      out->push_back(item);
      std::push_heap(out->begin(), out->end(), ranks_before);
    } else if (ranks_before(item, out->front())) {
      std::pop_heap(out->begin(), out->end(), ranks_before);
      out->back() = item;
      std::push_heap(out->begin(), out->end(), ranks_before);
    }
  }
  // sort_heap leaves ascending order under ranks_before: best first.
  std::sort_heap(out->begin(), out->end(), ranks_before);
}

}  // namespace

std::vector<ScoredPair> TopKForRow(const la::RawRow& row, std::size_t n,
                                   graph::NodeId query, std::size_t k) {
  const auto q = static_cast<std::size_t>(query);
  const std::size_t m = std::min(k, n > 0 ? n - 1 : 0);
  std::vector<ScoredPair> out;
  if (m == 0) return out;
  out.reserve(m);
  std::vector<ScoredPair>& candidates = tls_candidates;
  candidates.clear();
  if (!row.is_sparse()) {
    if (m * kHeapRowsPerItem <= n) {
      AppendBestByHeap({row.dense, n}, query, m, &out);
      return out;
    }
    for (std::size_t b = 0; b < n; ++b) {
      if (b == q) continue;
      candidates.push_back(
          {query, static_cast<graph::NodeId>(b), row.dense[b]});
    }
    AppendBest(&candidates, m, &out);
    return out;
  }
  // Sparse row: split the stored off-diagonal entries into the positive
  // and negative tiers; everything else scores a zero.
  std::vector<ScoredPair>& negatives = tls_negatives;
  negatives.clear();
  for (std::size_t e = 0; e < row.cols.size(); ++e) {
    const auto b = static_cast<graph::NodeId>(row.cols[e]);
    if (b == query) continue;
    const double v = row.vals[e];
    if (v > 0.0) {
      candidates.push_back({query, b, v});
    } else if (v < 0.0) {
      negatives.push_back({query, b, v});
    }
  }
  AppendBest(&candidates, m, &out);
  // Zero tier: every zero ties on score (+0.0 == -0.0), so ascending id.
  // An absent column reads +0.0 exactly as a gather would; a stored zero
  // keeps its own bits.
  std::size_t e = 0;
  for (std::size_t b = 0; b < n && out.size() < m; ++b) {
    double v = 0.0;
    if (e < row.cols.size() && static_cast<std::size_t>(row.cols[e]) == b) {
      v = row.vals[e++];
      if (v > 0.0 || v < 0.0) continue;  // ranked in its own tier
    }
    if (b != q) out.push_back({query, static_cast<graph::NodeId>(b), v});
  }
  if (out.size() < m) AppendBest(&negatives, m - out.size(), &out);
  return out;
}

DynamicSimRank::DynamicSimRank(graph::DynamicDiGraph graph, la::DenseMatrix s,
                               const simrank::SimRankOptions& options,
                               UpdateAlgorithm algorithm)
    : graph_(std::move(graph)),
      q_(graph::BuildTransition(graph_)),
      s_(la::ScoreStore(std::move(s))),
      options_(options),
      algorithm_(algorithm),
      engine_(options) {}

DynamicSimRank::DynamicSimRank(graph::DynamicDiGraph graph, la::ScoreStore s,
                               const simrank::SimRankOptions& options,
                               UpdateAlgorithm algorithm)
    : graph_(std::move(graph)),
      q_(graph::BuildTransition(graph_)),
      s_(std::move(s)),
      options_(options),
      algorithm_(algorithm),
      engine_(options) {}

Result<DynamicSimRank> DynamicSimRank::Create(
    graph::DynamicDiGraph graph, const simrank::SimRankOptions& options,
    UpdateAlgorithm algorithm, int batch_iterations) {
  if (options.damping <= 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in (0, 1)");
  }
  if (options.iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  simrank::SimRankOptions batch = options;
  batch.iterations = batch_iterations > 0
                         ? batch_iterations
                         : DefaultBatchIterations(options.damping);
  la::DenseMatrix s = simrank::BatchMatrix(graph, batch);
  return DynamicSimRank(std::move(graph), std::move(s), options, algorithm);
}

Result<DynamicSimRank> DynamicSimRank::FromState(
    graph::DynamicDiGraph graph, la::DenseMatrix s,
    const simrank::SimRankOptions& options, UpdateAlgorithm algorithm) {
  if (options.damping <= 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in (0, 1)");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (s.rows() != graph.num_nodes() || s.cols() != graph.num_nodes()) {
    return Status::InvalidArgument("FromState: S shape does not match graph");
  }
  return DynamicSimRank(std::move(graph), std::move(s), options, algorithm);
}

Result<DynamicSimRank> DynamicSimRank::CreateIsolated(
    std::size_t num_nodes, const simrank::SimRankOptions& options,
    UpdateAlgorithm algorithm) {
  if (options.damping <= 0.0 || options.damping >= 1.0) {
    return Status::InvalidArgument("damping must be in (0, 1)");
  }
  if (options.iterations < 1) {
    return Status::InvalidArgument("iterations must be >= 1");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  graph::DynamicDiGraph graph;
  graph.AddNodes(num_nodes);
  la::ScoreStore s =
      la::ScoreStore::ScaledIdentity(num_nodes, 1.0 - options.damping);
  return DynamicSimRank(std::move(graph), std::move(s), options, algorithm);
}

double DynamicSimRank::Score(graph::NodeId a, graph::NodeId b) const {
  INCSR_CHECK(graph_.HasNode(a) && graph_.HasNode(b),
              "Score: node out of range");
  return s_(static_cast<std::size_t>(a), static_cast<std::size_t>(b));
}

Status DynamicSimRank::InsertEdge(graph::NodeId src, graph::NodeId dst) {
  return ApplyUpdate({graph::UpdateKind::kInsert, src, dst});
}

Status DynamicSimRank::DeleteEdge(graph::NodeId src, graph::NodeId dst) {
  return ApplyUpdate({graph::UpdateKind::kDelete, src, dst});
}

Status DynamicSimRank::ApplyUpdate(const graph::EdgeUpdate& update) {
  if (algorithm_ == UpdateAlgorithm::kIncSR) {
    return engine_.ApplyUpdate(update, &graph_, &q_, &s_);
  }
  return IncUsrApplyUpdate(update, options_, &graph_, &q_, &s_);
}

Status DynamicSimRank::ApplyBatch(
    const std::vector<graph::EdgeUpdate>& updates) {
  batch_stats_ = AffectedAreaStats{};
  batch_stats_.num_nodes = graph_.num_nodes();
  for (const graph::EdgeUpdate& update : updates) {
    INCSR_RETURN_IF_ERROR(ApplyUpdate(update));
    if (algorithm_ == UpdateAlgorithm::kIncSR) {
      batch_stats_.Merge(engine_.last_stats());
    }
  }
  return Status::OK();
}

Status DynamicSimRank::ApplyBatchCoalesced(
    const std::vector<graph::EdgeUpdate>& updates) {
  if (algorithm_ != UpdateAlgorithm::kIncSR) {
    return Status::NotSupported(
        "coalesced batches require the Inc-SR update algorithm");
  }
  batch_stats_ = AffectedAreaStats{};
  batch_stats_.num_nodes = graph_.num_nodes();
  for (const CoalescedGroup& group : CoalesceByTarget(updates)) {
    INCSR_RETURN_IF_ERROR(engine_.ApplyRowUpdate(
        group.target, std::span(group.changes.data(), group.changes.size()),
        &graph_, &q_, &s_));
    batch_stats_.Merge(engine_.last_stats());
  }
  return Status::OK();
}

graph::NodeId DynamicSimRank::AddNode() {
  graph::NodeId fresh = graph_.AddNodes(1);
  const std::size_t n = graph_.num_nodes();
  q_.Grow(n, n);
  // Every row gains a column, so the whole store is rebuilt; previously
  // published views keep serving the old geometry.
  la::DenseMatrix grown(n, n);
  la::Vector scratch;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double* src = s_.ReadRow(i, &scratch);
    double* dst = grown.RowPtr(i);
    std::copy(src, src + n - 1, dst);
  }
  grown(n - 1, n - 1) = 1.0 - options_.damping;
  s_.Assign(std::move(grown));
  return fresh;
}

std::vector<ScoredPair> DynamicSimRank::TopKPairs(std::size_t k) const {
  return TopKPairsOf(s_, k);
}

std::vector<ScoredPair> DynamicSimRank::TopKFor(graph::NodeId query,
                                                std::size_t k) const {
  INCSR_CHECK(graph_.HasNode(query), "TopKFor: node out of range");
  return TopKForOf(s_, query, k);
}

}  // namespace incsr::core
