#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "datasets/datasets.h"
#include "graph/generators.h"

namespace incsr::e2e {

namespace {

std::vector<graph::EdgeUpdate> Inverse(
    const std::vector<graph::EdgeUpdate>& forward) {
  std::vector<graph::EdgeUpdate> out(forward.rbegin(), forward.rend());
  for (graph::EdgeUpdate& u : out) {
    u.kind = u.kind == graph::UpdateKind::kInsert ? graph::UpdateKind::kDelete
                                                  : graph::UpdateKind::kInsert;
  }
  return out;
}

Status Finish(ChurnInputs* inputs) {
  inputs->backward = Inverse(inputs->forward);
  inputs->final_graph = inputs->base;
  return graph::ApplyUpdates(inputs->forward, &inputs->final_graph);
}

}  // namespace

Result<ChurnInputs> MakeDblpChurn(std::uint64_t seed, double scale,
                                  double delete_share) {
  datasets::DatasetOptions options;
  options.scale = scale;
  auto series = datasets::MakeDataset(datasets::DatasetKind::kDblp, options);
  if (!series.ok()) return series.status();
  ChurnInputs inputs;
  inputs.base = series->GraphAt(0);

  // The timestamped stream may repeat an edge; keep each new edge once.
  std::vector<graph::EdgeUpdate> inserts;
  std::unordered_set<std::uint64_t> seen;
  for (const graph::EdgeUpdate& u :
       series->DeltaBetween(0, series->num_snapshots() - 1)) {
    if (inputs.base.HasEdge(u.src, u.dst)) continue;
    if (!seen.insert(graph::EdgeKey(u.src, u.dst)).second) continue;
    inserts.push_back(u);
  }
  Rng rng(0x5EEDull * (seed + 1));  // the churn, not the dataset, is seeded
  const auto num_deletes = static_cast<std::size_t>(
      std::llround(delete_share * static_cast<double>(inserts.size())));
  auto deletes = graph::SampleDeletions(inputs.base, num_deletes, &rng);
  if (!deletes.ok()) return deletes.status();

  // Seeded interleave: the next update is a deletion with probability
  // proportional to the deletions still to place.
  std::size_t di = 0, ii = 0;
  while (di < deletes->size() || ii < inserts.size()) {
    const std::size_t left_d = deletes->size() - di;
    const std::size_t left_i = inserts.size() - ii;
    if (rng.NextBounded(left_d + left_i) < left_d) {
      inputs.forward.push_back((*deletes)[di++]);
    } else {
      inputs.forward.push_back(inserts[ii++]);
    }
  }
  Status status = Finish(&inputs);
  if (!status.ok()) return status;
  return inputs;
}

Result<ChurnInputs> MakeCitationInserts(std::uint64_t seed,
                                        std::size_t num_nodes,
                                        std::size_t num_updates) {
  graph::CitationModelParams params;  // the generator's default seed
  params.num_nodes = num_nodes;
  params.mean_out_degree = 4.0;
  auto edges = graph::PreferentialCitation(params);
  if (!edges.ok()) return edges.status();
  if (edges->size() < num_updates) {
    return Status::InvalidArgument("citation stream shorter than requested");
  }
  ChurnInputs inputs;
  inputs.base = graph::DynamicDiGraph(num_nodes);
  for (std::size_t i = 0; i < num_updates; ++i) {
    const graph::Edge& e = (*edges)[i].edge;
    inputs.forward.push_back({graph::UpdateKind::kInsert, e.src, e.dst});
  }
  // The seed orders the insertions; the edge set, and with it the final
  // graph and the size of its score store, is the same for every seed.
  Rng rng(0xC17Eull * (seed + 1));
  for (std::size_t i = inputs.forward.size(); i > 1; --i) {
    std::swap(inputs.forward[i - 1], inputs.forward[rng.NextBounded(i)]);
  }
  Status status = Finish(&inputs);
  if (!status.ok()) return status;
  return inputs;
}

const graph::EdgeUpdate& ReplayAt(const ChurnInputs& inputs, std::size_t i) {
  const std::size_t len = inputs.forward.size();
  const auto& pass = (i / len) % 2 == 0 ? inputs.forward : inputs.backward;
  return pass[i % len];
}

Result<graph::DynamicDiGraph> GraphAfter(const ChurnInputs& inputs,
                                         std::size_t count) {
  const std::size_t len = inputs.forward.size();
  // Every complete forward+backward pair returns to the base graph.
  const std::size_t rest = count % (2 * len);
  graph::DynamicDiGraph g = rest >= len ? inputs.final_graph : inputs.base;
  std::vector<graph::EdgeUpdate> tail;
  for (std::size_t i = count - rest % len; i < count; ++i) {
    tail.push_back(ReplayAt(inputs, i));
  }
  Status status = graph::ApplyUpdates(tail, &g);
  if (!status.ok()) return status;
  return g;
}

ZipfNodes::ZipfNodes(std::size_t num_nodes, double theta, std::uint64_t seed)
    : cdf_(num_nodes), node_of_rank_(num_nodes) {
  double total = 0.0;
  for (std::size_t r = 0; r < num_nodes; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  for (std::size_t i = 0; i < num_nodes; ++i) {
    node_of_rank_[i] = static_cast<graph::NodeId>(i);
  }
  Rng rng(seed);
  for (std::size_t i = num_nodes; i > 1; --i) {
    std::swap(node_of_rank_[i - 1], node_of_rank_[rng.NextBounded(i)]);
  }
}

graph::NodeId ZipfNodes::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const std::size_t rank =
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin();
  return node_of_rank_[std::min(rank, cdf_.size() - 1)];
}

}  // namespace incsr::e2e
