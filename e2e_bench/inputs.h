// Seeded workload inputs of the end-to-end benchmark. The program under
// test only ever receives what these functions generate: a base graph and
// an update stream, plus the Zipf-skewed query nodes of the readers.
#ifndef INCSR_E2E_BENCH_INPUTS_H_
#define INCSR_E2E_BENCH_INPUTS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "graph/digraph.h"
#include "graph/update_stream.h"

namespace incsr::e2e {

/// A base graph and a churn stream over it. Applying `forward` to `base`
/// gives `final_graph`; applying `backward` (the inverse of `forward`,
/// reversed) returns to `base`, so a run can replay the stream as many
/// times as its time budget allows with every update valid.
struct ChurnInputs {
  graph::DynamicDiGraph base;
  graph::DynamicDiGraph final_graph;
  std::vector<graph::EdgeUpdate> forward;
  std::vector<graph::EdgeUpdate> backward;
};

/// DBLP stand-in (datasets::kDblp at `scale`, default dataset seed): the
/// snapshot 0 -> last insertions, interleaved at seeded positions with
/// deletions of a seeded sample of base edges (`delete_share` of the
/// insertion count).
Result<ChurnInputs> MakeDblpChurn(std::uint64_t seed, double scale,
                                  double delete_share);

/// `num_nodes` isolated nodes and the first `num_updates` edges of the
/// default-seeded PreferentialCitation stream over them, as insertions
/// in a seeded order.
Result<ChurnInputs> MakeCitationInserts(std::uint64_t seed,
                                        std::size_t num_nodes,
                                        std::size_t num_updates);

/// Update `i` of the endless replay forward, backward, forward, ...
const graph::EdgeUpdate& ReplayAt(const ChurnInputs& inputs, std::size_t i);

/// `base` with the first `count` updates of the replay applied.
Result<graph::DynamicDiGraph> GraphAfter(const ChurnInputs& inputs,
                                         std::size_t count);

/// Zipf(theta) over the node ids: rank r has weight 1 / r^theta, and a
/// seeded permutation decides which node holds which rank.
class ZipfNodes {
 public:
  ZipfNodes(std::size_t num_nodes, double theta, std::uint64_t seed);
  graph::NodeId Sample(Rng* rng) const;

 private:
  std::vector<double> cdf_;
  std::vector<graph::NodeId> node_of_rank_;
};

}  // namespace incsr::e2e

#endif  // INCSR_E2E_BENCH_INPUTS_H_
