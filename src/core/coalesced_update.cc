#include "core/coalesced_update.h"

#include <unordered_map>

namespace incsr::core {

std::vector<CoalescedGroup> CoalesceByTarget(
    const std::vector<graph::EdgeUpdate>& updates) {
  std::vector<CoalescedGroup> groups;
  std::unordered_map<graph::NodeId, std::size_t> index_of_target;
  for (const graph::EdgeUpdate& update : updates) {
    auto [it, inserted] =
        index_of_target.emplace(update.dst, groups.size());
    if (inserted) {
      groups.push_back({update.dst, {}});
    }
    groups[it->second].changes.push_back(update);
  }
  return groups;
}

Status CoalescedBatchEngine::ApplyBatch(
    const std::vector<graph::EdgeUpdate>& updates,
    graph::DynamicDiGraph* graph, la::DynamicRowMatrix* q,
    la::ScoreStore* s) {
  INCSR_CHECK(graph != nullptr && q != nullptr && s != nullptr,
              "CoalescedBatchEngine::ApplyBatch: null output");
  stats_ = AffectedAreaStats{};
  stats_.num_nodes = graph->num_nodes();
  last_group_count_ = 0;
  for (const CoalescedGroup& group : CoalesceByTarget(updates)) {
    INCSR_RETURN_IF_ERROR(ApplyGroup(group, graph, q, s));
  }
  return Status::OK();
}

Status CoalescedBatchEngine::ApplyGroup(const CoalescedGroup& group,
                                        graph::DynamicDiGraph* graph,
                                        la::DynamicRowMatrix* q,
                                        la::ScoreStore* s) {
  INCSR_RETURN_IF_ERROR(engine_.ApplyRowUpdate(
      group.target, std::span(group.changes.data(), group.changes.size()),
      graph, q, s));
  ++last_group_count_;
  stats_.Merge(engine_.last_stats());
  return Status::OK();
}

}  // namespace incsr::core
