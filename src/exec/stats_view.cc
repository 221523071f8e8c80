#include "exec/stats_view.h"

#include "exec/batch_operators.h"
#include "exec/morsel.h"

namespace fro {

PlanOpStats SnapshotPlanStats(BatchIterator* root) {
  PlanOpStats out;
  out.physical_name = root->physical_name();
  out.source_expr = root->source_expr();
  out.stats = root->stats();
  if (auto* hash_join = dynamic_cast<BatchHashJoinIterator*>(root)) {
    out.built_left = hash_join->built_left();
  }
  if (auto* exchange = dynamic_cast<BatchExchangeIterator*>(root)) {
    // The exchange forwards merged rows without relational work of its
    // own; its spine, merged node-wise across workers (with the shared
    // build subtrees spliced in), hangs beneath it.
    out.passthrough = true;
    out.children.push_back(exchange->SnapshotMerged());
    return out;
  }
  for (BatchIterator* child : root->children()) {
    out.children.push_back(SnapshotPlanStats(child));
  }
  return out;
}

ExecStats SumPipelineStats(const PlanOpStats& root) {
  ExecStats totals;
  ForEachOp(root, [&](const PlanOpStats& node, int) {
    if (node.is_source() || node.passthrough) return;
    totals += node.stats;
  });
  return totals;
}

uint64_t BaseTuplesRead(const PlanOpStats& root) {
  uint64_t base = 0;
  ForEachOp(root, [&](const PlanOpStats& node, int) {
    auto child_is_leaf = [&](size_t i) {
      return i < node.children.size() &&
             node.children[i].source_expr != nullptr &&
             node.children[i].source_expr->is_leaf();
    };
    if (child_is_leaf(0)) base += node.stats.left_reads;
    if (child_is_leaf(1)) base += node.stats.right_reads;
  });
  return base;
}

}  // namespace fro
