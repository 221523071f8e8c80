#include "exec/stats_view.h"

#include "exec/batch_operators.h"
#include "exec/morsel.h"

namespace fro {

namespace {

template <typename Iterator>
PlanOpStats SnapshotNode(Iterator* node) {
  PlanOpStats out;
  out.physical_name = node->physical_name();
  out.source_expr = node->source_expr();
  out.stats = node->stats();
  return out;
}

}  // namespace

PlanOpStats SnapshotPlanStats(TupleIterator* root) {
  PlanOpStats out = SnapshotNode(root);
  if (auto* adapter = dynamic_cast<BatchTupleAdapter*>(root)) {
    out.passthrough = true;
    out.children.push_back(SnapshotPlanStats(adapter->batch_child()));
    return out;
  }
  for (TupleIterator* child : root->children()) {
    out.children.push_back(SnapshotPlanStats(child));
  }
  return out;
}

PlanOpStats SnapshotPlanStats(BatchIterator* root) {
  PlanOpStats out = SnapshotNode(root);
  if (auto* adapter = dynamic_cast<TupleBatchAdapter*>(root)) {
    out.passthrough = true;
    out.children.push_back(SnapshotPlanStats(adapter->tuple_child()));
    return out;
  }
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
