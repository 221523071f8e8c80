#include "optimizer/explain.h"

#include <algorithm>

#include "common/str_util.h"
#include "exec/morsel.h"
#include "exec/stats_view.h"

namespace fro {

namespace {

std::string NodeLabel(const Expr& node, const Database& db,
                      bool with_pred) {
  const Catalog* catalog = &db.catalog();
  switch (node.kind()) {
    case OpKind::kLeaf:
      return "Scan " + catalog->RelationName(node.rel());
    case OpKind::kRestrict:
      return "Restrict [" + node.pred()->ToString(catalog) + "]";
    case OpKind::kProject: {
      std::string cols;
      for (size_t i = 0; i < node.project_cols().size(); ++i) {
        if (i > 0) cols += ", ";
        cols += catalog->AttrName(node.project_cols()[i]);
      }
      return std::string("Project") + (node.project_dedup() ? " distinct" : "") +
             " [" + cols + "]";
    }
    case OpKind::kUnion:
      return "Union (padded)";
    case OpKind::kMultiwayJoin: {
      std::string label = "MultiwayJoin (leapfrog) [vars:";
      for (size_t i = 0; i < node.mj_var_order().size(); ++i) {
        label += i > 0 ? ", " : " ";
        label += catalog->AttrName(node.mj_var_order()[i]);
      }
      label += "]";
      if (with_pred && node.pred() != nullptr) {
        label += " [" + node.pred()->ToString(catalog) + "]";
      }
      return label;
    }
    default: {
      std::string label = OpKindName(node.kind());
      if (node.kind() == OpKind::kOuterJoin) {
        label += node.preserves_left() ? " (preserves left)"
                                       : " (preserves right)";
      } else if (node.kind() == OpKind::kAntijoin ||
                 node.kind() == OpKind::kSemijoin) {
        label += node.preserves_left() ? " (keeps left)" : " (keeps right)";
      } else if (node.kind() == OpKind::kGoj) {
        label += " [S = {";
        for (size_t i = 0; i < node.goj_subset().size(); ++i) {
          if (i > 0) label += ", ";
          label += catalog->AttrName(node.goj_subset().ids()[i]);
        }
        label += "}]";
      }
      if (with_pred && node.pred() != nullptr) {
        label += " [" + node.pred()->ToString(catalog) + "]";
      }
      return label;
    }
  }
}

void ExplainNode(const ExprPtr& node, const Database& db,
                 const CardinalityEstimator& estimator,
                 const ExplainOptions& options, int depth,
                 std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(NodeLabel(*node, db, options.show_predicates));
  if (options.show_cardinalities) {
    out->append(StrFormat("  ~%.6g rows", estimator.Estimate(node)));
  }
  out->append("\n");
  if (node->left() != nullptr) {
    ExplainNode(node->left(), db, estimator, options, depth + 1, out);
  }
  if (node->right() != nullptr) {
    ExplainNode(node->right(), db, estimator, options, depth + 1, out);
  }
  for (const ExprPtr& child : node->mj_children()) {
    ExplainNode(child, db, estimator, options, depth + 1, out);
  }
}

void CollectDotNodes(const ExprPtr& node, const Database& db, int* counter,
                     std::string* out, int* my_id) {
  *my_id = (*counter)++;
  std::string label = NodeLabel(*node, db, /*with_pred=*/true);
  // Escape double quotes for DOT.
  std::string escaped;
  for (char c : label) {
    if (c == '"') escaped += "\\\"";
    else escaped += c;
  }
  out->append(StrFormat("  n%d [label=\"%s\"];\n", *my_id, escaped.c_str()));
  if (node->left() != nullptr) {
    int child;
    CollectDotNodes(node->left(), db, counter, out, &child);
    out->append(StrFormat("  n%d -> n%d;\n", *my_id, child));
  }
  if (node->right() != nullptr) {
    int child;
    CollectDotNodes(node->right(), db, counter, out, &child);
    out->append(StrFormat("  n%d -> n%d;\n", *my_id, child));
  }
  for (const ExprPtr& mj_child : node->mj_children()) {
    int child;
    CollectDotNodes(mj_child, db, counter, out, &child);
    out->append(StrFormat("  n%d -> n%d;\n", *my_id, child));
  }
}

void RenderAnalyzeNode(const PlanOpStats& node, const Database& db,
                       const CardinalityEstimator& estimator, int depth,
                       ExplainAnalyzeResult* result) {
  const ExecStats& s = node.stats;
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += node.physical_name;
  if (node.built_left) line += " build=left";
  if (node.source_expr != nullptr) {
    line += ": " + NodeLabel(*node.source_expr, db, /*with_pred=*/true);
    const double est = estimator.Estimate(node.source_expr);
    const double q = QError(est, static_cast<double>(s.emitted));
    result->max_q_error = std::max(result->max_q_error, q);
    line += StrFormat("  ~%.6g rows", est);
    if (estimator.IsCorrected(node.source_expr)) {
      line += " [feedback-corrected]";
    }
    line += StrFormat(
        "  (actual rows=%llu reads=%llu evals=%llu probes=%llu "
        "time=%.3fms q-err=%.2f)",
        static_cast<unsigned long long>(s.emitted),
        static_cast<unsigned long long>(s.tuples_read()),
        static_cast<unsigned long long>(s.predicate_evals),
        static_cast<unsigned long long>(s.probes),
        static_cast<double>(s.open_ns + s.next_ns) / 1e6, q);
  }
  line += "\n";
  result->text += line;

  for (const PlanOpStats& child : node.children) {
    RenderAnalyzeNode(child, db, estimator, depth + 1, result);
  }
}

}  // namespace

ExplainAnalyzeResult ExplainAnalyze(const ExprPtr& expr, const Database& db,
                                    JoinAlgo algo, int threads,
                                    const CardinalityFeedback* feedback) {
  CardinalityEstimator estimator(db);
  estimator.set_feedback(feedback);
  ExplainAnalyzeResult result;
  ParallelOptions par;
  par.threads = threads;
  par.algo = algo;
  BatchIteratorPtr root = BuildParallelBatchIterator(expr, db, par);
  root->EnableTiming();
  result.result = DrainBatches(root.get());
  const PlanOpStats snapshot = SnapshotPlanStats(root.get());
  result.totals = SumPipelineStats(snapshot);
  result.base_tuples_read = BaseTuplesRead(snapshot);
  RenderAnalyzeNode(snapshot, db, estimator, 0, &result);
  return result;
}

std::string Explain(const ExprPtr& expr, const Database& db,
                    const ExplainOptions& options) {
  CardinalityEstimator estimator(db);
  std::string out;
  ExplainNode(expr, db, estimator, options, 0, &out);
  return out;
}

std::string ExprToDot(const ExprPtr& expr, const Database& db) {
  std::string out = "digraph plan {\n  node [shape=box];\n";
  int counter = 0;
  int root;
  CollectDotNodes(expr, db, &counter, &out, &root);
  out += "}\n";
  return out;
}

std::string GraphToDot(const QueryGraph& graph, const Database& db) {
  const Catalog& catalog = db.catalog();
  // Mixed digraph: join edges rendered without arrowheads.
  std::string out = "digraph query_graph {\n  node [shape=ellipse];\n";
  for (int i = 0; i < graph.num_nodes(); ++i) {
    out += StrFormat("  n%d [label=\"%s\"];\n", i,
                     catalog.RelationName(graph.node_rel(i)).c_str());
  }
  for (const GraphEdge& e : graph.edges()) {
    std::string label = e.pred != nullptr ? e.pred->ToString(&catalog) : "";
    std::string escaped;
    for (char c : label) {
      if (c == '"') escaped += "\\\"";
      else escaped += c;
    }
    if (e.directed) {
      out += StrFormat("  n%d -> n%d [label=\"%s\"];\n", e.u, e.v,
                       escaped.c_str());
    } else {
      out += StrFormat("  n%d -> n%d [label=\"%s\", dir=none];\n", e.u, e.v,
                       escaped.c_str());
    }
  }
  out += "}\n";
  return out;
}

}  // namespace fro
