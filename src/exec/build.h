// Compiling expression trees into batch-at-a-time physical pipelines.
// The physical choices (hash vs. nested loop, operand anchoring) mirror
// the materializing evaluator's kernels, so the two agree on results and
// counters.

#ifndef FRO_EXEC_BUILD_H_
#define FRO_EXEC_BUILD_H_

#include "algebra/expr.h"
#include "exec/batch_iterator.h"
#include "relational/database.h"
#include "relational/ops.h"

namespace fro {

/// Builds a pipelined physical plan for `expr` whose operators exchange
/// TupleBatches of `batch_capacity` tuples. Join-like operators use the
/// hash strategy when the predicate has equi-key conjuncts and `algo`
/// permits, block nested loop otherwise. Symmetric forms (`<-`, `<|`,
/// `-<`) are realized by swapping the operands. The database must outlive
/// the returned iterator.
BatchIteratorPtr BuildBatchIterator(
    const ExprPtr& expr, const Database& db, JoinAlgo algo = JoinAlgo::kAuto,
    size_t batch_capacity = TupleBatch::kDefaultCapacity);

/// Convenience: build a plan, drain it, and return the materialized
/// result.
Relation ExecuteBatched(const ExprPtr& expr, const Database& db,
                        JoinAlgo algo = JoinAlgo::kAuto,
                        size_t batch_capacity = TupleBatch::kDefaultCapacity);

}  // namespace fro

#endif  // FRO_EXEC_BUILD_H_
