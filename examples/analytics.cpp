// A small analytics scenario built entirely through the umbrella header:
// load a warehouse from the textual format, write queries with the
// algebra parser, EXPLAIN the optimizer's plans, and run them on the
// pipelined executor.
//
//   $ ./build/examples/analytics

#include <cstdio>

#include "fro.h"

using namespace fro;

namespace {

// An embedded mini-warehouse: regions, suppliers, orders, reviews.
// Supplier 4 has no orders; order 103 has no review; supplier 3 has no
// region (dangling rno) — outerjoin food.
const char kWarehouse[] = R"(
relation REGION rno rname
1,'emea'
2,'apac'
relation SUPPLIER sno sname rno
1,'acme',1
2,'bolt',1
3,'corr',
4,'dyne',2
relation ORDERS ono sno total
101,1,500
102,1,120
103,2,75
104,3,980
relation REVIEW ono stars
101,5
102,3
104,1
)";

void Report(const Database& db, const char* title, const char* query_text) {
  std::printf("\n=== %s ===\n%s\n", title, query_text);
  Result<ExprPtr> query = ParseAlgebra(query_text, db);
  if (!query.ok()) {
    std::printf("parse error: %s\n", query.status().ToString().c_str());
    return;
  }
  Result<OptimizeOutcome> plan = Optimize(*query, db);
  if (!plan.ok()) {
    std::printf("optimize error: %s\n", plan.status().ToString().c_str());
    return;
  }
  std::printf("-- %s\n", plan->Summary().c_str());
  std::printf("%s", Explain(plan->plan, db).c_str());
  Relation out = ExecuteBatched(plan->plan, db);
  std::printf("%s(%zu rows)\n", CanonicalString(out, &db.catalog()).c_str(),
              out.NumRows());
  // Cross-check the two executors while we are at it.
  if (!BagEquals(out, Eval(plan->plan, db))) {
    std::printf("BUG: executors disagree!\n");
  }
}

}  // namespace

int main() {
  Result<std::unique_ptr<Database>> loaded = LoadDatabaseText(kWarehouse);
  if (!loaded.ok()) {
    std::printf("load error: %s\n", loaded.status().ToString().c_str());
    return 1;
  }
  Database& db = **loaded;

  // All suppliers with their region, even region-less ones, and their
  // orders, even order-less ones: a freely-reorderable join/outerjoin
  // mix the optimizer may associate at will.
  Report(db, "supplier directory",
         "((SUPPLIER ->[REGION.rno=SUPPLIER.rno] REGION) "
         "->[SUPPLIER.sno=ORDERS.sno] ORDERS)");

  // Orders with reviews kept optional, restricted to large totals: the
  // strong restriction converts nothing here (it filters ORDERS, the
  // preserved side) but pushes down to the scan.
  Report(db, "large orders with optional reviews",
         "(ORDERS ->[ORDERS.ono=REVIEW.ono] REVIEW)");

  // The full chain: regions <- suppliers -> orders -> reviews.
  Report(db, "region/supplier/order/review chain",
         "(((SUPPLIER ->[REGION.rno=SUPPLIER.rno] REGION) "
         "->[SUPPLIER.sno=ORDERS.sno] ORDERS) "
         "->[ORDERS.ono=REVIEW.ono] REVIEW)");

  // Suppliers with no orders at all (antijoin).
  Report(db, "suppliers without orders",
         "(SUPPLIER |>[SUPPLIER.sno=ORDERS.sno] ORDERS)");
  return 0;
}
