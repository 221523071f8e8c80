// Golden regression corpus: fixed queries over the fixed sample
// databases, compared byte-for-byte against checked-in canonical results.
// CanonicalString sorts columns and rows, so these are stable across
// plan, executor, and hash-order changes — any diff is a semantic
// regression.

#include <gtest/gtest.h>

#include "algebra/eval.h"
#include "exec/build.h"
#include "lang/lang.h"
#include "testing/datagen.h"
#include "testing/nested_sample.h"

namespace fro {
namespace {

TEST(GoldenTest, DeptEmpOuterjoinListing) {
  auto db = MakeDeptEmpDatabase();
  ExprPtr listing = Expr::OuterJoin(
      Expr::Leaf(db->Rel("DEPT"), *db), Expr::Leaf(db->Rel("EMP"), *db),
      EqCols(db->Attr("DEPT", "dno"), db->Attr("EMP", "dno")));
  const char kExpected[] =
      "[DEPT.dno, DEPT.dname, DEPT.location, EMP.eno, EMP.ename, EMP.dno, "
      "EMP.rank]\n"
      "  (1, 'Research', 'Zurich', 10, 'Ana', 1, 12)\n"
      "  (1, 'Research', 'Zurich', 11, 'Bo', 1, 7)\n"
      "  (2, 'Sales', 'Queretaro', 12, 'Cy', 2, 11)\n"
      "  (3, 'Archive', 'Zurich', -, -, -, -)\n";
  EXPECT_EQ(CanonicalString(Eval(listing, *db), &db->catalog()), kExpected);
  // The pipelined executor produces the identical canonical text.
  EXPECT_EQ(CanonicalString(ExecuteBatched(listing, *db), &db->catalog()),
            kExpected);
}

TEST(GoldenTest, ZurichEmployeesWithChildren) {
  NestedDb company = MakeCompanyNestedDb();
  Result<QueryRunResult> run = RunQuery(
      company,
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D# and "
      "DEPARTMENT.Location = 'Zurich'");
  ASSERT_TRUE(run.ok());
  const char kExpected[] =
      "[EMPLOYEE.@oid, EMPLOYEE.D#, EMPLOYEE.Rank, "
      "EMPLOYEE_ChildName.@owner, EMPLOYEE_ChildName.ChildName, "
      "DEPARTMENT.@oid, DEPARTMENT.D#, DEPARTMENT.Location, "
      "DEPARTMENT.Manager@ref, DEPARTMENT.Secretary@ref, "
      "DEPARTMENT.Audit@ref]\n"
      "  (3, 1, 12, 3, 'Ben', 7, 1, 'Zurich', 3, 4, 1)\n"
      "  (3, 1, 12, 3, 'Mia', 7, 1, 'Zurich', 3, 4, 1)\n"
      "  (4, 1, 7, -, -, 7, 1, 'Zurich', 3, 4, 1)\n";
  EXPECT_EQ(CanonicalString(run->relation,
                            &run->translation.db->catalog()),
            kExpected);
}

TEST(GoldenTest, ProjectionOverLink) {
  NestedDb company = MakeCompanyNestedDb();
  Result<QueryRunResult> run = RunQuery(
      company,
      "Select DEPARTMENT.D#, DEPARTMENT.Location From DEPARTMENT-->Audit");
  ASSERT_TRUE(run.ok());
  const char kExpected[] =
      "[DEPARTMENT.D#, DEPARTMENT.Location]\n"
      "  (1, 'Zurich')\n"
      "  (2, 'Queretaro')\n"
      "  (3, 'Zurich')\n";
  EXPECT_EQ(CanonicalString(run->relation,
                            &run->translation.db->catalog()),
            kExpected);
}

TEST(GoldenTest, StableUnderEveryImplementingTree) {
  // The Zurich query's canonical text is identical no matter which
  // implementing tree executes (Theorem 1 rendered as bytes).
  NestedDb company = MakeCompanyNestedDb();
  RunOptions no_opt;
  no_opt.optimize = false;
  Result<QueryRunResult> a = RunQuery(
      company,
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D# and "
      "DEPARTMENT.Location = 'Zurich'",
      no_opt);
  Result<QueryRunResult> b = RunQuery(
      company,
      "Select All From EMPLOYEE*ChildName, DEPARTMENT "
      "Where EMPLOYEE.D# = DEPARTMENT.D# and "
      "DEPARTMENT.Location = 'Zurich'");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(CanonicalString(a->relation, &a->translation.db->catalog()),
            CanonicalString(b->relation, &b->translation.db->catalog()));
}

}  // namespace
}  // namespace fro
