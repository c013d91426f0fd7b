// Tests for the procedural lowering / EXPLAIN facility (§5 code
// generation).

#include <gtest/gtest.h>

#include "dlir/explain.h"
#include "dlir/parser.h"

namespace raqlet::dlir {
namespace {

Program Parse(const std::string& text) {
  auto program = ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

constexpr char kTc[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

TEST(ExplainTest, TcShowsSemiNaiveLoop) {
  auto text = ExplainProgram(Parse(kTc));
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("STRATUM 0 (recursive: tc)"), std::string::npos);
  EXPECT_NE(text->find("INIT"), std::string::npos);
  EXPECT_NE(text->find("LOOP UNTIL FIXPOINT"), std::string::npos);
  EXPECT_NE(text->find("FOR (x, z) IN DELTA tc"), std::string::npos);
  // The inner edge probe uses the index on the join column.
  EXPECT_NE(text->find("IN edge INDEX ON (col0 = z)"), std::string::npos);
  EXPECT_NE(text->find("INSERT (x, y) INTO tc"), std::string::npos);
}

TEST(ExplainTest, ConstantsBecomeIndexProbes) {
  auto text = ExplainProgram(Parse(R"(
.decl person(id: number, name: symbol)
.input person
.decl out(name: symbol)
.output out
out(n) :- person(42, n).
)"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("INDEX ON (col0 = 42)"), std::string::npos);
}

TEST(ExplainTest, ConstraintsRenderAsIfAndLet) {
  auto text = ExplainProgram(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number, s: number)
.output out
out(x, s) :- edge(x, y), x < y, s = x + y.
)"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("IF x < y"), std::string::npos);
  EXPECT_NE(text->find("LET s = (x + y)"), std::string::npos);
}

TEST(ExplainTest, NegationRendersAsNotExists) {
  auto text = ExplainProgram(Parse(R"(
.decl a(x: number)
.input a
.decl b(x: number)
.input b
.decl out(x: number)
.output out
out(x) :- a(x), !b(x).
)"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("IF NOT EXISTS b(x)"), std::string::npos);
}

TEST(ExplainTest, AggregationRendersGroupBy) {
  auto text = ExplainProgram(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl deg(x: number, d: number)
.output deg
deg(x, count(y)) :- edge(x, y).
)"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("AGGREGATE count()"), std::string::npos);
  EXPECT_NE(text->find("GROUP BY (x)"), std::string::npos);
}

TEST(ExplainTest, StrataAreOrdered) {
  auto text = ExplainProgram(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl node(x: number)
.input node
.decl reach(x: number)
.decl unreach(x: number)
.output unreach
reach(1).
reach(y) :- reach(x), edge(x, y).
unreach(x) :- node(x), !reach(x).
)"));
  ASSERT_TRUE(text.ok());
  size_t reach_pos = text->find("recursive: reach");
  size_t unreach_pos = text->find("non-recursive: unreach");
  ASSERT_NE(reach_pos, std::string::npos);
  ASSERT_NE(unreach_pos, std::string::npos);
  EXPECT_LT(reach_pos, unreach_pos);
}

TEST(ExplainTest, RejectsUnstratifiablePrograms) {
  auto text = ExplainProgram(Parse(R"(
.decl a(x: number)
.input a
.decl p(x: number)
p(x) :- a(x), !p(x).
)"));
  ASSERT_FALSE(text.ok());
  EXPECT_EQ(text.status().code(), StatusCode::kUnsupported);
}

TEST(ExplainTest, ExplainAnalyzeAnnotatesStrata) {
  Program program = Parse(kTc);
  // One metrics slot per SCC in topological order: edge (EDB, no rules)
  // first, then the recursive tc SCC — exactly what DatalogEngine records
  // for the 1->2->3->4 chain.
  obs::QueryMetrics metrics;
  metrics.datalog.sccs.resize(2);
  obs::SccMetrics& tc = metrics.datalog.sccs[1];
  tc.preds = {"tc"};
  tc.recursive = true;
  tc.rounds = 3;
  tc.rule_evaluations = 4;
  tc.tuples_considered = 12;
  tc.tuples_inserted = 6;
  tc.round_delta_sizes = {3, 2, 1, 0};

  auto text = ExplainAnalyzeProgram(program, metrics);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("STRATUM 0 (recursive: tc)  "
                       "[actual rounds=3 rule_evals=4 considered=12 "
                       "inserted=6]"),
            std::string::npos);
  EXPECT_NE(text->find("ACTUAL DELTAS init=3 r1=2 r2=1 r3=0"),
            std::string::npos);
  // The plain loop nest is still there, and the metrics report follows.
  EXPECT_NE(text->find("LOOP UNTIL FIXPOINT"), std::string::npos);
  EXPECT_NE(text->find("datalog"), std::string::npos);
}

TEST(ExplainTest, ExplainAnalyzeToleratesMissingSlots) {
  // Metrics from another engine (no datalog slots): the plan renders
  // unannotated instead of failing.
  obs::QueryMetrics metrics;
  auto text = ExplainAnalyzeProgram(Parse(kTc), metrics);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_EQ(text->find("[actual"), std::string::npos);
  EXPECT_NE(text->find("STRATUM 0 (recursive: tc)"), std::string::npos);
}

TEST(ExplainTest, MutualRecursionVariantsPerPredicate) {
  auto text = ExplainProgram(Parse(R"(
.decl s(x: number, y: number)
.input s
.decl even(x: number)
.decl odd(x: number)
.output even
even(0).
odd(y) :- even(x), s(x, y).
even(y) :- odd(x), s(x, y).
)"));
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("DELTA even"), std::string::npos);
  EXPECT_NE(text->find("DELTA odd"), std::string::npos);
}

}  // namespace
}  // namespace raqlet::dlir
