// Tests for the SQL/CTE executor, in both execution modes
// (parameterized), including recursive CTE working-table semantics.

#include <gtest/gtest.h>

#include "dlir/parser.h"
#include "engine/sql/executor.h"
#include "sqir/dlir_to_sqir.h"

namespace raqlet::engine {
namespace {

dlir::Program Parse(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

sqir::SqirProgram Translate(const std::string& text) {
  auto sqir = sqir::TranslateToSqir(Parse(text));
  EXPECT_TRUE(sqir.ok()) << sqir.status().ToString();
  return std::move(sqir).value();
}

Database MakeGraphDb(const std::vector<std::pair<int, int>>& edges) {
  Database db;
  RelationSchema s;
  s.name = "edge";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* rel = *db.CreateRelation(s);
  for (auto [x, y] : edges) rel->Insert({Value::Number(x), Value::Number(y)});
  return db;
}

class SqlEngineModeTest : public ::testing::TestWithParam<SqlMode> {
 protected:
  SqlEngine Engine() const {
    SqlOptions options;
    options.mode = GetParam();
    return SqlEngine(options);
  }
};

TEST_P(SqlEngineModeTest, SimpleJoinWithConstant) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {1, 3}});
  auto sqir = Translate(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number, y: number)
.output out
out(x, y) :- edge(x, y), x = 1.
)");
  auto result = Engine().Run(sqir, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(1, 2)", "(1, 3)"}));
}

TEST_P(SqlEngineModeTest, TwoHopJoin) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}});
  auto sqir = Translate(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number, z: number)
.output out
out(x, z) :- edge(x, y), edge(y, z).
)");
  auto result = Engine().Run(sqir, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(1, 3)", "(2, 4)"}));
}

TEST_P(SqlEngineModeTest, RecursiveTcOnCycle) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 1}});
  auto sqir = Translate(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)");
  SqlStats stats;
  auto result = Engine().Run(sqir, &db, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 9u);  // complete closure of the 3-cycle
  EXPECT_GE(stats.recursive_iterations, 2u);
}

TEST_P(SqlEngineModeTest, NotExists) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}});
  RelationSchema s;
  s.name = "blocked";
  s.columns = {{"x", ValueType::kNumber}};
  Relation* blocked = *db.CreateRelation(s);
  blocked->Insert({Value::Number(2)});
  auto sqir = Translate(R"(
.decl edge(x: number, y: number)
.input edge
.decl blocked(x: number)
.input blocked
.decl out(x: number, y: number)
.output out
out(x, y) :- edge(x, y), !blocked(y).
)");
  auto result = Engine().Run(sqir, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(2, 3)"}));
}

TEST_P(SqlEngineModeTest, GroupByAggregation) {
  Database db = MakeGraphDb({{1, 2}, {1, 3}, {2, 3}});
  auto sqir = Translate(R"(
.decl edge(x: number, y: number)
.input edge
.decl outdeg(x: number, d: number)
.output outdeg
outdeg(x, count(y)) :- edge(x, y).
)");
  auto result = Engine().Run(sqir, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(1, 2)", "(2, 1)"}));
}

TEST_P(SqlEngineModeTest, ArithmeticInSelectAndWhere) {
  Database db = MakeGraphDb({{1, 2}, {2, 5}});
  auto sqir = Translate(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(s: number)
.output out
out(s) :- edge(x, y), s = x + y * 2, s > 5.
)");
  auto result = Engine().Run(sqir, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(12)"}));
}

TEST_P(SqlEngineModeTest, StringConstants) {
  Database db;
  RelationSchema s;
  s.name = "person";
  s.columns = {{"id", ValueType::kNumber}, {"name", ValueType::kSymbol}};
  Relation* rel = *db.CreateRelation(s);
  rel->Insert({Value::Number(1), db.Str("Ada")});
  rel->Insert({Value::Number(2), db.Str("Bob")});
  auto sqir = Translate(R"(
.decl person(id: number, name: symbol)
.input person
.decl out(id: number)
.output out
out(x) :- person(x, name), name = "Ada".
)");
  auto result = Engine().Run(sqir, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(1)"}));
}

TEST_P(SqlEngineModeTest, UnionOfMultipleRules) {
  Database db = MakeGraphDb({{1, 2}, {3, 4}});
  auto sqir = Translate(R"(
.decl edge(x: number, y: number)
.input edge
.decl nodes(x: number)
.output nodes
nodes(x) :- edge(x, _).
nodes(y) :- edge(_, y).
)");
  auto result = Engine().Run(sqir, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 4u);
}

TEST_P(SqlEngineModeTest, StringKeyedRecursiveCte) {
  Database db;
  RelationSchema s;
  s.name = "edge";
  s.columns = {{"x", ValueType::kSymbol}, {"y", ValueType::kSymbol}};
  Relation* rel = *db.CreateRelation(s);
  rel->Insert({db.Str("a"), db.Str("b")});
  rel->Insert({db.Str("b"), db.Str("c")});
  auto sqir = Translate(R"(
.decl edge(x: symbol, y: symbol)
.input edge
.decl tc(x: symbol, y: symbol)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)");
  const std::set<std::string> expected{"(\"a\", \"b\")", "(\"a\", \"c\")",
                                       "(\"b\", \"c\")"};
  auto result = Engine().Run(sqir, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()), expected);
  // The CTE columns carry the declared symbol type end to end.
  ASSERT_EQ(result->column_types.size(), 2u);
  EXPECT_EQ(result->column_types[0], ValueType::kSymbol);
  EXPECT_EQ(result->column_types[1], ValueType::kSymbol);

  // Executor-side fallback: without the SQIR type metadata the schema is
  // inferred from the base branch's select items (regression: it used to
  // be hardcoded to kNumber).
  for (auto& cte : sqir.ctes) cte.column_types.clear();
  auto inferred = Engine().Run(sqir, &db);
  ASSERT_TRUE(inferred.ok()) << inferred.status().ToString();
  EXPECT_EQ(inferred->ToStringSet(db.symbols()), expected);
  ASSERT_EQ(inferred->column_types.size(), 2u);
  EXPECT_EQ(inferred->column_types[0], ValueType::kSymbol);
  EXPECT_EQ(inferred->column_types[1], ValueType::kSymbol);
}

TEST_P(SqlEngineModeTest, MultipleAggregatesInOneSelect) {
  Database db = MakeGraphDb({{1, 2}, {1, 3}, {2, 3}});
  // SELECT x, count(*), sum(y) FROM edge GROUP BY x — not expressible in
  // the Datalog frontend (one aggregate per head), so built directly.
  // Regression: the executor used to keep only the *last* aggregate item
  // and die with an Internal error on the first one.
  sqir::SqirProgram program;
  sqir::Select sel;
  sel.distinct = false;
  sel.items.push_back(sqir::SelectItem{sqir::Expr::Column("R1", "x"), "x"});
  sel.items.push_back(
      sqir::SelectItem{sqir::Expr::Agg(dlir::AggFunc::kCount, {}), "c"});
  sel.items.push_back(sqir::SelectItem{
      sqir::Expr::Agg(dlir::AggFunc::kSum, {sqir::Expr::Column("R1", "y")}),
      "s"});
  sel.from.push_back(sqir::TableRef{"edge", "R1"});
  sel.group_by.push_back(sqir::Expr::Column("R1", "x"));
  program.final_select = std::move(sel);
  program.output_columns = {"x", "c", "s"};
  auto result = Engine().Run(program, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(1, 2, 5)", "(2, 1, 3)"}));
}

TEST_P(SqlEngineModeTest, RecursiveSelfReferenceInNotExistsRejected) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}});
  // A base table named like the CTE: before the fix, the NOT EXISTS
  // self-reference was not detected and silently resolved against it.
  RelationSchema s;
  s.name = "tc";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  (void)*db.CreateRelation(s);

  sqir::SqirProgram program;
  sqir::Cte cte;
  cte.name = "tc";
  cte.columns = {"x", "y"};
  cte.recursive = true;
  sqir::Select base;
  base.items.push_back(sqir::SelectItem{sqir::Expr::Column("R1", "x"), "x"});
  base.items.push_back(sqir::SelectItem{sqir::Expr::Column("R1", "y"), "y"});
  base.from.push_back(sqir::TableRef{"edge", "R1"});
  sqir::Select guarded = base;
  sqir::NotExists ne;
  ne.table = "tc";
  ne.equalities.emplace_back("x", sqir::Expr::Column("R1", "x"));
  ne.equalities.emplace_back("y", sqir::Expr::Column("R1", "y"));
  guarded.not_exists.push_back(std::move(ne));
  cte.branches.push_back(std::move(base));
  cte.branches.push_back(std::move(guarded));
  program.ctes.push_back(std::move(cte));
  sqir::Select final_select;
  final_select.items.push_back(
      sqir::SelectItem{sqir::Expr::Column("R1", "x"), "x"});
  final_select.items.push_back(
      sqir::SelectItem{sqir::Expr::Column("R1", "y"), "y"});
  final_select.from.push_back(sqir::TableRef{"tc", "R1"});
  program.final_select = std::move(final_select);
  program.output_columns = {"x", "y"};

  auto result = Engine().Run(program, &db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(result.status().ToString().find("NOT EXISTS"), std::string::npos)
      << result.status().ToString();
}

TEST_P(SqlEngineModeTest, NonLinearRecursionRejected) {
  // tc(x, z) :- tc(x, y), tc(y, z). over the chain 1 -> 2 -> ... -> 6,
  // built by hand because TranslateToSqir rejects it. Scanning only the
  // last round's rows for both references yields 11 of the 15 closure
  // rows, so the engine must refuse the program instead.
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}});
  using sqir::Expr;
  sqir::SqirProgram program;
  sqir::Cte cte;
  cte.name = "tc";
  cte.columns = {"x", "y"};
  cte.recursive = true;
  sqir::Select base;
  base.items = {{Expr::Column("R1", "x"), "x"},
                {Expr::Column("R1", "y"), "y"}};
  base.from = {{"edge", "R1"}};
  sqir::Select step;
  step.items = {{Expr::Column("R1", "x"), "x"},
                {Expr::Column("R2", "y"), "y"}};
  step.from = {{"tc", "R1"}, {"tc", "R2"}};
  step.where.push_back(sqir::Predicate{
      dlir::CmpOp::kEq, Expr::Column("R1", "y"), Expr::Column("R2", "x")});
  cte.branches = {std::move(base), std::move(step)};
  program.ctes.push_back(std::move(cte));
  program.final_select.items = {{Expr::Column("R1", "x"), "x"},
                                {Expr::Column("R1", "y"), "y"}};
  program.final_select.from = {{"tc", "R1"}};
  program.output_columns = {"x", "y"};

  auto result = Engine().Run(program, &db);
  ASSERT_FALSE(result.ok()) << result->rows.size() << " rows";
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
  EXPECT_NE(result.status().ToString().find("non-linear"), std::string::npos)
      << result.status().ToString();
}

TEST_P(SqlEngineModeTest, ConstantOnlyPredicateWithEmptyFrom) {
  // Regression: with no FROM tables there are no join steps, so the
  // alias-free predicate was never attached anywhere and Plan() failed
  // with Internal("predicate references unknown alias").
  Database db;
  auto holds = Translate(R"(
.decl out(x: number)
.output out
out(7) :- 1 < 2.
)");
  auto result = Engine().Run(holds, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(7)"}));

  auto fails = Translate(R"(
.decl out(x: number)
.output out
out(7) :- 1 > 2.
)");
  auto empty = Engine().Run(fails, &db);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  EXPECT_TRUE(empty->rows.empty());
}

TEST_P(SqlEngineModeTest, MissingTableFails) {
  Database db;
  auto program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number)
.output out
out(x) :- edge(x, _).
)");
  auto sqir = sqir::TranslateToSqir(program);
  ASSERT_TRUE(sqir.ok());
  auto result = Engine().Run(*sqir, &db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(Modes, SqlEngineModeTest,
                         ::testing::Values(SqlMode::kVectorized,
                                           SqlMode::kTuplePipeline),
                         [](const auto& info) {
                           return info.param == SqlMode::kVectorized
                                      ? "Vectorized"
                                      : "TuplePipeline";
                         });

}  // namespace
}  // namespace raqlet::engine
