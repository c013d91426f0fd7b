// Tests for the semi-naive Datalog engine: recursion (linear, non-linear,
// mutual), negation, aggregation, constraints, lattice relations, and
// failure modes. Includes a naive-vs-seminaive differential property test.

#include <gtest/gtest.h>

#include <random>

#include "dlir/parser.h"
#include "engine/datalog/engine.h"
#include "raqlet/compiler.h"
#include "runtime/query_guard.h"
#include "storage/database.h"

namespace raqlet {
namespace {

using engine::DatalogEngine;
using engine::EvalOptions;
using engine::EvalStats;

Database MakeGraphDb(const std::vector<std::pair<int, int>>& edges) {
  Database db;
  RelationSchema s;
  s.name = "edge";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* rel = *db.CreateRelation(s);
  for (auto [x, y] : edges) {
    rel->Insert({Value::Number(x), Value::Number(y)});
  }
  return db;
}

dlir::Program Parse(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

std::set<std::vector<int64_t>> NumericRows(const Relation& rel) {
  std::set<std::vector<int64_t>> out;
  for (const Tuple& row : rel.MaterializeRows()) {
    std::vector<int64_t> ints;
    for (const Value& v : row) ints.push_back(v.AsNumber());
    out.insert(std::move(ints));
  }
  return out;
}

constexpr char kTc[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

TEST(DatalogEngineTest, TransitiveClosureOnChain) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}});
  DatalogEngine eng;
  EvalStats stats;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db, &stats).ok());
  const Relation* tc = *db.GetRelation("tc");
  EXPECT_EQ(tc->size(), 6u);  // all i<j pairs
  EXPECT_TRUE(tc->Contains({Value::Number(1), Value::Number(4)}));
  EXPECT_GE(stats.fixpoint_rounds, 3u);
}

TEST(DatalogEngineTest, TransitiveClosureOnCycleTerminates) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 1}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db).ok());
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 9u);  // complete on the cycle
}

TEST(DatalogEngineTest, NonLinearTcMatchesLinear) {
  constexpr char kNonLinear[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), tc(z, y).
)";
  Database db1 = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}, {4, 2}});
  Database db2 = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}, {4, 2}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db1).ok());
  ASSERT_TRUE(eng.Run(Parse(kNonLinear), &db2).ok());
  EXPECT_EQ(NumericRows(**db1.GetRelation("tc")),
            NumericRows(**db2.GetRelation("tc")));
}

TEST(DatalogEngineTest, MutualRecursionEvenOdd) {
  constexpr char kEvenOdd[] = R"(
.decl succ(x: number, y: number)
.input succ
.decl even(x: number)
.decl odd(x: number)
.output even
.output odd
even(0).
odd(y) :- even(x), succ(x, y).
even(y) :- odd(x), succ(x, y).
)";
  Database db;
  RelationSchema s;
  s.name = "succ";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* succ = *db.CreateRelation(s);
  for (int i = 0; i < 10; ++i) {
    succ->Insert({Value::Number(i), Value::Number(i + 1)});
  }
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kEvenOdd), &db).ok());
  auto evens = NumericRows(**db.GetRelation("even"));
  auto odds = NumericRows(**db.GetRelation("odd"));
  EXPECT_EQ(evens.size(), 6u);  // 0,2,4,6,8,10
  EXPECT_EQ(odds.size(), 5u);   // 1,3,5,7,9
  EXPECT_TRUE(evens.count({10}));
  EXPECT_TRUE(odds.count({9}));
}

TEST(DatalogEngineTest, StratifiedNegation) {
  constexpr char kUnreachable[] = R"(
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
)";
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {4, 5}});
  RelationSchema s;
  s.name = "node";
  s.columns = {{"x", ValueType::kNumber}};
  Relation* node = *db.CreateRelation(s);
  for (int i = 1; i <= 5; ++i) node->Insert({Value::Number(i)});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kUnreachable), &db).ok());
  EXPECT_EQ(NumericRows(**db.GetRelation("unreach")),
            (std::set<std::vector<int64_t>>{{4}, {5}}));
}

TEST(DatalogEngineTest, RejectsUnstratifiableNegation) {
  constexpr char kParadox[] = R"(
.decl a(x: number)
.input a
.decl p(x: number)
p(x) :- a(x), !p(x).
)";
  Database db;
  RelationSchema s;
  s.name = "a";
  s.columns = {{"x", ValueType::kNumber}};
  (void)*db.CreateRelation(s);
  DatalogEngine eng;
  Status st = eng.Run(Parse(kParadox), &db);
  EXPECT_EQ(st.code(), StatusCode::kUnsupported);
  EXPECT_NE(st.message().find("stratifiable"), std::string::npos);
}

// The engine's entry check is the analyzer's structural check: every
// finding is InvalidArgument with its RQ code, before anything runs.
TEST(DatalogEngineTest, EntryCheckRejectsStructuralFindings) {
  const struct {
    const char* program;
    const char* code;
  } kCases[] = {
      // An unbound aggregate input once failed mid-evaluation (Internal).
      {R"(
.decl edge(x: number, y: number)
.input edge
.decl total(s: number)
total(sum(z)) :- edge(x, _).
)",
       "RQ004"},
      // A @min lattice over a symbol column once ran.
      {R"(
.decl edge(x: number, y: number)
.input edge
.decl best(x: number, name: symbol) @min
best(x, "a") :- edge(x, _).
)",
       "RQ006"},
      // An undeclared predicate was once NotFound.
      {R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number)
out(x) :- ghost(x).
)",
       "RQ002"},
  };
  for (const auto& c : kCases) {
    Database db = MakeGraphDb({{1, 2}});
    Status st = DatalogEngine().Run(Parse(c.program), &db);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(c.code), std::string::npos) << st.ToString();
  }
}

TEST(DatalogEngineTest, CountAggregate) {
  constexpr char kDegree[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl outdeg(x: number, d: number)
.output outdeg
outdeg(x, count(y)) :- edge(x, y).
)";
  Database db = MakeGraphDb({{1, 2}, {1, 3}, {1, 3}, {2, 3}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kDegree), &db).ok());
  EXPECT_EQ(NumericRows(**db.GetRelation("outdeg")),
            (std::set<std::vector<int64_t>>{{1, 2}, {2, 1}}));
}

TEST(DatalogEngineTest, SumMinMaxAggregates) {
  constexpr char kAggs[] = R"(
.decl sale(region: number, amount: number)
.input sale
.decl total(region: number, t: number)
.decl lo(region: number, m: number)
.decl hi(region: number, m: number)
.output total
.output lo
.output hi
total(r, sum(a)) :- sale(r, a).
lo(r, min(a)) :- sale(r, a).
hi(r, max(a)) :- sale(r, a).
)";
  Database db;
  RelationSchema s;
  s.name = "sale";
  s.columns = {{"region", ValueType::kNumber}, {"amount", ValueType::kNumber}};
  Relation* sale = *db.CreateRelation(s);
  sale->Insert({Value::Number(1), Value::Number(10)});
  sale->Insert({Value::Number(1), Value::Number(30)});
  sale->Insert({Value::Number(2), Value::Number(5)});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kAggs), &db).ok());
  EXPECT_EQ(NumericRows(**db.GetRelation("total")),
            (std::set<std::vector<int64_t>>{{1, 40}, {2, 5}}));
  EXPECT_EQ(NumericRows(**db.GetRelation("lo")),
            (std::set<std::vector<int64_t>>{{1, 10}, {2, 5}}));
  EXPECT_EQ(NumericRows(**db.GetRelation("hi")),
            (std::set<std::vector<int64_t>>{{1, 30}, {2, 5}}));
}

TEST(DatalogEngineTest, RejectsAggregateInRecursion) {
  constexpr char kBad[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl p(x: number, c: number)
p(x, count(y)) :- p(y, _), edge(x, y).
)";
  Database db = MakeGraphDb({{1, 2}});
  DatalogEngine eng;
  EXPECT_EQ(eng.Run(Parse(kBad), &db).code(), StatusCode::kUnsupported);
}

TEST(DatalogEngineTest, LatticeShortestPathOnCyclicGraph) {
  // Plain Datalog distance recursion would diverge on the cycle; the @min
  // lattice keeps only the best distance per (x, y) and terminates.
  constexpr char kSp[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl dist(x: number, y: number, d: number) @min
.output dist
dist(x, y, 1) :- edge(x, y).
dist(x, y, d + 1) :- dist(x, z, d), edge(z, y).
)";
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 1}, {1, 3}});
  DatalogEngine eng;
  Status st = eng.Run(Parse(kSp), &db);
  ASSERT_TRUE(st.ok()) << st.ToString();
  auto rows = NumericRows(**db.GetRelation("dist"));
  EXPECT_TRUE(rows.count({1, 3, 1}));  // direct edge beats 1->2->3
  EXPECT_TRUE(rows.count({1, 1, 2}));  // 1->3->1 beats 1->2->3->1
  EXPECT_TRUE(rows.count({3, 2, 2}));  // 3->1->2
  // Exactly one distance per reachable pair.
  std::set<std::pair<int64_t, int64_t>> pairs;
  for (const auto& row : rows) pairs.emplace(row[0], row[1]);
  EXPECT_EQ(pairs.size(), rows.size());
}

TEST(DatalogEngineTest, ConstraintsFilterAndBind) {
  constexpr char kFilter[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number, y: number, s: number)
.output out
out(x, y, s) :- edge(x, y), x < y, s = x + y, s >= 5.
)";
  Database db = MakeGraphDb({{1, 2}, {2, 5}, {5, 2}, {4, 4}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kFilter), &db).ok());
  EXPECT_EQ(NumericRows(**db.GetRelation("out")),
            (std::set<std::vector<int64_t>>{{2, 5, 7}}));
}

TEST(DatalogEngineTest, FactsAndStringConstants) {
  constexpr char kFacts[] = R"(
.decl color(name: symbol, code: number)
.output color
color("red", 1).
color("green", 2).
)";
  Database db;
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kFacts), &db).ok());
  const Relation* color = *db.GetRelation("color");
  EXPECT_EQ(color->size(), 2u);
  EXPECT_TRUE(color->Contains({db.Str("red"), Value::Number(1)}));
}

TEST(DatalogEngineTest, SameGeneration) {
  constexpr char kSg[] = R"(
.decl parent(x: number, y: number)
.input parent
.decl sg(x: number, y: number)
.output sg
sg(x, x) :- parent(x, _).
sg(x, x) :- parent(_, x).
sg(x, y) :- parent(xp, x), sg(xp, yp), parent(yp, y).
)";
  // Two families: 1->{2,3}, 2->{4}, 3->{5}. 4 and 5 are same generation.
  Database db;
  RelationSchema s;
  s.name = "parent";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* parent = *db.CreateRelation(s);
  for (auto [a, b] :
       std::vector<std::pair<int, int>>{{1, 2}, {1, 3}, {2, 4}, {3, 5}}) {
    parent->Insert({Value::Number(a), Value::Number(b)});
  }
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kSg), &db).ok());
  auto rows = NumericRows(**db.GetRelation("sg"));
  EXPECT_TRUE(rows.count({4, 5}));
  EXPECT_TRUE(rows.count({2, 3}));
  EXPECT_FALSE(rows.count({2, 4}));
}

// p(x + 1) is the semi-naive delta atom of the second rule, but its
// computed argument cannot be evaluated until q(x) binds x: the planner
// must let the greedy order place it after q and probe its rows, at any
// thread count, and agree with the SQL engine.
TEST(DatalogEngineTest, DeltaAtomWithComputedArgument) {
  constexpr char kProgram[] = R"(
.decl q(x: number)
.input q
.decl p(x: number)
.output p
p(x) :- q(x), x > 5.
p(x) :- q(x), p(x + 1).
)";
  auto make_db = [] {
    Database db;
    RelationSchema s;
    s.name = "q";
    s.columns = {{"x", ValueType::kNumber}};
    Relation* q = *db.CreateRelation(s);
    for (int i = 1; i <= 7; ++i) q->Insert({Value::Number(i)}).value();
    return db;
  };
  dlir::Program program = Parse(kProgram);
  Compiler compiler;
  Database sql_db = make_db();
  auto sql = compiler.RunOnSql(program, &sql_db);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  ASSERT_EQ(sql->rows.size(), 7u);
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    Database db = make_db();
    EvalOptions options;
    options.num_threads = threads;
    auto rows = compiler.RunOnDatalog(program, &db, nullptr, options);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(rows->ToStringSet(db.symbols()),
              sql->ToStringSet(sql_db.symbols()));
  }
}

TEST(DatalogEngineTest, MissingInputRelationFails) {
  Database db;
  DatalogEngine eng;
  EXPECT_EQ(eng.Run(Parse(kTc), &db).code(), StatusCode::kNotFound);
}

TEST(DatalogEngineTest, MaxIterationsGuard) {
  // Unbounded value invention: counter(x+1) :- counter(x). Never converges;
  // a per-call row budget must stop it.
  constexpr char kDiverge[] = R"(
.decl seed(x: number)
.input seed
.decl counter(x: number)
.output counter
counter(x) :- seed(x).
counter(x + 1) :- counter(x).
)";
  Database db;
  RelationSchema s;
  s.name = "seed";
  s.columns = {{"x", ValueType::kNumber}};
  Relation* seed = *db.CreateRelation(s);
  seed->Insert({Value::Number(0)});
  runtime::QueryGuard guard;
  guard.set_max_rows(50);
  DatalogEngine eng;
  Status st = eng.Run(Parse(kDiverge), &db, nullptr, nullptr, &guard);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
}

TEST(DatalogEngineTest, OverwriteIdbOnRerun) {
  Database db = MakeGraphDb({{1, 2}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db).ok());
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 1u);
  // Add an edge and re-run; stale results must be cleared.
  (*db.GetRelation("edge"))->Insert({Value::Number(2), Value::Number(3)});
  ASSERT_TRUE(eng.Run(Parse(kTc), &db).ok());
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 3u);
}

// Reusing an IDB name across programs with a *different arity* (the
// Cypher lowering does this: every query names its frontier relations
// Match1, Match2, ... on the shared database) must adopt the new
// program's declaration. A bare Clear() would keep the old schema, and
// the column-borrowing join path — which trusts arity() — would read
// past the borrowed views.
TEST(DatalogEngineTest, OverwriteIdbAdoptsNewArity) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}});
  DatalogEngine eng;
  // First program: "mid" is 2-ary.
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl mid(x: number, y: number)
.output mid
mid(x, y) :- edge(x, y).
)"),
                      &db)
                  .ok());
  EXPECT_EQ((*db.GetRelation("mid"))->arity(), 2u);
  // Second program: same name, now 3-ary, and joined by another rule so
  // the engine borrows all three columns.
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl mid(x: number, y: number, tag: number)
.decl hop(x: number, z: number)
.output hop
mid(x, y, 7) :- edge(x, y).
hop(x, z) :- mid(x, y, 7), edge(y, z).
)"),
                      &db)
                  .ok());
  EXPECT_EQ((*db.GetRelation("mid"))->arity(), 3u);
  EXPECT_EQ(NumericRows(**db.GetRelation("hop")),
            (std::set<std::vector<int64_t>>{{1, 3}}));
  // And back down: 3-ary -> 2-ary reuse must shed the extra column.
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl mid(x: number, y: number)
.decl hop2(x: number, z: number)
.output hop2
mid(x, y) :- edge(x, y).
hop2(x, z) :- mid(x, y), edge(y, z).
)"),
                      &db)
                  .ok());
  EXPECT_EQ((*db.GetRelation("mid"))->arity(), 2u);
  EXPECT_EQ(NumericRows(**db.GetRelation("hop2")),
            (std::set<std::vector<int64_t>>{{1, 3}}));
}

// Property test: naive and semi-naive evaluation agree on random graphs.
class NaiveVsSeminaiveTest : public ::testing::TestWithParam<int> {};

TEST_P(NaiveVsSeminaiveTest, AgreeOnRandomGraphs) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::uniform_int_distribution<int> node(1, 12);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 25; ++i) edges.emplace_back(node(rng), node(rng));

  Database db1 = MakeGraphDb(edges);
  Database db2 = MakeGraphDb(edges);
  EvalOptions naive;
  naive.seminaive = false;
  DatalogEngine eng_naive(naive);
  DatalogEngine eng_semi;
  ASSERT_TRUE(eng_naive.Run(Parse(kTc), &db1).ok());
  ASSERT_TRUE(eng_semi.Run(Parse(kTc), &db2).ok());
  EXPECT_EQ(NumericRows(**db1.GetRelation("tc")),
            NumericRows(**db2.GetRelation("tc")));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, NaiveVsSeminaiveTest,
                         ::testing::Range(0, 10));

// Property test: join order must not affect results.
class JoinOrderTest : public ::testing::TestWithParam<int> {};

TEST_P(JoinOrderTest, ReorderingPreservesResults) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 100);
  std::uniform_int_distribution<int> node(1, 10);
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 20; ++i) edges.emplace_back(node(rng), node(rng));

  constexpr char kTriangles[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tri(x: number, y: number, z: number)
.output tri
tri(x, y, z) :- edge(x, y), edge(y, z), edge(z, x).
)";
  Database db1 = MakeGraphDb(edges);
  Database db2 = MakeGraphDb(edges);
  EvalOptions ordered;
  ordered.reorder_atoms = false;
  DatalogEngine eng1(ordered);
  DatalogEngine eng2;
  ASSERT_TRUE(eng1.Run(Parse(kTriangles), &db1).ok());
  ASSERT_TRUE(eng2.Run(Parse(kTriangles), &db2).ok());
  EXPECT_EQ(NumericRows(**db1.GetRelation("tri")),
            NumericRows(**db2.GetRelation("tri")));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, JoinOrderTest, ::testing::Range(0, 8));

}  // namespace
}  // namespace raqlet
