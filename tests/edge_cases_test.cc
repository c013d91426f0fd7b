// Edge-case battery across modules: empty inputs, symbol ordering, float
// arithmetic, deep recursion, zero-length paths, lattice max, and a
// random-program differential between the Datalog and SQL engines.

#include <gtest/gtest.h>

#include <random>

#include "dlir/parser.h"
#include "engine/datalog/engine.h"
#include "engine/sql/executor.h"
#include "raqlet/compiler.h"
#include "sqir/dlir_to_sqir.h"

namespace raqlet {
namespace {

dlir::Program Parse(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

Database EdgeDb(const std::vector<std::pair<int, int>>& edges) {
  Database db;
  RelationSchema s;
  s.name = "edge";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* rel = *db.CreateRelation(s);
  for (auto [x, y] : edges) rel->Insert({Value::Number(x), Value::Number(y)});
  return db;
}

std::set<std::string> Rows(const Database& db, const std::string& rel) {
  std::set<std::string> out;
  for (const Tuple& row : (*db.GetRelation(rel))->MaterializeRows()) {
    out.insert(TupleToString(row, &db.symbols()));
  }
  return out;
}

TEST(EdgeCaseTest, EmptyEdbYieldsEmptyOutput) {
  Database db = EdgeDb({});
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)"), &db).ok());
  EXPECT_TRUE((*db.GetRelation("tc"))->empty());
}

TEST(EdgeCaseTest, SelfLoopTc) {
  Database db = EdgeDb({{1, 1}});
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)"), &db).ok());
  EXPECT_EQ(Rows(db, "tc"), (std::set<std::string>{"(1, 1)"}));
}

TEST(EdgeCaseTest, DeepRecursionChain) {
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 2000; ++i) edges.emplace_back(i, i + 1);
  Database db = EdgeDb(edges);
  engine::DatalogEngine eng;
  engine::EvalStats stats;
  // Single-source reachability over a 2000-long chain: 2000 rounds.
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl reach(y: number)
.output reach
reach(y) :- edge(0, y).
reach(y) :- reach(x), edge(x, y).
)"), &db, &stats).ok());
  EXPECT_EQ((*db.GetRelation("reach"))->size(), 2000u);
  EXPECT_GE(stats.fixpoint_rounds, 1999u);
}

TEST(EdgeCaseTest, SymbolOrderingIsLexicographic) {
  Database db;
  RelationSchema s;
  s.name = "person";
  s.columns = {{"id", ValueType::kNumber}, {"name", ValueType::kSymbol}};
  Relation* rel = *db.CreateRelation(s);
  // Interning order differs from lexicographic order on purpose.
  rel->Insert({Value::Number(1), db.Str("zeta")});
  rel->Insert({Value::Number(2), db.Str("alpha")});
  rel->Insert({Value::Number(3), db.Str("mid")});
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl person(id: number, name: symbol)
.input person
.decl early(id: number)
.output early
early(x) :- person(x, n), n < "mid".
)"), &db).ok());
  EXPECT_EQ(Rows(db, "early"), (std::set<std::string>{"(2)"}));
}

TEST(EdgeCaseTest, FloatArithmeticAndAvg) {
  Database db;
  RelationSchema s;
  s.name = "m";
  s.columns = {{"k", ValueType::kNumber}, {"v", ValueType::kFloat}};
  Relation* rel = *db.CreateRelation(s);
  rel->Insert({Value::Number(1), Value::Float(1.5)});
  rel->Insert({Value::Number(1), Value::Float(2.5)});
  rel->Insert({Value::Number(2), Value::Float(4.0)});
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl m(k: number, v: float)
.input m
.decl mean(k: number, a: float)
.output mean
mean(k, avg(v)) :- m(k, v).
)"), &db).ok());
  const Relation* mean = *db.GetRelation("mean");
  ASSERT_EQ(mean->size(), 2u);
  for (const Tuple& row : mean->MaterializeRows()) {
    if (row[0].AsNumber() == 1) EXPECT_DOUBLE_EQ(row[1].AsFloat(), 2.0);
    if (row[0].AsNumber() == 2) EXPECT_DOUBLE_EQ(row[1].AsFloat(), 4.0);
  }
}

TEST(EdgeCaseTest, DivisionByZeroIsAnError) {
  Database db = EdgeDb({{1, 0}});
  engine::DatalogEngine eng;
  Status st = eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(q: number)
.output out
out(q) :- edge(x, y), q = x / y.
)"), &db);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(EdgeCaseTest, LatticeMaxKeepsLargest) {
  Database db;
  RelationSchema s;
  s.name = "score";
  s.columns = {{"k", ValueType::kNumber}, {"v", ValueType::kNumber}};
  Relation* rel = *db.CreateRelation(s);
  rel->Insert({Value::Number(1), Value::Number(5)});
  rel->Insert({Value::Number(1), Value::Number(9)});
  rel->Insert({Value::Number(2), Value::Number(3)});
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl score(k: number, v: number)
.input score
.decl best(k: number, v: number) @max
.output best
best(k, v) :- score(k, v).
best(k, v + 1) :- best(k, v), v < 20.
)"), &db).ok());
  // Lattice max with an increment rule converges at the bound.
  EXPECT_EQ(Rows(db, "best"), (std::set<std::string>{"(1, 20)", "(2, 20)"}));
}

TEST(EdgeCaseTest, NegationAgainstEmptyRelation) {
  Database db = EdgeDb({{1, 2}});
  RelationSchema s;
  s.name = "blocked";
  s.columns = {{"x", ValueType::kNumber}};
  (void)db.CreateRelation(s);
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl blocked(x: number)
.input blocked
.decl out(x: number)
.output out
out(x) :- edge(x, _), !blocked(x).
)"), &db).ok());
  EXPECT_EQ(Rows(db, "out"), (std::set<std::string>{"(1)"}));
}

TEST(EdgeCaseTest, ZeroLengthPathAcrossEngines) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(R"(
CREATE GRAPH {
  (nodeType: Node {id INT}),
  (:nodeType)-[edgeType: linksTo {id INT}]->(:nodeType)
}
)").ok());
  Database db;
  ASSERT_TRUE(compiler.CreateEdbs(&db).ok());
  Relation* node = *db.GetRelation("Node");
  for (int i = 1; i <= 4; ++i) node->Insert({Value::Number(i)});
  Relation* edge = *db.GetRelation("Node_LINKS_TO_Node");
  edge->Insert({Value::Number(1), Value::Number(2), Value::Number(1)});

  auto unit = compiler.CompileCypher(
      "MATCH (a:Node {id: 1})-[:LINKS_TO*0..2]->(b:Node) "
      "RETURN DISTINCT b.id AS id");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  auto datalog = compiler.RunOnDatalog(unit->dlir, &db);
  ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
  // Zero hops reaches a itself; one hop reaches 2.
  EXPECT_EQ(datalog->ToStringSet(db.symbols()),
            (std::set<std::string>{"(1)", "(2)"}));
  auto store = compiler.BuildGraphStore(db);
  ASSERT_TRUE(store.ok());
  auto graph = compiler.RunOnGraph(unit->pgir, *store, &db);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->ToStringSet(db.symbols()),
            datalog->ToStringSet(db.symbols()));
}

TEST(EdgeCaseTest, ExactHopCountAcrossEngines) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(R"(
CREATE GRAPH {
  (nodeType: Node {id INT}),
  (:nodeType)-[edgeType: linksTo {id INT}]->(:nodeType)
}
)").ok());
  Database db;
  ASSERT_TRUE(compiler.CreateEdbs(&db).ok());
  Relation* node = *db.GetRelation("Node");
  for (int i = 1; i <= 5; ++i) node->Insert({Value::Number(i)});
  Relation* edge = *db.GetRelation("Node_LINKS_TO_Node");
  int eid = 0;
  for (auto [a, b] : std::vector<std::pair<int, int>>{
           {1, 2}, {2, 3}, {3, 4}, {1, 3}}) {
    edge->Insert({Value::Number(a), Value::Number(b), Value::Number(++eid)});
  }
  // *2 = exactly two hops.
  auto unit = compiler.CompileCypher(
      "MATCH (a:Node {id: 1})-[:LINKS_TO*2]->(b:Node) "
      "RETURN DISTINCT b.id AS id");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  auto datalog = compiler.RunOnDatalog(unit->dlir, &db);
  ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
  EXPECT_EQ(datalog->ToStringSet(db.symbols()),
            (std::set<std::string>{"(3)", "(4)"}));
  auto store = compiler.BuildGraphStore(db);
  auto graph = compiler.RunOnGraph(unit->pgir, *store, &db);
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->ToStringSet(db.symbols()),
            datalog->ToStringSet(db.symbols()));
}

// Random linear-recursion programs: Datalog vs SQL engines must agree.
class RandomProgramDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomProgramDifferentialTest, DatalogAndSqlAgree) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 31 + 11);
  std::uniform_int_distribution<int> node(1, 14);
  std::uniform_int_distribution<int> coin(0, 1);

  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 30; ++i) edges.emplace_back(node(rng), node(rng));

  // Template family: seeded reachability with an optional filter and an
  // optional extra join.
  int seed_node = node(rng);
  bool with_filter = coin(rng) == 1;
  bool with_join = coin(rng) == 1;
  std::string program_text = R"(
.decl edge(x: number, y: number)
.input edge
.decl reach(y: number)
.decl out(y: number)
.output out
reach(y) :- edge()" + std::to_string(seed_node) + R"(, y).
reach(y) :- reach(x), edge(x, y).
)";
  program_text += "out(y) :- reach(y)";
  if (with_join) program_text += ", edge(y, _)";
  if (with_filter) program_text += ", y > 3";
  program_text += ".\n";

  auto program = Parse(program_text);
  Database db1 = EdgeDb(edges);
  Database db2 = EdgeDb(edges);
  engine::DatalogEngine datalog;
  ASSERT_TRUE(datalog.Run(program, &db1).ok());

  auto sqir = sqir::TranslateToSqir(program);
  ASSERT_TRUE(sqir.ok()) << sqir.status().ToString();
  engine::SqlEngine sql;
  auto result = sql.Run(*sqir, &db2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Rows(db1, "out"), result->ToStringSet(db2.symbols()))
      << program_text;
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, RandomProgramDifferentialTest,
                         ::testing::Range(0, 12));

}  // namespace
}  // namespace raqlet
