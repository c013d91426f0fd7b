// Tests for the raqlet::Compiler driver (the public API) and the GQL
// frontend.

#include <gtest/gtest.h>

#include "gql/parser.h"
#include "ldbc/ldbc.h"
#include "raqlet/compiler.h"

namespace raqlet {
namespace {

constexpr char kSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING}),
  (cityType: City {id INT, name STRING}),
  (:personType)-[locationType: isLocatedIn {id INT}]->(:cityType),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";

Database SmallDb(Compiler* compiler) {
  Database db;
  EXPECT_TRUE(compiler->CreateEdbs(&db).ok());
  Relation* person = *db.GetRelation("Person");
  person->Insert({Value::Number(1), db.Str("Ada")});
  person->Insert({Value::Number(2), db.Str("Bob")});
  Relation* city = *db.GetRelation("City");
  city->Insert({Value::Number(10), db.Str("Edinburgh")});
  Relation* located = *db.GetRelation("Person_IS_LOCATED_IN_City");
  located->Insert({Value::Number(1), Value::Number(10), Value::Number(1)});
  Relation* knows = *db.GetRelation("Person_KNOWS_Person");
  knows->Insert({Value::Number(1), Value::Number(2), Value::Number(2)});
  return db;
}

TEST(CompilerTest, RequiresSchemaBeforeCompile) {
  Compiler compiler;
  auto unit = compiler.CompileCypher("MATCH (n:Person) RETURN DISTINCT n");
  ASSERT_FALSE(unit.ok());
  EXPECT_EQ(unit.status().code(), StatusCode::kInvalidArgument);
}

TEST(CompilerTest, CompileCarriesEveryStage) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  auto unit = compiler.CompileCypher(
      "MATCH (n:Person {id: 1})-[:IS_LOCATED_IN]->(c:City) "
      "RETURN DISTINCT n.firstName AS name, c.name AS city");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_FALSE(unit->pgir.ops.empty());
  EXPECT_FALSE(unit->dlir.rules.empty());
  // Standard pipeline collapses the chain to the single Return rule.
  EXPECT_EQ(unit->optimized.rules.size(), 1u);
  EXPECT_LT(unit->optimized.rules.size(), unit->dlir.rules.size());
}

TEST(CompilerTest, OptLevelZeroKeepsChain) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  CompileOptions options;
  options.opt_level = 0;
  auto unit = compiler.CompileCypher(
      "MATCH (n:Person) RETURN DISTINCT n.firstName AS name", options);
  ASSERT_TRUE(unit.ok());
  EXPECT_EQ(unit->dlir.ToString(), unit->optimized.ToString());
}

TEST(CompilerTest, DatalogFrontendValidates) {
  Compiler compiler;
  auto ok = compiler.CompileDatalog(R"(
.decl e(x: number, y: number)
.input e
.decl t(x: number, y: number)
.output t
t(x, y) :- e(x, y).
)");
  EXPECT_TRUE(ok.ok()) << ok.status().ToString();
  auto bad = compiler.CompileDatalog(".decl a(x: number)\na(y) :- a(x).");
  EXPECT_FALSE(bad.ok());
}

TEST(CompilerTest, EndToEndAcrossEngines) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  Database db = SmallDb(&compiler);
  auto unit = compiler.CompileCypher(
      "MATCH (n:Person {id: 1})-[:IS_LOCATED_IN]->(c:City) "
      "RETURN DISTINCT n.firstName AS name, c.name AS city");
  ASSERT_TRUE(unit.ok());

  auto datalog = compiler.RunOnDatalog(unit->optimized, &db);
  ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
  ASSERT_EQ(datalog->rows.size(), 1u);
  EXPECT_EQ(datalog->columns, (std::vector<std::string>{"name", "city"}));

  auto sql = compiler.RunOnSql(unit->optimized, &db);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  auto store = compiler.BuildGraphStore(db);
  ASSERT_TRUE(store.ok());
  auto graph = compiler.RunOnGraph(unit->pgir, *store, &db);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  EXPECT_EQ(datalog->ToStringSet(db.symbols()), sql->ToStringSet(db.symbols()));
  EXPECT_EQ(datalog->ToStringSet(db.symbols()),
            graph->ToStringSet(db.symbols()));
}

TEST(CompilerTest, EmittersProduceText) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  auto unit = compiler.CompileCypher(
      "MATCH (n:Person) RETURN DISTINCT n.firstName AS name");
  ASSERT_TRUE(unit.ok());
  EXPECT_NE(compiler.EmitSouffle(unit->optimized).find(".decl"),
            std::string::npos);
  auto sql = compiler.EmitSql(unit->optimized);
  ASSERT_TRUE(sql.ok());
  EXPECT_NE(sql->find("SELECT DISTINCT"), std::string::npos);
}

TEST(CompilerTest, RunOnDatalogRequiresSingleOutput) {
  Compiler compiler;
  auto program = compiler.CompileDatalog(R"(
.decl e(x: number)
.input e
.decl a(x: number)
.decl b(x: number)
.output a
.output b
a(x) :- e(x).
b(x) :- e(x).
)");
  ASSERT_TRUE(program.ok());
  Database db;
  RelationSchema s;
  s.name = "e";
  s.columns = {{"x", ValueType::kNumber}};
  (void)db.CreateRelation(s);
  auto result = compiler.RunOnDatalog(*program, &db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// ---- GQL frontend ----

TEST(GqlTest, FilterStatementBecomesWhere) {
  auto query = gql::ParseQuery(
      "MATCH (n:Person)-[:KNOWS]->(m:Person) FILTER n.id = 1 "
      "RETURN DISTINCT m.firstName AS name");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& match = std::get<cypher::MatchClause>(query->clauses[0]);
  ASSERT_TRUE(match.where.has_value());
  EXPECT_EQ(match.where->ToString(), "(n.id = 1)");
}

TEST(GqlTest, FilterConjoinsWithExistingWhere) {
  auto query = gql::ParseQuery(
      "MATCH (n:Person) WHERE n.id > 0 FILTER n.id < 9 "
      "RETURN DISTINCT n.id AS id");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& match = std::get<cypher::MatchClause>(query->clauses[0]);
  EXPECT_EQ(match.where->ToString(), "((n.id > 0) AND (n.id < 9))");
}

TEST(GqlTest, FilterBeforeAnyClauseFails) {
  auto query = gql::ParseQuery("FILTER n.id = 1 RETURN n");
  EXPECT_FALSE(query.ok());
}

TEST(GqlTest, RejectsOutOfRangeLiteral) {
  auto query = gql::ParseQuery(
      "MATCH (n:Person) FILTER n.id = 99999999999999999999 RETURN n.id AS id");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kParseError);
  EXPECT_NE(query.status().message().find("line 1, col 32"), std::string::npos)
      << query.status().ToString();
}

TEST(GqlTest, FilterAfterWithAttachesThere) {
  auto query = gql::ParseQuery(
      "MATCH (n:Person)-[:KNOWS]->(m:Person) "
      "WITH n, count(m) AS friends FILTER friends > 2 "
      "RETURN DISTINCT n.id AS id");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& with = std::get<cypher::WithClause>(query->clauses[1]);
  ASSERT_TRUE(with.where.has_value());
}

TEST(GqlTest, CompilesAndRunsThroughSharedPipeline) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  Database db = SmallDb(&compiler);
  auto unit = compiler.CompileGql(
      "MATCH (n:Person)-[:KNOWS]->(m:Person) FILTER n.id = 1 "
      "RETURN DISTINCT m.firstName AS name");
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  auto result = compiler.RunOnDatalog(unit->optimized, &db);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(\"Bob\")"}));
}

}  // namespace
}  // namespace raqlet
