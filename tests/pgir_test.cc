// Tests for Cypher -> PGIR lowering (Fig. 3a -> 3b) and the PGIR -> DLIR
// translation (Fig. 3b -> 3c), including end-to-end execution of the
// paper's running example on the Datalog engine.

#include <gtest/gtest.h>

#include "analysis/typecheck.h"
#include "cypher/parser.h"
#include "engine/datalog/engine.h"
#include "pgir/pgir.h"
#include "pgir/pgir_to_dlir.h"
#include "schema/dl_schema.h"
#include "schema/pg_schema.h"

namespace raqlet::pgir {
namespace {

constexpr char kPaperSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING, locationIP STRING}),
  (cityType: City {id INT, name STRING}),
  (:personType)-[locationType: isLocatedIn {id INT}]->(:cityType),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";

constexpr char kSq1[] = R"(
MATCH (n:Person {id: 42})-[:IS_LOCATED_IN]->(p:City)
RETURN DISTINCT n.firstName AS firstName, p.id AS cityId
)";

schema::DlSchema PaperDlSchema() {
  auto pg = schema::ParsePgSchema(kPaperSchema);
  EXPECT_TRUE(pg.ok()) << pg.status().ToString();
  return schema::TranslateSchema(*pg);
}

PgirQuery Lower(const std::string& text, LowerOptions options = {}) {
  auto query = cypher::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  auto pgir = LowerCypher(*query, options);
  EXPECT_TRUE(pgir.ok()) << pgir.status().ToString();
  return std::move(pgir).value();
}

TEST(LowerCypherTest, Sq1HasMatchWhereReturn) {
  PgirQuery pgir = Lower(kSq1);
  ASSERT_EQ(pgir.ops.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<MatchOp>(pgir.ops[0]));
  EXPECT_TRUE(std::holds_alternative<WhereOp>(pgir.ops[1]));
  EXPECT_TRUE(std::holds_alternative<ReturnOp>(pgir.ops[2]));

  const auto& match = std::get<MatchOp>(pgir.ops[0]);
  ASSERT_EQ(match.edges.size(), 1u);
  // Anonymous edge gets the compiler id x1 (paper Fig. 3b).
  EXPECT_EQ(match.edges[0].id, "x1");
  EXPECT_EQ(match.edges[0].label, "IS_LOCATED_IN");
  EXPECT_EQ(match.edges[0].src.id, "n");
  EXPECT_EQ(match.edges[0].dst.id, "p");

  // {id: 42} was extracted into WHERE as n.id = 42.
  const auto& where = std::get<WhereOp>(pgir.ops[1]);
  EXPECT_EQ(where.predicate.ToString(), "(n.id = 42)");
}

TEST(LowerCypherTest, OrderByDroppedWithWarning) {
  PgirQuery pgir = Lower(
      "MATCH (n:Person) RETURN DISTINCT n.firstName AS f ORDER BY f LIMIT 3");
  bool warned_order = false;
  bool warned_limit = false;
  for (const std::string& w : pgir.warnings) {
    if (w.find("ORDER BY") != std::string::npos) warned_order = true;
    if (w.find("LIMIT") != std::string::npos) warned_limit = true;
  }
  EXPECT_TRUE(warned_order);
  EXPECT_TRUE(warned_limit);
}

TEST(LowerCypherTest, BagSemanticsWarning) {
  PgirQuery pgir = Lower("MATCH (n:Person) RETURN n.firstName AS f");
  bool warned = false;
  for (const std::string& w : pgir.warnings) {
    if (w.find("set semantics") != std::string::npos) warned = true;
  }
  EXPECT_TRUE(warned);
}

TEST(LowerCypherTest, ParameterSubstitution) {
  LowerOptions options;
  options.parameters["personId"] = dlir::Constant::Number(7);
  PgirQuery pgir =
      Lower("MATCH (n:Person {id: $personId}) RETURN DISTINCT n.firstName AS f",
            options);
  const auto& where = std::get<WhereOp>(pgir.ops[1]);
  EXPECT_EQ(where.predicate.ToString(), "(n.id = 7)");
}

TEST(LowerCypherTest, MissingParameterFails) {
  auto query = cypher::ParseQuery("MATCH (n:Person {id: $missing}) RETURN n");
  ASSERT_TRUE(query.ok());
  auto pgir = LowerCypher(*query);
  ASSERT_FALSE(pgir.ok());
  EXPECT_NE(pgir.status().message().find("$missing"), std::string::npos);
}

TEST(LowerCypherTest, AliasesAreUnique) {
  PgirQuery pgir = Lower(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "RETURN DISTINCT a.firstName, b.firstName");
  const auto& ret = std::get<ReturnOp>(pgir.ops.back());
  ASSERT_EQ(ret.items.size(), 2u);
  EXPECT_EQ(ret.items[0].alias, "firstName");
  EXPECT_EQ(ret.items[1].alias, "firstName_2");
}

// ---------------------------------------------------------------------------
// PGIR -> DLIR
// ---------------------------------------------------------------------------

dlir::Program Translate(const std::string& text,
                        const schema::DlSchema& dl) {
  PgirQuery pgir = Lower(text);
  auto program = TranslateToDlir(pgir, dl);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

TEST(TranslateTest, Sq1ProducesPaperRuleChain) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(kSq1, dl);

  // Match1, Where1, Return (Fig. 3c).
  std::vector<std::string> heads;
  for (const dlir::Rule& rule : program.rules) {
    heads.push_back(rule.head.predicate);
  }
  EXPECT_EQ(heads,
            (std::vector<std::string>{"Match1", "Where1", "Return"}));

  // Match1 body: edge EDB with (n, p, x1) plus Person and City atoms.
  const dlir::Rule& match = program.rules[0];
  ASSERT_EQ(match.body.size(), 3u);
  const dlir::Atom* edge_atom = nullptr;
  bool has_person = false;
  bool has_city = false;
  for (const dlir::Atom& atom : match.body) {
    if (atom.predicate == "Person_IS_LOCATED_IN_City") edge_atom = &atom;
    if (atom.predicate == "Person") has_person = true;
    if (atom.predicate == "City") has_city = true;
  }
  EXPECT_TRUE(has_person);
  EXPECT_TRUE(has_city);
  ASSERT_NE(edge_atom, nullptr);
  EXPECT_EQ(edge_atom->args[0].var, "n");
  EXPECT_EQ(edge_atom->args[1].var, "p");
  EXPECT_EQ(edge_atom->args[2].var, "x1");

  // Where1: n = 42 constraint.
  const dlir::Rule& where = program.rules[1];
  ASSERT_EQ(where.constraints.size(), 1u);
  EXPECT_EQ(where.constraints[0].ToString(), "n = 42");

  // Return: output decl with the right column names.
  const dlir::RelationDecl* ret = program.FindDecl("Return");
  ASSERT_NE(ret, nullptr);
  EXPECT_TRUE(ret->is_output);
  ASSERT_EQ(ret->columns.size(), 2u);
  EXPECT_EQ(ret->columns[0].name, "firstName");
  EXPECT_EQ(ret->columns[0].type, ValueType::kSymbol);
  EXPECT_EQ(ret->columns[1].name, "cityId");

  EXPECT_TRUE(analysis::VerifyStructure(program).ok())
      << analysis::VerifyStructure(program).ToString();
}

Database PaperDb(const schema::DlSchema& dl) {
  Database db;
  EXPECT_TRUE(schema::CreateEdbRelations(dl, &db).ok());
  Relation* person = *db.GetRelation("Person");
  person->Insert({Value::Number(42), db.Str("Ada"), db.Str("10.0.0.1")});
  person->Insert({Value::Number(7), db.Str("Bob"), db.Str("10.0.0.2")});
  person->Insert({Value::Number(8), db.Str("Eve"), db.Str("10.0.0.3")});
  Relation* city = *db.GetRelation("City");
  city->Insert({Value::Number(100), db.Str("Edinburgh")});
  city->Insert({Value::Number(200), db.Str("Lausanne")});
  Relation* located = *db.GetRelation("Person_IS_LOCATED_IN_City");
  located->Insert({Value::Number(42), Value::Number(100), Value::Number(1)});
  located->Insert({Value::Number(7), Value::Number(200), Value::Number(2)});
  Relation* knows = *db.GetRelation("Person_KNOWS_Person");
  knows->Insert({Value::Number(42), Value::Number(7), Value::Number(10)});
  knows->Insert({Value::Number(7), Value::Number(8), Value::Number(11)});
  return db;
}

std::set<std::string> Results(const Database& db,
                              const std::string& rel = "Return") {
  std::set<std::string> out;
  for (const Tuple& row : (*db.GetRelation(rel))->MaterializeRows()) {
    out.insert(TupleToString(row, &db.symbols()));
  }
  return out;
}

TEST(TranslateTest, Sq1ExecutesEndToEnd) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(kSq1, dl);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  Status st = eng.Run(program, &db);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << program.ToString();
  EXPECT_EQ(Results(db), (std::set<std::string>{"(\"Ada\", 100)"}));
}

TEST(TranslateTest, IncomingEdgeSwapsEndpoints) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(
      "MATCH (c:City)<-[:IS_LOCATED_IN]-(n:Person) "
      "RETURN DISTINCT c.name AS city", dl);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &db).ok());
  EXPECT_EQ(Results(db),
            (std::set<std::string>{"(\"Edinburgh\")", "(\"Lausanne\")"}));
}

TEST(TranslateTest, UndirectedEdgeMatchesBothWays) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(
      "MATCH (a:Person {id: 7})-[:KNOWS]-(b:Person) "
      "RETURN DISTINCT b.firstName AS name", dl);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  Status st = eng.Run(program, &db);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << program.ToString();
  // 7 knows 8 (outgoing) and 42 knows 7 (incoming): both match.
  EXPECT_EQ(Results(db),
            (std::set<std::string>{"(\"Ada\")", "(\"Eve\")"}));
}

TEST(TranslateTest, VariableLengthPath) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(
      "MATCH (a:Person {id: 42})-[:KNOWS*1..2]->(b:Person) "
      "RETURN DISTINCT b.firstName AS name", dl);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  Status st = eng.Run(program, &db);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << program.ToString();
  EXPECT_EQ(Results(db),
            (std::set<std::string>{"(\"Bob\")", "(\"Eve\")"}));
}

TEST(TranslateTest, UnboundedVariableLengthIsReachability) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(
      "MATCH (a:Person {id: 42})-[:KNOWS*]->(b:Person) "
      "RETURN DISTINCT b.id AS id", dl);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &db).ok());
  EXPECT_EQ(Results(db), (std::set<std::string>{"(7)", "(8)"}));
}

TEST(TranslateTest, ShortestPathUsesLattice) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(
      "MATCH p = shortestPath((a:Person {id: 42})-[:KNOWS*]->(b:Person "
      "{id: 8})) RETURN DISTINCT length(p) AS len", dl);
  bool has_lattice = false;
  for (const dlir::RelationDecl& decl : program.decls) {
    if (decl.lattice == dlir::LatticeKind::kMin) has_lattice = true;
  }
  EXPECT_TRUE(has_lattice);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  Status st = eng.Run(program, &db);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << program.ToString();
  EXPECT_EQ(Results(db), (std::set<std::string>{"(2)"}));
}

TEST(TranslateTest, WhereWithOrSplitsIntoTwoRules) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(
      "MATCH (n:Person) WHERE n.id = 7 OR n.firstName = \"Ada\" "
      "RETURN DISTINCT n.id AS id", dl);
  int where_rules = 0;
  for (const dlir::Rule& rule : program.rules) {
    if (rule.head.predicate == "Where1") ++where_rules;
  }
  EXPECT_EQ(where_rules, 2);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &db).ok());
  EXPECT_EQ(Results(db), (std::set<std::string>{"(7)", "(42)"}));
}

TEST(TranslateTest, NotPushesThroughDeMorgan) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(
      "MATCH (n:Person) WHERE NOT (n.id = 7 OR n.id = 8) "
      "RETURN DISTINCT n.id AS id", dl);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &db).ok());
  EXPECT_EQ(Results(db), (std::set<std::string>{"(42)"}));
}

TEST(TranslateTest, WithAggregationCountsFriends) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(
      "MATCH (n:Person)-[:KNOWS]->(m:Person) "
      "WITH n, count(m) AS friends "
      "RETURN DISTINCT n, friends", dl);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  Status st = eng.Run(program, &db);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << program.ToString();
  EXPECT_EQ(Results(db), (std::set<std::string>{"(42, 1)", "(7, 1)"}));
}

TEST(TranslateTest, UnknownLabelFails) {
  schema::DlSchema dl = PaperDlSchema();
  PgirQuery pgir = Lower("MATCH (n:Ghost) RETURN DISTINCT n.id AS id");
  auto program = TranslateToDlir(pgir, dl);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kNotFound);
}

TEST(TranslateTest, UnknownEdgeTypeFails) {
  schema::DlSchema dl = PaperDlSchema();
  PgirQuery pgir =
      Lower("MATCH (n:Person)-[:GHOST]->(m:Person) RETURN DISTINCT n");
  EXPECT_FALSE(TranslateToDlir(pgir, dl).ok());
}

TEST(TranslateTest, UnlabeledNewNodeFails) {
  schema::DlSchema dl = PaperDlSchema();
  PgirQuery pgir = Lower("MATCH (n) RETURN DISTINCT n");
  auto program = TranslateToDlir(pgir, dl);
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kUnsupported);
}

TEST(TranslateTest, MultiClauseMatchChains) {
  schema::DlSchema dl = PaperDlSchema();
  dlir::Program program = Translate(
      "MATCH (a:Person {id: 42})-[:KNOWS]->(b:Person) "
      "MATCH (b)-[:KNOWS]->(c:Person) "
      "RETURN DISTINCT c.firstName AS name", dl);
  // Two Match rules, chained through the frontier.
  EXPECT_NE(program.FindDecl("Match1"), nullptr);
  EXPECT_NE(program.FindDecl("Match2"), nullptr);
  Database db = PaperDb(dl);
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &db).ok());
  EXPECT_EQ(Results(db), (std::set<std::string>{"(\"Eve\")"}));
}

}  // namespace
}  // namespace raqlet::pgir
