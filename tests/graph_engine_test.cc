// Tests for the property-graph store and the PGIR traversal engine.

#include <gtest/gtest.h>

#include "cypher/parser.h"
#include "engine/graph/executor.h"
#include "engine/graph/graph_store.h"
#include "pgir/pgir.h"
#include "schema/dl_schema.h"
#include "schema/pg_schema.h"

namespace raqlet::engine {
namespace {

constexpr char kSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING}),
  (cityType: City {id INT, name STRING}),
  (:personType)-[locationType: isLocatedIn {id INT}]->(:cityType),
  (:personType)-[knowsType: knows {id INT, since INT}]->(:personType)
}
)";

struct Fixture {
  schema::DlSchema dl;
  Database db;

  Fixture() {
    auto pg = schema::ParsePgSchema(kSchema);
    EXPECT_TRUE(pg.ok());
    dl = schema::TranslateSchema(*pg);
    EXPECT_TRUE(schema::CreateEdbRelations(dl, &db).ok());
    Relation* person = *db.GetRelation("Person");
    person->Insert({Value::Number(1), db.Str("Ada")});
    person->Insert({Value::Number(2), db.Str("Bob")});
    person->Insert({Value::Number(3), db.Str("Cyd")});
    person->Insert({Value::Number(4), db.Str("Dan")});
    Relation* city = *db.GetRelation("City");
    city->Insert({Value::Number(100), db.Str("Edinburgh")});
    Relation* located = *db.GetRelation("Person_IS_LOCATED_IN_City");
    located->Insert({Value::Number(1), Value::Number(100), Value::Number(50)});
    Relation* knows = *db.GetRelation("Person_KNOWS_Person");
    // Chain 1 -> 2 -> 3 -> 4 plus shortcut 1 -> 3.
    knows->Insert({Value::Number(1), Value::Number(2), Value::Number(60),
                   Value::Number(2010)});
    knows->Insert({Value::Number(2), Value::Number(3), Value::Number(61),
                   Value::Number(2012)});
    knows->Insert({Value::Number(3), Value::Number(4), Value::Number(62),
                   Value::Number(2014)});
    knows->Insert({Value::Number(1), Value::Number(3), Value::Number(63),
                   Value::Number(2016)});
  }
};

pgir::PgirQuery Lower(const std::string& text) {
  auto ast = cypher::ParseQuery(text);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  auto pgir = pgir::LowerCypher(*ast);
  EXPECT_TRUE(pgir.ok()) << pgir.status().ToString();
  return std::move(pgir).value();
}

TEST(GraphDistinctTest, KeepsSignedZerosApartInBothModes) {
  // RETURN DISTINCT dedups rows the way relations do, by bits: 0.0 and
  // -0.0 stay two rows in the column-batch and the row-binding mode.
  auto pg = schema::ParsePgSchema(R"(
CREATE GRAPH {
  (personType: Person {id INT, score FLOAT})
}
)");
  ASSERT_TRUE(pg.ok()) << pg.status().ToString();
  schema::DlSchema dl = schema::TranslateSchema(*pg);
  Database db;
  ASSERT_TRUE(schema::CreateEdbRelations(dl, &db).ok());
  Relation* person = *db.GetRelation("Person");
  ASSERT_TRUE(person->Insert({Value::Number(1), Value::Float(0.0)}).ok());
  ASSERT_TRUE(person->Insert({Value::Number(2), Value::Float(-0.0)}).ok());
  ASSERT_TRUE(person->Insert({Value::Number(3), Value::Float(0.0)}).ok());
  auto store = GraphStore::Build(dl, db);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto query = Lower("MATCH (p:Person) RETURN DISTINCT p.score AS s");
  for (GraphMode mode : {GraphMode::kColumnBatch, GraphMode::kRowBinding}) {
    GraphOptions options;
    options.mode = mode;
    GraphEngine engine(&*store, &dl, &db, options);
    auto result = engine.Run(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 2u)
        << (mode == GraphMode::kRowBinding ? "row binding" : "column batch");
    EXPECT_NE(result->rows[0][0].RawBits(), result->rows[1][0].RawBits());
  }
}

TEST(GraphDistinctTest, ReturnDistinctComparesReturnedColumnsOnly) {
  // Two KNOWS edges share the id value 60. RETURN DISTINCT of the edge
  // returns its id once, as Datalog does: the edge's hidden row column
  // is not part of what RETURN compares.
  Fixture f;
  Relation* knows = *f.db.GetRelation("Person_KNOWS_Person");
  ASSERT_TRUE(knows->Insert({Value::Number(2), Value::Number(4),
                             Value::Number(60), Value::Number(2018)})
                  .ok());
  auto store = GraphStore::Build(f.dl, f.db);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  auto query =
      Lower("MATCH (a:Person)-[r:KNOWS]->(b:Person) RETURN DISTINCT r AS e");
  for (GraphMode mode : {GraphMode::kColumnBatch, GraphMode::kRowBinding}) {
    GraphOptions options;
    options.mode = mode;
    GraphEngine engine(&*store, &f.dl, &f.db, options);
    auto result = engine.Run(query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->columns, std::vector<std::string>{"e"});
    EXPECT_EQ(result->rows.size(), 4u)
        << (mode == GraphMode::kRowBinding ? "row binding" : "column batch");
  }
}

TEST(GraphStoreTest, BuildsAdjacency) {
  Fixture f;
  auto store = GraphStore::Build(f.dl, f.db);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ(store->NodeCount(), 5u);  // 4 persons + 1 city
  EXPECT_EQ(store->EdgeCount(), 5u);
  EXPECT_EQ(store->OutNeighbors("KNOWS", 1).size(), 2u);
  EXPECT_EQ(store->InNeighbors("KNOWS", 3).size(), 2u);
  EXPECT_TRUE(store->OutNeighbors("KNOWS", 4).empty());
  EXPECT_TRUE(store->HasLabel("Person", 2));
  EXPECT_FALSE(store->HasLabel("City", 2));
}

TEST(GraphStoreTest, PropertyLookup) {
  Fixture f;
  auto store = GraphStore::Build(f.dl, f.db);
  ASSERT_TRUE(store.ok());
  auto name = store->NodeProperty("Person", 1, "firstName");
  ASSERT_TRUE(name.ok());
  EXPECT_EQ(*name, f.db.Str("Ada"));
  EXPECT_FALSE(store->NodeProperty("Person", 99, "firstName").ok());
  EXPECT_FALSE(store->NodeProperty("Person", 1, "ghost").ok());
  auto since = store->EdgeProperty("KNOWS", 0, "since");
  ASSERT_TRUE(since.ok());
  EXPECT_EQ(since->AsNumber(), 2010);
}

class GraphEngineTest : public ::testing::Test {
 protected:
  GraphEngineTest() : store_(*GraphStore::Build(f_.dl, f_.db)) {}

  std::set<std::string> Run(const std::string& cypher) {
    GraphEngine eng(&store_, &f_.dl, &f_.db);
    auto result = eng.Run(Lower(cypher));
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return {};
    return result->ToStringSet(f_.db.symbols());
  }

  Fixture f_;
  GraphStore store_;
};

TEST_F(GraphEngineTest, PaperSq1) {
  EXPECT_EQ(Run("MATCH (n:Person {id: 1})-[:IS_LOCATED_IN]->(p:City) "
                "RETURN DISTINCT n.firstName AS firstName, p.id AS cityId"),
            (std::set<std::string>{"(\"Ada\", 100)"}));
}

TEST_F(GraphEngineTest, ExpandOutgoing) {
  EXPECT_EQ(Run("MATCH (a:Person {id: 1})-[:KNOWS]->(b:Person) "
                "RETURN DISTINCT b.id AS id"),
            (std::set<std::string>{"(2)", "(3)"}));
}

TEST_F(GraphEngineTest, ExpandIncoming) {
  EXPECT_EQ(Run("MATCH (a:Person)<-[:KNOWS]-(b:Person) WHERE a.id = 3 "
                "RETURN DISTINCT b.id AS id"),
            (std::set<std::string>{"(1)", "(2)"}));
}

TEST_F(GraphEngineTest, ExpandUndirected) {
  EXPECT_EQ(Run("MATCH (a:Person {id: 3})-[:KNOWS]-(b:Person) "
                "RETURN DISTINCT b.id AS id"),
            (std::set<std::string>{"(1)", "(2)", "(4)"}));
}

TEST_F(GraphEngineTest, EdgePropertyAccess) {
  EXPECT_EQ(Run("MATCH (a:Person)-[k:KNOWS]->(b:Person) WHERE k.since > 2011 "
                "RETURN DISTINCT b.id AS id"),
            (std::set<std::string>{"(3)", "(4)"}));
}

TEST_F(GraphEngineTest, VariableLengthBounded) {
  EXPECT_EQ(Run("MATCH (a:Person {id: 1})-[:KNOWS*2..3]->(b:Person) "
                "RETURN DISTINCT b.id AS id"),
            (std::set<std::string>{"(3)", "(4)"}));
}

TEST_F(GraphEngineTest, VariableLengthUnbounded) {
  EXPECT_EQ(Run("MATCH (a:Person {id: 2})-[:KNOWS*]->(b:Person) "
                "RETURN DISTINCT b.id AS id"),
            (std::set<std::string>{"(3)", "(4)"}));
}

TEST_F(GraphEngineTest, ShortestPathLength) {
  EXPECT_EQ(Run("MATCH p = shortestPath((a:Person {id: 1})-[:KNOWS*]->("
                "b:Person {id: 4})) RETURN DISTINCT length(p) AS len"),
            (std::set<std::string>{"(2)"}));  // 1 -> 3 -> 4
}

TEST_F(GraphEngineTest, WhereWithBooleans) {
  EXPECT_EQ(Run("MATCH (a:Person) WHERE a.id > 1 AND NOT a.firstName = "
                "\"Cyd\" RETURN DISTINCT a.id AS id"),
            (std::set<std::string>{"(2)", "(4)"}));
}

TEST_F(GraphEngineTest, WithAggregation) {
  EXPECT_EQ(Run("MATCH (a:Person)-[:KNOWS]->(b:Person) "
                "WITH a, count(b) AS friends "
                "RETURN DISTINCT a.id AS id, friends"),
            (std::set<std::string>{"(1, 2)", "(2, 1)", "(3, 1)"}));
}

TEST_F(GraphEngineTest, MultiClauseChain) {
  EXPECT_EQ(Run("MATCH (a:Person {id: 1})-[:KNOWS]->(b:Person) "
                "MATCH (b)-[:KNOWS]->(c:Person) "
                "RETURN DISTINCT c.id AS id"),
            (std::set<std::string>{"(3)", "(4)"}));
}

TEST_F(GraphEngineTest, LoneNodeScan) {
  EXPECT_EQ(Run("MATCH (a:Person) RETURN DISTINCT a.id AS id"),
            (std::set<std::string>{"(1)", "(2)", "(3)", "(4)"}));
}

TEST_F(GraphEngineTest, UnknownEdgeTypeFails) {
  GraphEngine eng(&store_, &f_.dl, &f_.db);
  auto result = eng.Run(Lower("MATCH (a:Person)-[:GHOST]->(b:Person) "
                              "RETURN DISTINCT a.id AS id"));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace raqlet::engine
