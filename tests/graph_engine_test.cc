// Tests for the property-graph store and the PGIR traversal engine.

#include <gtest/gtest.h>

#include "cypher/parser.h"
#include "engine/graph/executor.h"
#include "engine/graph/graph_store.h"
#include "pgir/pgir.h"
#include "raqlet/compiler.h"
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

// ---------------------------------------------------------------------------
// The anchor seek: a node pattern that the WHERE right after its MATCH pins
// with `v.id = literal` is looked up, not scanned, and every expansion drops
// a binding whose pinned endpoint differs. Each case runs the pinned query
// in both binding-table modes and checks its rows, in order, against the
// same query with the pin spelled `v.id + 0 = literal`, which cannot seek,
// and its row set against Datalog's; the exact work counters show the seek.
// ---------------------------------------------------------------------------

constexpr char kSeekSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING}),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";

// One graph run: its rows and the work counters it reported.
struct GraphRun {
  std::vector<Tuple> rows;
  GraphStats stats;
  obs::GraphMetrics metrics;

  // The binding-table rows after the first MATCH.
  size_t MatchRows() const {
    return metrics.clauses.empty() ? 0 : metrics.clauses[0].rows_after;
  }
};

class GraphSeekTest : public ::testing::Test {
 protected:
  GraphSeekTest() {
    EXPECT_TRUE(compiler_.LoadPgSchema(kSeekSchema).ok());
    EXPECT_TRUE(compiler_.CreateEdbs(&db_).ok());
  }

  void AddPerson(int64_t id, const std::string& name) {
    Relation* person = *db_.GetRelation("Person");
    EXPECT_TRUE(person->Insert({Value::Number(id), db_.Str(name)}).ok());
  }

  // Adds KNOWS edges in this order (the adjacency lists' order).
  void AddKnows(const std::vector<std::pair<int64_t, int64_t>>& edges) {
    Relation* knows = *db_.GetRelation("Person_KNOWS_Person");
    for (const auto& [src, dst] : edges) {
      EXPECT_TRUE(knows
                      ->Insert({Value::Number(src), Value::Number(dst),
                                Value::Number(static_cast<int64_t>(
                                    100 + knows->size()))})
                      .ok());
    }
  }

  // Persons 1..5 and the KNOWS edges 1->2, 2->3, 3->1 (a cycle), 1->3,
  // 3->4, 1->1 (a self-loop), 4->5 and 4->4 (another self-loop).
  void AddCycleGraph() {
    for (int64_t id = 1; id <= 5; ++id) AddPerson(id, "p" + std::to_string(id));
    AddKnows({{1, 2}, {2, 3}, {3, 1}, {1, 3}, {3, 4}, {1, 1}, {4, 5}, {4, 4}});
  }

  // Runs `cypher` on the graph engine in both modes, which must return the
  // same rows in the same order and report the same work; returns the
  // column-batch run.
  GraphRun RunGraph(const std::string& cypher) {
    auto unit = compiler_.CompileCypher(cypher);
    EXPECT_TRUE(unit.ok()) << unit.status().ToString();
    if (!unit.ok()) return {};
    auto store = compiler_.BuildGraphStore(db_);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    if (!store.ok()) return {};
    GraphRun runs[2];
    const GraphMode modes[2] = {GraphMode::kColumnBatch,
                                GraphMode::kRowBinding};
    for (int m = 0; m < 2; ++m) {
      GraphOptions options;
      options.mode = modes[m];
      obs::QueryMetrics metrics;
      auto result = compiler_.RunOnGraph(unit->pgir, *store, &db_,
                                         &runs[m].stats, options, &metrics);
      EXPECT_TRUE(result.ok()) << result.status().ToString() << ": " << cypher;
      if (result.ok()) runs[m].rows = result->rows;
      runs[m].metrics = metrics.graph;
    }
    EXPECT_EQ(runs[0].rows, runs[1].rows) << cypher;
    EXPECT_EQ(runs[0].stats.rows_expanded, runs[1].stats.rows_expanded);
    EXPECT_EQ(runs[0].stats.bfs_visits, runs[1].stats.bfs_visits);
    EXPECT_EQ(runs[0].stats.closure_cache_misses,
              runs[1].stats.closure_cache_misses);
    EXPECT_EQ(runs[0].MatchRows(), runs[1].MatchRows());
    return runs[0];
  }

  std::set<std::string> Rendered(const std::vector<Tuple>& rows) {
    ResultTable table;
    table.rows = rows;
    return table.ToStringSet(db_.symbols());
  }

  std::set<std::string> RunDatalog(const std::string& cypher) {
    CompileOptions options;
    options.opt_level = 2;
    auto unit = compiler_.CompileCypher(cypher, options);
    EXPECT_TRUE(unit.ok()) << unit.status().ToString();
    if (!unit.ok()) return {};
    auto result = compiler_.RunOnDatalog(unit->optimized, &db_);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << ": " << cypher;
    return result.ok() ? result->ToStringSet(db_.symbols())
                       : std::set<std::string>{};
  }

  // Runs the pinned query and `scan`, the same query whose pin cannot seek:
  // both return the same rows in the same order, and the row set is
  // Datalog's. Returns the pinned run.
  GraphRun ExpectSeekAgrees(const std::string& pinned,
                            const std::string& scan) {
    GraphRun seek = RunGraph(pinned);
    GraphRun full = RunGraph(scan);
    EXPECT_EQ(seek.rows, full.rows) << pinned;
    EXPECT_FALSE(seek.rows.empty()) << pinned;
    EXPECT_EQ(Rendered(seek.rows), RunDatalog(pinned)) << pinned;
    return seek;
  }

  Compiler compiler_;
  Database db_;
};

TEST_F(GraphSeekTest, LoneNode) {
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH (a:Person {id: 3}) RETURN a.id AS id, a.firstName AS name",
      "MATCH (a:Person) WHERE a.id + 0 = 3 "
      "RETURN a.id AS id, a.firstName AS name");
  EXPECT_EQ(run.stats.rows_expanded, 1u);  // a scan binds all 5 persons
  EXPECT_EQ(run.MatchRows(), 1u);
}

TEST_F(GraphSeekTest, ForwardEdge) {
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH (a:Person {id: 1})-[:KNOWS]->(b:Person) "
      "RETURN a.id AS a, b.id AS b",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.id + 0 = 1 "
      "RETURN a.id AS a, b.id AS b");
  EXPECT_EQ(run.rows.size(), 3u);
  EXPECT_EQ(run.stats.rows_expanded, 3u);  // a scan walks all 8 edges
  EXPECT_EQ(run.MatchRows(), 3u);
}

TEST_F(GraphSeekTest, IncomingEdge) {
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH (a:Person {id: 3})<-[:KNOWS]-(b:Person) "
      "RETURN a.id AS a, b.id AS b",
      "MATCH (a:Person)<-[:KNOWS]-(b:Person) WHERE a.id + 0 = 3 "
      "RETURN a.id AS a, b.id AS b");
  EXPECT_EQ(run.stats.rows_expanded, 2u);  // 2->3 and 1->3 of 8 edges
  EXPECT_EQ(run.MatchRows(), 2u);
}

TEST_F(GraphSeekTest, UndirectedEdge) {
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH (a:Person {id: 3})-[:KNOWS]-(b:Person) "
      "RETURN a.id AS a, b.id AS b",
      "MATCH (a:Person)-[:KNOWS]-(b:Person) WHERE a.id + 0 = 3 "
      "RETURN a.id AS a, b.id AS b");
  EXPECT_EQ(run.stats.rows_expanded, 4u);  // a scan walks 14 edge ends
  EXPECT_EQ(run.MatchRows(), 4u);
}

TEST_F(GraphSeekTest, BoundedVariableLength) {
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH (a:Person {id: 2})-[:KNOWS*1..3]->(b:Person) "
      "RETURN a.id AS a, b.id AS b",
      "MATCH (a:Person)-[:KNOWS*1..3]->(b:Person) WHERE a.id + 0 = 2 "
      "RETURN a.id AS a, b.id AS b");
  // 2 reaches 3 in one hop, 1 and 4 in two, and 2, 5 and 4 in three.
  EXPECT_EQ(run.stats.rows_expanded, 5u);
  EXPECT_EQ(run.MatchRows(), 5u);
}

TEST_F(GraphSeekTest, UnboundedVariableLengthBuildsOneClosure) {
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH (a:Person {id: 2})-[:KNOWS*]->(b:Person) "
      "RETURN a.id AS a, b.id AS b",
      "MATCH (a:Person)-[:KNOWS*]->(b:Person) WHERE a.id + 0 = 2 "
      "RETURN a.id AS a, b.id AS b");
  // On the 1-2-3 cycle 2 reaches every person, itself included. A scan
  // builds one closure per person; the seek builds the pinned one only.
  EXPECT_EQ(run.stats.rows_expanded, 5u);
  EXPECT_EQ(run.MatchRows(), 5u);
  EXPECT_EQ(run.stats.closure_cache_misses, 1u);
  EXPECT_EQ(run.metrics.closure_cache_misses, 1u);
}

TEST_F(GraphSeekTest, ShortestPath) {
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH p = shortestPath((a:Person {id: 2})-[:KNOWS*]->(b:Person)) "
      "RETURN b.id AS b, length(p) AS len",
      "MATCH p = shortestPath((a:Person)-[:KNOWS*]->(b:Person)) "
      "WHERE a.id + 0 = 2 RETURN b.id AS b, length(p) AS len");
  EXPECT_EQ(run.stats.rows_expanded, 5u);
  EXPECT_EQ(run.MatchRows(), 5u);
}

TEST_F(GraphSeekTest, PinnedDestinationWithUnboundSource) {
  // Walking backwards from the pinned end is left out (it would change
  // the row order), so every source is still walked; only the bindings
  // that end at 3 are emitted.
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH (a:Person)-[:KNOWS]->(b:Person {id: 3}) "
      "RETURN a.id AS a, b.id AS b",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE b.id + 0 = 3 "
      "RETURN a.id AS a, b.id AS b");
  EXPECT_EQ(run.stats.rows_expanded, 2u);
  EXPECT_EQ(run.MatchRows(), 2u);
}

TEST_F(GraphSeekTest, PinOnANodeAnEarlierMatchBound) {
  AddCycleGraph();
  // The edge expander drops the bound rows whose source differs.
  GraphRun walk = ExpectSeekAgrees(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "MATCH (b)-[:KNOWS]->(c:Person) WHERE b.id = 3 "
      "RETURN a.id AS a, c.id AS c",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "MATCH (b)-[:KNOWS]->(c:Person) WHERE b.id + 0 = 3 "
      "RETURN a.id AS a, c.id AS c");
  // 8 first-MATCH bindings, then 3's two out-edges from each of 2->3 and
  // 1->3.
  EXPECT_EQ(walk.stats.rows_expanded, 12u);
  ASSERT_EQ(walk.metrics.clauses.size(), 4u);
  EXPECT_EQ(walk.metrics.clauses[1].rows_after, 4u);
  // A lone bound node pattern filters its rows by the pin.
  GraphRun node = ExpectSeekAgrees(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) MATCH (b) WHERE b.id = 3 "
      "RETURN a.id AS a, b.id AS b",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) MATCH (b) WHERE b.id + 0 = 3 "
      "RETURN a.id AS a, b.id AS b");
  ASSERT_EQ(node.metrics.clauses.size(), 4u);
  EXPECT_EQ(node.metrics.clauses[1].rows_after, 2u);
}

TEST_F(GraphSeekTest, SelfLoop) {
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH (a:Person {id: 1})-[:KNOWS]->(a:Person) RETURN a.id AS a",
      "MATCH (a:Person)-[:KNOWS]->(a:Person) WHERE a.id + 0 = 1 "
      "RETURN a.id AS a");
  EXPECT_EQ(run.stats.rows_expanded, 1u);  // a scan also binds 4->4
  EXPECT_EQ(run.MatchRows(), 1u);
}

TEST_F(GraphSeekTest, LiteralOnTheLeftPins) {
  AddCycleGraph();
  GraphRun run = ExpectSeekAgrees(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE 1 = a.id AND b.id > 1 "
      "RETURN a.id AS a, b.id AS b",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE 1 = a.id + 0 AND b.id > 1 "
      "RETURN a.id AS a, b.id AS b");
  EXPECT_EQ(run.stats.rows_expanded, 3u);
  EXPECT_EQ(run.rows.size(), 2u);
}

TEST_F(GraphSeekTest, NonNumberLiteralsAndContradictoryPinsMatchNothing) {
  // The WHERE compares with `=`, which no Float, string or NULL equals a
  // node id with, so these pins admit no node and nothing is expanded.
  AddCycleGraph();
  for (const std::string where :
       {"a.id = 1.0", "a.id = \"1\"", "a.id = NULL", "a.id = 1 AND a.id = 2",
        "a.id = 1 AND b.id = 2 AND a.id = 3"}) {
    const std::string pinned =
        "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE " + where +
        " RETURN a.id AS a, b.id AS b";
    GraphRun run = RunGraph(pinned);
    EXPECT_TRUE(run.rows.empty()) << where;
    EXPECT_EQ(run.stats.rows_expanded, 0u) << where;
    EXPECT_EQ(run.MatchRows(), 0u) << where;
  }
}

TEST_F(GraphSeekTest, DisjunctionDoesNotSeek) {
  AddCycleGraph();
  const std::string query =
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.id = 1 OR a.id = 2 "
      "RETURN a.id AS a, b.id AS b";
  GraphRun run = RunGraph(query);
  EXPECT_EQ(run.stats.rows_expanded, 8u);  // every edge, as a scan
  EXPECT_EQ(run.MatchRows(), 8u);
  EXPECT_EQ(run.rows.size(), 4u);
  EXPECT_EQ(Rendered(run.rows), RunDatalog(query));
}

TEST_F(GraphSeekTest, RepeatedNodeIdIsBoundOncePerRow) {
  // Two Person rows hold id 2. A scan binds 2 once per row, and so does
  // the seek.
  AddPerson(1, "Ada");
  AddPerson(2, "Bob");
  AddPerson(2, "Bea");
  AddPerson(3, "Cyd");
  AddKnows({{1, 2}, {2, 3}});
  GraphRun node = ExpectSeekAgrees(
      "MATCH (a:Person {id: 2}) RETURN a.id AS a",
      "MATCH (a:Person) WHERE a.id + 0 = 2 RETURN a.id AS a");
  EXPECT_EQ(node.MatchRows(), 2u);
  EXPECT_EQ(node.rows.size(), 2u);
  GraphRun edge = ExpectSeekAgrees(
      "MATCH (a:Person {id: 2})-[:KNOWS]->(b:Person) "
      "RETURN a.id AS a, b.id AS b",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.id + 0 = 2 "
      "RETURN a.id AS a, b.id AS b");
  EXPECT_EQ(edge.stats.rows_expanded, 2u);
  EXPECT_EQ(edge.MatchRows(), 2u);
}

}  // namespace
}  // namespace raqlet::engine
