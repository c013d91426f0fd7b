// Cross-paradigm differential tests (docs/architecture.md, "The
// determinism invariant"): the same Cypher query, compiled through
// Raqlet, must produce identical result sets on the graph engine (PGIR
// traversal), the Datalog engine (semi-naive bottom-up) and the SQL
// engine (CTE materialization, both modes) — and the optimization
// pipeline must not change any of them. This is the
// machine-checkable core of the paper's "golden reference" claim (§6).

#include <gtest/gtest.h>

#include <random>

#include "obs/trace.h"
#include "raqlet/compiler.h"

namespace raqlet {
namespace {

constexpr char kSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING, age INT}),
  (cityType: City {id INT, name STRING}),
  (:personType)-[locationType: isLocatedIn {id INT}]->(:cityType),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";

// Deterministic random social graph.
void FillDb(Database* db, int persons, int cities, int knows_edges,
            unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> person(1, persons);
  std::uniform_int_distribution<int> city(1, cities);
  std::uniform_int_distribution<int> age(18, 80);

  Relation* person_rel = *db->GetRelation("Person");
  for (int i = 1; i <= persons; ++i) {
    person_rel->Insert({Value::Number(i),
                        db->Str("p" + std::to_string(i % 7)),
                        Value::Number(age(rng))});
  }
  Relation* city_rel = *db->GetRelation("City");
  for (int i = 1; i <= cities; ++i) {
    city_rel->Insert(
        {Value::Number(1000 + i), db->Str("c" + std::to_string(i))});
  }
  Relation* located = *db->GetRelation("Person_IS_LOCATED_IN_City");
  int edge_id = 0;
  for (int i = 1; i <= persons; ++i) {
    located->Insert({Value::Number(i), Value::Number(1000 + city(rng)),
                     Value::Number(++edge_id)});
  }
  Relation* knows = *db->GetRelation("Person_KNOWS_Person");
  for (int i = 0; i < knows_edges; ++i) {
    int a = person(rng);
    int b = person(rng);
    if (a == b) continue;
    knows->Insert({Value::Number(a), Value::Number(b),
                   Value::Number(++edge_id)});
  }
}

// The graph engine's work counters (GraphStats and GraphMetrics), which
// both binding-table modes must report identically.
std::string GraphCounters(const engine::GraphStats& stats,
                          const obs::GraphMetrics& metrics) {
  std::string out = "rows_expanded=" + std::to_string(stats.rows_expanded) +
                    " bfs_visits=" + std::to_string(stats.bfs_visits) +
                    " closure_hits=" +
                    std::to_string(stats.closure_cache_hits) + "/" +
                    std::to_string(metrics.closure_cache_hits) +
                    " closure_misses=" +
                    std::to_string(stats.closure_cache_misses) + "/" +
                    std::to_string(metrics.closure_cache_misses) +
                    " frontier_peak=" + std::to_string(metrics.frontier_peak);
  for (const obs::GraphClauseMetrics& clause : metrics.clauses) {
    out += " " + clause.kind + "=" + std::to_string(clause.rows_after);
  }
  return out;
}

struct EngineRuns {
  std::set<std::string> graph;
  std::set<std::string> datalog_unopt;
  std::set<std::string> datalog_opt;
  std::set<std::string> sql_vectorized;
  std::set<std::string> sql_pipeline;
};

class CrossEngineTest : public ::testing::TestWithParam<int> {
 protected:
  // Compiles `query` and runs it on every engine/configuration. SQL runs
  // are skipped (left empty, flagged) when the backend rejects the query
  // class; everything else must agree.
  //
  // Determinism invariants asserted inside (exact rows, exact order):
  //  * graph column-batch executor == graph row-binding interpreter, work
  //    counters included
  //  * Datalog at 1 thread == Datalog at 4 threads
  EngineRuns RunEverywhere(const std::string& query, bool* sql_supported) {
    Compiler compiler;
    EXPECT_TRUE(compiler.LoadPgSchema(kSchema).ok());
    Database db;
    EXPECT_TRUE(compiler.CreateEdbs(&db).ok());
    FillDb(&db, 30, 4, 60, static_cast<unsigned>(GetParam()) * 77 + 5);

    CompileOptions options;
    options.opt_level = 0;
    auto unit = compiler.CompileCypher(query, options);
    EXPECT_TRUE(unit.ok()) << unit.status().ToString();

    auto optimized = compiler.Optimize(unit->dlir, 2);
    EXPECT_TRUE(optimized.ok()) << optimized.status().ToString();

    EngineRuns runs;
    // Graph engine: the column-batch executor must be bit-identical —
    // same rows, same order, same work counters — to the per-binding row
    // interpreter.
    auto store = compiler.BuildGraphStore(db);
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    engine::GraphStats batch_stats;
    obs::QueryMetrics batch_metrics;
    auto graph = compiler.RunOnGraph(unit->pgir, *store, &db, &batch_stats,
                                     {}, &batch_metrics);
    EXPECT_TRUE(graph.ok()) << graph.status().ToString();
    if (graph.ok()) runs.graph = graph->ToStringSet(db.symbols());
    engine::GraphOptions row_mode;
    row_mode.mode = engine::GraphMode::kRowBinding;
    engine::GraphStats row_stats;
    obs::QueryMetrics row_metrics;
    auto graph_rows = compiler.RunOnGraph(unit->pgir, *store, &db, &row_stats,
                                          row_mode, &row_metrics);
    EXPECT_TRUE(graph_rows.ok()) << graph_rows.status().ToString();
    if (graph.ok() && graph_rows.ok()) {
      EXPECT_EQ(graph->columns, graph_rows->columns) << query;
      EXPECT_EQ(graph->rows, graph_rows->rows)
          << "column-batch vs row-binding row order diverged: " << query;
      EXPECT_EQ(GraphCounters(batch_stats, batch_metrics.graph),
                GraphCounters(row_stats, row_metrics.graph))
          << "column-batch vs row-binding work counters diverged: " << query;
    }

    // Datalog engine, unoptimized and aggressively optimized; the
    // parallel runtime must reproduce the serial rows exactly.
    auto dl1 = compiler.RunOnDatalog(unit->dlir, &db);
    EXPECT_TRUE(dl1.ok()) << dl1.status().ToString() << "\n"
                          << unit->dlir.ToString();
    if (dl1.ok()) runs.datalog_unopt = dl1->ToStringSet(db.symbols());
    engine::EvalOptions four_threads;
    four_threads.num_threads = 4;
    auto dl4 = compiler.RunOnDatalog(unit->dlir, &db, nullptr, four_threads);
    EXPECT_TRUE(dl4.ok()) << dl4.status().ToString();
    if (dl1.ok() && dl4.ok()) {
      EXPECT_EQ(dl1->rows, dl4->rows)
          << "1-thread vs 4-thread row order diverged: " << query;
    }
    auto dl2 = compiler.RunOnDatalog(*optimized, &db);
    EXPECT_TRUE(dl2.ok()) << dl2.status().ToString() << "\n"
                          << optimized->ToString();
    if (dl2.ok()) runs.datalog_opt = dl2->ToStringSet(db.symbols());

    // SQL engine (when expressible).
    auto sqir = compiler.ToSqir(unit->dlir);
    *sql_supported = sqir.ok();
    if (sqir.ok()) {
      auto v = compiler.RunOnSql(unit->dlir, &db, engine::SqlMode::kVectorized);
      EXPECT_TRUE(v.ok()) << v.status().ToString();
      if (v.ok()) runs.sql_vectorized = v->ToStringSet(db.symbols());
      auto p =
          compiler.RunOnSql(unit->dlir, &db, engine::SqlMode::kTuplePipeline);
      EXPECT_TRUE(p.ok()) << p.status().ToString();
      if (p.ok()) runs.sql_pipeline = p->ToStringSet(db.symbols());
    }
    return runs;
  }

  void ExpectAllAgree(const std::string& query) {
    bool sql_supported = false;
    EngineRuns runs = RunEverywhere(query, &sql_supported);
    EXPECT_EQ(runs.graph, runs.datalog_unopt) << query;
    EXPECT_EQ(runs.datalog_unopt, runs.datalog_opt) << query;
    if (sql_supported) {
      EXPECT_EQ(runs.datalog_unopt, runs.sql_vectorized) << query;
      EXPECT_EQ(runs.sql_vectorized, runs.sql_pipeline) << query;
    }
  }
};

TEST_P(CrossEngineTest, PointLookupJoin) {
  ExpectAllAgree(
      "MATCH (n:Person {id: 7})-[:IS_LOCATED_IN]->(c:City) "
      "RETURN DISTINCT n.firstName AS name, c.id AS cityId");
}

TEST_P(CrossEngineTest, OneHopNeighbourhood) {
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.id < 5 "
      "RETURN DISTINCT a.id AS a, b.id AS b");
}

TEST_P(CrossEngineTest, TwoHopWithFilter) {
  ExpectAllAgree(
      "MATCH (a:Person {id: 3})-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "WHERE c.age > 30 RETURN DISTINCT c.id AS id");
}

TEST_P(CrossEngineTest, IncomingEdges) {
  ExpectAllAgree(
      "MATCH (a:Person)<-[:KNOWS]-(b:Person) WHERE a.id = 11 "
      "RETURN DISTINCT b.id AS id");
}

TEST_P(CrossEngineTest, UndirectedEdges) {
  ExpectAllAgree(
      "MATCH (a:Person {id: 4})-[:KNOWS]-(b:Person) "
      "RETURN DISTINCT b.id AS id");
}

TEST_P(CrossEngineTest, DisjunctiveWhere) {
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "WHERE a.id = 2 OR b.id = 9 "
      "RETURN DISTINCT a.id AS a, b.id AS b");
}

TEST_P(CrossEngineTest, BoundedVariableLength) {
  ExpectAllAgree(
      "MATCH (a:Person {id: 1})-[:KNOWS*1..3]->(b:Person) "
      "RETURN DISTINCT b.id AS id");
}

TEST_P(CrossEngineTest, UnboundedReachability) {
  ExpectAllAgree(
      "MATCH (a:Person {id: 2})-[:KNOWS*]->(b:Person) "
      "RETURN DISTINCT b.id AS id");
}

TEST_P(CrossEngineTest, ZeroOrMoreHops) {
  // `*0..` also pairs every person with itself, reachable or not.
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS*0..]->(b:Person) "
      "RETURN DISTINCT a.id AS a, b.id AS b");
}

TEST_P(CrossEngineTest, ShortestPathLengths) {
  // Lattice recursion: Datalog + graph only (SQL rejects; checked inside).
  ExpectAllAgree(
      "MATCH p = shortestPath((a:Person {id: 1})-[:KNOWS*]->(b:Person)) "
      "RETURN DISTINCT b.id AS id, length(p) AS len");
}

TEST_P(CrossEngineTest, AggregationCounts) {
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "WITH a, count(b) AS friends "
      "RETURN DISTINCT a.id AS id, friends");
}

// The shapes below exercise the graph engine's batched projection path
// specifically: DISTINCT over high-duplication joins, column-wise
// aggregation, and variable-length expansion feeding batch dedup.

TEST_P(CrossEngineTest, DistinctHeavyTwoHop) {
  // Every two-hop pair appears once per connecting path; DISTINCT has to
  // collapse a much larger intermediate batch.
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN DISTINCT a.id AS a, c.id AS c");
}

TEST_P(CrossEngineTest, DistinctProjectionCollapsesColumns) {
  // Projecting only the city collapses the per-person join result to a
  // handful of distinct rows.
  ExpectAllAgree(
      "MATCH (n:Person)-[:IS_LOCATED_IN]->(c:City) "
      "RETURN DISTINCT c.id AS cityId");
}

TEST_P(CrossEngineTest, AllPairsReachability) {
  // The BM_TcGraph shape: unbounded closure unioned per start node, then
  // batch-DISTINCT over the full pair set.
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS*]->(b:Person) "
      "RETURN DISTINCT a.id AS src, b.id AS dst");
}

TEST_P(CrossEngineTest, VariableLengthDistinct) {
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS*1..3]->(b:Person) WHERE a.id < 10 "
      "RETURN DISTINCT a.id AS a, b.id AS b");
}

TEST_P(CrossEngineTest, VariableLengthIntoAggregation) {
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS*1..2]->(b:Person) "
      "WITH a, count(b) AS reach "
      "RETURN DISTINCT a.id AS id, reach");
}

TEST_P(CrossEngineTest, MinAggregation) {
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "WITH a, min(b.age) AS youngest "
      "RETURN DISTINCT a.id AS id, youngest");
}

TEST_P(CrossEngineTest, MaxAggregation) {
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "WITH a, max(b.age) AS oldest "
      "RETURN DISTINCT a.id AS id, oldest");
}

TEST_P(CrossEngineTest, TracingEnabledIsResultNeutral) {
  // The full cross-engine agreement matrix with a trace session
  // installed: span recording must not perturb any engine's results
  // (obs/trace.h's determinism-neutrality contract).
  obs::TraceSession session;
  ExpectAllAgree(
      "MATCH (a:Person {id: 2})-[:KNOWS*]->(b:Person) "
      "RETURN DISTINCT b.id AS id");
  EXPECT_GT(session.event_count(), 0u);
}

// A repeated identifier whose second occurrence has no label is bound by
// the first: (a)-[..]->(a) keeps the walks that return to their start.
TEST_P(CrossEngineTest, RepeatedEndpointOneHop) {
  ExpectAllAgree("MATCH (a:Person)-[:KNOWS]->(a) RETURN DISTINCT a.id AS id");
}

TEST_P(CrossEngineTest, RepeatedEndpointVariableLength) {
  ExpectAllAgree(
      "MATCH (a:Person)-[:KNOWS*1..2]->(a) RETURN DISTINCT a.id AS id");
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, CrossEngineTest, ::testing::Range(0, 6));

// The random graphs above have no self-loops. Here KNOWS holds the
// self-loop 1->1, the 2-cycle 2->3->2 and the tail 3->4: one hop returns
// to 1 only, up to two hops to 1, 2 and 3 — on Datalog, both SQL modes
// and both graph modes.
TEST(RepeatedEndpointTest, SelfLoopAndTwoCycle) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  Database db;
  ASSERT_TRUE(compiler.CreateEdbs(&db).ok());
  Relation* person = *db.GetRelation("Person");
  for (int i = 1; i <= 4; ++i) {
    ASSERT_TRUE(person->Insert({Value::Number(i), db.Str("p"),
                                Value::Number(30)})
                    .ok());
  }
  Relation* knows = *db.GetRelation("Person_KNOWS_Person");
  const std::pair<int, int> kEdges[] = {{1, 1}, {2, 3}, {3, 2}, {3, 4}};
  int edge_id = 0;
  for (auto [from, to] : kEdges) {
    ASSERT_TRUE(knows->Insert({Value::Number(from), Value::Number(to),
                               Value::Number(++edge_id)})
                    .ok());
  }
  auto store = compiler.BuildGraphStore(db);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  const std::pair<const char*, std::set<std::string>> kCases[] = {
      {"MATCH (a:Person)-[:KNOWS]->(a) RETURN DISTINCT a.id AS id", {"(1)"}},
      {"MATCH (a:Person)-[:KNOWS*1..2]->(a) RETURN DISTINCT a.id AS id",
       {"(1)", "(2)", "(3)"}},
  };
  for (const auto& [query, want] : kCases) {
    auto unit = compiler.CompileCypher(query);
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();
    auto datalog = compiler.RunOnDatalog(unit->dlir, &db);
    ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
    EXPECT_EQ(datalog->ToStringSet(db.symbols()), want) << query;
    for (engine::SqlMode mode :
         {engine::SqlMode::kVectorized, engine::SqlMode::kTuplePipeline}) {
      auto sql = compiler.RunOnSql(unit->dlir, &db, mode);
      ASSERT_TRUE(sql.ok()) << sql.status().ToString();
      EXPECT_EQ(sql->ToStringSet(db.symbols()), want) << query;
    }
    for (engine::GraphMode mode :
         {engine::GraphMode::kColumnBatch, engine::GraphMode::kRowBinding}) {
      engine::GraphOptions options;
      options.mode = mode;
      auto graph =
          compiler.RunOnGraph(unit->pgir, *store, &db, nullptr, options);
      ASSERT_TRUE(graph.ok()) << query << ": " << graph.status().ToString();
      EXPECT_EQ(graph->ToStringSet(db.symbols()), want) << query;
    }
  }
}

// An undirected edge pattern meets a self-loop once from each endpoint
// list; the walk must bind it once whichever end is already bound. With
// KNOWS 1->1 and 1->2, person 1 has two undirected neighbours (itself and
// 2) in both graph modes and on Datalog, walking forwards from a bound
// source or backwards from a bound destination.
TEST(UndirectedSelfLoopTest, CountsALoopOnceFromEitherBoundEnd) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  Database db;
  ASSERT_TRUE(compiler.CreateEdbs(&db).ok());
  Relation* person = *db.GetRelation("Person");
  for (int i = 1; i <= 2; ++i) {
    ASSERT_TRUE(person->Insert({Value::Number(i), db.Str("p"),
                                Value::Number(30)})
                    .ok());
  }
  Relation* knows = *db.GetRelation("Person_KNOWS_Person");
  ASSERT_TRUE(
      knows->Insert({Value::Number(1), Value::Number(1), Value::Number(1)})
          .ok());
  ASSERT_TRUE(
      knows->Insert({Value::Number(1), Value::Number(2), Value::Number(2)})
          .ok());
  auto store = compiler.BuildGraphStore(db);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  for (const char* pattern : {"(b:Person)-[:KNOWS]-(a)",
                              "(a)-[:KNOWS]-(b:Person)"}) {
    const std::string query = std::string("MATCH (a:Person {id: 1}) MATCH ") +
                              pattern +
                              " WITH a, count(b) AS n RETURN a.id AS id, n";
    auto unit = compiler.CompileCypher(query);
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();
    auto datalog = compiler.RunOnDatalog(unit->dlir, &db);
    ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
    ASSERT_EQ(datalog->rows.size(), 1u) << query;
    EXPECT_EQ(datalog->rows[0][1], Value::Number(2)) << query;
    const std::string want = datalog->ToString(db.symbols());
    for (engine::GraphMode mode :
         {engine::GraphMode::kColumnBatch, engine::GraphMode::kRowBinding}) {
      engine::GraphOptions options;
      options.mode = mode;
      auto graph =
          compiler.RunOnGraph(unit->pgir, *store, &db, nullptr, options);
      ASSERT_TRUE(graph.ok()) << graph.status().ToString();
      EXPECT_EQ(graph->ToString(db.symbols()), want)
          << query << " on "
          << (mode == engine::GraphMode::kRowBinding ? "row binding"
                                                     : "column batch");
    }
  }
}

// Runs a Datalog program on the Datalog engine at 1 and 4 threads and on
// both SQL modes. `inputs` holds each input relation's rows, with the
// columns the program declares.
std::vector<std::pair<std::string, Result<engine::ResultTable>>> RunEverywhere(
    const std::string& text,
    const std::vector<std::pair<std::string, std::vector<Tuple>>>& inputs) {
  Compiler compiler;
  auto program = compiler.CompileDatalog(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  if (!program.ok()) return {};
  Database db;
  for (const auto& [name, rows] : inputs) {
    const dlir::RelationDecl* decl = program->FindDecl(name);
    RelationSchema schema;
    schema.name = name;
    schema.columns = decl->columns;
    Relation* rel = *db.CreateRelation(schema);
    for (const Tuple& row : rows) EXPECT_TRUE(rel->Insert(row).ok());
  }
  std::vector<std::pair<std::string, Result<engine::ResultTable>>> runs;
  for (int threads : {1, 4}) {
    engine::EvalOptions options;
    options.num_threads = threads;
    runs.emplace_back("datalog/" + std::to_string(threads) + "t",
                      compiler.RunOnDatalog(*program, &db, nullptr, options));
  }
  runs.emplace_back("sql-vectorized",
                    compiler.RunOnSql(*program, &db,
                                      engine::SqlMode::kVectorized));
  runs.emplace_back("sql-tuple",
                    compiler.RunOnSql(*program, &db,
                                      engine::SqlMode::kTuplePipeline));
  return runs;
}

// Join keys follow `=`, under which 0.0 = -0.0: a shared variable, an
// `x = y` filter and the `x <= y, x >= y` pair each derive the row on
// every engine, whichever index bucket the keys land in.
TEST(SignedZeroTest, JoinKeysFollowEquality) {
  const char* const kRules[] = {
      "out(x) :- a(x), b(x).",
      "out(x) :- a(x), b(y), x = y.",
      "out(x) :- a(x), b(y), x <= y, x >= y.",
  };
  for (const char* rule : kRules) {
    auto runs = RunEverywhere(std::string(R"(
.decl a(x: float)
.input a
.decl b(x: float)
.input b
.decl out(x: float)
.output out
)") + rule,
                              {{"a", {{Value::Float(0.0)}}},
                               {"b", {{Value::Float(-0.0)}}}});
    ASSERT_EQ(runs.size(), 4u);
    for (const auto& [engine, result] : runs) {
      ASSERT_TRUE(result.ok()) << rule << " on " << engine << ": "
                               << result.status().ToString();
      ASSERT_EQ(result->rows.size(), 1u) << rule << " on " << engine;
      EXPECT_EQ(result->rows[0][0].RawBits(), Value::Float(0.0).RawBits())
          << rule << " on " << engine;
    }
  }
}

// Stored rows stay distinct by bits, so an aggregate sees a(1, 0.0) and
// a(1, -0.0) as two body matches on every engine.
TEST(SignedZeroTest, AggregatesCountEachStoredRow) {
  auto runs = RunEverywhere(R"(
.decl a(g: number, x: float)
.input a
.decl out(g: number, n: number)
.output out
out(g, count(x)) :- a(g, x).
)",
                            {{"a",
                              {{Value::Number(1), Value::Float(0.0)},
                               {Value::Number(1), Value::Float(-0.0)}}}});
  ASSERT_EQ(runs.size(), 4u);
  for (const auto& [engine, result] : runs) {
    ASSERT_TRUE(result.ok()) << engine << ": " << result.status().ToString();
    ASSERT_EQ(result->rows.size(), 1u) << engine;
    EXPECT_EQ(result->rows[0][1], Value::Number(2)) << engine;
  }
}

}  // namespace
}  // namespace raqlet
