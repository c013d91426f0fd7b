// Tests for the observability layer (src/obs): trace sessions and spans
// (Chrome trace-event export, concurrent emission, determinism
// neutrality) and the unified QueryMetrics populated by all three
// engines — exact counter values on known transitive-closure inputs.

#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "dlir/parser.h"
#include "engine/datalog/engine.h"
#include "engine/sql/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "raqlet/compiler.h"
#include "sqir/dlir_to_sqir.h"
#include "storage/database.h"

namespace raqlet {
namespace {

using engine::DatalogEngine;
using engine::SqlEngine;

constexpr char kTc[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

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

// ---------------------------------------------------------------------------
// Trace sessions and spans.

TEST(ObsTraceTest, ScopesRecordCompleteEvents) {
  obs::TraceSession session;
  {
    obs::TraceScope outer("outer");
    obs::TraceScope inner("inner");
  }
  { obs::TraceScope indexed("round", 7); }

  std::vector<obs::TraceEvent> events = session.Events();
  ASSERT_EQ(events.size(), 3u);
  ASSERT_EQ(session.event_count(), 3u);
  for (const obs::TraceEvent& e : events) {
    EXPECT_GE(e.ts_us, 0);
    EXPECT_GE(e.dur_us, 0);
  }
  // Events() sorts by start time.
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
  // Indexed scopes format "label index"; plain scopes keep the label.
  bool saw_outer = false, saw_inner = false, saw_round = false;
  for (const obs::TraceEvent& e : events) {
    saw_outer |= e.name == "outer";
    saw_inner |= e.name == "inner";
    saw_round |= e.name == "round 7";
  }
  EXPECT_TRUE(saw_outer);
  EXPECT_TRUE(saw_inner);
  EXPECT_TRUE(saw_round);
}

TEST(ObsTraceTest, NoSessionMeansNoRecordingAndNoCrash) {
  ASSERT_EQ(obs::TraceSession::Current(), nullptr);
  EXPECT_FALSE(obs::TraceScope::Enabled());
  { obs::TraceScope span("orphan"); }  // must be a no-op
  obs::TraceSession session;
  EXPECT_TRUE(obs::TraceScope::Enabled());
  { obs::TraceScope span("recorded"); }
  EXPECT_EQ(session.event_count(), 1u);
}

TEST(ObsTraceTest, ChromeTraceJsonShape) {
  obs::TraceSession session;
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}});
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db).ok());

  std::ostringstream os;
  session.WriteChromeTrace(os);
  const std::string json = os.str();

  // Envelope plus the required keys of a complete ("X") event.
  EXPECT_NE(json.find("{\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"raqlet\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":"), std::string::npos);
  // Engine spans made it in: the run, each SCC, and fixpoint rounds.
  EXPECT_NE(json.find("\"name\":\"datalog.run\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"datalog.scc 1\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"datalog.round 1\""), std::string::npos);
}

TEST(ObsTraceTest, ConcurrentEmissionCountsEverySpan) {
  constexpr int kThreads = 8;
  constexpr int kSpansPerThread = 500;
  obs::TraceSession session;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t]() {
      for (int i = 0; i < kSpansPerThread; ++i) {
        obs::TraceScope span("worker", t * kSpansPerThread + i);
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(session.event_count(),
            static_cast<size_t>(kThreads) * kSpansPerThread);
  // Thread ids are dense registration indexes; all events are complete.
  for (const obs::TraceEvent& e : session.Events()) {
    EXPECT_LT(e.tid, static_cast<uint32_t>(kThreads) + 1);
    EXPECT_GE(e.dur_us, 0);
  }
}

TEST(ObsTraceTest, TracingIsResultNeutral) {
  Database traced_db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}, {4, 2}});
  Database plain_db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}, {4, 2}});
  DatalogEngine eng;
  {
    obs::TraceSession session;
    ASSERT_TRUE(eng.Run(Parse(kTc), &traced_db).ok());
    EXPECT_GT(session.event_count(), 0u);
  }
  ASSERT_TRUE(eng.Run(Parse(kTc), &plain_db).ok());
  const Relation* traced = *traced_db.GetRelation("tc");
  const Relation* plain = *plain_db.GetRelation("tc");
  EXPECT_EQ(traced->MaterializeRows(), plain->MaterializeRows());
}

// ---------------------------------------------------------------------------
// Datalog engine metrics: exact fixpoint counters on a known chain.

TEST(ObsMetricsTest, DatalogTcChainExactCounters) {
  // Chain 1->2->3->4: tc = all 6 i<j pairs, semi-naive deltas 3,2,1,0.
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}});
  DatalogEngine eng;
  obs::DatalogMetrics metrics;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db, nullptr, &metrics).ok());

  // One slot per SCC in topological order: edge (EDB), then tc.
  ASSERT_EQ(metrics.sccs.size(), 2u);
  const obs::SccMetrics& edge = metrics.sccs[0];
  EXPECT_EQ(edge.preds, std::vector<std::string>{"edge"});
  EXPECT_FALSE(edge.recursive);
  EXPECT_EQ(edge.tuples_inserted, 0u);

  const obs::SccMetrics& tc = metrics.sccs[1];
  EXPECT_EQ(tc.preds, std::vector<std::string>{"tc"});
  EXPECT_TRUE(tc.recursive);
  EXPECT_EQ(tc.rounds, 3u);
  EXPECT_EQ(tc.rule_evaluations, 4u);  // 1 exit + 1 delta variant x 3 rounds
  // Rows visited across all join levels: 3 (exit scan) + 5 + 3 + 1
  // (per-round delta scans plus their edge-probe matches).
  EXPECT_EQ(tc.tuples_considered, 12u);
  EXPECT_EQ(tc.tuples_inserted, 6u);
  EXPECT_EQ(tc.round_delta_sizes, (std::vector<size_t>{3, 2, 1, 0}));
  EXPECT_EQ(metrics.TotalInserted(), 6u);
}

TEST(ObsMetricsTest, DatalogCountersMatchAcrossThreadCounts) {
  auto run = [](int threads) {
    Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 4}, {4, 2}, {2, 5}});
    engine::EvalOptions options;
    options.num_threads = threads;
    DatalogEngine eng(options);
    obs::DatalogMetrics metrics;
    EXPECT_TRUE(eng.Run(Parse(kTc), &db, nullptr, &metrics).ok());
    return metrics;
  };
  obs::DatalogMetrics serial = run(1);
  obs::DatalogMetrics parallel = run(4);
  ASSERT_EQ(serial.sccs.size(), parallel.sccs.size());
  for (size_t i = 0; i < serial.sccs.size(); ++i) {
    EXPECT_EQ(serial.sccs[i].rounds, parallel.sccs[i].rounds);
    EXPECT_EQ(serial.sccs[i].rule_evaluations,
              parallel.sccs[i].rule_evaluations);
    EXPECT_EQ(serial.sccs[i].tuples_considered,
              parallel.sccs[i].tuples_considered);
    EXPECT_EQ(serial.sccs[i].tuples_inserted,
              parallel.sccs[i].tuples_inserted);
    EXPECT_EQ(serial.sccs[i].round_delta_sizes,
              parallel.sccs[i].round_delta_sizes);
  }
}

// ---------------------------------------------------------------------------
// SQL engine metrics: per-CTE dedup and operator counters.

TEST(ObsMetricsTest, SqlTcCycleDedupCounters) {
  // Cycle 1->2->3->1: tc is the complete 3x3 relation; the last fixpoint
  // round re-derives 3 known pairs, so dedup sees 12 offers, 9 admits.
  Database db = MakeGraphDb({{1, 2}, {2, 3}, {3, 1}});
  auto sqir = sqir::TranslateToSqir(Parse(kTc));
  ASSERT_TRUE(sqir.ok()) << sqir.status().ToString();

  SqlEngine eng;
  obs::SqlMetrics metrics;
  auto result = eng.Run(*sqir, &db, nullptr, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 9u);

  ASSERT_EQ(metrics.ctes.size(), 2u);
  const obs::SqlCteMetrics& tc = metrics.ctes[0];
  EXPECT_EQ(tc.name, "V1");  // SQIR's generated name for the tc CTE
  EXPECT_TRUE(tc.recursive);
  EXPECT_EQ(tc.rows, 9u);
  EXPECT_EQ(tc.iterations, 3u);
  EXPECT_EQ(tc.dedup_attempts, 12u);
  EXPECT_EQ(tc.dedup_inserted, 9u);
  EXPECT_DOUBLE_EQ(tc.DedupHitRate(), 0.25);

  // Operator counters keyed by scanned/probed relation.
  ASSERT_FALSE(tc.steps.empty());
  bool saw_edge = false;
  for (const obs::SqlStepMetrics& step : tc.steps) {
    if (step.relation == "edge") {
      saw_edge = true;
      EXPECT_GT(step.rows_in, 0u);
      EXPECT_GT(step.rows_out, 0u);
      // TC has no filters, so every join match survives.
      EXPECT_DOUBLE_EQ(step.Selectivity(), 1.0);
    }
  }
  EXPECT_TRUE(saw_edge);

  // The top-level select is the identity here; its entry still reports
  // the result cardinality.
  const obs::SqlCteMetrics& final_cm = metrics.ctes[1];
  EXPECT_EQ(final_cm.name, "__result__");
  EXPECT_EQ(final_cm.rows, 9u);
}

TEST(ObsMetricsTest, SqlCountersAgreeAcrossModesAndThreads) {
  // A cycle plus 100 two-edge chains: `edge` (the base branch's leading
  // scan) and the first round's delta both span three 64-row scan chunks
  // at 4 threads, so a counter charged per chunk would show here.
  std::vector<std::pair<int, int>> edges = {
      {1, 2}, {2, 3}, {3, 4}, {4, 2}, {2, 5}};
  for (int k = 0; k < 100; ++k) {
    const int a = 100 + 3 * k;
    edges.push_back({a, a + 1});
    edges.push_back({a + 1, a + 2});
  }
  auto run = [&edges](engine::SqlMode mode, int threads) {
    Database db = MakeGraphDb(edges);
    auto sqir = sqir::TranslateToSqir(Parse(kTc));
    EXPECT_TRUE(sqir.ok());
    engine::SqlOptions options;
    options.mode = mode;
    options.num_threads = threads;
    SqlEngine eng(options);
    obs::SqlMetrics metrics;
    auto result = eng.Run(*sqir, &db, nullptr, &metrics);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return metrics;
  };
  obs::SqlMetrics serial = run(engine::SqlMode::kVectorized, 1);
  obs::SqlMetrics parallel = run(engine::SqlMode::kVectorized, 4);
  obs::SqlMetrics tuple = run(engine::SqlMode::kTuplePipeline, 1);

  ASSERT_EQ(serial.ctes.size(), parallel.ctes.size());
  ASSERT_EQ(serial.ctes.size(), tuple.ctes.size());
  for (size_t i = 0; i < serial.ctes.size(); ++i) {
    for (const obs::SqlCteMetrics* other :
         {&parallel.ctes[i], &tuple.ctes[i]}) {
      EXPECT_EQ(serial.ctes[i].name, other->name);
      EXPECT_EQ(serial.ctes[i].iterations, other->iterations);
      EXPECT_EQ(serial.ctes[i].rows, other->rows);
      EXPECT_EQ(serial.ctes[i].dedup_attempts, other->dedup_attempts);
      EXPECT_EQ(serial.ctes[i].dedup_inserted, other->dedup_inserted);
    }
    // Per-step row counters match too; `batches` is chunking-dependent
    // and excluded from the contract.
    for (const obs::SqlCteMetrics* other :
         {&parallel.ctes[i], &tuple.ctes[i]}) {
      ASSERT_EQ(serial.ctes[i].steps.size(), other->steps.size());
      for (size_t s = 0; s < serial.ctes[i].steps.size(); ++s) {
        const obs::SqlStepMetrics& want = serial.ctes[i].steps[s];
        const obs::SqlStepMetrics& got = other->steps[s];
        EXPECT_EQ(want.relation, got.relation);
        EXPECT_EQ(want.rows_in, got.rows_in) << want.relation;
        EXPECT_EQ(want.probes, got.probes) << want.relation;
        EXPECT_EQ(want.rows_matched, got.rows_matched) << want.relation;
        EXPECT_EQ(want.rows_out, got.rows_out) << want.relation;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Graph engine metrics: closure cache and per-clause binding sizes.

constexpr char kGraphSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT}),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";

TEST(ObsMetricsTest, GraphClosureCacheAndClauseCounters) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kGraphSchema).ok());
  Database db;
  ASSERT_TRUE(compiler.CreateEdbs(&db).ok());
  Relation* person = *db.GetRelation("Person");
  for (int i = 1; i <= 3; ++i) person->Insert({Value::Number(i)});
  Relation* knows = *db.GetRelation("Person_KNOWS_Person");
  knows->Insert({Value::Number(1), Value::Number(2), Value::Number(1)});
  knows->Insert({Value::Number(2), Value::Number(3), Value::Number(2)});
  knows->Insert({Value::Number(3), Value::Number(1), Value::Number(3)});

  auto unit = compiler.CompileCypher(
      "MATCH (a:Person)-[:KNOWS*]->(b:Person) "
      "RETURN DISTINCT a.id AS src, b.id AS dst",
      {});
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  auto store = compiler.BuildGraphStore(db);
  ASSERT_TRUE(store.ok());

  engine::GraphEngine eng(&*store, &compiler.dl_schema(), &db, {});
  engine::GraphStats stats;
  obs::GraphMetrics metrics;
  auto result = eng.Run(unit->pgir, &stats, &metrics);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 9u);  // 3-cycle: all pairs reachable

  // One closure expansion per distinct start node; the always-on stats
  // mirror the metrics counters exactly.
  EXPECT_EQ(metrics.closure_cache_misses, 3u);
  EXPECT_EQ(stats.closure_cache_misses, metrics.closure_cache_misses);
  EXPECT_EQ(stats.closure_cache_hits, metrics.closure_cache_hits);
  EXPECT_GE(metrics.frontier_peak, 1u);

  // Clause trail: the MATCH materializes 9 bindings, RETURN keeps them.
  ASSERT_EQ(metrics.clauses.size(), 2u);
  EXPECT_EQ(metrics.clauses[0].kind, "match");
  EXPECT_EQ(metrics.clauses[0].rows_after, 9u);
  EXPECT_EQ(metrics.clauses[1].kind, "return");
  EXPECT_EQ(metrics.clauses[1].rows_after, 9u);
}

// ---------------------------------------------------------------------------
// Memory breakdown, report rendering, phase timers.

TEST(ObsMetricsTest, MemoryBreakdownAndReport) {
  Database db = MakeGraphDb({{1, 2}, {2, 3}});
  DatalogEngine eng;
  obs::QueryMetrics metrics;
  ASSERT_TRUE(eng.Run(Parse(kTc), &db, nullptr, &metrics.datalog).ok());
  obs::CollectMemoryBreakdown(db, &metrics);

  ASSERT_EQ(metrics.memory.size(), 2u);  // edge + tc, creation order
  EXPECT_EQ(metrics.memory[0].name, "edge");
  EXPECT_EQ(metrics.memory[0].rows, 2u);
  EXPECT_EQ(metrics.memory[1].name, "tc");
  EXPECT_EQ(metrics.memory[1].rows, 3u);
  EXPECT_GT(metrics.TotalMemoryBytes(), 0u);

  metrics.AddPhase("execute-datalog", 123);
  std::string report = metrics.ToString();
  EXPECT_NE(report.find("edge"), std::string::npos);
  EXPECT_NE(report.find("tc"), std::string::npos);
  EXPECT_NE(report.find("execute-datalog"), std::string::npos);
}

TEST(ObsMetricsTest, PhaseTimerIsNullSafe) {
  { obs::PhaseTimer timer(nullptr, "noop"); }  // must not crash
  obs::QueryMetrics metrics;
  { obs::PhaseTimer timer(&metrics, "timed"); }
  ASSERT_EQ(metrics.phases.size(), 1u);
  EXPECT_EQ(metrics.phases[0].name, "timed");
  EXPECT_GE(metrics.phases[0].micros, 0);
}

}  // namespace
}  // namespace raqlet
