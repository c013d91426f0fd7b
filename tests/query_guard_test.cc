// Execution guardrails (docs/robustness.md): a runtime::QueryGuard handed
// to any of the three engines must (a) surface exactly one deterministic
// terminal Status — kCancelled / kDeadlineExceeded / kResourceExhausted —
// when it trips, (b) trip row budgets at the same deterministic checkpoint
// regardless of thread count or executor mode, and (c) leave the database,
// the cached engines and the Compiler fully reusable: a re-run after a
// trip is bit-identical to a run that was never guarded.

#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <random>
#include <thread>

#include "raqlet/compiler.h"
#include "runtime/query_guard.h"

namespace raqlet {
namespace {

constexpr char kSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING, age INT}),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";

// The recursive closure shape: every engine derives a few hundred tuples,
// so small budgets trip mid-evaluation rather than at the end.
constexpr char kClosureQuery[] =
    "MATCH (a:Person)-[:KNOWS*]->(b:Person) "
    "RETURN DISTINCT a.id AS src, b.id AS dst";

void FillDb(Database* db, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> person(1, 30);
  std::uniform_int_distribution<int> age(18, 80);
  Relation* person_rel = *db->GetRelation("Person");
  for (int i = 1; i <= 30; ++i) {
    person_rel->Insert({Value::Number(i),
                        db->Str("p" + std::to_string(i % 7)),
                        Value::Number(age(rng))});
  }
  Relation* knows = *db->GetRelation("Person_KNOWS_Person");
  int edge_id = 0;
  for (int i = 0; i < 60; ++i) {
    int a = person(rng);
    int b = person(rng);
    if (a == b) continue;
    knows->Insert({Value::Number(a), Value::Number(b),
                   Value::Number(++edge_id)});
  }
}

class QueryGuardEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(compiler_.LoadPgSchema(kSchema).ok());
    ASSERT_TRUE(compiler_.CreateEdbs(&db_).ok());
    FillDb(&db_, 1234);
    auto unit = compiler_.CompileCypher(kClosureQuery);
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();
    unit_ = std::move(*unit);
  }

  Result<engine::ResultTable> RunDatalog(const runtime::QueryGuard* guard,
                                         int threads = 1,
                                         obs::QueryMetrics* metrics = nullptr) {
    engine::EvalOptions options;
    options.num_threads = threads;
    return compiler_.RunOnDatalog(unit_.dlir, &db_, nullptr, options, metrics,
                                  guard);
  }

  Result<engine::ResultTable> RunSql(const runtime::QueryGuard* guard,
                                     engine::SqlMode mode,
                                     int threads = 1) {
    return compiler_.RunOnSql(unit_.dlir, &db_, mode, nullptr, threads,
                              nullptr, guard);
  }

  Result<engine::ResultTable> RunGraph(const runtime::QueryGuard* guard,
                                       engine::GraphMode mode) {
    if (!store_.has_value()) {
      auto store = compiler_.BuildGraphStore(db_);
      if (!store.ok()) return store.status();
      store_ = std::move(*store);
    }
    engine::GraphOptions options;
    options.mode = mode;
    return compiler_.RunOnGraph(unit_.pgir, *store_, &db_, nullptr, options,
                                nullptr, guard);
  }

  Compiler compiler_;
  Database db_;
  CompiledQuery unit_;
  std::optional<engine::GraphStore> store_;
};

// ---- unit semantics --------------------------------------------------

TEST(QueryGuardUnit, UnarmedChecksAreOk) {
  runtime::QueryGuard guard;
  EXPECT_TRUE(guard.Check().ok());
  EXPECT_TRUE(guard.AddRows(1000000).ok());
  EXPECT_TRUE(guard.AddBytes(1000000).ok());
  EXPECT_FALSE(guard.tripped());
  // Unarmed guards do not even account.
  EXPECT_EQ(guard.rows(), 0u);
}

TEST(QueryGuardUnit, RowBudgetAllowsExactlyBudgetRows) {
  runtime::QueryGuard guard;
  guard.set_max_rows(10);
  EXPECT_TRUE(guard.AddRows(10).ok());  // exactly the budget: fine
  EXPECT_FALSE(guard.tripped());
  Status s = guard.AddRows(1);  // one past: trips
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(guard.tripped());
  EXPECT_EQ(guard.TripStatus().code(), StatusCode::kResourceExhausted);
}

TEST(QueryGuardUnit, FirstCauseSticks) {
  runtime::QueryGuard guard;
  guard.set_max_rows(1);
  EXPECT_EQ(guard.AddRows(5).code(), StatusCode::kResourceExhausted);
  guard.Cancel();  // loses the CAS: the original cause is sticky
  EXPECT_EQ(guard.TripStatus().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.Check().code(), StatusCode::kResourceExhausted);
}

TEST(QueryGuardUnit, CancelTripsFromAnotherThread) {
  runtime::QueryGuard guard;
  std::thread canceller([&guard] { guard.Cancel(); });
  canceller.join();
  EXPECT_EQ(guard.Check().code(), StatusCode::kCancelled);
  EXPECT_EQ(guard.TripStatus().code(), StatusCode::kCancelled);
}

TEST(QueryGuardUnit, DeadlineTrips) {
  runtime::QueryGuard guard;
  guard.set_timeout_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(guard.Check().code(), StatusCode::kDeadlineExceeded);
}

TEST(QueryGuardUnit, ResetReArms) {
  runtime::QueryGuard guard;
  guard.set_max_rows(5);
  EXPECT_EQ(guard.AddRows(6).code(), StatusCode::kResourceExhausted);
  guard.Reset();
  EXPECT_FALSE(guard.tripped());
  EXPECT_EQ(guard.rows(), 0u);
  EXPECT_TRUE(guard.AddRows(5).ok());  // the kept limit applies afresh
  EXPECT_EQ(guard.AddRows(1).code(), StatusCode::kResourceExhausted);
}

// ---- terminal codes per engine ---------------------------------------

TEST_F(QueryGuardEngineTest, DatalogTerminalCodes) {
  runtime::QueryGuard cancelled;
  std::thread canceller([&cancelled] { cancelled.Cancel(); });
  canceller.join();
  EXPECT_EQ(RunDatalog(&cancelled).status().code(), StatusCode::kCancelled);

  runtime::QueryGuard deadline;
  deadline.set_timeout_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(RunDatalog(&deadline).status().code(),
            StatusCode::kDeadlineExceeded);

  runtime::QueryGuard rows;
  rows.set_max_rows(10);
  EXPECT_EQ(RunDatalog(&rows).status().code(),
            StatusCode::kResourceExhausted);

  runtime::QueryGuard bytes;
  bytes.set_max_bytes(64);
  EXPECT_EQ(RunDatalog(&bytes).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(QueryGuardEngineTest, SqlTerminalCodes) {
  for (engine::SqlMode mode :
       {engine::SqlMode::kVectorized, engine::SqlMode::kTuplePipeline}) {
    runtime::QueryGuard cancelled;
    cancelled.Cancel();
    EXPECT_EQ(RunSql(&cancelled, mode).status().code(),
              StatusCode::kCancelled);

    runtime::QueryGuard deadline;
    deadline.set_timeout_ms(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(RunSql(&deadline, mode).status().code(),
              StatusCode::kDeadlineExceeded);

    runtime::QueryGuard rows;
    rows.set_max_rows(10);
    EXPECT_EQ(RunSql(&rows, mode).status().code(),
              StatusCode::kResourceExhausted);

    runtime::QueryGuard bytes;
    bytes.set_max_bytes(64);
    EXPECT_EQ(RunSql(&bytes, mode).status().code(),
              StatusCode::kResourceExhausted);
  }
}

TEST_F(QueryGuardEngineTest, GraphTerminalCodes) {
  for (engine::GraphMode mode :
       {engine::GraphMode::kColumnBatch, engine::GraphMode::kRowBinding}) {
    runtime::QueryGuard cancelled;
    cancelled.Cancel();
    EXPECT_EQ(RunGraph(&cancelled, mode).status().code(),
              StatusCode::kCancelled);

    runtime::QueryGuard deadline;
    deadline.set_timeout_ms(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(RunGraph(&deadline, mode).status().code(),
              StatusCode::kDeadlineExceeded);

    runtime::QueryGuard rows;
    rows.set_max_rows(10);
    EXPECT_EQ(RunGraph(&rows, mode).status().code(),
              StatusCode::kResourceExhausted);
  }
}

// ---- deterministic trips ---------------------------------------------

TEST_F(QueryGuardEngineTest, DatalogRowTripIsThreadCountInvariant) {
  // Row budgets are charged from the engine's deterministic per-round
  // tuple counters, so the same budget must trip at the same checkpoint —
  // with the same accounted total — at any thread count.
  runtime::QueryGuard serial;
  serial.set_max_rows(50);
  EXPECT_EQ(RunDatalog(&serial, 1).status().code(),
            StatusCode::kResourceExhausted);

  runtime::QueryGuard parallel;
  parallel.set_max_rows(50);
  EXPECT_EQ(RunDatalog(&parallel, 4).status().code(),
            StatusCode::kResourceExhausted);

  EXPECT_EQ(serial.rows(), parallel.rows())
      << "row accounting diverged between 1 and 4 threads";
}

TEST_F(QueryGuardEngineTest, SqlRowTripIsThreadCountInvariant) {
  runtime::QueryGuard serial;
  serial.set_max_rows(50);
  EXPECT_EQ(RunSql(&serial, engine::SqlMode::kVectorized, 1).status().code(),
            StatusCode::kResourceExhausted);

  runtime::QueryGuard parallel;
  parallel.set_max_rows(50);
  EXPECT_EQ(RunSql(&parallel, engine::SqlMode::kVectorized, 4).status().code(),
            StatusCode::kResourceExhausted);

  EXPECT_EQ(serial.rows(), parallel.rows())
      << "row accounting diverged between 1 and 4 threads";
}

TEST_F(QueryGuardEngineTest, GraphRowTripIsModeInvariant) {
  // Both binding-table representations count identical per-clause deltas.
  runtime::QueryGuard batch;
  batch.set_max_rows(50);
  EXPECT_EQ(RunGraph(&batch, engine::GraphMode::kColumnBatch).status().code(),
            StatusCode::kResourceExhausted);

  runtime::QueryGuard row;
  row.set_max_rows(50);
  EXPECT_EQ(RunGraph(&row, engine::GraphMode::kRowBinding).status().code(),
            StatusCode::kResourceExhausted);

  EXPECT_EQ(batch.rows(), row.rows())
      << "row accounting diverged between column-batch and row-binding";
}

// ---- post-trip reuse --------------------------------------------------

TEST_F(QueryGuardEngineTest, ReRunAfterTripIsBitIdentical) {
  // Reference rows from a never-guarded run of each engine.
  auto ref_dl = RunDatalog(nullptr);
  ASSERT_TRUE(ref_dl.ok()) << ref_dl.status().ToString();
  auto ref_sql = RunSql(nullptr, engine::SqlMode::kVectorized);
  ASSERT_TRUE(ref_sql.ok()) << ref_sql.status().ToString();
  auto ref_graph = RunGraph(nullptr, engine::GraphMode::kColumnBatch);
  ASSERT_TRUE(ref_graph.ok()) << ref_graph.status().ToString();

  // Trip every engine (row budget, then deadline), then re-run unguarded
  // on the same database through the same cached engines: exact rows,
  // exact order.
  runtime::QueryGuard guard;
  guard.set_max_rows(10);
  EXPECT_EQ(RunDatalog(&guard).status().code(),
            StatusCode::kResourceExhausted);
  size_t first_trip_rows = guard.rows();
  EXPECT_EQ(RunSql(&guard, engine::SqlMode::kVectorized).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(RunGraph(&guard, engine::GraphMode::kColumnBatch).status().code(),
            StatusCode::kResourceExhausted);

  auto dl = RunDatalog(nullptr);
  ASSERT_TRUE(dl.ok()) << dl.status().ToString();
  EXPECT_EQ(dl->rows, ref_dl->rows) << "datalog re-run after trip diverged";

  auto sql = RunSql(nullptr, engine::SqlMode::kVectorized);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql->rows, ref_sql->rows) << "sql re-run after trip diverged";

  auto graph = RunGraph(nullptr, engine::GraphMode::kColumnBatch);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(graph->rows, ref_graph->rows)
      << "graph re-run after trip diverged";

  // Reset() keeps the limits: the re-armed guard must trip again, at the
  // exact same deterministic checkpoint as the first run.
  guard.Reset();
  EXPECT_EQ(RunDatalog(&guard).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(guard.rows(), first_trip_rows);
  // Lifting the budget makes the same guard good for a full run.
  guard.Reset();
  guard.set_max_rows(0);
  auto again = RunDatalog(&guard);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->rows, ref_dl->rows);
}

TEST_F(QueryGuardEngineTest, OneBudgetTripsEveryRunEntryPoint) {
  // Reference rows first: they build the cached default Datalog and SQL
  // engines the guarded runs below reuse.
  auto ref_dl = RunDatalog(nullptr);
  ASSERT_TRUE(ref_dl.ok()) << ref_dl.status().ToString();
  auto ref_sql = RunSql(nullptr, engine::SqlMode::kVectorized);
  ASSERT_TRUE(ref_sql.ok()) << ref_sql.status().ToString();
  auto store = compiler_.BuildGraphStore(db_);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  // One row budget, handed to each entry point as its trailing guard.
  runtime::QueryGuard guard;
  guard.set_max_rows(10);
  auto expect_trip = [&guard](const Status& status,
                              const obs::QueryMetrics& metrics,
                              const char* entry) {
    EXPECT_EQ(status.code(), StatusCode::kResourceExhausted) << entry;
    EXPECT_EQ(metrics.guard.resource_exhausted, 1u) << entry;
    EXPECT_GT(metrics.guard.rows, 10u) << entry;
    EXPECT_EQ(metrics.guard.rows, guard.rows()) << entry;
    guard.Reset();
  };
  {
    obs::QueryMetrics metrics;
    expect_trip(compiler_
                    .RunOnDatalog(unit_.dlir, &db_, nullptr, {}, &metrics,
                                  &guard)
                    .status(),
                metrics, "RunOnDatalog");
  }
  {
    obs::QueryMetrics metrics;
    expect_trip(compiler_
                    .RunOnSql(unit_.dlir, &db_, engine::SqlMode::kVectorized,
                              nullptr, 1, &metrics, &guard)
                    .status(),
                metrics, "RunOnSql");
  }
  {
    obs::QueryMetrics metrics;
    expect_trip(compiler_
                    .RunOnGraph(unit_.pgir, *store, &db_, nullptr, {},
                                &metrics, &guard)
                    .status(),
                metrics, "RunOnGraph");
  }
  // The incremental view maintains a database of its own, so the delta
  // below leaves db_ as the references saw it.
  Database view_db;
  ASSERT_TRUE(compiler_.CreateEdbs(&view_db).ok());
  FillDb(&view_db, 1234);
  {
    obs::QueryMetrics metrics;
    expect_trip(compiler_
                    .BeginIncremental(unit_.dlir, &view_db, {}, &metrics,
                                      &guard)
                    .status(),
                metrics, "BeginIncremental");
  }
  auto view = compiler_.BeginIncremental(unit_.dlir, &view_db);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  RelationDelta knows;
  knows.relation = "Person_KNOWS_Person";
  for (int i = 0; i < 12; ++i) {  // 12 base rows: past the budget
    knows.adds.push_back({Value::Number(i + 1), Value::Number(30 - i),
                          Value::Number(1000 + i)});
  }
  DeltaBatch delta;
  delta.relations.push_back(std::move(knows));
  {
    obs::QueryMetrics metrics;
    expect_trip(
        compiler_.ApplyDelta(view->get(), delta, &metrics, &guard).status(),
        metrics, "ApplyDelta");
  }

  // The same cached engines, run next without a guard: the full result.
  auto dl = RunDatalog(nullptr);
  ASSERT_TRUE(dl.ok()) << dl.status().ToString();
  EXPECT_EQ(dl->rows, ref_dl->rows);
  auto sql = RunSql(nullptr, engine::SqlMode::kVectorized);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_EQ(sql->rows, ref_sql->rows);
}

TEST_F(QueryGuardEngineTest, TripIsRecordedInMetrics) {
  obs::QueryMetrics metrics;
  runtime::QueryGuard guard;
  guard.set_max_rows(10);
  EXPECT_EQ(RunDatalog(&guard, 1, &metrics).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(metrics.guard.resource_exhausted, 1u);
  EXPECT_GT(metrics.guard.rows, 10u);
  EXPECT_NE(metrics.ToString().find("guard trips:"), std::string::npos);
}

}  // namespace
}  // namespace raqlet
