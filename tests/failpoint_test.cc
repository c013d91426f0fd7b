// Kill-point sweep over the fault-injection harness (runtime/failpoint.h):
// every status-firing site, armed in turn under every engine configuration,
// must surface exactly the injected Status when the site is on that
// configuration's path — and after disarming, a re-run on the same
// database must be bit-identical to a run that never saw the fault. The
// same sites are armed under an incremental view's ApplyDelta, which must
// poison the view and recover on re-Initialize. This proves the
// robustness contract ("a failed query never corrupts state") by
// construction, not by hoping the error paths are exercised.
//
// The sweep suites GTEST_SKIP unless the sites are compiled in
// (-DRAQLET_FAILPOINTS=ON; the `asan-failpoint` preset / CI leg). The
// default build still runs CompiledOutSitesAreInert, pinning the
// zero-cost-off contract.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/datalog/incremental.h"
#include "raqlet/compiler.h"
#include "runtime/failpoint.h"
#include "runtime/query_guard.h"

namespace raqlet {
namespace {

constexpr char kSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING, age INT}),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";

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

class FailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runtime::DisarmAllFailpoints();
    ASSERT_TRUE(compiler_.LoadPgSchema(kSchema).ok());
    ASSERT_TRUE(compiler_.CreateEdbs(&db_).ok());
    FillDb(&db_, 99);
    auto unit = compiler_.CompileCypher(kClosureQuery);
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();
    unit_ = std::move(*unit);
    auto store = compiler_.BuildGraphStore(db_);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
  }

  void TearDown() override { runtime::DisarmAllFailpoints(); }

  using RunFn = std::function<Result<engine::ResultTable>()>;

  // Every engine configuration the sweep drives: the three engines at the
  // thread counts / executor modes that take distinct code paths.
  std::vector<std::pair<std::string, RunFn>> Configs(
      const runtime::QueryGuard* guard = nullptr) {
    auto datalog = [this, guard](int threads) {
      engine::EvalOptions options;
      options.num_threads = threads;
      return compiler_.RunOnDatalog(unit_.dlir, &db_, nullptr, options,
                                    nullptr, guard);
    };
    auto sql = [this, guard](engine::SqlMode mode, int threads) {
      return compiler_.RunOnSql(unit_.dlir, &db_, mode, nullptr, threads,
                                nullptr, guard);
    };
    auto graph = [this, guard](engine::GraphMode mode) {
      engine::GraphOptions options;
      options.mode = mode;
      return compiler_.RunOnGraph(unit_.pgir, *store_, &db_, nullptr,
                                  options, nullptr, guard);
    };
    return {
        {"datalog/1t", [datalog] { return datalog(1); }},
        {"datalog/4t", [datalog] { return datalog(4); }},
        {"sql-vectorized/1t",
         [sql] { return sql(engine::SqlMode::kVectorized, 1); }},
        {"sql-vectorized/4t",
         [sql] { return sql(engine::SqlMode::kVectorized, 4); }},
        {"sql-tuple/1t",
         [sql] { return sql(engine::SqlMode::kTuplePipeline, 1); }},
        {"graph/batch",
         [graph] { return graph(engine::GraphMode::kColumnBatch); }},
        {"graph/rows",
         [graph] { return graph(engine::GraphMode::kRowBinding); }},
    };
  }

  // The derived relations of the closure program in `db`, rendered.
  std::map<std::string, std::set<std::string>> DerivedRows(
      const Database& db) const {
    std::map<std::string, std::set<std::string>> out;
    for (const dlir::RelationDecl& decl : unit_.dlir.decls) {
      if (decl.is_input) continue;
      for (const Tuple& t : (*db.GetRelation(decl.name))->MaterializeRows()) {
        out[decl.name].insert(TupleToString(t, &db.symbols()));
      }
    }
    return out;
  }

  // The delta configurations: one ApplyDelta on a closure view (DRed under
  // the closure, counting above it) over a fresh copy of the base data, at
  // `threads`, with `site` armed. Reports how often the site fired.
  void SweepApplyDelta(const std::string& site, int threads, int* hits) {
    Database db;
    ASSERT_TRUE(compiler_.CreateEdbs(&db).ok());
    FillDb(&db, 99);
    engine::IncrementalOptions options;
    options.num_threads = threads;
    auto view = compiler_.BeginIncremental(unit_.dlir, &db, options);
    ASSERT_TRUE(view.ok()) << view.status().ToString();

    // Cut five KNOWS edges and add five.
    RelationDelta knows;
    knows.relation = "Person_KNOWS_Person";
    std::vector<Tuple> rows =
        (*db.GetRelation(knows.relation))->MaterializeRows();
    ASSERT_GE(rows.size(), 29u);
    for (size_t i = 0; i < 5; ++i) knows.removes.push_back(rows[i * 7]);
    for (int i = 0; i < 5; ++i) {
      knows.adds.push_back({Value::Number(i + 1), Value::Number(30 - i),
                            Value::Number(1000 + i)});
    }
    DeltaBatch delta;
    delta.relations.push_back(std::move(knows));

    runtime::ArmFailpoint(site, Status::Internal("injected: " + site));
    auto applied = compiler_.ApplyDelta(view->get(), delta);
    *hits = runtime::FailpointHits(site);
    runtime::DisarmFailpoint(site);
    if (*hits > 0) {
      ASSERT_FALSE(applied.ok());
      EXPECT_EQ(applied.status().code(), StatusCode::kInternal);
      EXPECT_NE(applied.status().message().find("injected: " + site),
                std::string::npos)
          << applied.status().ToString();
      // The failed delta poisoned the view until it is re-initialized.
      EXPECT_EQ((*view)->ApplyDelta(delta).status().code(),
                StatusCode::kInvalidArgument);
      ASSERT_TRUE((*view)->Initialize(unit_.dlir, &db).ok());
    } else {
      ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    }
    // The view's rows equal a from-scratch run on the current base.
    auto maintained = DerivedRows(db);
    engine::DatalogEngine eng;
    ASSERT_TRUE(eng.Run(unit_.dlir, &db).ok());
    EXPECT_EQ(maintained, DerivedRows(db));
  }

  Compiler compiler_;
  Database db_;
  CompiledQuery unit_;
  std::optional<engine::GraphStore> store_;
};

TEST_F(FailpointTest, CompiledOutSitesAreInert) {
  if (runtime::FailpointsCompiledIn()) {
    GTEST_SKIP() << "sites compiled in; covered by the sweep";
  }
  // Arming is a harmless registry write when the macros are compiled out:
  // no site fires, no hit is counted, results are untouched.
  for (const std::string& site : runtime::FailpointStatusSites()) {
    runtime::ArmFailpoint(site, Status::Internal("injected: " + site));
  }
  for (auto& [name, run] : Configs()) {
    auto result = run();
    EXPECT_TRUE(result.ok()) << name << ": " << result.status().ToString();
  }
  for (const std::string& site : runtime::FailpointStatusSites()) {
    EXPECT_EQ(runtime::FailpointHits(site), 0) << site;
  }
}

TEST_F(FailpointTest, KillPointSweep) {
  if (!runtime::FailpointsCompiledIn()) {
    GTEST_SKIP() << "configure with -DRAQLET_FAILPOINTS=ON";
  }
  // Unfaulted reference rows per configuration.
  std::vector<engine::ResultTable> refs;
  auto configs = Configs();
  for (auto& [name, run] : configs) {
    auto ref = run();
    ASSERT_TRUE(ref.ok()) << name << ": " << ref.status().ToString();
    refs.push_back(std::move(*ref));
  }

  std::map<std::string, int> fired_in_configs;
  for (const std::string& site : runtime::FailpointStatusSites()) {
    for (size_t c = 0; c < configs.size(); ++c) {
      const std::string& name = configs[c].first;
      SCOPED_TRACE(site + " x " + name);

      runtime::ArmFailpoint(site, Status::Internal("injected: " + site));
      auto faulted = configs[c].second();
      int hits = runtime::FailpointHits(site);
      if (hits > 0) {
        // The site is on this configuration's path: the injected Status —
        // code and message — must surface, not a mangled or swallowed one.
        ++fired_in_configs[site];
        ASSERT_FALSE(faulted.ok());
        EXPECT_EQ(faulted.status().code(), StatusCode::kInternal);
        EXPECT_NE(faulted.status().message().find("injected: " + site),
                  std::string::npos)
            << faulted.status().ToString();
      } else {
        // Not on this path (e.g. sql.cte_merge under the graph engine):
        // the run must be entirely unaffected.
        ASSERT_TRUE(faulted.ok()) << faulted.status().ToString();
        EXPECT_EQ(faulted->rows, refs[c].rows);
      }
      runtime::DisarmFailpoint(site);

      // The kill-point contract: whatever state the injected failure
      // interrupted, a plain re-run is bit-identical to the reference.
      auto rerun = configs[c].second();
      ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
      EXPECT_EQ(rerun->columns, refs[c].columns);
      EXPECT_EQ(rerun->rows, refs[c].rows)
          << "re-run after injected failure diverged";
    }
    for (int threads : {1, 4}) {
      SCOPED_TRACE(site + " x apply-delta/" + std::to_string(threads) + "t");
      int hits = 0;
      SweepApplyDelta(site, threads, &hits);
      if (HasFatalFailure()) return;
      if (hits > 0) ++fired_in_configs[site];
    }
  }

  // The sweep must not be vacuous: every status site fires under at
  // least one configuration.
  for (const std::string& site : runtime::FailpointStatusSites()) {
    EXPECT_GT(fired_in_configs[site], 0)
        << site << " never fired in any engine configuration";
  }
}

TEST_F(FailpointTest, NthHitArmingFiresExactlyAtN) {
  if (!runtime::FailpointsCompiledIn()) {
    GTEST_SKIP() << "configure with -DRAQLET_FAILPOINTS=ON";
  }
  const std::string site = "datalog.apply_staged";
  auto run = [this] {
    return compiler_.RunOnDatalog(unit_.dlir, &db_);
  };
  auto ref = run();
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();

  // Count the site's hits across one clean run by arming far past them.
  runtime::ArmFailpoint(site, Status::Internal("unreachable"), 1 << 30);
  ASSERT_TRUE(run().ok());
  int total = runtime::FailpointHits(site);
  runtime::DisarmFailpoint(site);
  ASSERT_GT(total, 1) << "query too small to test Nth-hit arming";

  // Arm at the final hit: the first (total - 1) pass untouched.
  runtime::ArmFailpoint(site, Status::Internal("injected: " + site), total);
  auto faulted = run();
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(runtime::FailpointHits(site), total);
  runtime::DisarmFailpoint(site);

  auto rerun = run();
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(rerun->rows, ref->rows);
}

TEST_F(FailpointTest, DelaySitesDoNotPerturbResults) {
  if (!runtime::FailpointsCompiledIn()) {
    GTEST_SKIP() << "configure with -DRAQLET_FAILPOINTS=ON";
  }
  auto configs = Configs();
  std::vector<engine::ResultTable> refs;
  for (auto& [name, run] : configs) {
    auto ref = run();
    ASSERT_TRUE(ref.ok()) << name;
    refs.push_back(std::move(*ref));
  }
  for (const std::string& site : runtime::FailpointDelaySites()) {
    runtime::ArmFailpointDelay(site, 1);
  }
  for (size_t c = 0; c < configs.size(); ++c) {
    auto slow = configs[c].second();
    ASSERT_TRUE(slow.ok()) << configs[c].first;
    EXPECT_EQ(slow->rows, refs[c].rows) << configs[c].first;
  }
}

TEST_F(FailpointTest, DelayedPoolDrainsUnderShortDeadline) {
  if (!runtime::FailpointsCompiledIn()) {
    GTEST_SKIP() << "configure with -DRAQLET_FAILPOINTS=ON";
  }
  // Widen the dispatch race window, then run with an already-expired
  // deadline: the parallel engines must report kDeadlineExceeded (never
  // hang, never crash) and drain their pools for the next run.
  for (const std::string& site : runtime::FailpointDelaySites()) {
    runtime::ArmFailpointDelay(site, 2);
  }
  runtime::QueryGuard guard;
  guard.set_timeout_ms(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  engine::EvalOptions options;
  options.num_threads = 4;
  EXPECT_EQ(compiler_
                .RunOnDatalog(unit_.dlir, &db_, nullptr, options, nullptr,
                              &guard)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(compiler_
                .RunOnSql(unit_.dlir, &db_, engine::SqlMode::kVectorized,
                          nullptr, 4, nullptr, &guard)
                .status()
                .code(),
            StatusCode::kDeadlineExceeded);

  runtime::DisarmAllFailpoints();
  auto rerun = compiler_.RunOnDatalog(unit_.dlir, &db_, nullptr, options,
                                      nullptr, &guard);
  EXPECT_EQ(rerun.status().code(), StatusCode::kDeadlineExceeded)
      << "tripped guard stays tripped until Reset";
  guard.Reset();
  auto clean = compiler_.RunOnDatalog(unit_.dlir, &db_, nullptr, options,
                                      nullptr, &guard);
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
}

}  // namespace
}  // namespace raqlet
