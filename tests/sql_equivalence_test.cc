// Randomized differential test for the SQL executor: kVectorized must be
// bit-identical (columns, rows, AND row order) to kTuplePipeline over
// generated join / filter / arithmetic / aggregate / negation / recursive
// programs, at 1 thread and with batches partitioned across 4 threads,
// and must report the same work: SqlStats and every SqlMetrics counter
// except SqlStepMetrics::batches. Runs in the asan and tsan CI legs (the
// tsan leg exercises the parallel batch pipeline under the race
// detector).

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "dlir/parser.h"
#include "engine/sql/executor.h"
#include "obs/metrics.h"
#include "sqir/dlir_to_sqir.h"

namespace raqlet::engine {
namespace {

sqir::SqirProgram Translate(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  auto sqir = sqir::TranslateToSqir(*std::move(program));
  EXPECT_TRUE(sqir.ok()) << sqir.status().ToString();
  return std::move(sqir).value();
}

// edge(x, y), blocked(x): random graph data sized so that recursive cases
// cross the executor's parallel-chunking threshold.
Database MakeDb(std::mt19937& rng, int nodes, int edges) {
  Database db;
  RelationSchema es;
  es.name = "edge";
  es.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* edge = *db.CreateRelation(es);
  std::uniform_int_distribution<int> pick(1, nodes);
  for (int i = 0; i < edges; ++i) {
    edge->Insert({Value::Number(pick(rng)), Value::Number(pick(rng))});
  }
  RelationSchema bs;
  bs.name = "blocked";
  bs.columns = {{"x", ValueType::kNumber}};
  Relation* blocked = *db.CreateRelation(bs);
  for (int i = 0; i < nodes / 4; ++i) {
    blocked->Insert({Value::Number(pick(rng))});
  }
  return db;
}

const char* kDecls = R"(
.decl edge(x: number, y: number)
.input edge
.decl blocked(x: number)
.input blocked
)";

std::vector<std::string> ProgramShapes(std::mt19937& rng, int nodes) {
  std::uniform_int_distribution<int> pick(1, nodes);
  const std::string k = std::to_string(pick(rng));
  return {
      // Two-hop join.
      ".decl out(x: number, z: number)\n.output out\n"
      "out(x, z) :- edge(x, y), edge(y, z).\n",
      // Filter.
      ".decl out(x: number, y: number)\n.output out\n"
      "out(x, y) :- edge(x, y), x < y.\n",
      // Arithmetic in SELECT and WHERE.
      ".decl out(s: number)\n.output out\n"
      "out(s) :- edge(x, y), s = x + y * 2, s > " + k + ".\n",
      // Aggregates.
      ".decl out(x: number, c: number)\n.output out\n"
      "out(x, count(y)) :- edge(x, y).\n",
      ".decl out(x: number, s: number)\n.output out\n"
      "out(x, sum(y)) :- edge(x, y).\n",
      ".decl out(x: number, m: number)\n.output out\n"
      "out(x, max(y)) :- edge(x, y).\n",
      // Negation.
      ".decl out(x: number, y: number)\n.output out\n"
      "out(x, y) :- edge(x, y), !blocked(y).\n",
      // Transitive closure.
      ".decl tc(x: number, y: number)\n.output tc\n"
      "tc(x, y) :- edge(x, y).\n"
      "tc(x, y) :- tc(x, z), edge(z, y).\n",
      // Recursive + filter + negation.
      ".decl tc(x: number, y: number)\n.output tc\n"
      "tc(x, y) :- edge(x, y), x != y.\n"
      "tc(x, y) :- tc(x, z), edge(z, y), !blocked(y), y < " + k + ".\n",
      // Cross join (a scan step after the leading scan).
      ".decl out(x: number, y: number)\n.output out\n"
      "out(x, y) :- blocked(x), blocked(y).\n",
      // NOT EXISTS with no key columns.
      ".decl out(x: number, y: number)\n.output out\n"
      "out(x, y) :- edge(x, y), !blocked(_).\n",
      // Facts plus a constant-false rule.
      ".decl out(x: number)\n.output out\n"
      "out(1).\nout(2).\nout(x) :- edge(x, y), 1 > 2.\n",
      // Filtered min, and avg.
      ".decl out(x: number, m: number)\n.output out\n"
      "out(x, min(y)) :- edge(x, y), y > " + k + ".\n",
      ".decl out(x: number, a: float)\n.output out\n"
      "out(x, avg(y)) :- edge(x, y).\n",
  };
}

// Every counter of a run that the modes and thread counts must agree on.
std::string Counters(const SqlStats& stats, const obs::SqlMetrics& metrics) {
  std::string out =
      "iterations=" + std::to_string(stats.recursive_iterations) +
      " materialized=" + std::to_string(stats.rows_materialized) +
      " scanned=" + std::to_string(stats.rows_scanned);
  for (const obs::SqlCteMetrics& cte : metrics.ctes) {
    out += "\n" + cte.name + (cte.recursive ? " recursive" : "") +
           " iterations=" + std::to_string(cte.iterations) +
           " rows=" + std::to_string(cte.rows) +
           " dedup=" + std::to_string(cte.dedup_inserted) + "/" +
           std::to_string(cte.dedup_attempts);
    for (const obs::SqlStepMetrics& step : cte.steps) {
      out += "\n  " + step.relation +
             " in=" + std::to_string(step.rows_in) +
             " probes=" + std::to_string(step.probes) +
             " matched=" + std::to_string(step.rows_matched) +
             " out=" + std::to_string(step.rows_out);
    }
  }
  return out;
}

TEST(SqlEquivalenceTest, RandomizedVectorizedMatchesTuplePipeline) {
  SqlOptions tuple_options;
  tuple_options.mode = SqlMode::kTuplePipeline;
  SqlEngine tuple_engine(tuple_options);
  SqlOptions vec_options;
  vec_options.mode = SqlMode::kVectorized;
  SqlEngine vec_engine(vec_options);
  SqlOptions par_options;
  par_options.mode = SqlMode::kVectorized;
  par_options.num_threads = 4;
  SqlEngine par_engine(par_options);

  std::mt19937 rng(20260728);
  for (int trial = 0; trial < 20; ++trial) {
    // The last trials are big enough that the 4-thread engine splits the
    // leading scan into multiple chunks (>= 2 * 64 rows).
    const int nodes = trial < 15 ? 10 + trial * 2 : 60 + trial * 10;
    const int num_edges = nodes * 3;
    Database db = MakeDb(rng, nodes, num_edges);
    for (const std::string& shape : ProgramShapes(rng, nodes)) {
      const std::string text = std::string(kDecls) + shape;
      sqir::SqirProgram program = Translate(text);

      SqlStats reference_stats;
      obs::SqlMetrics reference_metrics;
      auto reference = tuple_engine.Run(program, &db, &reference_stats,
                                        &reference_metrics);
      ASSERT_TRUE(reference.ok())
          << reference.status().ToString() << "\n" << text;
      SqlStats serial_stats;
      obs::SqlMetrics serial_metrics;
      auto serial =
          vec_engine.Run(program, &db, &serial_stats, &serial_metrics);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString() << "\n" << text;
      SqlStats parallel_stats;
      obs::SqlMetrics parallel_metrics;
      auto parallel =
          par_engine.Run(program, &db, &parallel_stats, &parallel_metrics);
      ASSERT_TRUE(parallel.ok())
          << parallel.status().ToString() << "\n" << text;

      EXPECT_EQ(reference->columns, serial->columns) << text;
      EXPECT_EQ(reference->rows, serial->rows)
          << "kVectorized diverged from kTuplePipeline on trial " << trial
          << ":\n" << text;
      EXPECT_EQ(serial->columns, parallel->columns) << text;
      EXPECT_EQ(serial->rows, parallel->rows)
          << "4-thread kVectorized diverged from serial on trial " << trial
          << ":\n" << text;
      const std::string counters =
          Counters(reference_stats, reference_metrics);
      EXPECT_EQ(counters, Counters(serial_stats, serial_metrics))
          << "kVectorized counters diverged on trial " << trial << ":\n"
          << text;
      EXPECT_EQ(counters, Counters(parallel_stats, parallel_metrics))
          << "4-thread kVectorized counters diverged on trial " << trial
          << ":\n" << text;
    }
  }
}

}  // namespace
}  // namespace raqlet::engine
