// LDBC SNB workload demo: generates a scale-factor social network, runs
// the paper's Table 1 queries (SQ1, CQ2) on all engines, unoptimized and
// optimized, and prints a Table 1-shaped timing summary. Every run of a
// query must return the same rows (compared sorted, as a bag); the demo
// exits 1 when one fails or disagrees.
//
// Usage: ./build/examples/ldbc_snb [scale_factor]   (default 0.5)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "ldbc/ldbc.h"
#include "raqlet/compiler.h"

namespace {

using Clock = std::chrono::steady_clock;

struct Run {
  double ms = 0;
  std::vector<std::string> rows;  // rendered and sorted
};

// Runs `fn` once and times it. On success leaves its rows in run->rows;
// on failure prints the error and returns false.
bool Measure(
    const std::function<raqlet::Result<raqlet::engine::ResultTable>()>& fn,
    const raqlet::SymbolTable& symbols, Run* run) {
  auto begin = Clock::now();
  raqlet::Result<raqlet::engine::ResultTable> result = fn();
  auto end = Clock::now();
  run->ms = std::chrono::duration<double, std::milli>(end - begin).count();
  if (!result.ok()) {
    std::cerr << "  error: " << result.status().ToString() << "\n";
    return false;
  }
  run->rows.clear();
  for (const raqlet::Tuple& row : result->rows) {
    run->rows.push_back(raqlet::TupleToString(row, &symbols));
  }
  std::sort(run->rows.begin(), run->rows.end());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.5;
  if (argc > 1) {
    char* end = nullptr;
    sf = std::strtod(argv[1], &end);
    if (end == argv[1] || *end != '\0' || !std::isfinite(sf) || sf <= 0) {
      std::cerr << "usage: ldbc_snb [scale_factor]   "
                   "(a positive number, default 0.5)\n";
      return 2;
    }
  }

  raqlet::Compiler compiler;
  if (!compiler.LoadPgSchema(raqlet::ldbc::SnbSchema()).ok()) return 1;
  raqlet::Database db;
  if (!compiler.CreateEdbs(&db).ok()) return 1;

  raqlet::ldbc::GeneratorOptions gen;
  gen.scale_factor = sf;
  std::cout << "generating SNB-like data, scale factor " << sf << " ("
            << gen.persons() << " persons)...\n";
  if (!GenerateSnbData(compiler.dl_schema(), &db, gen).ok()) return 1;
  std::cout << "total tuples: " << db.TotalTuples() << "\n";

  auto store = compiler.BuildGraphStore(db);
  if (!store.ok()) return 1;

  raqlet::CompileOptions params;
  params.parameters["personId"] =
      raqlet::dlir::Constant::Number(raqlet::ldbc::SamplePersonId(gen));
  params.parameters["maxDate"] =
      raqlet::dlir::Constant::Number(raqlet::ldbc::MidCreationDate());

  struct QuerySpec {
    const char* name;
    const char* text;
  };
  const QuerySpec queries[] = {
      {"SQ1", raqlet::ldbc::ShortQuery1()},
      {"CQ2", raqlet::ldbc::ComplexQuery2()},
  };

  std::printf("\n%-5s %-4s %12s %12s %12s %12s %6s\n", "Query", "Opt",
              "Graph(ms)", "Datalog(ms)", "SQL-vec(ms)", "SQL-tup(ms)",
              "Rows");
  bool agree = true;
  for (const QuerySpec& query : queries) {
    Run graph;  // the first run, and the reference for the others
    Run datalog;
    Run sql_vec;
    Run sql_tup;
    auto check = [&](const Run& run, const char* engine, bool optimized) {
      if (run.rows == graph.rows) return;
      std::cerr << query.name << ": " << engine
                << (optimized ? " (optimized)" : "") << " returned "
                << run.rows.size() << " rows that differ from the "
                << graph.rows.size() << " rows of the graph engine\n";
      agree = false;
    };
    for (bool optimized : {false, true}) {
      params.opt_level = optimized ? 1 : 0;
      auto unit = compiler.CompileCypher(query.text, params);
      if (!unit.ok()) {
        std::cerr << unit.status().ToString() << "\n";
        return 1;
      }
      const raqlet::dlir::Program& program = unit->optimized;

      const raqlet::SymbolTable& symbols = db.symbols();
      // Graph engine runs the PGIR directly (the "original Cypher" row of
      // Table 1 exists only unoptimized, as in the paper).
      if (!optimized) {
        if (!Measure(
                [&] { return compiler.RunOnGraph(unit->pgir, *store, &db); },
                symbols, &graph)) {
          return 1;
        }
      }
      if (!Measure([&] { return compiler.RunOnDatalog(program, &db); },
                   symbols, &datalog)) {
        return 1;
      }
      check(datalog, "Datalog", optimized);
      if (!Measure(
              [&] {
                return compiler.RunOnSql(program, &db,
                                         raqlet::engine::SqlMode::kVectorized);
              },
              symbols, &sql_vec)) {
        return 1;
      }
      check(sql_vec, "SQL-vec", optimized);
      if (!Measure(
              [&] {
                return compiler.RunOnSql(
                    program, &db, raqlet::engine::SqlMode::kTuplePipeline);
              },
              symbols, &sql_tup)) {
        return 1;
      }
      check(sql_tup, "SQL-tup", optimized);

      char graph_buf[32];
      if (optimized) {
        std::snprintf(graph_buf, sizeof(graph_buf), "%12s", "-");
      } else {
        std::snprintf(graph_buf, sizeof(graph_buf), "%12.2f", graph.ms);
      }
      std::printf("%-5s %-4s %s %12.2f %12.2f %12.2f %6zu\n", query.name,
                  optimized ? "yes" : "no", graph_buf, datalog.ms, sql_vec.ms,
                  sql_tup.ms, graph.rows.size());
    }
  }

  std::cout << "\nsame rows on every engine: " << (agree ? "yes" : "NO")
            << "\n(absolute numbers are substrate-specific; compare shapes "
               "with Table 1 of the paper — see docs/benchmarks.md)\n";
  return agree ? 0 : 1;
}
