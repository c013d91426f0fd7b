// LDBC SNB workload demo: generates a scale-factor social network, runs
// the paper's Table 1 queries (SQ1, CQ2) on all engines, unoptimized and
// optimized, and prints a Table 1-shaped timing summary.
//
// Usage: ./build/examples/ldbc_snb [scale_factor]   (default 0.5)

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "ldbc/ldbc.h"
#include "raqlet/compiler.h"

namespace {

using Clock = std::chrono::steady_clock;

double MeasureMs(const std::function<raqlet::Status()>& fn, bool* ok) {
  auto begin = Clock::now();
  raqlet::Status st = fn();
  auto end = Clock::now();
  *ok = st.ok();
  if (!st.ok()) std::cerr << "  error: " << st.ToString() << "\n";
  return std::chrono::duration<double, std::milli>(end - begin).count();
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

  std::printf("\n%-5s %-4s %12s %12s %12s %12s\n", "Query", "Opt",
              "Graph(ms)", "Datalog(ms)", "SQL-vec(ms)", "SQL-tup(ms)");
  for (const QuerySpec& query : queries) {
    for (bool optimized : {false, true}) {
      params.opt_level = optimized ? 1 : 0;
      auto unit = compiler.CompileCypher(query.text, params);
      if (!unit.ok()) {
        std::cerr << unit.status().ToString() << "\n";
        return 1;
      }
      const raqlet::dlir::Program& program = unit->optimized;

      bool ok = true;
      // Graph engine runs the PGIR directly (the "original Cypher" row of
      // Table 1 exists only unoptimized, as in the paper).
      double graph_ms = -1;
      if (!optimized) {
        graph_ms = MeasureMs(
            [&] {
              return compiler.RunOnGraph(unit->pgir, *store, &db).status();
            },
            &ok);
      }
      double datalog_ms = MeasureMs(
          [&] { return compiler.RunOnDatalog(program, &db).status(); }, &ok);
      double sql_vec_ms = MeasureMs(
          [&] {
            return compiler
                .RunOnSql(program, &db, raqlet::engine::SqlMode::kVectorized)
                .status();
          },
          &ok);
      double sql_tup_ms = MeasureMs(
          [&] {
            return compiler
                .RunOnSql(program, &db,
                          raqlet::engine::SqlMode::kTuplePipeline)
                .status();
          },
          &ok);
      if (!ok) return 1;

      char graph_buf[32];
      if (graph_ms < 0) {
        std::snprintf(graph_buf, sizeof(graph_buf), "%12s", "-");
      } else {
        std::snprintf(graph_buf, sizeof(graph_buf), "%12.2f", graph_ms);
      }
      std::printf("%-5s %-4s %s %12.2f %12.2f %12.2f\n", query.name,
                  optimized ? "yes" : "no", graph_buf, datalog_ms, sql_vec_ms,
                  sql_tup_ms);
    }
  }

  std::cout << "\n(absolute numbers are substrate-specific; compare shapes "
               "with Table 1 of the paper — see EXPERIMENTS.md)\n";
  return 0;
}
