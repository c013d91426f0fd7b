// Recursive path queries across paradigms: reachability, bounded
// friends-of-friends and shortest paths over the KNOWS graph, executed on
// the traversal engine and the Datalog engine — plus a demonstration of
// the magic-set transformation turning whole-graph transitive closure into
// goal-directed reachability (§5).
//
// Usage: ./build/examples/social_paths [scale_factor]   (default 0.3)

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>

#include "ldbc/ldbc.h"
#include "opt/magic_sets.h"
#include "opt/passes.h"
#include "raqlet/compiler.h"

namespace {

using Clock = std::chrono::steady_clock;

void Banner(const char* title) { std::cout << "\n=== " << title << " ===\n"; }

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

int main(int argc, char** argv) {
  double sf = 0.3;
  if (argc > 1) {
    char* end = nullptr;
    sf = std::strtod(argv[1], &end);
    if (end == argv[1] || *end != '\0' || !std::isfinite(sf) || sf <= 0) {
      std::cerr << "usage: social_paths [scale_factor]   "
                   "(a positive number, default 0.3)\n";
      return 2;
    }
  }

  raqlet::Compiler compiler;
  if (!compiler.LoadPgSchema(raqlet::ldbc::SnbSchema()).ok()) return 1;
  raqlet::Database db;
  if (!compiler.CreateEdbs(&db).ok()) return 1;
  raqlet::ldbc::GeneratorOptions gen;
  gen.scale_factor = sf;
  if (!GenerateSnbData(compiler.dl_schema(), &db, gen).ok()) return 1;
  auto store = compiler.BuildGraphStore(db);
  if (!store.ok()) return 1;

  raqlet::CompileOptions params;
  params.parameters["personId"] =
      raqlet::dlir::Constant::Number(raqlet::ldbc::SamplePersonId(gen));
  params.opt_level = 0;

  struct Spec {
    const char* name;
    const char* query;
  };
  for (const Spec& spec :
       {Spec{"reachability (KNOWS*)", raqlet::ldbc::ReachabilityQuery()},
        Spec{"friends within 3 hops", raqlet::ldbc::FriendsWithinThreeHops()},
        Spec{"shortest path lengths", raqlet::ldbc::ShortestPathQuery()}}) {
    Banner(spec.name);
    auto unit = compiler.CompileCypher(spec.query, params);
    if (!unit.ok()) {
      std::cerr << unit.status().ToString() << "\n";
      return 1;
    }
    auto t0 = Clock::now();
    auto graph = compiler.RunOnGraph(unit->pgir, *store, &db);
    auto t1 = Clock::now();
    auto datalog = compiler.RunOnDatalog(unit->dlir, &db);
    auto t2 = Clock::now();
    if (!graph.ok() || !datalog.ok()) {
      std::cerr << graph.status().ToString() << " / "
                << datalog.status().ToString() << "\n";
      return 1;
    }
    bool agree = graph->ToStringSet(db.symbols()) ==
                 datalog->ToStringSet(db.symbols());
    std::cout << "graph engine  : " << graph->rows.size() << " rows, "
              << Ms(t0, t1) << " ms\n";
    std::cout << "datalog engine: " << datalog->rows.size() << " rows, "
              << Ms(t1, t2) << " ms\n";
    std::cout << "agree: " << (agree ? "yes" : "NO") << "\n";
  }

  // --- magic sets: goal-directed evaluation of bound recursion ---
  Banner("magic-set transformation (Section 5)");
  auto unit = compiler.CompileCypher(raqlet::ldbc::ReachabilityQuery(), params);
  if (!unit.ok()) return 1;
  // The Standard pipeline (inlining + pushdown) exposes the bound person
  // id to the recursive atom; the Aggressive pipeline then applies the
  // magic-set transformation.
  auto standard = compiler.Optimize(unit->dlir, 1);
  auto cleaned = compiler.Optimize(unit->dlir, 2);
  if (!standard.ok() || !cleaned.ok()) return 1;
  std::cout << "transformed program:\n" << cleaned->ToString() << "\n";

  raqlet::engine::EvalStats plain_stats;
  raqlet::engine::EvalStats magic_stats;
  auto r1 = compiler.RunOnDatalog(*standard, &db, &plain_stats);
  auto r2 = compiler.RunOnDatalog(*cleaned, &db, &magic_stats);
  if (!r1.ok() || !r2.ok()) {
    std::cerr << r1.status().ToString() << " / " << r2.status().ToString()
              << "\n";
    return 1;
  }
  std::cout << "same results: "
            << (r1->ToStringSet(db.symbols()) == r2->ToStringSet(db.symbols())
                    ? "yes"
                    : "NO")
            << "\n";
  std::cout << "tuples derived without magic sets: "
            << plain_stats.tuples_inserted << "\n";
  std::cout << "tuples derived with magic sets   : "
            << magic_stats.tuples_inserted << "\n";
  return 0;
}
