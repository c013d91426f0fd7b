// Optimizer ablation (docs/benchmarks.md lists it with the other
// targets): contribution of each §5 pass on the Table 1 queries, the
// magic-set transformation on bound recursion, and engine-level ablations
// (semi-naive vs naive evaluation, greedy vs written join order).

#include <benchmark/benchmark.h>

#include "dlir/parser.h"
#include "ldbc/ldbc.h"
#include "opt/pass_manager.h"
#include "raqlet/compiler.h"

namespace {

struct Workload {
  raqlet::Compiler compiler;
  raqlet::Database db;
  raqlet::CompiledQuery cq2_raw;   // unoptimized DLIR
  raqlet::CompiledQuery reach_raw;

  static Workload& Get() {
    static Workload& w = *new Workload(1.0);
    return w;
  }

  /// Smaller instance for whole-graph TC engine ablations (naive
  /// evaluation on SF 1 would dominate the suite's runtime).
  static Workload& GetSmall() {
    static Workload& w = *new Workload(0.15);
    return w;
  }

 private:
  explicit Workload(double sf) {
    if (!compiler.LoadPgSchema(raqlet::ldbc::SnbSchema()).ok()) std::abort();
    if (!compiler.CreateEdbs(&db).ok()) std::abort();
    raqlet::ldbc::GeneratorOptions gen;
    gen.scale_factor = sf;
    if (!GenerateSnbData(compiler.dl_schema(), &db, gen).ok()) std::abort();
    raqlet::CompileOptions params;
    params.parameters["personId"] =
        raqlet::dlir::Constant::Number(raqlet::ldbc::SamplePersonId(gen));
    params.parameters["maxDate"] =
        raqlet::dlir::Constant::Number(raqlet::ldbc::MidCreationDate());
    params.opt_level = 0;
    auto compile = [&](const char* text) {
      auto unit = compiler.CompileCypher(text, params);
      if (!unit.ok()) std::abort();
      return std::move(unit).value();
    };
    cq2_raw = compile(raqlet::ldbc::ComplexQuery2());
    reach_raw = compile(raqlet::ldbc::ReachabilityQuery());
  }
};

raqlet::dlir::Program WithPasses(const raqlet::dlir::Program& program,
                                 std::initializer_list<const char*> passes) {
  raqlet::opt::PassManager pm;
  for (const char* pass : passes) {
    if (!pm.Add(pass).ok()) std::abort();
  }
  auto out = pm.Run(program);
  if (!out.ok()) std::abort();
  return std::move(out).value();
}

void RunDatalog(benchmark::State& state, const raqlet::dlir::Program& program,
                const char* label) {
  Workload& w = Workload::Get();
  for (auto _ : state) {
    auto result = w.compiler.RunOnDatalog(program, &w.db);
    if (!result.ok()) state.SkipWithError(result.status().ToString().c_str());
    benchmark::DoNotOptimize(result);
  }
  state.SetLabel(label);
}

// ---- pass-by-pass on CQ2 (Fig. 4's inlining/DRE plus pushdown) ----

void BM_Cq2_NoOpt(benchmark::State& state) {
  RunDatalog(state, Workload::Get().cq2_raw.dlir, "CQ2, no optimization");
}
void BM_Cq2_InlineOnly(benchmark::State& state) {
  RunDatalog(state, WithPasses(Workload::Get().cq2_raw.dlir, {"inline"}),
             "CQ2, inlining only (Fig. 4a)");
}
void BM_Cq2_InlineDre(benchmark::State& state) {
  RunDatalog(state,
             WithPasses(Workload::Get().cq2_raw.dlir, {"inline", "dre"}),
             "CQ2, inlining + dead rule elimination (Fig. 4b)");
}
void BM_Cq2_InlineDrePushdown(benchmark::State& state) {
  RunDatalog(state, WithPasses(Workload::Get().cq2_raw.dlir,
                               {"inline", "pushdown", "dre"}),
             "CQ2, + constant pushdown");
}
void BM_Cq2_FullStandard(benchmark::State& state) {
  RunDatalog(state, WithPasses(Workload::Get().cq2_raw.dlir,
                               {"inline", "pushdown", "self-join-elim",
                                "dedup-atoms", "dre"}),
             "CQ2, full Standard pipeline (Table 1 'optimized')");
}

BENCHMARK(BM_Cq2_NoOpt)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cq2_InlineOnly)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cq2_InlineDre)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cq2_InlineDrePushdown)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Cq2_FullStandard)->Unit(benchmark::kMillisecond);

// ---- magic sets on bound reachability ----

void BM_Reach_Standard(benchmark::State& state) {
  RunDatalog(state,
             WithPasses(Workload::Get().reach_raw.dlir,
                        {"inline", "pushdown", "dedup-atoms", "dre"}),
             "bound KNOWS*, Standard (whole-graph closure)");
}
void BM_Reach_MagicSets(benchmark::State& state) {
  RunDatalog(state,
             WithPasses(Workload::Get().reach_raw.dlir,
                        {"inline", "pushdown", "dedup-atoms", "dre",
                         "magic-sets", "dre"}),
             "bound KNOWS*, + magic sets (goal-directed)");
}

BENCHMARK(BM_Reach_Standard)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Reach_MagicSets)->Unit(benchmark::kMillisecond);

// ---- engine ablations: semi-naive vs naive, join reordering ----

constexpr char kTc[] = R"(
.decl Person_KNOWS_Person(id1: number, id2: number, id: number, creationDate: number)
.input Person_KNOWS_Person
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- Person_KNOWS_Person(x, y, _, _).
tc(x, y) :- tc(x, z), Person_KNOWS_Person(z, y, _, _).
)";

void BM_Engine_Seminaive(benchmark::State& state) {
  Workload& w = Workload::GetSmall();
  auto program = raqlet::dlir::ParseProgram(kTc);
  raqlet::engine::DatalogEngine eng;
  for (auto _ : state) {
    raqlet::Status st = eng.Run(*program, &w.db);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel("whole-graph TC, semi-naive evaluation");
}

void BM_Engine_Naive(benchmark::State& state) {
  Workload& w = Workload::GetSmall();
  auto program = raqlet::dlir::ParseProgram(kTc);
  raqlet::engine::EvalOptions options;
  options.seminaive = false;
  raqlet::engine::DatalogEngine eng(options);
  for (auto _ : state) {
    raqlet::Status st = eng.Run(*program, &w.db);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel("whole-graph TC, naive evaluation");
}

void BM_Engine_NoReorder(benchmark::State& state) {
  Workload& w = Workload::Get();
  auto program = WithPasses(Workload::Get().cq2_raw.dlir, {"inline", "dre"});
  raqlet::engine::EvalOptions options;
  options.reorder_atoms = false;
  raqlet::engine::DatalogEngine eng(options);
  for (auto _ : state) {
    raqlet::Status st = eng.Run(program, &w.db);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetLabel("CQ2 inlined, greedy join ordering OFF");
}

BENCHMARK(BM_Engine_Seminaive)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Engine_Naive)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Engine_NoReorder)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
