// Incremental view maintenance vs from-scratch re-evaluation.
//
// Three cases, all maintaining a recursive reachability view:
//
//  * BM_IncrementalDelta — the headline streaming-append shape: a 1%-of-
//    base insert-only delta on TC over a deterministic random graph
//    (out-degree ~2). Insert-only deltas take the semi-naive continuation
//    straight from the new facts, so maintenance cost scales with the
//    delta's derivational impact, not the view size; `speedup_vs_full`
//    (full re-evaluation wall time over per-delta maintenance wall time)
//    is expected well above 5x at nodes:1000. Manual timing: each
//    iteration re-initializes the view untimed, then times one ApplyDelta.
//  * BM_IncrementalMixedChurn — the adversarial shape: half removals of
//    existing edges, half fresh insertions, applied and then exactly
//    inverted each iteration. Removing edges inside a strongly connected
//    component cascades the overdeletion through most of the closure, so
//    the DRed bail-out hands the SCC to recompute-and-diff (past 1/5 of
//    the SCC's rows, see engine/datalog/incremental.cc) — this case
//    tracks the cost of that deletion path, not a speedup claim.
//  * BM_IncrementalKnowsDelta — the headline shape on the LDBC-like SNB
//    generator's Person_KNOWS_Person graph (heavy-tailed degrees) instead
//    of the synthetic uniform graph.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "dlir/parser.h"
#include "engine/datalog/engine.h"
#include "engine/datalog/incremental.h"
#include "ldbc/ldbc.h"
#include "raqlet/compiler.h"
#include "storage/database.h"

namespace {

constexpr char kTcDatalog[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, z) :- tc(x, y), edge(y, z).
)";

constexpr char kKnowsDatalog[] = R"(
.decl Person_KNOWS_Person(id1: number, id2: number, id: number, creationDate: number)
.input Person_KNOWS_Person
.decl reach(x: number, y: number)
.output reach
reach(x, y) :- Person_KNOWS_Person(x, y, _, _).
reach(x, z) :- reach(x, y), Person_KNOWS_Person(y, z, _, _).
)";

using Edge = std::pair<int64_t, int64_t>;

raqlet::Tuple ToTuple(const Edge& e) {
  return {raqlet::Value::Number(e.first), raqlet::Value::Number(e.second)};
}

double MedianOfThreeFullEvalsMs(const raqlet::dlir::Program& program,
                                raqlet::Database* db) {
  raqlet::engine::DatalogEngine eng;
  std::vector<double> runs;
  for (int i = 0; i < 3; ++i) {
    auto t0 = std::chrono::steady_clock::now();
    if (!eng.Run(program, db).ok()) std::abort();
    auto t1 = std::chrono::steady_clock::now();
    runs.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(runs.begin(), runs.end());
  return runs[1];
}

struct Instance {
  raqlet::dlir::Program program;
  std::vector<Edge> base;            // the steady-state edge set
  raqlet::DeltaBatch inserts;        // 1% fresh edges, adds only
  raqlet::DeltaBatch inserts_undo;   // base-level removal of `inserts`
  raqlet::DeltaBatch churn;          // mixed: +fresh / −victim base edges
  raqlet::DeltaBatch churn_inverse;  // exact undo of `churn`
  raqlet::Database db;
  double full_eval_ms = 0;  // median from-scratch wall time
};

void AddEdgeRelation(raqlet::Database* db) {
  raqlet::RelationSchema schema;
  schema.name = "edge";
  schema.columns = {{"x", raqlet::ValueType::kNumber},
                    {"y", raqlet::ValueType::kNumber}};
  if (!db->CreateRelation(std::move(schema)).ok()) std::abort();
}

Instance& GetInstance(int nodes) {
  static std::map<int, Instance*>& cache = *new std::map<int, Instance*>();
  auto it = cache.find(nodes);
  if (it != cache.end()) return *it->second;

  auto* inst = new Instance();
  auto program = raqlet::dlir::ParseProgram(kTcDatalog);
  if (!program.ok()) std::abort();
  inst->program = std::move(program).value();

  std::mt19937 rng(1234);
  std::uniform_int_distribution<int64_t> pick(1, nodes);
  std::set<Edge> seen;
  for (int i = 1; i <= nodes; ++i) {
    for (int k = 0; k < 2; ++k) {  // out-degree 2
      Edge e{i, pick(rng)};
      if (seen.insert(e).second) inst->base.push_back(e);
    }
  }

  auto fresh_edges = [&](size_t count) {
    std::vector<raqlet::Tuple> out;
    while (out.size() < count) {
      Edge e{pick(rng), pick(rng)};
      if (seen.insert(e).second) out.push_back(ToTuple(e));
    }
    return out;
  };

  // Headline delta: 1% of the base, adds only.
  size_t one_percent = std::max<size_t>(1, inst->base.size() / 100);
  raqlet::RelationDelta adds{"edge", fresh_edges(one_percent), {}};
  inst->inserts_undo.relations.push_back({"edge", {}, adds.adds});
  inst->inserts.relations.push_back(std::move(adds));

  // Mixed churn: ~1% of the base, half removals of evenly spaced existing
  // edges, half fresh insertions.
  size_t half = std::max<size_t>(1, inst->base.size() / 200);
  raqlet::RelationDelta fwd{"edge", fresh_edges(half), {}};
  for (size_t i = 0; i < half; ++i) {
    fwd.removes.push_back(ToTuple(inst->base[i * (inst->base.size() / half)]));
  }
  raqlet::RelationDelta rev{"edge", fwd.removes, fwd.adds};
  inst->churn.relations.push_back(std::move(fwd));
  inst->churn_inverse.relations.push_back(std::move(rev));

  AddEdgeRelation(&inst->db);
  raqlet::Relation* rel = *inst->db.GetRelation("edge");
  for (const Edge& e : inst->base) rel->Insert(ToTuple(e));
  inst->full_eval_ms = MedianOfThreeFullEvalsMs(inst->program, &inst->db);

  cache.emplace(nodes, inst);
  return *inst;
}

void ReportSpeedup(benchmark::State& state, double full_eval_ms,
                   double deltas_per_iteration) {
  state.counters["full_eval_ms"] = benchmark::Counter(full_eval_ms);
  // An iteration-invariant rate reports value·iterations/elapsed: with
  // value = full-eval seconds × deltas per iteration, that is full-eval
  // time divided by the measured per-delta maintenance time — the speedup.
  state.counters["speedup_vs_full"] = benchmark::Counter(
      full_eval_ms * 1e-3 * deltas_per_iteration,
      benchmark::Counter::kIsIterationInvariantRate);
}

// Headline: 1% insert-only delta (the streaming-append shape). The view
// re-initializes untimed each iteration; only ApplyDelta is measured.
void BM_IncrementalDelta(benchmark::State& state) {
  Instance& inst = GetInstance(static_cast<int>(state.range(0)));
  raqlet::engine::IncrementalOptions options;
  options.num_threads = static_cast<int>(state.range(1));
  raqlet::engine::IncrementalView view(options);
  for (auto _ : state) {
    if (!view.Initialize(inst.program, &inst.db).ok()) std::abort();
    auto t0 = std::chrono::steady_clock::now();
    auto applied = view.ApplyDelta(inst.inserts);
    auto t1 = std::chrono::steady_clock::now();
    if (!applied.ok()) state.SkipWithError(applied.status().ToString().c_str());
    benchmark::DoNotOptimize(applied);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    // Base-level revert; the next Initialize rebuilds the derived view.
    if (!inst.db.ApplyDelta(inst.inserts_undo).ok()) std::abort();
  }
  state.counters["delta_ops"] = benchmark::Counter(
      static_cast<double>(inst.inserts.relations[0].adds.size()));
  state.counters["base_edges"] =
      benchmark::Counter(static_cast<double>(inst.base.size()));
  ReportSpeedup(state, inst.full_eval_ms, 1);
  state.SetLabel("TC maintenance, 1% insert-only delta, vs from-scratch");
}

// Adversarial: mixed add/remove churn inside a strongly connected closure.
// One iteration = churn + exact inverse (two deltas, state restored), so
// wall time per iteration is 2× the per-delta cost of the DRed path.
void BM_IncrementalMixedChurn(benchmark::State& state) {
  Instance& inst = GetInstance(static_cast<int>(state.range(0)));
  raqlet::engine::IncrementalOptions options;
  options.num_threads = static_cast<int>(state.range(1));
  raqlet::engine::IncrementalView view(options);
  if (!view.Initialize(inst.program, &inst.db).ok()) std::abort();
  for (auto _ : state) {
    auto fwd = view.ApplyDelta(inst.churn);
    if (!fwd.ok()) state.SkipWithError(fwd.status().ToString().c_str());
    auto rev = view.ApplyDelta(inst.churn_inverse);
    if (!rev.ok()) state.SkipWithError(rev.status().ToString().c_str());
    benchmark::DoNotOptimize(fwd);
    benchmark::DoNotOptimize(rev);
  }
  state.counters["delta_ops"] = benchmark::Counter(
      static_cast<double>(inst.churn.relations[0].adds.size() +
                          inst.churn.relations[0].removes.size()));
  state.counters["base_edges"] =
      benchmark::Counter(static_cast<double>(inst.base.size()));
  ReportSpeedup(state, inst.full_eval_ms, 2);
  state.SetLabel(
      "TC maintenance, mixed churn (DRed bails out to recompute-and-diff)");
}

struct KnowsInstance {
  raqlet::Compiler compiler;
  raqlet::Database db;
  raqlet::dlir::Program program;
  raqlet::DeltaBatch inserts;
  raqlet::DeltaBatch inserts_undo;
  size_t base_edges = 0;
  double full_eval_ms = 0;
};

KnowsInstance& GetKnowsInstance() {
  static KnowsInstance* inst = nullptr;
  if (inst != nullptr) return *inst;
  inst = new KnowsInstance();
  if (!inst->compiler.LoadPgSchema(raqlet::ldbc::SnbSchema()).ok()) {
    std::abort();
  }
  if (!inst->compiler.CreateEdbs(&inst->db).ok()) std::abort();
  raqlet::ldbc::GeneratorOptions gen;
  gen.scale_factor = 0.2;
  if (!GenerateSnbData(inst->compiler.dl_schema(), &inst->db, gen).ok()) {
    std::abort();
  }
  auto program = raqlet::dlir::ParseProgram(kKnowsDatalog);
  if (!program.ok()) std::abort();
  inst->program = std::move(program).value();

  raqlet::Relation* knows = *inst->db.GetRelation("Person_KNOWS_Person");
  std::set<Edge> seen;
  for (const raqlet::Tuple& row : knows->MaterializeRows()) {
    seen.insert({row[0].AsNumber(), row[1].AsNumber()});
  }
  inst->base_edges = seen.size();

  std::mt19937 rng(1234);
  std::uniform_int_distribution<int64_t> pick(1, gen.persons());
  raqlet::RelationDelta adds{"Person_KNOWS_Person", {}, {}};
  int64_t next_id = 1000000000;
  size_t one_percent = std::max<size_t>(1, inst->base_edges / 100);
  while (adds.adds.size() < one_percent) {
    Edge e{pick(rng), pick(rng)};
    if (e.first == e.second || !seen.insert(e).second) continue;
    adds.adds.push_back(
        {raqlet::Value::Number(e.first), raqlet::Value::Number(e.second),
         raqlet::Value::Number(++next_id), raqlet::Value::Number(20260101)});
  }
  inst->inserts_undo.relations.push_back(
      {"Person_KNOWS_Person", {}, adds.adds});
  inst->inserts.relations.push_back(std::move(adds));

  inst->full_eval_ms = MedianOfThreeFullEvalsMs(inst->program, &inst->db);
  return *inst;
}

// Headline shape on the SNB generator's KNOWS graph (heavy-tailed
// degrees): 1% insert-only delta, view re-initialized untimed.
void BM_IncrementalKnowsDelta(benchmark::State& state) {
  KnowsInstance& inst = GetKnowsInstance();
  raqlet::engine::IncrementalOptions options;
  options.num_threads = static_cast<int>(state.range(0));
  raqlet::engine::IncrementalView view(options);
  for (auto _ : state) {
    if (!view.Initialize(inst.program, &inst.db).ok()) std::abort();
    auto t0 = std::chrono::steady_clock::now();
    auto applied = view.ApplyDelta(inst.inserts);
    auto t1 = std::chrono::steady_clock::now();
    if (!applied.ok()) state.SkipWithError(applied.status().ToString().c_str());
    benchmark::DoNotOptimize(applied);
    state.SetIterationTime(std::chrono::duration<double>(t1 - t0).count());
    if (!inst.db.ApplyDelta(inst.inserts_undo).ok()) std::abort();
  }
  state.counters["delta_ops"] = benchmark::Counter(
      static_cast<double>(inst.inserts.relations[0].adds.size()));
  state.counters["base_edges"] =
      benchmark::Counter(static_cast<double>(inst.base_edges));
  ReportSpeedup(state, inst.full_eval_ms, 1);
  state.SetLabel("KNOWS reachability, 1% insert-only delta, vs from-scratch");
}

BENCHMARK(BM_IncrementalDelta)
    ->ArgNames({"nodes", "threads"})
    ->Args({300, 1})
    ->Args({1000, 1})
    ->Args({1000, 4})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalMixedChurn)
    ->ArgNames({"nodes", "threads"})
    ->Args({300, 1})
    ->Args({1000, 1})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IncrementalKnowsDelta)
    ->ArgNames({"threads"})
    ->Args({1})
    ->Args({4})
    ->UseManualTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
