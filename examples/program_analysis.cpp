// Program analysis with Raqlet's Datalog frontend (§1 motivates deductive
// databases as the standard substrate for static analyzers [39]).
//
// Implements a field-insensitive Andersen-style points-to analysis as a
// DLIR program with mutual recursion, runs it on the Datalog engine,
// shows the §4 analyses, and demonstrates backend-aware rejection: the
// mutually-recursive analysis cannot be ported to recursive SQL [23].
//
// Usage: ./build/examples/program_analysis

#include <iostream>
#include <random>

#include "raqlet/compiler.h"

namespace {

// Datalog encoding of Andersen points-to with call-graph discovery:
//   new:    v = new Obj        -> alloc(v, obj)
//   move:   v = w              -> move(v, w)
//   load:   v = w.f            -> load(v, w)
//   store:  v.f = w            -> store(v, w)
//   call:   invocations resolve through points-to (mutual recursion
//           between pts and call_edge).
constexpr char kPointsTo[] = R"(
.decl alloc(v: number, obj: number)
.input alloc
.decl move(dst: number, src: number)
.input move
.decl load(dst: number, base: number)
.input load
.decl store(base: number, src: number)
.input store
.decl invokes(site: number, base: number, callee_param: number, arg: number)
.input invokes

.decl pts(v: number, obj: number)
.decl heap(obj1: number, obj2: number)
.decl call_edge(param: number, arg: number)
.output pts

pts(v, obj) :- alloc(v, obj).
pts(v, obj) :- move(v, w), pts(w, obj).
pts(v, obj) :- call_edge(v, w), pts(w, obj).
heap(o1, o2) :- store(base, src), pts(base, o1), pts(src, o2).
pts(v, obj) :- load(v, base), pts(base, o1), heap(o1, obj).
call_edge(param, arg) :- invokes(_, base, param, arg), pts(base, _).
)";

void Banner(const char* title) { std::cout << "\n=== " << title << " ===\n"; }

// A synthetic "program" with chains of moves, loads/stores and calls.
void GenerateFacts(raqlet::Database* db, int vars, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> var(1, vars);
  auto insert = [&](const char* rel, std::vector<int64_t> values) {
    raqlet::Relation* r = *db->GetRelation(rel);
    raqlet::Tuple row;
    for (int64_t v : values) row.push_back(raqlet::Value::Number(v));
    r->Insert(row);
  };
  for (int i = 1; i <= vars / 4; ++i) insert("alloc", {var(rng), i});
  for (int i = 0; i < vars; ++i) insert("move", {var(rng), var(rng)});
  for (int i = 0; i < vars / 2; ++i) insert("load", {var(rng), var(rng)});
  for (int i = 0; i < vars / 2; ++i) insert("store", {var(rng), var(rng)});
  for (int i = 0; i < vars / 3; ++i) {
    insert("invokes", {i, var(rng), var(rng), var(rng)});
  }
}

}  // namespace

int main() {
  raqlet::Compiler compiler;

  Banner("Andersen points-to analysis in DLIR");
  auto program = compiler.CompileDatalog(kPointsTo);
  if (!program.ok()) {
    std::cerr << program.status().ToString() << "\n";
    return 1;
  }
  std::cout << program->ToString();

  Banner("Static analysis (Section 4)");
  raqlet::analysis::AnalysisReport report = compiler.Analyze(*program);
  std::cout << report.ToString();

  Banner("Backend support (Section 4, goal 1)");
  raqlet::Status datalog_ok = raqlet::analysis::CheckBackendSupport(
      *program, report, raqlet::analysis::Backend::kDatalog);
  std::cout << "deductive backend: " << datalog_ok.ToString() << "\n";
  raqlet::Status sql_ok = raqlet::analysis::CheckBackendSupport(
      *program, report, raqlet::analysis::Backend::kSql);
  std::cout << "recursive SQL    : " << sql_ok.ToString() << "\n";

  Banner("Evaluation on the Datalog engine");
  raqlet::Database db;
  for (const auto& decl : program->decls) {
    if (!decl.is_input) continue;
    raqlet::RelationSchema schema;
    schema.name = decl.name;
    schema.columns = decl.columns;
    (void)db.CreateRelation(std::move(schema));
  }
  GenerateFacts(&db, 400, /*seed=*/3);

  raqlet::engine::EvalStats stats;
  auto result = compiler.RunOnDatalog(*program, &db, &stats);
  if (!result.ok()) {
    std::cerr << result.status().ToString() << "\n";
    return 1;
  }
  std::cout << "pts facts derived: " << result->rows.size() << "\n";
  std::cout << "engine stats: " << stats.ToString() << "\n";

  Banner("Portable Soufflé emission");
  std::cout << compiler.EmitSouffle(*program);
  return 0;
}
