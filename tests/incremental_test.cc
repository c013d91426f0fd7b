// Differential tests for incremental view maintenance
// (engine/datalog/incremental.h): randomized +/− base-fact streams over a
// catalogue of program shapes — recursion (linear, non-linear, mutual),
// stratified negation, @min lattices, aggregation, computed join args and
// multi-SCC strata — asserting after every delta that the incrementally
// maintained database holds exactly the rows a from-scratch evaluation
// produces, and that two views at 1 and 4 threads agree bit-for-bit
// (rows, row order, and counters).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "dlir/parser.h"
#include "engine/datalog/engine.h"
#include "engine/datalog/incremental.h"
#include "obs/metrics.h"
#include "raqlet/compiler.h"
#include "runtime/query_guard.h"
#include "storage/database.h"

namespace raqlet {
namespace {

using engine::DatalogEngine;
using engine::IncrementalOptions;
using engine::IncrementalView;

using IntRow = std::vector<int64_t>;
using IntRows = std::set<IntRow>;

dlir::Program Parse(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

Tuple ToTuple(const IntRow& row) {
  Tuple t;
  t.reserve(row.size());
  for (int64_t v : row) t.push_back(Value::Number(v));
  return t;
}

IntRow FromTuple(const Tuple& t) {
  IntRow row;
  row.reserve(t.size());
  for (const Value& v : t) row.push_back(v.AsNumber());
  return row;
}

IntRows RowSet(const Relation& rel) {
  IntRows out;
  for (const Tuple& t : rel.MaterializeRows()) out.insert(FromTuple(t));
  return out;
}

std::vector<IntRow> RowList(const Relation& rel) {
  std::vector<IntRow> out;
  for (const Tuple& t : rel.MaterializeRows()) out.push_back(FromTuple(t));
  return out;
}

// ---------------------------------------------------------------------------
// Shape catalogue. Every input relation is numeric; `arities` drives the
// random tuple generator (each column drawn from [0, domain)).
// ---------------------------------------------------------------------------

struct InputSpec {
  std::string name;
  size_t arity;
  int64_t domain;
};

struct Shape {
  const char* name;
  const char* program;
  std::vector<InputSpec> inputs;
};

const Shape kShapes[] = {
    {"linear_tc",
     R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)",
     {{"edge", 2, 8}}},

    {"nonlinear_tc",
     R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), tc(z, y).
)",
     {{"edge", 2, 8}}},

    {"mutual_recursion",
     R"(
.decl s(x: number, y: number)
.input s
.decl even(x: number)
.decl odd(x: number)
.output even
even(0).
odd(y) :- even(x), s(x, y).
even(y) :- odd(x), s(x, y).
)",
     {{"s", 2, 10}}},

    {"triangle_counting",
     R"(
.decl e(x: number, y: number)
.input e
.decl tri(x: number, y: number, z: number)
.output tri
tri(x, y, z) :- e(x, y), e(y, z), e(z, x).
)",
     {{"e", 2, 6}}},

    {"negation_nonrecursive",
     R"(
.decl node(x: number)
.input node
.decl edge(x: number, y: number)
.input edge
.decl un(x: number, y: number)
.output un
un(x, y) :- node(x), node(y), !edge(x, y).
)",
     {{"node", 1, 7}, {"edge", 2, 7}}},

    {"negation_over_recursion",
     R"(
.decl node(x: number)
.input node
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
.decl unreach(x: number, y: number)
.output unreach
unreach(x, y) :- node(x), node(y), !tc(x, y).
)",
     {{"node", 1, 6}, {"edge", 2, 6}}},

    {"lattice_shortest_path",
     R"(
.decl edge(x: number, y: number)
.input edge
.decl dist(x: number, y: number, d: number) @min
.output dist
dist(x, y, 1) :- edge(x, y).
dist(x, y, d + 1) :- dist(x, z, d), edge(z, y).
)",
     {{"edge", 2, 7}}},

    {"aggregation_outdeg",
     R"(
.decl edge(x: number, y: number)
.input edge
.decl outdeg(x: number, d: number)
.output outdeg
outdeg(x, count(y)) :- edge(x, y).
)",
     {{"edge", 2, 8}}},

    // Self-join whose second atom carries a computed argument: the delta
    // cannot be enumerated directly for that atom, exercising the
    // intersect-with-delta join path, plus a bound comparison constraint.
    {"computed_arg_self_join",
     R"(
.decl edge(x: number, y: number)
.input edge
.decl back(x: number, y: number)
.output back
back(x, y) :- edge(x, y), edge(y, x + 0), x < y.
)",
     {{"edge", 2, 8}}},

    // Recursive atom with a computed argument: p(x + 1) is the delta atom
    // of the second rule, and cannot join before q(x) binds x.
    {"recursive_computed_arg",
     R"(
.decl q(x: number)
.input q
.decl p(x: number)
.output p
p(x) :- q(x), x > 5.
p(x) :- q(x), p(x + 1).
)",
     {{"q", 1, 10}}},
};

// ---------------------------------------------------------------------------
// Randomized stream harness.
// ---------------------------------------------------------------------------

using FactModel = std::map<std::string, IntRows>;

IntRow RandomRow(const InputSpec& spec, std::mt19937* rng) {
  IntRow row(spec.arity);
  std::uniform_int_distribution<int64_t> dist(0, spec.domain - 1);
  for (auto& v : row) v = dist(*rng);
  return row;
}

Database MakeDatabase(const dlir::Program& program, const FactModel& facts) {
  Database db;
  for (const dlir::RelationDecl& decl : program.decls) {
    if (!decl.is_input) continue;
    RelationSchema schema;
    schema.name = decl.name;
    schema.columns = decl.columns;
    Relation* rel = *db.CreateRelation(schema);
    auto it = facts.find(decl.name);
    if (it == facts.end()) continue;
    for (const IntRow& row : it->second) {
      EXPECT_TRUE(rel->Insert(ToTuple(row)).ok()) << decl.name;
    }
  }
  return db;
}

// One random delta: a few adds (possibly already present) and removes
// (drawn from the live facts, plus the occasional absent tuple) per input
// relation. Mutates `model` to the post-delta fact set.
DeltaBatch RandomDelta(const Shape& shape, FactModel* model,
                       std::mt19937* rng) {
  DeltaBatch batch;
  for (const InputSpec& spec : shape.inputs) {
    RelationDelta rd;
    rd.relation = spec.name;
    IntRows& live = (*model)[spec.name];
    std::uniform_int_distribution<int> count_dist(0, 3);
    int adds = count_dist(*rng);
    int removes = count_dist(*rng);
    std::vector<IntRow> add_rows;
    std::vector<IntRow> remove_rows;
    for (int i = 0; i < adds; ++i) add_rows.push_back(RandomRow(spec, rng));
    for (int i = 0; i < removes; ++i) {
      if (!live.empty() && std::uniform_int_distribution<int>(0, 4)(*rng) > 0) {
        // Remove a live tuple.
        auto it = live.begin();
        std::advance(it, std::uniform_int_distribution<size_t>(
                             0, live.size() - 1)(*rng));
        remove_rows.push_back(*it);
      } else {
        // Remove a (probably) absent tuple — must be a no-op.
        remove_rows.push_back(RandomRow(spec, rng));
      }
    }
    // Database::ApplyDelta semantics: final = (R ∖ (removes ∖ adds)) ∪ adds.
    IntRows add_set(add_rows.begin(), add_rows.end());
    for (const IntRow& row : remove_rows) {
      rd.removes.push_back(ToTuple(row));
      if (add_set.count(row) == 0) live.erase(row);
    }
    for (const IntRow& row : add_rows) {
      rd.adds.push_back(ToTuple(row));
      live.insert(row);
    }
    if (!rd.adds.empty() || !rd.removes.empty()) {
      batch.relations.push_back(std::move(rd));
    }
  }
  return batch;
}

// Oracle: a fresh database holding exactly `facts`, evaluated from
// scratch by the ordinary engine.
void OracleRows(const dlir::Program& program, const FactModel& facts,
                std::map<std::string, IntRows>* out) {
  Database db = MakeDatabase(program, facts);
  DatalogEngine eng;
  Status st = eng.Run(program, &db);
  ASSERT_TRUE(st.ok()) << st.ToString();
  out->clear();
  for (const dlir::RelationDecl& decl : program.decls) {
    (*out)[decl.name] = RowSet(**db.GetRelation(decl.name));
  }
}

// Runs `steps` random deltas through two incremental views (1 and 4
// threads), asserting after every delta that (a) both views hold exactly
// the oracle's row sets for every declared relation, and (b) the two
// views agree exactly — same rows in the same order, same stats.
void RunDifferential(const Shape& shape, uint32_t seed, int steps) {
  SCOPED_TRACE(std::string(shape.name) + " seed=" + std::to_string(seed));
  dlir::Program program = Parse(shape.program);
  std::mt19937 rng(seed);

  // Random initial base facts.
  FactModel model;
  for (const InputSpec& spec : shape.inputs) {
    int n = std::uniform_int_distribution<int>(2, 10)(rng);
    for (int i = 0; i < n; ++i) model[spec.name].insert(RandomRow(spec, &rng));
  }

  Database db1 = MakeDatabase(program, model);
  Database db4 = MakeDatabase(program, model);
  IncrementalOptions opt1;
  IncrementalOptions opt4;
  opt4.num_threads = 4;
  IncrementalView view1(opt1);
  IncrementalView view4(opt4);
  ASSERT_TRUE(view1.Initialize(program, &db1).ok());
  ASSERT_TRUE(view4.Initialize(program, &db4).ok());

  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    DeltaBatch batch = RandomDelta(shape, &model, &rng);

    auto r1 = view1.ApplyDelta(batch);
    auto r4 = view4.ApplyDelta(batch);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r4.ok()) << r4.status().ToString();

    std::map<std::string, IntRows> oracle;
    OracleRows(program, model, &oracle);
    if (testing::Test::HasFatalFailure()) return;

    for (const dlir::RelationDecl& decl : program.decls) {
      // Row sets match a from-scratch evaluation exactly.
      EXPECT_EQ(RowSet(**db1.GetRelation(decl.name)), oracle[decl.name])
          << "relation " << decl.name << " diverged from the oracle";
      // The two thread counts agree on rows AND row order.
      EXPECT_EQ(RowList(**db1.GetRelation(decl.name)),
                RowList(**db4.GetRelation(decl.name)))
          << "relation " << decl.name << " row order differs across threads";
    }
    // The applied-delta reports and cumulative counters are bit-identical
    // across thread counts.
    EXPECT_EQ(r1->total_added, r4->total_added);
    EXPECT_EQ(r1->total_removed, r4->total_removed);
    ASSERT_EQ(r1->relations.size(), r4->relations.size());
    for (size_t i = 0; i < r1->relations.size(); ++i) {
      EXPECT_EQ(r1->relations[i].relation, r4->relations[i].relation);
      EXPECT_EQ(r1->relations[i].added, r4->relations[i].added);
      EXPECT_EQ(r1->relations[i].removed, r4->relations[i].removed);
    }
    EXPECT_EQ(view1.stats(), view4.stats());
  }
}

class IncrementalDifferentialTest
    : public testing::TestWithParam<std::tuple<size_t, uint32_t>> {};

TEST_P(IncrementalDifferentialTest, MatchesFromScratchAtAllThreadCounts) {
  const Shape& shape = kShapes[std::get<0>(GetParam())];
  RunDifferential(shape, std::get<1>(GetParam()), 8);
}

// 10 shapes × 3 seeds = 30 randomized update streams of 8 deltas each,
// every one checked at 1 and 4 threads.
INSTANTIATE_TEST_SUITE_P(
    Streams, IncrementalDifferentialTest,
    testing::Combine(testing::Range<size_t>(0, std::size(kShapes)),
                     testing::Values(7u, 1234u, 99991u)),
    [](const testing::TestParamInfo<std::tuple<size_t, uint32_t>>& info) {
      return std::string(kShapes[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Targeted unit tests.
// ---------------------------------------------------------------------------

constexpr char kTc[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

Database ChainDb(int n) {
  Database db;
  RelationSchema s;
  s.name = "edge";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* rel = *db.CreateRelation(s);
  for (int i = 0; i < n; ++i) {
    rel->Insert({Value::Number(i), Value::Number(i + 1)}).value();
  }
  return db;
}

TEST(IncrementalViewTest, InsertExtendsClosure) {
  Database db = ChainDb(3);  // 0-1-2-3: 6 tc pairs
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 6u);

  DeltaBatch batch;
  batch.relations.push_back(
      {"edge", {{Value::Number(3), Value::Number(4)}}, {}});
  auto applied = view.ApplyDelta(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 10u);
  // Net report: edge +1, tc +4 (x→4 for x in 0..3).
  EXPECT_EQ(applied->total_added, 5u);
  EXPECT_EQ(applied->total_removed, 0u);
}

TEST(IncrementalViewTest, DeleteShrinksClosureViaDred) {
  Database db = ChainDb(4);  // 0-1-2-3-4: 10 tc pairs
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());

  DeltaBatch batch;
  batch.relations.push_back(
      {"edge", {}, {{Value::Number(2), Value::Number(3)}}});
  auto applied = view.ApplyDelta(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  // Chain splits into 0-1-2 and 3-4: 3 + 1 tc pairs survive.
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 4u);
  EXPECT_GT(view.stats().overdeleted, 0u);
}

TEST(IncrementalViewTest, RederivationKeepsAlternatePaths) {
  Database db = ChainDb(2);  // 0-1-2
  (*db.GetRelation("edge"))->Insert({Value::Number(0), Value::Number(2)})
      .value();
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());

  // Deleting 1→2 overdeletes tc(0,2), which the direct edge rederives.
  DeltaBatch batch;
  batch.relations.push_back(
      {"edge", {}, {{Value::Number(1), Value::Number(2)}}});
  auto applied = view.ApplyDelta(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE((*db.GetRelation("tc"))
                  ->Contains({Value::Number(0), Value::Number(2)}));
  EXPECT_GT(view.stats().rederived, 0u);
}

// A delete that cascades through most of a large closure must abandon
// DRed mid-overdeletion and fall back to recompute-and-diff — and the
// fallback must land on exactly the rows DRed would have produced.
TEST(IncrementalViewTest, MassiveCascadeBailsOutToRecompute) {
  // Chain 0→1→…→150: tc holds 150·151/2 = 11325 pairs. Cutting the edge
  // 75→76 kills every pair crossing the cut (76·75 = 5700 > the 4096
  // bail-out floor and > 20% of the closure).
  Database db = ChainDb(150);
  IncrementalView view;  // default options: bail-out armed
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());
  ASSERT_EQ((*db.GetRelation("tc"))->size(), 11325u);

  DeltaBatch batch;
  batch.relations.push_back(
      {"edge", {}, {{Value::Number(75), Value::Number(76)}}});
  auto applied = view.ApplyDelta(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // Two chains of 75 and 74 edges remain: 2850 + 2775 pairs.
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 5625u);
  EXPECT_EQ(view.stats().dred_bailouts, 1u);
  EXPECT_EQ(view.stats().recomputed_sccs, 1u);
  // The cascade was abandoned before any erase, so no overdeletion or
  // rederivation was recorded.
  EXPECT_EQ(view.stats().overdeleted, 0u);
  EXPECT_EQ(view.stats().rederived, 0u);
  // What it threw away: the seed round overdeletes tc(x, 76) for x in
  // 0..75, and each round after it the 76 pairs one hop further right.
  // The 54th such batch, 76·54 = 4104 rows, is the first past 4096.
  EXPECT_EQ(view.stats().abandoned_overdeleted, 4104u);
}

bool SameRows(const std::vector<Tuple>& a, const std::vector<Tuple>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), TupleBitEq());
}

// A bail-out batch that removes and adds closure rows, over a float graph
// with a NaN node and a 0.0 leaf that turns into -0.0: the recompute's
// write-back must equal the boxed diff by bit equality — Δ− the live rows
// the recompute lost (live order), Δ+ the rows it gained (its order),
// survivors kept in place and Δ+ appended — at 1 and 4 threads.
TEST(IncrementalViewTest, BailOutDiffMatchesBoxedDiff) {
  constexpr char kFloatTc[] = R"(
.decl edge(x: float, y: float)
.input edge
.decl tc(x: float, y: float)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";
  const dlir::Program program = Parse(kFloatTc);
  const Value nan = Value::Float(std::numeric_limits<double>::quiet_NaN());
  auto f = [](double v) { return Value::Float(v); };
  for (int threads : {1, 4}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    Database db;
    RelationSchema s;
    s.name = "edge";
    s.columns = {{"x", ValueType::kFloat}, {"y", ValueType::kFloat}};
    Relation* edge = *db.CreateRelation(s);
    for (int i = 1; i <= 150; ++i) {
      ASSERT_TRUE(edge->Insert({f(i), f(i + 1)}).ok());
    }
    // NaN joins nothing, so these add tc(x, NaN) for x in 1..20 and
    // tc(NaN, y) for y in 7..151; the cut keeps tc(NaN, y) for y <= 75.
    ASSERT_TRUE(edge->Insert({f(20), nan}).ok());
    ASSERT_TRUE(edge->Insert({nan, f(7)}).ok());
    ASSERT_TRUE(edge->Insert({f(5), f(0.0)}).ok());
    IncrementalOptions options;
    options.num_threads = threads;
    IncrementalView view(options);
    ASSERT_TRUE(view.Initialize(program, &db).ok());
    const Relation& tc = **db.GetRelation("tc");
    const std::vector<Tuple> before = tc.MaterializeRows();

    DeltaBatch batch;
    batch.relations.push_back({"edge",
                               {{f(5), f(-0.0)}, {f(151), f(152)}},
                               {{f(75), f(76)}, {f(5), f(0.0)}}});
    auto applied = view.ApplyDelta(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ASSERT_EQ(view.stats().dred_bailouts, 1u);
    ASSERT_EQ(view.stats().recomputed_sccs, 1u);

    // The boxed diff against a from-scratch run over the same edge rows.
    Database fresh;
    Relation* fresh_edge = *fresh.CreateRelation(s);
    ASSERT_TRUE(fresh_edge->InsertBatch(edge->MaterializeRows()).ok());
    DatalogEngine eng;
    ASSERT_TRUE(eng.Run(program, &fresh).ok());
    const std::vector<Tuple> after =
        (*fresh.GetRelation("tc"))->MaterializeRows();
    const std::unordered_set<Tuple, TupleHash, TupleBitEq> old_rows(
        before.begin(), before.end());
    const std::unordered_set<Tuple, TupleHash, TupleBitEq> new_rows(
        after.begin(), after.end());
    std::vector<Tuple> removed;
    std::vector<Tuple> maintained;
    for (const Tuple& t : before) {
      (new_rows.count(t) == 0 ? removed : maintained).push_back(t);
    }
    std::vector<Tuple> added;
    for (const Tuple& t : after) {
      if (old_rows.count(t) == 0) added.push_back(t);
    }
    maintained.insert(maintained.end(), added.begin(), added.end());
    // Both signs of the leaf, and NaN rows that survive on both sides.
    ASSERT_FALSE(added.empty());
    ASSERT_FALSE(removed.empty());
    EXPECT_TRUE(new_rows.count({f(1), f(-0.0)}) == 1 &&
                old_rows.count({f(1), f(0.0)}) == 1 &&
                new_rows.count({f(1), f(0.0)}) == 0);
    EXPECT_TRUE(old_rows.count({nan, f(7)}) == 1 &&
                new_rows.count({nan, f(7)}) == 1);

    ASSERT_EQ(applied->relations.size(), 2u);
    const AppliedRelationDelta& tc_delta = applied->relations[1];
    EXPECT_EQ(tc_delta.relation, "tc");
    EXPECT_EQ(tc_delta.added.size(), added.size());
    EXPECT_EQ(tc_delta.removed.size(), removed.size());
    EXPECT_TRUE(SameRows(tc_delta.added, added));
    EXPECT_TRUE(SameRows(tc_delta.removed, removed));
    EXPECT_EQ(tc.size(), maintained.size());
    EXPECT_TRUE(SameRows(tc.MaterializeRows(), maintained));
  }
}

// A cascade under the bail-out floor stays on DRed: cutting 140→141 on
// the 150-edge chain kills 141·10 = 1410 pairs, below 4096 rows.
TEST(IncrementalViewTest, BailOutDisabledKeepsPureDred) {
  Database db = ChainDb(150);
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());

  DeltaBatch batch;
  batch.relations.push_back(
      {"edge", {}, {{Value::Number(140), Value::Number(141)}}});
  auto applied = view.ApplyDelta(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // Chains of 140 and 9 edges remain: 9870 + 45 pairs.
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 9915u);
  EXPECT_EQ(view.stats().dred_bailouts, 0u);
  EXPECT_EQ(view.stats().recomputed_sccs, 0u);
  EXPECT_EQ(view.stats().overdeleted, 1410u);
  EXPECT_EQ(view.stats().rederived, 0u);
}

TEST(IncrementalViewTest, NoopDeltaSkipsEverySCC) {
  Database db = ChainDb(3);
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());

  DeltaBatch batch;  // removing an absent tuple changes nothing
  batch.relations.push_back(
      {"edge", {}, {{Value::Number(7), Value::Number(9)}}});
  auto applied = view.ApplyDelta(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(applied->relations.empty());
  EXPECT_EQ(view.stats().sccs_touched, 0u);
  EXPECT_EQ(view.stats().sccs_skipped, 1u);
}

TEST(IncrementalViewTest, SignedZeroRowsKeepTheirOwnSupport) {
  // 0.0 and -0.0 are two stored rows (dedup compares bits), so each
  // derived row keeps its own support count: removing a(-0.0) removes
  // out(-0.0) and keeps out(0.0), as a from-scratch evaluation does.
  Database db;
  RelationSchema schema;
  schema.name = "a";
  schema.columns = {{"x", ValueType::kFloat}};
  Relation* a = *db.CreateRelation(schema);
  ASSERT_TRUE(a->Insert({Value::Float(0.0)}).ok());
  ASSERT_TRUE(a->Insert({Value::Float(-0.0)}).ok());
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(R"(
.decl a(x: float)
.input a
.decl out(x: float)
.output out
out(x) :- a(x).
)"),
                              &db)
                  .ok());
  ASSERT_EQ((*db.GetRelation("out"))->size(), 2u);

  DeltaBatch batch;
  batch.relations.push_back({"a", {}, {{Value::Float(-0.0)}}});
  auto applied = view.ApplyDelta(batch);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  std::vector<Tuple> rows = (*db.GetRelation("out"))->MaterializeRows();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0][0].RawBits(), Value::Float(0.0).RawBits());
}

TEST(IncrementalViewTest, DeltaToNonInputRelationIsRejectedWithoutPoison) {
  Database db = ChainDb(3);
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());

  DeltaBatch bad;
  bad.relations.push_back(
      {"tc", {{Value::Number(0), Value::Number(9)}}, {}});
  EXPECT_EQ(view.ApplyDelta(bad).status().code(),
            StatusCode::kInvalidArgument);

  // Pre-validation failure: the view keeps working.
  DeltaBatch good;
  good.relations.push_back(
      {"edge", {{Value::Number(3), Value::Number(4)}}, {}});
  EXPECT_TRUE(view.ApplyDelta(good).ok());
}

TEST(IncrementalViewTest, MidApplyFailurePoisonsUntilReinitialize) {
  Database db = ChainDb(3);
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());

  DeltaBatch bad;  // arity mismatch surfaces inside Database::ApplyDelta
  bad.relations.push_back({"edge", {{Value::Number(1)}}, {}});
  EXPECT_FALSE(view.ApplyDelta(bad).ok());

  DeltaBatch good;
  good.relations.push_back(
      {"edge", {{Value::Number(3), Value::Number(4)}}, {}});
  EXPECT_EQ(view.ApplyDelta(good).status().code(),
            StatusCode::kInvalidArgument);

  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());
  EXPECT_TRUE(view.ApplyDelta(good).ok());
}

TEST(IncrementalViewTest, ApplyBeforeInitializeFails) {
  IncrementalView view;
  EXPECT_FALSE(view.initialized());
  EXPECT_EQ(view.ApplyDelta({}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IncrementalViewTest, GuardCancellationTripsAndPoisons) {
  Database db = ChainDb(10);
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());

  runtime::QueryGuard guard;
  guard.Cancel();
  DeltaBatch batch;
  batch.relations.push_back(
      {"edge", {{Value::Number(10), Value::Number(11)}}, {}});
  EXPECT_EQ(view.ApplyDelta(batch, nullptr, &guard).status().code(),
            StatusCode::kCancelled);
  // Aborting mid-repair leaves derived state undefined → poisoned.
  EXPECT_EQ(view.ApplyDelta(batch).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(IncrementalViewTest, MetricsRecordCounters) {
  Database db = ChainDb(4);
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());

  obs::IncrementalMetrics metrics;
  DeltaBatch batch;
  batch.relations.push_back({"edge",
                             {{Value::Number(4), Value::Number(5)}},
                             {{Value::Number(0), Value::Number(1)}}});
  ASSERT_TRUE(view.ApplyDelta(batch, &metrics).ok());
  EXPECT_EQ(metrics.base_added, 1u);
  EXPECT_EQ(metrics.base_removed, 1u);
  EXPECT_EQ(metrics.sccs_touched, 1u);
  EXPECT_GT(metrics.tuples_inserted + metrics.tuples_deleted, 0u);
  EXPECT_FALSE(metrics.empty());
}

TEST(IncrementalViewTest, CompilerFacadeRoundTrip) {
  Database db = ChainDb(3);
  Compiler compiler;
  obs::QueryMetrics metrics;
  auto view = compiler.BeginIncremental(Parse(kTc), &db, {}, &metrics);
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  DeltaBatch batch;
  batch.relations.push_back(
      {"edge", {{Value::Number(3), Value::Number(4)}}, {}});
  auto applied = compiler.ApplyDelta(view->get(), batch, &metrics);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ((*db.GetRelation("tc"))->size(), 10u);
  EXPECT_FALSE(metrics.incremental.empty());
  EXPECT_FALSE(metrics.memory.empty());
  // Both facade phases were timed.
  bool saw_init = false, saw_apply = false;
  for (const auto& phase : metrics.phases) {
    saw_init |= phase.name == "initialize-incremental";
    saw_apply |= phase.name == "apply-delta";
  }
  EXPECT_TRUE(saw_init);
  EXPECT_TRUE(saw_apply);
  EXPECT_NE(metrics.ToString().find("incremental:"), std::string::npos);
}

// Large single delta: enough rows to cross the parallel chunking
// threshold, so the 4-thread view actually fans the insertion
// continuation out across its pool — and must still match the serial
// view row-for-row and the oracle set-for-set.
TEST(IncrementalViewTest, LargeBatchParallelMatchesSerial) {
  dlir::Program program = Parse(kTc);
  std::mt19937 rng(4242);
  std::uniform_int_distribution<int64_t> node(0, 199);

  Database db1 = ChainDb(0);
  Database db4 = ChainDb(0);
  IncrementalOptions opt4;
  opt4.num_threads = 4;
  IncrementalView view1;
  IncrementalView view4(opt4);
  ASSERT_TRUE(view1.Initialize(program, &db1).ok());
  ASSERT_TRUE(view4.Initialize(program, &db4).ok());

  DeltaBatch batch;
  RelationDelta rd;
  rd.relation = "edge";
  for (int i = 0; i < 400; ++i) {
    rd.adds.push_back({Value::Number(node(rng)), Value::Number(node(rng))});
  }
  batch.relations.push_back(rd);
  auto r1 = view1.ApplyDelta(batch);
  auto r4 = view4.ApplyDelta(batch);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r4.ok()) << r4.status().ToString();
  EXPECT_EQ(RowList(**db1.GetRelation("tc")),
            RowList(**db4.GetRelation("tc")));
  EXPECT_EQ(view1.stats(), view4.stats());

  // And both match a from-scratch evaluation.
  Database oracle_db = ChainDb(0);
  Relation* edge = *oracle_db.GetRelation("edge");
  for (const Tuple& t : rd.adds) edge->Insert(t).value();
  DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &oracle_db).ok());
  EXPECT_EQ(RowSet(**db1.GetRelation("tc")),
            RowSet(**oracle_db.GetRelation("tc")));
}

TEST(IncrementalViewTest, StatsAccumulateAcrossDeltas) {
  Database db = ChainDb(3);
  IncrementalView view;
  ASSERT_TRUE(view.Initialize(Parse(kTc), &db).ok());
  for (int i = 3; i < 6; ++i) {
    DeltaBatch batch;
    batch.relations.push_back(
        {"edge", {{Value::Number(i), Value::Number(i + 1)}}, {}});
    ASSERT_TRUE(view.ApplyDelta(batch).ok());
  }
  EXPECT_EQ(view.stats().sccs_touched, 3u);
  EXPECT_EQ(view.stats().base_added, 3u);
  // Each new edge extends every path ending at its source: 4 + 5 + 6.
  EXPECT_EQ(view.stats().tuples_inserted, 15u);
}

// Applies `batch` to a 1-thread and a 4-thread view over copies of the
// same base, then checks both against a from-scratch evaluation of the
// post-delta base (row sets) and against each other (rows, row order,
// applied deltas and counters).
class TwinViews {
 public:
  TwinViews(const dlir::Program& program,
            const std::function<void(Database*)>& fill)
      : program_(program), fill_(fill) {
    MakeDb(&db1_);
    MakeDb(&db4_);
    IncrementalOptions opt4;
    opt4.num_threads = 4;
    view4_ = std::make_unique<IncrementalView>(opt4);
    EXPECT_TRUE(view1_.Initialize(program_, &db1_).ok());
    EXPECT_TRUE(view4_->Initialize(program_, &db4_).ok());
  }

  const IncrementalView& view1() const { return view1_; }

  void Apply(const DeltaBatch& batch) {
    auto r1 = view1_.ApplyDelta(batch);
    auto r4 = view4_->ApplyDelta(batch);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r4.ok()) << r4.status().ToString();
    ASSERT_EQ(r1->relations.size(), r4->relations.size());
    for (size_t i = 0; i < r1->relations.size(); ++i) {
      EXPECT_EQ(r1->relations[i].added, r4->relations[i].added);
      EXPECT_EQ(r1->relations[i].removed, r4->relations[i].removed);
    }
    EXPECT_EQ(view1_.stats(), view4_->stats());

    // Oracle: the post-delta base relations, evaluated from scratch.
    Database oracle;
    for (const dlir::RelationDecl& decl : program_.decls) {
      if (!decl.is_input) continue;
      RelationSchema schema;
      schema.name = decl.name;
      schema.columns = decl.columns;
      Relation* rel = *oracle.CreateRelation(schema);
      ASSERT_TRUE(
          rel->InsertBatch((*db1_.GetRelation(decl.name))->MaterializeRows())
              .ok());
    }
    DatalogEngine eng;
    ASSERT_TRUE(eng.Run(program_, &oracle).ok());
    for (const dlir::RelationDecl& decl : program_.decls) {
      EXPECT_EQ(RowSet(**db1_.GetRelation(decl.name)),
                RowSet(**oracle.GetRelation(decl.name)))
          << "relation " << decl.name << " diverged from the oracle";
      EXPECT_EQ(RowList(**db1_.GetRelation(decl.name)),
                RowList(**db4_.GetRelation(decl.name)))
          << "relation " << decl.name << " row order differs across threads";
    }
  }

 private:
  void MakeDb(Database* db) {
    for (const dlir::RelationDecl& decl : program_.decls) {
      if (!decl.is_input) continue;
      RelationSchema schema;
      schema.name = decl.name;
      schema.columns = decl.columns;
      ASSERT_TRUE(db->CreateRelation(schema).ok());
    }
    fill_(db);
  }

  dlir::Program program_;
  std::function<void(Database*)> fill_;
  Database db1_;
  Database db4_;
  IncrementalView view1_;
  std::unique_ptr<IncrementalView> view4_;
};

Tuple Pair(int64_t a, int64_t b) {
  return {Value::Number(a), Value::Number(b)};
}

// A batch may name one relation in several entries, each applied on top of
// the previous one. A pre-delta row removed by one entry and re-added by a
// later one sits in the appended suffix, not in the unchanged prefix, and
// is in neither Δ+ nor Δ−, so these batches exercise the OLD-state
// bookkeeping of every strategy: DRed (tc), counting with negation over
// it (unreach), counting over a base relation (hop2), and the base.
TEST(IncrementalViewTest, MultiEntryBatchesMatchFromScratch) {
  const dlir::Program program = Parse(R"(
.decl node(x: number)
.input node
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
.decl unreach(x: number, y: number)
.output unreach
unreach(x, y) :- node(x), node(y), !tc(x, y).
.decl hop2(x: number, z: number)
.output hop2
hop2(x, z) :- edge(x, y), edge(y, z).
)");
  TwinViews views(program, [](Database* db) {
    Relation* node = *db->GetRelation("node");
    for (int i = 0; i < 6; ++i) node->Insert({Value::Number(i)}).value();
    Relation* edge = *db->GetRelation("edge");
    for (auto [a, b] : {std::pair{0, 1}, {1, 2}, {2, 3}, {3, 4}, {1, 4}}) {
      edge->Insert(Pair(a, b)).value();
    }
  });

  {
    SCOPED_TRACE("removed, then re-added");
    DeltaBatch batch;
    batch.relations.push_back({"edge", {}, {Pair(1, 2)}});
    batch.relations.push_back({"edge", {Pair(1, 2), Pair(4, 5)}, {}});
    views.Apply(batch);
  }
  {
    SCOPED_TRACE("added, then removed");
    DeltaBatch batch;
    batch.relations.push_back({"edge", {Pair(5, 0), Pair(2, 0)}, {}});
    batch.relations.push_back({"edge", {}, {Pair(5, 0), Pair(3, 4)}});
    views.Apply(batch);
  }
  {
    SCOPED_TRACE("three entries mixing both");
    DeltaBatch batch;
    batch.relations.push_back({"edge", {Pair(3, 4)}, {Pair(0, 1)}});
    batch.relations.push_back({"node", {}, {{Value::Number(5)}}});
    batch.relations.push_back({"edge", {Pair(0, 1)}, {Pair(3, 4), Pair(2, 0)}});
    batch.relations.push_back(
        {"node", {{Value::Number(5)}}, {{Value::Number(4)}}});
    batch.relations.push_back({"edge", {Pair(3, 4), Pair(5, 1)}, {Pair(1, 4)}});
    views.Apply(batch);
  }
}

// A mixed batch whose cascade stays under the bail-out floor, large enough
// (>128 rows removed and added) that at 4 threads the overdeletion rounds,
// the rederivation batch and the counting variants all fan out across the
// pool — and still match one thread row for row.
TEST(IncrementalViewTest, MixedBatchParallelMatchesSerial) {
  const dlir::Program program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
.decl two(x: number, z: number)
.output two
two(x, z) :- edge(x, y), edge(y, z).
)");
  // 300 diamonds a→{b,c}→d→e, node ids 10k..10k+4: 9 tc pairs each.
  TwinViews views(program, [](Database* db) {
    Relation* edge = *db->GetRelation("edge");
    for (int k = 0; k < 300; ++k) {
      const int a = 10 * k;
      for (auto [x, y] : {std::pair{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}}) {
        edge->Insert(Pair(a + x, a + y)).value();
      }
    }
  });

  // Cut a→b in 200 diamonds (overdeletes tc(a,b), tc(a,d), tc(a,e); the
  // last two are rederived through c) and hang e→f off 200 diamonds.
  DeltaBatch batch;
  RelationDelta rd;
  rd.relation = "edge";
  for (int k = 0; k < 200; ++k) rd.removes.push_back(Pair(10 * k, 10 * k + 1));
  for (int k = 100; k < 300; ++k) {
    rd.adds.push_back(Pair(10 * k + 4, 10 * k + 5));
  }
  batch.relations.push_back(std::move(rd));
  views.Apply(batch);

  const obs::IncrementalMetrics& m = views.view1().stats();
  EXPECT_EQ(m.dred_bailouts, 0u);
  EXPECT_EQ(m.overdeleted, 600u);
  EXPECT_EQ(m.rederived, 400u);
  EXPECT_EQ(m.support_updates, 400u);  // 200 two(a,d) lost, 200 two(d,f) won
}

}  // namespace
}  // namespace raqlet
