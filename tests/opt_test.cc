// Tests for the §5 optimizer passes, including the paper's Fig. 4 example
// and differential semantic-preservation checks against the Datalog
// engine.

#include <gtest/gtest.h>

#include <random>

#include "analysis/typecheck.h"
#include "engine/datalog/engine.h"
#include "dlir/parser.h"
#include "opt/magic_sets.h"
#include "opt/pass_manager.h"
#include "opt/passes.h"

namespace raqlet::opt {
namespace {

dlir::Program Parse(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// The paper's running example (Fig. 3d): Match1/Where1/Return chain over
// the simplified LDBC schema.
constexpr char kPaperPipeline[] = R"(
.decl Person(id: number, firstName: symbol, locationIP: symbol)
.input Person
.decl City(id: number, name: symbol)
.input City
.decl Person_IS_LOCATED_IN_City(id1: number, id2: number, id: number)
.input Person_IS_LOCATED_IN_City
.decl Match1(n: number, x1: number, p: number)
.decl Where1(n: number, x1: number, p: number)
.decl Return(firstName: symbol, cityId: number)
.output Return
Match1(n, x1, p) :- Person_IS_LOCATED_IN_City(n, p, x1), Person(n, _, _), City(p, _).
Where1(n, x1, p) :- Match1(n, x1, p), Person(n, _, _), n = 42.
Return(firstName, cityId) :- Where1(n, x1, p), Person(n, firstName, _), City(p, _), p = cityId.
)";

Database MakePaperDb() {
  Database db;
  RelationSchema person;
  person.name = "Person";
  person.columns = {{"id", ValueType::kNumber},
                    {"firstName", ValueType::kSymbol},
                    {"locationIP", ValueType::kSymbol}};
  person.primary_key = {0};
  Relation* p = *db.CreateRelation(person);
  p->Insert({Value::Number(42), db.Str("Ada"), db.Str("10.0.0.1")});
  p->Insert({Value::Number(7), db.Str("Bob"), db.Str("10.0.0.2")});

  RelationSchema city;
  city.name = "City";
  city.columns = {{"id", ValueType::kNumber}, {"name", ValueType::kSymbol}};
  city.primary_key = {0};
  Relation* c = *db.CreateRelation(city);
  c->Insert({Value::Number(100), db.Str("Edinburgh")});
  c->Insert({Value::Number(200), db.Str("Lausanne")});

  RelationSchema located;
  located.name = "Person_IS_LOCATED_IN_City";
  located.columns = {{"id1", ValueType::kNumber},
                     {"id2", ValueType::kNumber},
                     {"id", ValueType::kNumber}};
  Relation* l = *db.CreateRelation(located);
  l->Insert({Value::Number(42), Value::Number(100), Value::Number(1)});
  l->Insert({Value::Number(7), Value::Number(200), Value::Number(2)});
  return db;
}

std::set<std::string> ResultSet(const Database& db, const std::string& rel) {
  std::set<std::string> out;
  const Relation* r = *db.GetRelation(rel);
  for (const Tuple& row : r->MaterializeRows()) {
    out.insert(TupleToString(row, &db.symbols()));
  }
  return out;
}

// Runs `program` on a fresh paper database and returns the Return rows.
std::set<std::string> RunPaper(const dlir::Program& program) {
  Database db = MakePaperDb();
  engine::DatalogEngine eng;
  Status st = eng.Run(program, &db);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return ResultSet(db, "Return");
}

TEST(InlineTest, InlinesPaperPipeline) {
  auto program = Parse(kPaperPipeline);
  auto inlined = InlineRules(program);
  ASSERT_TRUE(inlined.ok()) << inlined.status().ToString();
  // The Return rule no longer references Where1/Match1.
  for (const dlir::Rule& rule : inlined->rules) {
    if (rule.head.predicate != "Return") continue;
    EXPECT_FALSE(rule.BodyUses("Where1"));
    EXPECT_FALSE(rule.BodyUses("Match1"));
  }
  // Semantics preserved.
  EXPECT_EQ(RunPaper(program), RunPaper(*inlined));
}

TEST(InlineTest, RemovesDuplicateSelfJoin) {
  // After inlining Match1 into Where1, Person(n, _, _) appears twice
  // (Fig. 4a: "the duplication is removed").
  auto inlined = InlineRules(Parse(kPaperPipeline));
  ASSERT_TRUE(inlined.ok());
  for (const dlir::Rule& rule : inlined->rules) {
    if (rule.head.predicate != "Where1") continue;
    int person_atoms = 0;
    for (const dlir::Atom& atom : rule.body) {
      if (atom.predicate == "Person") ++person_atoms;
    }
    EXPECT_EQ(person_atoms, 1);
  }
}

TEST(InlineTest, DoesNotInlineRecursivePredicates) {
  auto program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.decl out(x: number)
.output out
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
out(y) :- tc(1, y).
)");
  auto inlined = InlineRules(program);
  ASSERT_TRUE(inlined.ok());
  // tc has two rules and is recursive: the out rule must still call it.
  bool out_uses_tc = false;
  for (const dlir::Rule& rule : inlined->rules) {
    if (rule.head.predicate == "out" && rule.BodyUses("tc")) out_uses_tc = true;
  }
  EXPECT_TRUE(out_uses_tc);
}

TEST(InlineTest, DoesNotInlineIntoAggregates) {
  auto program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl pairs(x: number, y: number)
.decl cnt(x: number, c: number)
.output cnt
pairs(x, y) :- edge(x, y), x < y.
cnt(x, count(y)) :- pairs(x, y).
)");
  auto inlined = InlineRules(program);
  ASSERT_TRUE(inlined.ok());
  for (const dlir::Rule& rule : inlined->rules) {
    if (rule.head.predicate == "cnt") {
      EXPECT_TRUE(rule.BodyUses("pairs"));  // untouched
    }
  }
}

TEST(InlineTest, DropsInfeasibleUnification) {
  auto program = Parse(R"(
.decl a(x: number)
.input a
.decl one(x: number)
.decl out(x: number)
.output out
one(1) :- a(_).
out(x) :- one(2), a(x).
)");
  auto inlined = InlineRules(program);
  ASSERT_TRUE(inlined.ok());
  // one's head constant 1 cannot unify with the call's constant 2: the
  // out rule is statically infeasible and removed.
  for (const dlir::Rule& rule : inlined->rules) {
    EXPECT_NE(rule.head.predicate, "out");
  }
}

TEST(DreTest, RemovesUnreachableRules) {
  auto program = Parse(kPaperPipeline);
  auto inlined = InlineRules(program);
  ASSERT_TRUE(inlined.ok());
  auto cleaned = EliminateDeadRules(*inlined);
  ASSERT_TRUE(cleaned.ok());
  // Only the Return rule survives (Fig. 4b).
  ASSERT_EQ(cleaned->rules.size(), 1u);
  EXPECT_EQ(cleaned->rules[0].head.predicate, "Return");
  EXPECT_EQ(cleaned->FindDecl("Match1"), nullptr);
  EXPECT_EQ(cleaned->FindDecl("Where1"), nullptr);
  EXPECT_NE(cleaned->FindDecl("Person"), nullptr);
  EXPECT_EQ(RunPaper(program), RunPaper(*cleaned));
}

TEST(DreTest, NoOutputsMeansNoChange) {
  auto program = Parse(R"(
.decl a(x: number)
.decl b(x: number)
b(x) :- a(x).
)");
  auto cleaned = EliminateDeadRules(program);
  ASSERT_TRUE(cleaned.ok());
  EXPECT_EQ(cleaned->rules.size(), 1u);
}

TEST(PushdownTest, SubstitutesConstants) {
  auto program = Parse(R"(
.decl a(x: number, y: number)
.input a
.decl out(x: number, y: number)
.output out
out(x, y) :- a(x, y), x = 42.
)");
  auto pushed = PushdownConstants(program);
  ASSERT_TRUE(pushed.ok());
  const dlir::Rule& rule = pushed->rules[0];
  EXPECT_TRUE(rule.constraints.empty());
  EXPECT_TRUE(rule.body[0].args[0].is_const());
  EXPECT_EQ(rule.body[0].args[0].constant.num, 42);
  EXPECT_TRUE(rule.head.args[0].is_const());
}

TEST(PushdownTest, FoldsConstantArithmetic) {
  auto program = Parse(R"(
.decl a(x: number)
.input a
.decl out(x: number)
.output out
out(y) :- a(x), y = x, 1 + 2 < 4.
)");
  auto pushed = PushdownConstants(program);
  ASSERT_TRUE(pushed.ok());
  // The tautological constraint disappears.
  for (const dlir::Constraint& c : pushed->rules[0].constraints) {
    EXPECT_FALSE(c.lhs.is_const() && c.rhs.is_const());
  }
}

// Pushdown folds with the engines' semantics (dlir/fold.h): arithmetic
// mixing a number and a float promotes to float, ordering compares them
// numerically, and `1 = 1.0` is false because `=` compares kinds.
TEST(PushdownTest, FoldsMixedNumberAndFloat) {
  auto program = Parse(R"(
.decl a(x: number)
.input a
.decl out(x: number, z: float)
.output out
out(x, z) :- a(x), z = 1 + 2.5, 1 < 2.5.
out(x, 0.0) :- a(x), 1 = 1.0.
)");
  auto pushed = PushdownConstants(program);
  ASSERT_TRUE(pushed.ok());
  ASSERT_EQ(pushed->rules.size(), 1u) << pushed->ToString();
  const dlir::Rule& rule = pushed->rules[0];
  EXPECT_TRUE(rule.constraints.empty()) << rule.ToString();
  ASSERT_TRUE(rule.head.args[1].is_const()) << rule.ToString();
  EXPECT_EQ(rule.head.args[1].constant, dlir::Constant::Float(3.5));
}

TEST(PushdownTest, DropsInfeasibleRules) {
  auto program = Parse(R"(
.decl a(x: number)
.input a
.decl out(x: number)
.output out
out(x) :- a(x), 1 > 2.
)");
  auto pushed = PushdownConstants(program);
  ASSERT_TRUE(pushed.ok());
  EXPECT_TRUE(pushed->rules.empty());
}

TEST(SelfJoinTest, MergesKeyEqualAtoms) {
  auto program = Parse(R"(
.decl Person(id: number, name: symbol, ip: symbol)
.input Person
.decl out(n: symbol, i: symbol)
.output out
out(n, i) :- Person(x, n, _), Person(x, _, i).
)");
  program.FindDecl("Person")->primary_key = {0};
  auto merged = EliminateKeySelfJoins(program);
  ASSERT_TRUE(merged.ok());
  ASSERT_EQ(merged->rules[0].body.size(), 1u);
  // The merged atom binds both name and ip.
  const dlir::Atom& atom = merged->rules[0].body[0];
  EXPECT_TRUE(atom.args[1].is_var());
  EXPECT_TRUE(atom.args[2].is_var());
}

TEST(SelfJoinTest, LeavesDistinctKeysAlone) {
  auto program = Parse(R"(
.decl Person(id: number, name: symbol)
.input Person
.decl out(a: symbol, b: symbol)
.output out
out(a, b) :- Person(x, a), Person(y, b), x != y.
)");
  program.FindDecl("Person")->primary_key = {0};
  auto merged = EliminateKeySelfJoins(program);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->rules[0].body.size(), 2u);
}

TEST(SelfJoinTest, NoKeyNoMerge) {
  auto program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number, a: number, b: number)
.output out
out(x, a, b) :- edge(x, a), edge(x, b).
)");
  auto merged = EliminateKeySelfJoins(program);
  ASSERT_TRUE(merged.ok());
  EXPECT_EQ(merged->rules[0].body.size(), 2u);  // edge is not keyed
}

TEST(StandardPipelineTest, PaperExampleCollapsesToOneRule) {
  auto program = Parse(kPaperPipeline);
  auto optimized = PassManager::Standard().Run(program);
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  ASSERT_EQ(optimized->rules.size(), 1u);
  EXPECT_EQ(optimized->rules[0].head.predicate, "Return");
  EXPECT_EQ(RunPaper(program), RunPaper(*optimized));
  // Sanity: the one surviving rule probes Person with the constant 42.
  bool has_const_42 = false;
  for (const dlir::Atom& atom : optimized->rules[0].body) {
    for (const dlir::Term& arg : atom.args) {
      if (arg.is_const() && arg.constant.num == 42) has_const_42 = true;
    }
  }
  EXPECT_TRUE(has_const_42);
}

constexpr char kBoundTc[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.decl out(y: number)
.output out
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
out(y) :- tc(1, y).
)";

Database MakeChainDb(int n) {
  Database db;
  RelationSchema s;
  s.name = "edge";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  Relation* rel = *db.CreateRelation(s);
  for (int i = 0; i < n; ++i) {
    rel->Insert({Value::Number(i), Value::Number(i + 1)});
  }
  // A second component unreachable from node 1.
  for (int i = 1000; i < 1000 + n; ++i) {
    rel->Insert({Value::Number(i), Value::Number(i + 1)});
  }
  return db;
}

TEST(MagicSetsTest, TransformsBoundTcAndPreservesResults) {
  auto program = Parse(kBoundTc);
  auto transformed = ApplyMagicSets(program);
  ASSERT_TRUE(transformed.ok()) << transformed.status().ToString();
  // The original (now unreachable) tc rules die in the follow-up DRE, as
  // in the Aggressive pipeline.
  auto magic = EliminateDeadRules(*transformed);
  ASSERT_TRUE(magic.ok());
  ASSERT_TRUE(analysis::VerifyStructure(*magic).ok())
      << analysis::VerifyStructure(*magic).ToString() << "\n"
      << magic->ToString();
  // Adorned + magic predicates exist.
  EXPECT_NE(magic->FindDecl("tc_bf"), nullptr);
  EXPECT_NE(magic->FindDecl("m_tc_bf"), nullptr);

  Database db1 = MakeChainDb(30);
  Database db2 = MakeChainDb(30);
  engine::DatalogEngine eng;
  engine::EvalStats stats_plain;
  engine::EvalStats stats_magic;
  ASSERT_TRUE(eng.Run(program, &db1, &stats_plain).ok());
  Status st = eng.Run(*magic, &db2, &stats_magic);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << magic->ToString();
  EXPECT_EQ(ResultSet(db1, "out"), ResultSet(db2, "out"));
  // The magic version derives far fewer tuples (no closure of the second
  // component, no pairs not rooted at 1).
  EXPECT_LT(stats_magic.tuples_inserted, stats_plain.tuples_inserted / 4);
}

TEST(MagicSetsTest, NoConstantsNoChange) {
  auto program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.decl out(x: number, y: number)
.output out
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
out(x, y) :- tc(x, y).
)");
  auto magic = ApplyMagicSets(program);
  ASSERT_TRUE(magic.ok());
  EXPECT_EQ(magic->rules.size(), program.rules.size());
  EXPECT_EQ(magic->FindDecl("tc_bf"), nullptr);
}

TEST(MagicSetsTest, RightRecursionReachability) {
  // tc(x,y) :- edge(x,z), tc(z,y): magic propagates through edge.
  auto program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.decl out(y: number)
.output out
tc(x, y) :- edge(x, y).
tc(x, y) :- edge(x, z), tc(z, y).
out(y) :- tc(1, y).
)");
  auto magic = ApplyMagicSets(program);
  ASSERT_TRUE(magic.ok());
  Database db1 = MakeChainDb(20);
  Database db2 = MakeChainDb(20);
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &db1).ok());
  Status st = eng.Run(*magic, &db2);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << magic->ToString();
  EXPECT_EQ(ResultSet(db1, "out"), ResultSet(db2, "out"));
}

TEST(MagicSetsTest, BailsOutOnNegationInRegion) {
  auto program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl blocked(x: number)
.input blocked
.decl tc(x: number, y: number)
.decl out(y: number)
.output out
tc(x, y) :- edge(x, y), !blocked(y).
tc(x, y) :- tc(x, z), edge(z, y), !blocked(y).
out(y) :- tc(1, y).
)");
  auto magic = ApplyMagicSets(program);
  ASSERT_TRUE(magic.ok());
  EXPECT_EQ(magic->FindDecl("tc_bf"), nullptr);  // unchanged
}

// Builds a program whose magic-sets transform adorns `depth + 1`
// predicates: out(y) :- p0(1, y), p0 recursive, and a delegation chain
// p0 -> p1 -> ... -> p<depth> bottoming out at edge. Every adorned
// predicate declares two new relations, so the transform grows
// Program::decls far past its copied-from capacity.
std::string MakeDeepChainProgram(int depth) {
  std::string text = ".decl edge(x: number, y: number)\n.input edge\n";
  for (int i = 0; i <= depth; ++i) {
    text += ".decl p" + std::to_string(i) + "(x: number, y: number)\n";
  }
  text += ".decl out(y: number)\n.output out\n";
  text += "p0(x, y) :- p0(x, z), edge(z, y).\n";
  for (int i = 0; i < depth; ++i) {
    text += "p" + std::to_string(i) + "(x, y) :- p" + std::to_string(i + 1) +
            "(x, y).\n";
  }
  text += "p" + std::to_string(depth) + "(x, y) :- edge(x, y).\n";
  text += "out(y) :- p0(1, y).\n";
  return text;
}

// Regression test for a heap-use-after-free: `declare` in ApplyMagicSetsTo
// cached a FindDecl pointer into out.decls across push_backs that
// reallocate the vector. Program copies start at capacity == size, so the
// very first adorned declaration already reallocated; the long chain here
// forces many reallocations so the bug cannot silently return.
TEST(MagicSetsTest, ManyAdornedPredicatesSurviveDeclReallocation) {
  auto program = Parse(MakeDeepChainProgram(11));
  auto magic = ApplyMagicSets(program);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  ASSERT_TRUE(analysis::VerifyStructure(*magic).ok())
      << analysis::VerifyStructure(*magic).ToString();
  // All twelve predicates got adorned + magic decls with intact columns.
  for (int i = 0; i <= 11; ++i) {
    const std::string name = "p" + std::to_string(i);
    const dlir::RelationDecl* adorned = magic->FindDecl(name + "_bf");
    ASSERT_NE(adorned, nullptr) << name;
    EXPECT_EQ(adorned->arity(), 2u);
    const dlir::RelationDecl* m = magic->FindDecl("m_" + name + "_bf");
    ASSERT_NE(m, nullptr) << name;
    ASSERT_EQ(m->arity(), 1u);
    // The magic column is copied from the base decl's bound position.
    EXPECT_EQ(m->columns[0].name, "x");
  }
  // Semantics preserved against the untransformed program.
  Database db1 = MakeChainDb(15);
  Database db2 = MakeChainDb(15);
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &db1).ok());
  Status st = eng.Run(*magic, &db2);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << magic->ToString();
  EXPECT_EQ(ResultSet(db1, "out"), ResultSet(db2, "out"));
}

TEST(MagicSetsTest, NonOutputCallSiteLeavesProgramUnchanged) {
  // The only constant-bound call of `tc` sits in the body of a rule whose
  // head is NOT an output relation; the call-site scan (which only looks
  // at output rules) must find nothing and bail out unchanged.
  auto program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.decl inner(y: number)
.decl out(y: number)
.output out
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
inner(y) :- tc(1, y).
out(y) :- inner(y).
)");
  auto magic = ApplyMagicSetsTo(program, "tc", "bf");
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  EXPECT_EQ(magic->FindDecl("tc_bf"), nullptr);
  EXPECT_EQ(magic->FindDecl("m_tc_bf"), nullptr);
  EXPECT_EQ(magic->rules.size(), program.rules.size());
}

TEST(LinearizeTest, RewritesNonLinearTc) {
  auto program = Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), tc(z, y).
)");
  auto linear = LinearizeRecursion(program);
  ASSERT_TRUE(linear.ok());
  for (const dlir::Rule& rule : linear->rules) {
    int recursive = 0;
    for (const dlir::Atom& atom : rule.body) {
      if (atom.predicate == "tc") ++recursive;
    }
    EXPECT_LE(recursive, 1);
  }
  // Differential check.
  Database db1 = MakeChainDb(15);
  Database db2 = MakeChainDb(15);
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &db1).ok());
  ASSERT_TRUE(eng.Run(*linear, &db2).ok());
  EXPECT_EQ(ResultSet(db1, "tc"), ResultSet(db2, "tc"));
}

TEST(LinearizeTest, LeavesSameGenerationAlone) {
  // sg's recursive rule is not TC-shaped; must be untouched.
  auto program = Parse(R"(
.decl parent(x: number, y: number)
.input parent
.decl sg(x: number, y: number)
.output sg
sg(x, x) :- parent(x, _).
sg(x, y) :- parent(xp, x), sg(xp, yp), parent(yp, y).
)");
  auto linear = LinearizeRecursion(program);
  ASSERT_TRUE(linear.ok());
  EXPECT_EQ(linear->rules.size(), program.rules.size());
}

TEST(PassManagerTest, UnknownPassFails) {
  PassManager pm;
  EXPECT_EQ(pm.Add("frobnicate").code(), StatusCode::kNotFound);
  EXPECT_TRUE(pm.Add("inline").ok());
  EXPECT_EQ(pm.PassNames(), std::vector<std::string>{"inline"});
}

TEST(PassManagerTest, AggressiveIncludesMagicSets) {
  PassManager pm = PassManager::Aggressive();
  auto names = pm.PassNames();
  EXPECT_NE(std::find(names.begin(), names.end(), "magic-sets"), names.end());
}

// Property test: the standard pipeline preserves semantics on random
// bound-TC instances.
class PipelinePreservationTest : public ::testing::TestWithParam<int> {};

TEST_P(PipelinePreservationTest, StandardAndAggressiveAgree) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) + 7);
  std::uniform_int_distribution<int> node(1, 15);
  Database db_base;
  RelationSchema s;
  s.name = "edge";
  s.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
  std::vector<std::pair<int, int>> edges;
  for (int i = 0; i < 30; ++i) edges.emplace_back(node(rng), node(rng));

  auto make_db = [&]() {
    Database db;
    Relation* rel = *db.CreateRelation(s);
    for (auto [x, y] : edges) {
      rel->Insert({Value::Number(x), Value::Number(y)});
    }
    return db;
  };

  auto program = Parse(kBoundTc);
  auto standard = PassManager::Standard().Run(program);
  auto aggressive = PassManager::Aggressive().Run(program);
  ASSERT_TRUE(standard.ok());
  ASSERT_TRUE(aggressive.ok());

  Database db0 = make_db();
  Database db1 = make_db();
  Database db2 = make_db();
  engine::DatalogEngine eng;
  ASSERT_TRUE(eng.Run(program, &db0).ok());
  ASSERT_TRUE(eng.Run(*standard, &db1).ok());
  Status st = eng.Run(*aggressive, &db2);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << aggressive->ToString();
  EXPECT_EQ(ResultSet(db0, "out"), ResultSet(db1, "out"));
  EXPECT_EQ(ResultSet(db0, "out"), ResultSet(db2, "out"));
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, PipelinePreservationTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace raqlet::opt
