// Tests for the static analyzer: the diagnostics framework, the type
// checker / verifier (typecheck.h), the semantic lints (lints.h), and the
// MLIR-style pass-boundary verification in the PassManager. Every RQ code
// gets at least one exact-code assertion on a minimal program.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/lints.h"
#include "analysis/typecheck.h"
#include "dlir/parser.h"
#include "dlir/program.h"
#include "opt/pass_manager.h"
#include "raqlet/compiler.h"

namespace raqlet::analysis {
namespace {

dlir::Program Parse(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return program.ok() ? *program : dlir::Program{};
}

/// All diagnostics from CheckProgram (+ optionally LintProgram).
DiagnosticEngine Analyze(const std::string& text, bool lint = false) {
  dlir::Program program = Parse(text);
  DiagnosticEngine diags;
  CheckProgram(program, &diags);
  if (lint) LintProgram(program, &diags);
  return diags;
}

std::vector<std::string> Codes(const DiagnosticEngine& diags) {
  std::vector<std::string> codes;
  for (const Diagnostic& d : diags.diagnostics()) codes.push_back(d.code);
  return codes;
}

// ---------------------------------------------------------------------------
// Diagnostic framework
// ---------------------------------------------------------------------------

TEST(DiagnosticEngineTest, AccumulatesAndCounts) {
  DiagnosticEngine diags;
  diags.Error("RQ999", "first").Note("extra context");
  diags.Warning("RQ998", "second");
  EXPECT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.warning_count(), 1u);
  EXPECT_TRUE(diags.has_errors());
  EXPECT_FALSE(diags.empty());
  EXPECT_TRUE(diags.HasCode("RQ999"));
  EXPECT_FALSE(diags.HasCode("RQ000"));
  std::string rendered = diags.Render();
  EXPECT_NE(rendered.find("error[RQ999]: first"), std::string::npos);
  EXPECT_NE(rendered.find("note: extra context"), std::string::npos);
  EXPECT_NE(rendered.find("warning[RQ998]: second"), std::string::npos);
  EXPECT_NE(rendered.find("1 error(s), 1 warning(s)"), std::string::npos);
}

TEST(DiagnosticEngineTest, ToStatusIsOkWithoutErrors) {
  DiagnosticEngine diags;
  diags.Warning("RQ101", "only a warning");
  EXPECT_TRUE(diags.ToStatus().ok());
  diags.Error("RQ002", "now an error");
  Status st = diags.ToStatus("while verifying");
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("while verifying"), std::string::npos);
  EXPECT_NE(st.message().find("RQ002"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structural errors (the Validate() checks, multi-reported)
// ---------------------------------------------------------------------------

TEST(TypecheckTest, RQ001DuplicateDeclaration) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.decl edge(x: number, y: number)
)");
  EXPECT_TRUE(diags.HasCode("RQ001"));
  EXPECT_EQ(diags.error_count(), 1u);
}

TEST(TypecheckTest, RQ002UndeclaredPredicate) {
  auto diags = Analyze(R"(
.decl out(x: number)
.output out
out(x) :- ghost(x).
)");
  EXPECT_TRUE(diags.HasCode("RQ002"));
}

TEST(TypecheckTest, RQ003ArityMismatch) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number)
.output out
out(x) :- edge(x).
)");
  EXPECT_TRUE(diags.HasCode("RQ003"));
}

TEST(TypecheckTest, RQ004UnsafeHeadVariable) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number, y: number)
.output out
out(x, z) :- edge(x, _).
)");
  EXPECT_TRUE(diags.HasCode("RQ004"));
}

TEST(TypecheckTest, RQ004UnsafeAggregateInput) {
  // Validate() never looked at aggregate input terms; the analyzer does.
  auto diags = Analyze(R"(
.decl sale(region: symbol, amount: number)
.input sale
.decl total(region: symbol, t: number)
.output total
total(region, sum(ghostvar)) :- sale(region, amount).
)");
  EXPECT_TRUE(diags.HasCode("RQ004"));
}

TEST(TypecheckTest, RQ005AggregateResultPositionOutOfRange) {
  dlir::Program program = Parse(R"(
.decl sale(region: symbol, amount: number)
.input sale
.decl total(region: symbol, t: number)
.output total
total(region, sum(amount)) :- sale(region, amount).
)");
  program.rules[0].agg_result_pos = 7;  // corrupt it
  DiagnosticEngine diags;
  CheckProgram(program, &diags);
  EXPECT_TRUE(diags.HasCode("RQ005"));
}

TEST(TypecheckTest, RQ006NonNumericLatticeColumn) {
  // Satellite fix: Validate() silently accepted @min/@max over a symbol
  // column; the engines' lattice merge compares NumericValue()s, so this
  // was garbage at runtime. Now a hard error.
  auto diags = Analyze(R"(
.decl best(x: number, who: symbol) @min
.output best
)");
  EXPECT_TRUE(diags.HasCode("RQ006"));
  dlir::Program program = Parse(R"(
.decl best(x: number, who: symbol) @min
.output best
)");
  EXPECT_FALSE(VerifyProgram(program).ok());
}

TEST(TypecheckTest, NumericLatticeColumnIsFine) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl dist(x: number, y: number, d: number) @min
.output dist
dist(x, y, 1) :- edge(x, y).
dist(x, y, d + 1) :- dist(x, z, d), edge(z, y).
)");
  EXPECT_FALSE(diags.has_errors()) << diags.Render();
}

// ---------------------------------------------------------------------------
// Type errors
// ---------------------------------------------------------------------------

TEST(TypecheckTest, RQ010ConflictingColumnTypes) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl name(id: number, n: symbol)
.input name
.decl out(x: number)
.output out
out(x) :- edge(x, v), name(_, v).
)");
  EXPECT_TRUE(diags.HasCode("RQ010"));
}

TEST(TypecheckTest, RQ011ConstantColumnMismatch) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number)
.output out
out(x) :- edge(x, "two").
)");
  EXPECT_TRUE(diags.HasCode("RQ011"));
}

TEST(TypecheckTest, RQ012IncomparableComparison) {
  auto diags = Analyze(R"(
.decl name(id: number, n: symbol)
.input name
.decl out(x: number)
.output out
out(id) :- name(id, n), n > 5.
)");
  EXPECT_TRUE(diags.HasCode("RQ012"));
}

TEST(TypecheckTest, RQ013NonNumericArithmetic) {
  auto diags = Analyze(R"(
.decl name(id: number, n: symbol)
.input name
.decl out(x: number)
.output out
out(id) :- name(id, n), v = n + 1, v > 0.
)");
  EXPECT_TRUE(diags.HasCode("RQ013"));
}

TEST(TypecheckTest, RQ014NonNumericAggregateInput) {
  auto diags = Analyze(R"(
.decl name(id: number, n: symbol)
.input name
.decl total(id: number, t: number)
.output total
total(id, sum(n)) :- name(id, n).
)");
  EXPECT_TRUE(diags.HasCode("RQ014"));
}

TEST(TypecheckTest, CountOverSymbolIsFine) {
  auto diags = Analyze(R"(
.decl name(id: number, n: symbol)
.input name
.decl total(id: number, t: number)
.output total
total(id, count(n)) :- name(id, n).
)");
  EXPECT_FALSE(diags.HasCode("RQ014")) << diags.Render();
}

TEST(TypecheckTest, RQ015NonNumericAggregateResultColumn) {
  auto diags = Analyze(R"(
.decl sale(region: symbol, amount: number)
.input sale
.decl total(region: symbol, t: symbol)
.output total
total(region, sum(amount)) :- sale(region, amount).
)");
  EXPECT_TRUE(diags.HasCode("RQ015"));
}

TEST(TypecheckTest, RQ020StratificationViolationWithCyclePath) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl p(x: number)
.decl q(x: number)
.output p
p(x) :- edge(x, _), !q(x).
q(x) :- p(x).
)");
  ASSERT_TRUE(diags.HasCode("RQ020"));
  // The note renders the whole negation cycle, not just the edge.
  std::string rendered = diags.Render();
  EXPECT_NE(rendered.find("negation cycle:"), std::string::npos);
  EXPECT_NE(rendered.find("--(negated)-->"), std::string::npos);
}

TEST(TypecheckTest, ReportsEveryErrorNotJustTheFirst) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.decl edge(x: number, y: number)
.decl out(x: number)
.output out
out(x) :- ghost(x).
out(x) :- edge(x).
out(x) :- edge(x, "two").
)");
  EXPECT_TRUE(diags.HasCode("RQ001"));
  EXPECT_TRUE(diags.HasCode("RQ002"));
  EXPECT_TRUE(diags.HasCode("RQ003"));
  EXPECT_TRUE(diags.HasCode("RQ011"));
  EXPECT_GE(diags.error_count(), 4u);
}

TEST(TypecheckTest, CleanProgramHasNoErrors) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)");
  EXPECT_TRUE(diags.empty()) << diags.Render();
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

TEST(LintTest, RQ101UnusedRelation) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl lonely(x: number)
.input lonely
.decl out(x: number)
.output out
out(x) :- edge(x, _).
)",
                       /*lint=*/true);
  EXPECT_TRUE(diags.HasCode("RQ101"));
  EXPECT_FALSE(diags.has_errors());
}

TEST(LintTest, RQ102UnreachableRule) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number)
.output out
.decl scratch(x: number)
out(x) :- edge(x, _).
scratch(x) :- edge(_, x).
)",
                       /*lint=*/true);
  EXPECT_TRUE(diags.HasCode("RQ102"));
}

TEST(LintTest, RQ103AlwaysEmptyRelation) {
  auto diags = Analyze(R"(
.decl never(x: number)
.decl out(x: number)
.output out
out(x) :- never(x).
)",
                       /*lint=*/true);
  // 'never' has no rules and is not an input; 'out' only depends on it.
  EXPECT_TRUE(diags.HasCode("RQ103"));
}

TEST(LintTest, RQ104CartesianProduct) {
  auto diags = Analyze(R"(
.decl a(x: number)
.input a
.decl b(x: number)
.input b
.decl out(x: number, y: number)
.output out
out(x, y) :- a(x), b(y).
)",
                       /*lint=*/true);
  EXPECT_TRUE(diags.HasCode("RQ104"));
}

TEST(LintTest, ConstraintConnectedAtomsAreNotCartesian) {
  auto diags = Analyze(R"(
.decl a(x: number)
.input a
.decl b(x: number)
.input b
.decl out(x: number, y: number)
.output out
out(x, y) :- a(x), b(y), x = y.
)",
                       /*lint=*/true);
  EXPECT_FALSE(diags.HasCode("RQ104")) << diags.Render();
}

TEST(LintTest, RQ105PossiblyNonTerminatingRecursion) {
  auto diags = Analyze(R"(
.decl seed(x: number)
.input seed
.decl counter(x: number)
.output counter
counter(x) :- seed(x).
counter(x + 1) :- counter(x).
)",
                       /*lint=*/true);
  EXPECT_TRUE(diags.HasCode("RQ105"));
}

TEST(LintTest, RQ106DuplicateRule) {
  // Satellite fix: Validate() silently accepted exact duplicate rules. A
  // warning (not an error) because optimizer passes may legitimately emit
  // duplicates that dedup later — but a hand-written program with one
  // almost certainly holds a typo.
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number)
.output out
out(x) :- edge(x, _).
out(x) :- edge(x, _).
)",
                       /*lint=*/true);
  EXPECT_TRUE(diags.HasCode("RQ106"));
  EXPECT_FALSE(diags.has_errors());
}

TEST(LintTest, RQ107ConstantFoldableConstraint) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number)
.output out
out(x) :- edge(x, _), 1 > 2.
out(x) :- edge(x, _), 2 + 2 = 4.
out(x) :- edge(x, _), 1 = 1.0.
)",
                       /*lint=*/true);
  std::vector<std::string> codes = Codes(diags);
  EXPECT_GE(std::count(codes.begin(), codes.end(), std::string("RQ107")), 3);
  // The always-false one explains that the rule is dead.
  EXPECT_NE(diags.Render().find("can never fire"), std::string::npos);
  // `=` compares kinds, as on every engine: a number never equals a float.
  EXPECT_NE(diags.Render().find("constraint 1 = 1.0 is always false"),
            std::string::npos)
      << diags.Render();
}

TEST(LintTest, DivisionByZeroDoesNotFold) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number)
.output out
out(x) :- edge(x, _), 1 / 0 > 2.
)",
                       /*lint=*/true);
  EXPECT_FALSE(diags.HasCode("RQ107")) << diags.Render();
}

TEST(LintTest, CleanProgramLintsQuiet) {
  auto diags = Analyze(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)",
                       /*lint=*/true);
  EXPECT_TRUE(diags.empty()) << diags.Render();
}

// ---------------------------------------------------------------------------
// Pass-boundary verification (the MLIR-style discipline)
// ---------------------------------------------------------------------------

constexpr char kTc[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

TEST(PassVerifyTest, CatchesCorruptPassOutput) {
  opt::PassManager pm;
  pm.AddFn("corrupt", [](const dlir::Program& p) -> Result<dlir::Program> {
    dlir::Program broken = p;
    broken.rules[0].body[0].predicate = "ghost";  // dangling reference
    return broken;
  });
  opt::OptOptions verify_on;
  verify_on.verify_each_pass = true;
  auto result = pm.Run(Parse(kTc), verify_on);
  ASSERT_FALSE(result.ok());
  // Internal (the pass is at fault, not the input), naming the pass and
  // carrying the diagnostic.
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("corrupt"), std::string::npos);
  EXPECT_NE(result.status().message().find("RQ002"), std::string::npos);
}

TEST(PassVerifyTest, VerifyOffPassesCorruptOutputThrough) {
  opt::PassManager pm;
  pm.AddFn("corrupt", [](const dlir::Program& p) -> Result<dlir::Program> {
    dlir::Program broken = p;
    broken.rules[0].body[0].predicate = "ghost";
    return broken;
  });
  opt::OptOptions verify_off;
  verify_off.verify_each_pass = false;
  auto result = pm.Run(Parse(kTc), verify_off);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rules[0].body[0].predicate, "ghost");
}

TEST(PassVerifyTest, RealPipelinesVerifyCleanly) {
  opt::OptOptions verify_on;
  verify_on.verify_each_pass = true;
  auto standard = opt::PassManager::Standard().Run(Parse(kTc), verify_on);
  EXPECT_TRUE(standard.ok()) << standard.status().ToString();
  auto aggressive = opt::PassManager::Aggressive().Run(Parse(kTc), verify_on);
  EXPECT_TRUE(aggressive.ok()) << aggressive.status().ToString();
}

// ---------------------------------------------------------------------------
// Compiler facade + cross-frontend clean checks
// ---------------------------------------------------------------------------

constexpr char kSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING}),
  (cityType: City {id INT, name STRING}),
  (:personType)-[locationType: isLocatedIn {id INT}]->(:cityType),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";

TEST(CompilerCheckTest, CompileDatalogReportsAllErrors) {
  Compiler compiler;
  auto program = compiler.CompileDatalog(R"(
.decl out(x: number)
.output out
out(x) :- ghost(x).
out(x) :- phantom(x).
)");
  ASSERT_FALSE(program.ok());
  // Both undeclared predicates in one status, not first-error-wins.
  EXPECT_NE(program.status().message().find("ghost"), std::string::npos);
  EXPECT_NE(program.status().message().find("phantom"), std::string::npos);
}

TEST(CompilerCheckTest, ParseDatalogSkipsVerification) {
  Compiler compiler;
  auto program = compiler.ParseDatalog(R"(
.decl out(x: number)
.output out
out(x) :- ghost(x).
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_FALSE(compiler.Check(*program).ok());
}

TEST(CompilerCheckTest, CypherLoweringIsClean) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  auto unit = compiler.CompileCypher(
      "MATCH (a:Person {id: 1})-[:KNOWS*]->(b:Person) "
      "RETURN DISTINCT b.id AS id",
      {});
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_TRUE(compiler.Check(unit->dlir).ok());
  EXPECT_TRUE(compiler.Check(unit->optimized).ok());
}

TEST(CompilerCheckTest, GqlLoweringIsClean) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  auto unit = compiler.CompileGql(
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.id = 1 "
      "RETURN DISTINCT b.id AS id",
      {});
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_TRUE(compiler.Check(unit->dlir).ok());
  EXPECT_TRUE(compiler.Check(unit->optimized).ok());
}

TEST(CompilerCheckTest, SqlPgqLoweringIsClean) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSchema).ok());
  auto unit = compiler.CompileSqlPgq(R"(
SELECT DISTINCT *
FROM GRAPH_TABLE (social,
  MATCH (n IS Person WHERE n.id = 1)-[IS isLocatedIn]->(c IS City)
  COLUMNS (n.firstName AS firstName, c.id AS cityId)
)
)",
                                     {});
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  EXPECT_TRUE(compiler.Check(unit->dlir).ok());
  EXPECT_TRUE(compiler.Check(unit->optimized).ok());
}

}  // namespace
}  // namespace raqlet::analysis
