// Unit tests for dlir/: AST helpers, parser, the structural entry check
// (analysis::VerifyStructure), printers.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>

#include "analysis/typecheck.h"
#include "dlir/fold.h"
#include "dlir/parser.h"
#include "dlir/program.h"
#include "dlir/souffle_printer.h"
#include "engine/value_ops.h"

namespace raqlet::dlir {
namespace {

using analysis::VerifyStructure;

constexpr char kTcProgram[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc

tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

TEST(DlirParserTest, ParsesTransitiveClosure) {
  auto program = ParseProgram(kTcProgram);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->decls.size(), 2u);
  EXPECT_EQ(program->rules.size(), 2u);
  EXPECT_TRUE(program->FindDecl("edge")->is_input);
  EXPECT_TRUE(program->FindDecl("tc")->is_output);
  EXPECT_EQ(program->rules[1].body.size(), 2u);
  EXPECT_TRUE(VerifyStructure(*program).ok());
}

TEST(DlirParserTest, ParsesConstraintsAndArithmetic) {
  auto program = ParseProgram(R"(
.decl a(x: number)
.input a
.decl b(x: number, y: number)
b(x, y) :- a(x), y = x * 2 + 1, x != 3, x <= 10.
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const Rule& rule = program->rules[0];
  EXPECT_EQ(rule.constraints.size(), 3u);
  EXPECT_EQ(rule.constraints[0].op, CmpOp::kEq);
  EXPECT_EQ(rule.constraints[0].rhs.kind, TermKind::kBinary);
  EXPECT_TRUE(VerifyStructure(*program).ok());
}

TEST(DlirParserTest, ParsesNegationAndWildcards) {
  auto program = ParseProgram(R"(
.decl a(x: number, y: symbol)
.input a
.decl b(x: number)
.input b
.decl c(x: number)
c(x) :- a(x, _), !b(x).
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const Rule& rule = program->rules[0];
  ASSERT_EQ(rule.body.size(), 2u);
  EXPECT_FALSE(rule.body[0].negated);
  EXPECT_TRUE(rule.body[1].negated);
  EXPECT_TRUE(rule.body[0].args[1].is_wildcard());
}

TEST(DlirParserTest, ParsesAggregatesInHead) {
  auto program = ParseProgram(R"(
.decl sale(region: symbol, amount: number)
.input sale
.decl total(region: symbol, t: number)
total(region, sum(amount)) :- sale(region, amount).
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const Rule& rule = program->rules[0];
  ASSERT_TRUE(rule.agg.has_value());
  EXPECT_EQ(rule.agg->func, AggFunc::kSum);
  EXPECT_EQ(rule.agg_result_pos, 1);
  EXPECT_TRUE(VerifyStructure(*program).ok());
}

TEST(DlirParserTest, ParsesLatticeAnnotation) {
  auto program = ParseProgram(R"(
.decl dist(x: number, y: number, d: number) @min
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->decls[0].lattice, LatticeKind::kMin);
}

TEST(DlirParserTest, ParsesFactsAndStrings) {
  auto program = ParseProgram(R"(
.decl person(id: number, name: symbol)
person(1, "ada").
person(2, "bob the \"builder\"").
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->rules.size(), 2u);
  EXPECT_TRUE(program->rules[0].body.empty());
  EXPECT_EQ(program->rules[1].head.args[1].constant.str,
            "bob the \"builder\"");
}

TEST(DlirParserTest, ReportsErrorPosition) {
  auto program = ParseProgram(".decl r(x: numbr)");
  ASSERT_FALSE(program.ok());
  EXPECT_NE(program.status().message().find("line 1"), std::string::npos);
}

TEST(DlirParserTest, RejectsOutOfRangeLiterals) {
  auto program = ParseProgram("e(99999999999999999999).");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kParseError);
  EXPECT_NE(program.status().message().find("line 1, col 3"),
            std::string::npos)
      << program.status().ToString();
  const std::string huge_float = "1" + std::string(400, '0') + ".5";
  EXPECT_EQ(ParseProgram("f(" + huge_float + ").").status().code(),
            StatusCode::kParseError);
}

// A second '.' ends a float literal, so `1.2.3` is `1.2` then a stray
// `.3`, not the float 1.2 with `.3` silently dropped.
TEST(DlirParserTest, RejectsFloatWithTwoDots) {
  auto program = ParseProgram("f(1.2.3).");
  ASSERT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kParseError);
  EXPECT_NE(program.status().message().find("line 1, col 6"),
            std::string::npos)
      << program.status().ToString();
}

TEST(DlirParserTest, RejectsUnknownDirective) {
  EXPECT_FALSE(ParseProgram(".frobnicate r").ok());
}

TEST(DlirParserTest, RejectsIoOnUndeclaredRelation) {
  EXPECT_FALSE(ParseProgram(".output ghost").ok());
}

TEST(DlirValidateTest, RejectsArityMismatch) {
  auto program = ParseProgram(R"(
.decl a(x: number)
.decl b(x: number)
b(x) :- a(x, x).
)");
  ASSERT_TRUE(program.ok());
  Status st = VerifyStructure(*program);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("RQ003"), std::string::npos) << st.ToString();
}

TEST(DlirValidateTest, RejectsUndeclaredPredicate) {
  auto program = ParseProgram(R"(
.decl b(x: number)
b(x) :- ghost(x).
)");
  ASSERT_TRUE(program.ok());
  Status st = VerifyStructure(*program);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("RQ002"), std::string::npos) << st.ToString();
}

TEST(DlirValidateTest, RejectsUnsafeRule) {
  auto program = ParseProgram(R"(
.decl a(x: number)
.decl b(x: number, y: number)
b(x, y) :- a(x).
)");
  ASSERT_TRUE(program.ok());
  Status st = VerifyStructure(*program);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unsafe"), std::string::npos);
  EXPECT_NE(st.message().find("RQ004"), std::string::npos);
}

TEST(DlirValidateTest, AcceptsBindingConstraintChains) {
  // y is bound through a chain of equalities rooted at a positive atom.
  auto program = ParseProgram(R"(
.decl a(x: number)
.decl b(x: number, y: number)
b(x, y) :- a(x), z = x + 1, y = z * 2.
)");
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(VerifyStructure(*program).ok())
      << VerifyStructure(*program).ToString();
}

TEST(DlirValidateTest, RejectsVarOnlyBoundByNegation) {
  auto program = ParseProgram(R"(
.decl a(x: number)
.decl n(x: number, y: number)
.decl b(x: number)
b(x) :- a(x), !n(x, y).
)");
  ASSERT_TRUE(program.ok());
  Status st = VerifyStructure(*program);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("variable 'y'"), std::string::npos)
      << st.ToString();
}

TEST(DlirPrintTest, RuleRoundTripsThroughParser) {
  // The second program's floats once printed as `2` and `0.123457`: the
  // text re-printed unchanged, but it read back as other constants.
  for (const char* source : {kTcProgram, R"(
.decl edge(x: number, y: number)
.input edge
.decl out(x: number, z: float, u: float, w: float)
.output out
out(x, z, u, w) :- edge(x, _), z = 2.0, u = 0.1, w = 0.1234567, 1 = 1.0.
)"}) {
    auto program = ParseProgram(source);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    std::string text = program->ToString();
    auto reparsed = ParseProgram(text);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
    ASSERT_EQ(reparsed->rules.size(), program->rules.size());
    EXPECT_EQ(reparsed->ToString(), text);
    for (size_t r = 0; r < program->rules.size(); ++r) {
      const Rule& before = program->rules[r];
      const Rule& after = reparsed->rules[r];
      // Constant::operator== compares kind and value.
      EXPECT_EQ(after.head.args, before.head.args) << text;
      ASSERT_EQ(after.body.size(), before.body.size());
      for (size_t a = 0; a < before.body.size(); ++a) {
        EXPECT_EQ(after.body[a], before.body[a]) << text;
      }
      EXPECT_EQ(after.constraints, before.constraints) << text;
    }
  }
}

TEST(DlirPrintTest, FloatsPrintShortestFixedWithDecimalPoint) {
  EXPECT_EQ(Constant::Float(2.0).ToString(), "2.0");
  EXPECT_EQ(Constant::Float(0.1).ToString(), "0.1");
  EXPECT_EQ(Constant::Float(0.1234567).ToString(), "0.1234567");
  EXPECT_EQ(Constant::Float(-2.5).ToString(), "-2.5");
  EXPECT_EQ(Constant::Float(1e21).ToString(), "1000000000000000000000.0");
  EXPECT_EQ(Constant::Float(1.5e-7).ToString(), "0.00000015");
}

TEST(DlirPrintTest, AggregateRuleRendersFunction) {
  auto program = ParseProgram(R"(
.decl sale(region: symbol, amount: number)
.decl total(region: symbol, t: number)
total(region, sum(amount)) :- sale(region, amount).
)");
  ASSERT_TRUE(program.ok());
  std::string text = program->rules[0].ToString();
  EXPECT_NE(text.find("sum(amount)"), std::string::npos);
}

TEST(SouffleTest, EmitsDeclsAndIo) {
  auto program = ParseProgram(kTcProgram);
  ASSERT_TRUE(program.ok());
  std::string text = ToSouffle(*program);
  EXPECT_NE(text.find(".decl edge(x: number, y: number)"), std::string::npos);
  EXPECT_NE(text.find(".input edge"), std::string::npos);
  EXPECT_NE(text.find(".output tc"), std::string::npos);
  EXPECT_NE(text.find("tc(x, y) :- tc(x, z), edge(z, y)."), std::string::npos);
}

TEST(SouffleTest, EmitsSubsumptionForLattice) {
  auto program = ParseProgram(R"(
.decl dist(x: number, d: number) @min
)");
  ASSERT_TRUE(program.ok());
  std::string text = ToSouffle(*program);
  EXPECT_NE(text.find("<="), std::string::npos);  // subsumptive clause
}

TEST(SouffleTest, EmitsAggregateContextSyntax) {
  auto program = ParseProgram(R"(
.decl sale(region: symbol, amount: number)
.decl total(region: symbol, t: number)
total(region, sum(amount)) :- sale(region, amount).
)");
  ASSERT_TRUE(program.ok());
  std::string text = ToSouffle(*program);
  EXPECT_NE(text.find("sum amount : {"), std::string::npos);
}

TEST(VarGenTest, AvoidsReservedNames) {
  VarGen gen({"x", "x_1"});
  EXPECT_EQ(gen.Fresh("x"), "x_2");
  EXPECT_EQ(gen.Fresh("y"), "y_3");  // counter is global, names stay unique
}

TEST(TermTest, CollectVarsRecurses) {
  Term t = Term::Binary(ArithOp::kAdd, Term::Var("a"),
                        Term::Binary(ArithOp::kMul, Term::Var("b"),
                                     Term::Num(2)));
  std::set<std::string> vars;
  t.CollectVars(&vars);
  EXPECT_EQ(vars, (std::set<std::string>{"a", "b"}));
}

TEST(TermTest, EqualityIsStructural) {
  Term a = Term::Binary(ArithOp::kAdd, Term::Var("x"), Term::Num(1));
  Term b = Term::Binary(ArithOp::kAdd, Term::Var("x"), Term::Num(1));
  Term c = Term::Binary(ArithOp::kAdd, Term::Var("x"), Term::Num(2));
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

// The folder behind constant pushdown and the RQ107 lint must decide a
// ground expression exactly as the engines evaluate it: wherever it gives
// an answer, engine::EvalArith / engine::CheckCmp give the same one.
TEST(DlirFoldTest, AgreesWithEngineValueOps) {
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  std::vector<Constant> grid;
  for (int64_t v : {int64_t{-7}, int64_t{-1}, int64_t{0}, int64_t{1},
                    int64_t{2}, int64_t{3}, kMax, kMin}) {
    grid.push_back(Constant::Number(v));
  }
  for (double v : {-2.5, -0.0, 0.0, 0.5, 1.0, 2.0, 3.5, 1e300}) {
    grid.push_back(Constant::Float(v));
  }
  for (const char* v : {"", "a", "b", "ab"}) {
    grid.push_back(Constant::String(v));
  }
  grid.push_back(Constant::Bool(false));
  grid.push_back(Constant::Bool(true));

  SymbolTable symbols;
  int folded_arith = 0;
  int folded_cmp = 0;
  for (const Constant& a : grid) {
    for (const Constant& b : grid) {
      const Value va = engine::ConstantToValue(a, &symbols);
      const Value vb = engine::ConstantToValue(b, &symbols);
      for (ArithOp op : {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                         ArithOp::kDiv, ArithOp::kMod}) {
        const Term folded =
            FoldConstants(Term::Binary(op, Term::Const(a), Term::Const(b)));
        if (!folded.is_const()) continue;
        ++folded_arith;
        const std::string what = a.ToString() + " " + ArithOpToString(op) +
                                 " " + b.ToString();
        Result<Value> want = engine::EvalArith(op, va, vb);
        ASSERT_TRUE(want.ok()) << what << ": " << want.status().ToString();
        const Value got = engine::ConstantToValue(folded.constant, &symbols);
        EXPECT_EQ(got.kind(), want->kind()) << what;
        EXPECT_EQ(got.RawBits(), want->RawBits()) << what;
      }
      for (CmpOp op : {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe,
                       CmpOp::kGt, CmpOp::kGe}) {
        std::optional<bool> verdict = FoldComparison(op, a, b);
        if (!verdict.has_value()) continue;
        ++folded_cmp;
        EXPECT_EQ(*verdict, engine::CheckCmp(op, va, vb, symbols))
            << a.ToString() << " " << CmpOpToString(op) << " "
            << b.ToString();
      }
    }
  }
  // The folder does answer: mixed number/float arithmetic and ordering,
  // symbol ordering, and equality across every kind.
  EXPECT_GT(folded_arith, 300);
  EXPECT_GT(folded_cmp, 1500);
  EXPECT_EQ(FoldComparison(CmpOp::kEq, Constant::Number(1),
                           Constant::Float(1.0)),
            std::optional<bool>(false));
  EXPECT_EQ(FoldComparison(CmpOp::kLt, Constant::Number(1),
                           Constant::Float(2.5)),
            std::optional<bool>(true));
  EXPECT_EQ(FoldComparison(CmpOp::kLt, Constant::Bool(false),
                           Constant::Bool(true)),
            std::nullopt);
}

}  // namespace
}  // namespace raqlet::dlir
