// Unit tests for dlir/: AST helpers, parser, validation, printers.

#include <gtest/gtest.h>

#include "dlir/parser.h"
#include "dlir/program.h"
#include "dlir/souffle_printer.h"

namespace raqlet::dlir {
namespace {

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
  EXPECT_TRUE(program->Validate().ok());
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
  EXPECT_TRUE(program->Validate().ok());
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
  EXPECT_TRUE(program->Validate().ok());
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
  Status st = program->Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(DlirValidateTest, RejectsUndeclaredPredicate) {
  auto program = ParseProgram(R"(
.decl b(x: number)
b(x) :- ghost(x).
)");
  ASSERT_TRUE(program.ok());
  EXPECT_EQ(program->Validate().code(), StatusCode::kNotFound);
}

TEST(DlirValidateTest, RejectsUnsafeRule) {
  auto program = ParseProgram(R"(
.decl a(x: number)
.decl b(x: number, y: number)
b(x, y) :- a(x).
)");
  ASSERT_TRUE(program.ok());
  Status st = program->Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unsafe"), std::string::npos);
}

TEST(DlirValidateTest, AcceptsBindingConstraintChains) {
  // y is bound through a chain of equalities rooted at a positive atom.
  auto program = ParseProgram(R"(
.decl a(x: number)
.decl b(x: number, y: number)
b(x, y) :- a(x), z = x + 1, y = z * 2.
)");
  ASSERT_TRUE(program.ok());
  EXPECT_TRUE(program->Validate().ok()) << program->Validate().ToString();
}

TEST(DlirValidateTest, RejectsVarOnlyBoundByNegation) {
  auto program = ParseProgram(R"(
.decl a(x: number)
.decl n(x: number, y: number)
.decl b(x: number)
b(x) :- a(x), !n(x, y).
)");
  ASSERT_TRUE(program.ok());
  EXPECT_FALSE(program->Validate().ok());
}

TEST(DlirPrintTest, RuleRoundTripsThroughParser) {
  auto program = ParseProgram(kTcProgram);
  ASSERT_TRUE(program.ok());
  std::string text = program->ToString();
  auto reparsed = ParseProgram(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n" << text;
  EXPECT_EQ(reparsed->rules.size(), program->rules.size());
  EXPECT_EQ(reparsed->ToString(), text);
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

}  // namespace
}  // namespace raqlet::dlir
