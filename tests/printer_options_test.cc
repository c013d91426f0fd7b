// Tests for explicit entry points not covered elsewhere: the explicit
// magic-set API and DLIR parser error reporting.

#include <gtest/gtest.h>

#include "dlir/parser.h"
#include "opt/magic_sets.h"

namespace raqlet {
namespace {

dlir::Program Parse(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

constexpr char kTc[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

TEST(MagicSetsApiTest, RejectsBadAdornment) {
  auto program = Parse(kTc);
  auto result = opt::ApplyMagicSetsTo(program, "tc", "bfx");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(opt::ApplyMagicSetsTo(program, "ghost", "bf").ok());
}

TEST(MagicSetsApiTest, AllFreeAdornmentIsIdentity) {
  auto program = Parse(kTc);
  auto result = opt::ApplyMagicSetsTo(program, "tc", "ff");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rules.size(), program.rules.size());
}

TEST(MagicSetsApiTest, NoCallSiteIsIdentity) {
  // tc is output itself; no output rule *calls* it with constants.
  auto program = Parse(kTc);
  auto result = opt::ApplyMagicSetsTo(program, "tc", "bf");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->FindDecl("m_tc_bf"), nullptr);
}

TEST(DlirParserErrorsTest, PositionsAndMessages) {
  auto missing_dot = dlir::ParseProgram(".decl a(x: number)\na(1)");
  ASSERT_FALSE(missing_dot.ok());
  EXPECT_NE(missing_dot.status().message().find("line 2"), std::string::npos);

  auto bad_cmp = dlir::ParseProgram(R"(
.decl a(x: number)
.decl b(x: number)
b(x) :- a(x), x ~ 3.
)");
  EXPECT_FALSE(bad_cmp.ok());

  auto negative = dlir::ParseProgram(R"(
.decl a(x: number)
a(-5).
)");
  ASSERT_TRUE(negative.ok()) << negative.status().ToString();
  // -5 parses as 0 - 5 (constant-foldable by the optimizer).
  EXPECT_EQ(negative->rules[0].head.args[0].kind, dlir::TermKind::kBinary);
}

TEST(DlirParserErrorsTest, BlockCommentsAndLineComments) {
  auto program = dlir::ParseProgram(R"(
// line comment
.decl a(x: number) /* block
   spanning lines */
.decl b(x: number)
b(x) :- a(x).  // trailing
)");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->rules.size(), 1u);
}

}  // namespace
}  // namespace raqlet
