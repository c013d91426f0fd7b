// Tests for DLIR -> SQIR translation and the SQL unparser (Fig. 3e).

#include <gtest/gtest.h>

#include "dlir/parser.h"
#include "sqir/dlir_to_sqir.h"
#include "sqir/sql_printer.h"

namespace raqlet::sqir {
namespace {

dlir::Program Parse(const std::string& text) {
  auto program = dlir::ParseProgram(text);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  return std::move(program).value();
}

// The paper's Fig. 3c chain.
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

TEST(SqirTest, PaperPipelineBecomesV1V2V3) {
  auto sqir = TranslateToSqir(Parse(kPaperPipeline));
  ASSERT_TRUE(sqir.ok()) << sqir.status().ToString();
  ASSERT_EQ(sqir->ctes.size(), 3u);
  EXPECT_EQ(sqir->ctes[0].name, "V1");
  EXPECT_EQ(sqir->ctes[0].source_predicate, "Match1");
  EXPECT_EQ(sqir->ctes[1].name, "V2");
  EXPECT_EQ(sqir->ctes[2].name, "V3");
  EXPECT_EQ(sqir->ctes[2].source_predicate, "Return");
  for (const Cte& cte : sqir->ctes) EXPECT_FALSE(cte.recursive);
  // Conjunction became a join with equality predicates; DISTINCT is set.
  const Select& match = sqir->ctes[0].branches[0];
  EXPECT_TRUE(match.distinct);
  EXPECT_EQ(match.from.size(), 3u);
  EXPECT_GE(match.where.size(), 2u);  // R1.id1 = R2.id, R1.id2 = R3.id
  // Output columns carried through.
  EXPECT_EQ(sqir->output_columns,
            (std::vector<std::string>{"firstName", "cityId"}));
}

TEST(SqirTest, SqlTextMatchesPaperShape) {
  auto sqir = TranslateToSqir(Parse(kPaperPipeline));
  ASSERT_TRUE(sqir.ok());
  std::string sql = ToSql(*sqir);
  EXPECT_NE(sql.find("WITH V1("), std::string::npos);
  EXPECT_NE(sql.find("SELECT DISTINCT"), std::string::npos);
  EXPECT_NE(sql.find("FROM Person_IS_LOCATED_IN_City AS R1"),
            std::string::npos);
  EXPECT_NE(sql.find("= 42"), std::string::npos);
  EXPECT_NE(sql.find("FROM V3"), std::string::npos);
  // Non-recursive chain: no RECURSIVE keyword.
  EXPECT_EQ(sql.find("RECURSIVE"), std::string::npos);
}

constexpr char kTc[] = R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

TEST(SqirTest, RecursiveCteForTc) {
  auto sqir = TranslateToSqir(Parse(kTc));
  ASSERT_TRUE(sqir.ok()) << sqir.status().ToString();
  ASSERT_EQ(sqir->ctes.size(), 1u);
  EXPECT_TRUE(sqir->ctes[0].recursive);
  ASSERT_EQ(sqir->ctes[0].branches.size(), 2u);
  // Base branch first (references only edge), recursive branch second.
  EXPECT_EQ(sqir->ctes[0].branches[0].from.size(), 1u);
  EXPECT_EQ(sqir->ctes[0].branches[1].from.size(), 2u);
  std::string sql = ToSql(*sqir);
  EXPECT_NE(sql.find("WITH RECURSIVE"), std::string::npos);
  EXPECT_NE(sql.find("UNION"), std::string::npos);
}

TEST(SqirTest, RejectsNonLinearRecursion) {
  auto sqir = TranslateToSqir(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), tc(z, y).
)"));
  ASSERT_FALSE(sqir.ok());
  EXPECT_EQ(sqir.status().code(), StatusCode::kUnsupported);
}

TEST(SqirTest, RejectsMutualRecursion) {
  auto sqir = TranslateToSqir(Parse(R"(
.decl s(x: number, y: number)
.input s
.decl even(x: number)
.decl odd(x: number)
.output even
even(0).
odd(y) :- even(x), s(x, y).
even(y) :- odd(x), s(x, y).
)"));
  ASSERT_FALSE(sqir.ok());
  EXPECT_EQ(sqir.status().code(), StatusCode::kUnsupported);
}

TEST(SqirTest, NegationBecomesNotExists) {
  auto sqir = TranslateToSqir(Parse(R"(
.decl a(x: number)
.input a
.decl b(x: number)
.input b
.decl out(x: number)
.output out
out(x) :- a(x), !b(x).
)"));
  ASSERT_TRUE(sqir.ok()) << sqir.status().ToString();
  ASSERT_EQ(sqir->ctes[0].branches[0].not_exists.size(), 1u);
  std::string sql = ToSql(*sqir);
  EXPECT_NE(sql.find("NOT EXISTS (SELECT 1 FROM b"), std::string::npos);
}

TEST(SqirTest, AggregateBecomesGroupBy) {
  auto sqir = TranslateToSqir(Parse(R"(
.decl sale(region: symbol, amount: number)
.input sale
.decl total(region: symbol, t: number)
.output total
total(r, sum(a)) :- sale(r, a).
)"));
  ASSERT_TRUE(sqir.ok()) << sqir.status().ToString();
  const Select& sel = sqir->ctes[0].branches[0];
  ASSERT_EQ(sel.group_by.size(), 1u);
  std::string sql = ToSql(*sqir);
  EXPECT_NE(sql.find("SUM("), std::string::npos);
  EXPECT_NE(sql.find("GROUP BY"), std::string::npos);
}

TEST(SqirTest, StringLiteralsUseSingleQuotes) {
  auto sqir = TranslateToSqir(Parse(R"(
.decl person(id: number, name: symbol)
.input person
.decl out(id: number)
.output out
out(x) :- person(x, name), name = "O'Brien".
)"));
  ASSERT_TRUE(sqir.ok()) << sqir.status().ToString();
  std::string sql = ToSql(*sqir);
  EXPECT_NE(sql.find("'O''Brien'"), std::string::npos);
}

// TranslateToSqir runs the engines' structural entry check, which covers
// aggregate inputs.
TEST(SqirTest, UnboundAggregateInputRejectedAtEntry) {
  auto sqir = TranslateToSqir(Parse(R"(
.decl edge(x: number, y: number)
.input edge
.decl total(s: number)
.output total
total(sum(z)) :- edge(x, _).
)"));
  ASSERT_FALSE(sqir.ok());
  EXPECT_EQ(sqir.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sqir.status().message().find("RQ004"), std::string::npos)
      << sqir.status().ToString();
}

TEST(SqirTest, MultipleOutputsRejected) {
  auto sqir = TranslateToSqir(Parse(R"(
.decl a(x: number)
.input a
.decl b(x: number)
.decl c(x: number)
.output b
.output c
b(x) :- a(x).
c(x) :- a(x).
)"));
  ASSERT_FALSE(sqir.ok());
  EXPECT_EQ(sqir.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace raqlet::sqir
