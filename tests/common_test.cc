// Unit tests for common/: Status, Result, Value, SymbolTable, str_util,
// and the shared lexer.

#include <gtest/gtest.h>

#include "common/lexer.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/value.h"

namespace raqlet {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::ParseError("bad token");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kParseError);
  EXPECT_EQ(s.message(), "bad token");
  EXPECT_EQ(s.ToString(), "ParseError: bad token");
}

TEST(StatusTest, CopyPreservesError) {
  Status s = Status::NotFound("x");
  Status t = s;
  EXPECT_EQ(t.code(), StatusCode::kNotFound);
  EXPECT_EQ(t.message(), "x");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::Internal("boom");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Double(Result<int> in) {
  RAQLET_ASSIGN_OR_RETURN(int v, std::move(in));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Double(21), 42);
  EXPECT_FALSE(Double(Status::NotFound("nope")).ok());
  EXPECT_EQ(Double(Status::NotFound("nope")).status().code(),
            StatusCode::kNotFound);
}

TEST(ValueTest, KindsAndAccessors) {
  EXPECT_EQ(Value::Number(7).AsNumber(), 7);
  EXPECT_DOUBLE_EQ(Value::Float(2.5).AsFloat(), 2.5);
  EXPECT_EQ(Value::Symbol(3).AsSymbol(), 3u);
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_TRUE(Value::Null().is_null());
}

TEST(ValueTest, EqualityIsKindAware) {
  EXPECT_EQ(Value::Number(1), Value::Number(1));
  EXPECT_NE(Value::Number(1), Value::Float(1.0));
  EXPECT_NE(Value::Number(1), Value::Symbol(1));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, OrderingWithinKind) {
  EXPECT_LT(Value::Number(1), Value::Number(2));
  EXPECT_LT(Value::Float(1.5), Value::Float(2.5));
}

TEST(ValueTest, HashDistinguishesKinds) {
  EXPECT_NE(Value::Number(1).Hash(), Value::Symbol(1).Hash());
}

TEST(ValueTest, EqualValuesHashEqual) {
  // 0.0 == -0.0 with different bits: the hash must not tell them apart.
  ASSERT_EQ(Value::Float(0.0), Value::Float(-0.0));
  EXPECT_EQ(Value::Float(0.0).Hash(), Value::Float(-0.0).Hash());
  EXPECT_EQ(TupleHash()({Value::Float(-0.0), Value::Number(1)}),
            TupleHash()({Value::Float(0.0), Value::Number(1)}));
}

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable t;
  uint32_t a = t.Intern("hello");
  uint32_t b = t.Intern("world");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.Intern("hello"), a);
  EXPECT_EQ(t.Resolve(a), "hello");
  EXPECT_EQ(t.Lookup("world"), b);
  EXPECT_EQ(t.Lookup("missing"), SymbolTable::kNotFound);
  EXPECT_EQ(t.size(), 2u);
}

TEST(TupleTest, HashAndToString) {
  SymbolTable t;
  Tuple a = {Value::Number(1), Value::Symbol(t.Intern("x"))};
  Tuple b = {Value::Number(1), Value::Symbol(t.Intern("x"))};
  EXPECT_EQ(TupleHash()(a), TupleHash()(b));
  EXPECT_EQ(TupleToString(a, &t), "(1, \"x\")");
}

TEST(StrUtilTest, JoinSplit) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  std::vector<std::string> parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
}

TEST(StrUtilTest, CaseAndTrim) {
  EXPECT_EQ(ToLower("MiXeD"), "mixed");
  EXPECT_EQ(ToUpper("MiXeD"), "MIXED");
  EXPECT_EQ(Trim("  x \n"), "x");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
}

TEST(LexerTest, TokenizesIdentifiersNumbersStrings) {
  LexerConfig config;
  config.multi_char_puncts = {"->", "<="};
  config.single_puncts = "(),<-";
  auto tokens = Tokenize("foo 12 3.5 \"hi\" -> <= (", config);
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 8u);  // 7 tokens + EOF
  EXPECT_EQ((*tokens)[0].kind, Token::kIdent);
  EXPECT_EQ((*tokens)[1].kind, Token::kNumber);
  EXPECT_EQ((*tokens)[2].kind, Token::kFloat);
  EXPECT_EQ((*tokens)[3].kind, Token::kString);
  EXPECT_EQ((*tokens)[4].text, "->");
  EXPECT_EQ((*tokens)[5].text, "<=");
  EXPECT_EQ((*tokens)[6].text, "(");
}

TEST(LexerTest, TracksLineNumbers) {
  LexerConfig config;
  config.single_puncts = "()";
  auto tokens = Tokenize("a\nb", config);
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[0].line, 1);
  EXPECT_EQ((*tokens)[1].line, 2);
}

TEST(LexerTest, CommentsSkipped) {
  LexerConfig config;
  config.single_puncts = "()";
  auto tokens = Tokenize("a // c1\nb /* c2 */ c\nd", config);
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[3].text, "d");
}

TEST(LexerTest, RejectsUnknownCharacter) {
  LexerConfig config;
  config.single_puncts = "()";
  auto tokens = Tokenize("a ?", config);
  EXPECT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kParseError);
}

TEST(LexerTest, UnterminatedStringFails) {
  LexerConfig config;
  auto tokens = Tokenize("\"abc", config);
  EXPECT_FALSE(tokens.ok());
}

}  // namespace
}  // namespace raqlet
