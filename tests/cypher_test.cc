// Tests for the Cypher parser (frontend of Fig. 1).

#include <gtest/gtest.h>

#include "cypher/parser.h"

namespace raqlet::cypher {
namespace {

constexpr char kSq1[] = R"(
MATCH (n:Person {id: 42})-[:IS_LOCATED_IN]->(p:City)
RETURN DISTINCT n.firstName AS firstName, p.id AS cityId
)";

TEST(CypherParserTest, ParsesPaperSq1) {
  auto query = ParseQuery(kSq1);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  ASSERT_EQ(query->clauses.size(), 2u);
  const auto& match = std::get<MatchClause>(query->clauses[0]);
  ASSERT_EQ(match.patterns.size(), 1u);
  const PathPattern& path = match.patterns[0];
  EXPECT_EQ(path.start.var, "n");
  EXPECT_EQ(path.start.label, "Person");
  ASSERT_EQ(path.start.properties.size(), 1u);
  EXPECT_EQ(path.start.properties[0].first, "id");
  ASSERT_EQ(path.steps.size(), 1u);
  EXPECT_EQ(path.steps[0].first.type, "IS_LOCATED_IN");
  EXPECT_EQ(path.steps[0].first.direction, EdgeDirection::kOutgoing);
  EXPECT_EQ(path.steps[0].second.label, "City");
  const auto& ret = std::get<ReturnClause>(query->clauses[1]);
  EXPECT_TRUE(ret.distinct);
  ASSERT_EQ(ret.items.size(), 2u);
  EXPECT_EQ(ret.items[0].alias, "firstName");
  EXPECT_EQ(ret.items[0].expr.kind, ExprKind::kProperty);
}

TEST(CypherParserTest, ParsesDirections) {
  auto query = ParseQuery(
      "MATCH (a)-[:X]->(b), (c)<-[:Y]-(d), (e)-[:Z]-(f) RETURN a");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& match = std::get<MatchClause>(query->clauses[0]);
  ASSERT_EQ(match.patterns.size(), 3u);
  EXPECT_EQ(match.patterns[0].steps[0].first.direction,
            EdgeDirection::kOutgoing);
  EXPECT_EQ(match.patterns[1].steps[0].first.direction,
            EdgeDirection::kIncoming);
  EXPECT_EQ(match.patterns[2].steps[0].first.direction,
            EdgeDirection::kUndirected);
}

TEST(CypherParserTest, ParsesBareArrows) {
  auto query = ParseQuery("MATCH (a)-->(b)<--(c)--(d) RETURN a");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& match = std::get<MatchClause>(query->clauses[0]);
  ASSERT_EQ(match.patterns[0].steps.size(), 3u);
  EXPECT_EQ(match.patterns[0].steps[0].first.direction,
            EdgeDirection::kOutgoing);
  EXPECT_EQ(match.patterns[0].steps[1].first.direction,
            EdgeDirection::kIncoming);
  EXPECT_EQ(match.patterns[0].steps[2].first.direction,
            EdgeDirection::kUndirected);
}

TEST(CypherParserTest, ParsesVariableLength) {
  auto query = ParseQuery("MATCH (a)-[:KNOWS*1..3]->(b) RETURN a");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& edge =
      std::get<MatchClause>(query->clauses[0]).patterns[0].steps[0].first;
  EXPECT_TRUE(edge.variable_length);
  EXPECT_EQ(edge.min_hops, 1);
  EXPECT_EQ(edge.max_hops, 3);
}

TEST(CypherParserTest, VariableLengthForms) {
  struct Case {
    const char* pattern;
    int min;
    int max;
  };
  for (const Case& c : {Case{"*", 1, EdgePattern::kUnboundedHops},
                        Case{"*2", 2, 2},
                        Case{"*2..", 2, EdgePattern::kUnboundedHops},
                        Case{"*..4", 1, 4},
                        Case{"*0..2", 0, 2}}) {
    std::string q = std::string("MATCH (a)-[:K") + c.pattern +
                    "]->(b) RETURN a";
    auto query = ParseQuery(q);
    ASSERT_TRUE(query.ok()) << q << ": " << query.status().ToString();
    const auto& edge =
        std::get<MatchClause>(query->clauses[0]).patterns[0].steps[0].first;
    EXPECT_TRUE(edge.variable_length) << q;
    EXPECT_EQ(edge.min_hops, c.min) << q;
    EXPECT_EQ(edge.max_hops, c.max) << q;
  }
}

TEST(CypherParserTest, ParsesShortestPath) {
  auto query = ParseQuery(
      "MATCH p = shortestPath((a:Person)-[:KNOWS*]-(b:Person)) "
      "RETURN length(p)");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& path = std::get<MatchClause>(query->clauses[0]).patterns[0];
  EXPECT_TRUE(path.shortest);
  EXPECT_EQ(path.path_var, "p");
  const auto& ret = std::get<ReturnClause>(query->clauses[1]);
  EXPECT_EQ(ret.items[0].expr.kind, ExprKind::kCall);
  EXPECT_EQ(ret.items[0].expr.function, "length");
}

TEST(CypherParserTest, ParsesWhereWithBooleanOperators) {
  auto query = ParseQuery(
      "MATCH (n:Person) WHERE n.age > 30 AND (n.name = \"Ada\" OR NOT "
      "n.id <> 7) RETURN n");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& match = std::get<MatchClause>(query->clauses[0]);
  ASSERT_TRUE(match.where.has_value());
  EXPECT_EQ(match.where->bin_op, BinOp::kAnd);
}

TEST(CypherParserTest, ParsesWithAggregation) {
  auto query = ParseQuery(
      "MATCH (n:Person)-[:KNOWS]->(m:Person) "
      "WITH n, count(m) AS friends WHERE friends > 3 "
      "RETURN DISTINCT n, friends");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& with = std::get<WithClause>(query->clauses[1]);
  ASSERT_EQ(with.items.size(), 2u);
  EXPECT_TRUE(with.items[1].expr.IsAggregateCall());
  EXPECT_TRUE(with.where.has_value());
}

TEST(CypherParserTest, ParsesCountStarAndDistinctArg) {
  auto query = ParseQuery("MATCH (n:A) RETURN count(*) AS c1, "
                          "count(DISTINCT n) AS c2");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& ret = std::get<ReturnClause>(query->clauses[1]);
  EXPECT_TRUE(ret.items[0].expr.star_arg);
  EXPECT_TRUE(ret.items[1].expr.distinct_arg);
}

TEST(CypherParserTest, ParsesOrderByLimit) {
  auto query = ParseQuery(
      "MATCH (n:Person) RETURN n.name AS name ORDER BY name DESC, n.id "
      "SKIP 5 LIMIT 10");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& ret = std::get<ReturnClause>(query->clauses[1]);
  ASSERT_EQ(ret.order_by.size(), 2u);
  EXPECT_FALSE(ret.order_by[0].ascending);
  EXPECT_TRUE(ret.order_by[1].ascending);
  EXPECT_EQ(ret.skip, 5);
  EXPECT_EQ(ret.limit, 10);
}

TEST(CypherParserTest, ParsesParameters) {
  auto query = ParseQuery("MATCH (n:Person {id: $personId}) RETURN n");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& props =
      std::get<MatchClause>(query->clauses[0]).patterns[0].start.properties;
  ASSERT_EQ(props.size(), 1u);
  EXPECT_EQ(props[0].second.kind, ExprKind::kParameter);
  EXPECT_EQ(props[0].second.parameter, "personId");
}

TEST(CypherParserTest, KeywordsAreCaseInsensitive) {
  auto query = ParseQuery("match (n:A) return distinct n");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_TRUE(std::get<ReturnClause>(query->clauses[1]).distinct);
}

TEST(CypherParserTest, RejectsMissingReturn) {
  auto query = ParseQuery("MATCH (n:A)");
  ASSERT_FALSE(query.ok());
  EXPECT_NE(query.status().message().find("RETURN"), std::string::npos);
}

TEST(CypherParserTest, RejectsBidirectionalEdge) {
  EXPECT_FALSE(ParseQuery("MATCH (a)<-[:X]->(b) RETURN a").ok());
}

TEST(CypherParserTest, RejectsGarbage) {
  EXPECT_FALSE(ParseQuery("FROBNICATE (n)").ok());
  EXPECT_FALSE(ParseQuery("MATCH (n:A RETURN n").ok());
}

// A literal past int64, or a float past double, is a ParseError at the
// literal's position, never an exception out of the parser.
TEST(CypherParserTest, RejectsOutOfRangeLiterals) {
  auto query = ParseQuery(
      "MATCH (n:Person) WHERE n.id = 99999999999999999999 RETURN n.id AS id");
  ASSERT_FALSE(query.ok());
  EXPECT_EQ(query.status().code(), StatusCode::kParseError);
  EXPECT_NE(query.status().message().find("line 1, col 31"), std::string::npos)
      << query.status().ToString();
  const std::string huge_float = "1" + std::string(400, '0') + ".5";
  for (const std::string& q :
       {"MATCH (n) WHERE n.x > " + huge_float + " RETURN n",
        std::string("MATCH (n) RETURN n SKIP 99999999999999999999"),
        std::string("MATCH (n) RETURN n LIMIT 99999999999999999999")}) {
    EXPECT_EQ(ParseQuery(q).status().code(), StatusCode::kParseError) << q;
  }
}

TEST(CypherParserTest, RejectsHopBoundsPastIntMax) {
  for (const char* hops :
       {"*3000000000", "*3000000000..", "*1..3000000000", "*..3000000000"}) {
    std::string q =
        std::string("MATCH (a)-[:KNOWS") + hops + "]->(b) RETURN b";
    auto query = ParseQuery(q);
    ASSERT_FALSE(query.ok()) << q;
    EXPECT_EQ(query.status().code(), StatusCode::kParseError) << q;
  }
  EXPECT_NE(ParseQuery("MATCH (a)-[:KNOWS*3000000000]->(b) RETURN b")
                .status()
                .message()
                .find("line 1, col 19"),
            std::string::npos);
  auto query = ParseQuery("MATCH (a)-[:KNOWS*1..2147483647]->(b) RETURN b");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ(std::get<MatchClause>(query->clauses[0])
                .patterns[0]
                .steps[0]
                .first.max_hops,
            2147483647);
}

TEST(CypherParserTest, RoundTripsThroughToString) {
  auto query = ParseQuery(kSq1);
  ASSERT_TRUE(query.ok());
  auto reparsed = ParseQuery(query->ToString());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString() << "\n"
                             << query->ToString();
  EXPECT_EQ(reparsed->ToString(), query->ToString());
}

TEST(CypherParserTest, ParsesMultiHopChain) {
  auto query = ParseQuery(
      "MATCH (a:Person)-[:KNOWS]->(b:Person)<-[:HAS_CREATOR]-(m:Post) "
      "RETURN b, m");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  const auto& path = std::get<MatchClause>(query->clauses[0]).patterns[0];
  ASSERT_EQ(path.steps.size(), 2u);
  EXPECT_EQ(path.steps[1].first.direction, EdgeDirection::kIncoming);
}

}  // namespace
}  // namespace raqlet::cypher
