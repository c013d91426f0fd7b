// Tests for the SQL/PGQ frontend (ISO 9075-16 GRAPH_TABLE core) and its
// integration with the shared pipeline.

#include <gtest/gtest.h>

#include "cypher/parser.h"
#include "gql/parser.h"
#include "raqlet/compiler.h"
#include "sqlpgq/parser.h"

namespace raqlet::sqlpgq {
namespace {

constexpr char kSq1Pgq[] = R"(
SELECT DISTINCT *
FROM GRAPH_TABLE (social,
  MATCH (n IS Person WHERE n.id = 42)-[IS isLocatedIn]->(c IS City)
  COLUMNS (n.firstName AS firstName, c.id AS cityId)
)
)";

TEST(SqlPgqParserTest, ParsesGraphTable) {
  auto pgq = ParseQuery(kSq1Pgq);
  ASSERT_TRUE(pgq.ok()) << pgq.status().ToString();
  EXPECT_EQ(pgq->graph_name, "social");
  ASSERT_EQ(pgq->query.clauses.size(), 2u);
  const auto& match = std::get<cypher::MatchClause>(pgq->query.clauses[0]);
  ASSERT_EQ(match.patterns.size(), 1u);
  EXPECT_EQ(match.patterns[0].start.var, "n");
  EXPECT_EQ(match.patterns[0].start.label, "Person");
  // Element WHERE became the MATCH predicate.
  ASSERT_TRUE(match.where.has_value());
  EXPECT_EQ(match.where->ToString(), "(n.id = 42)");
  const auto& ret = std::get<cypher::ReturnClause>(pgq->query.clauses[1]);
  EXPECT_TRUE(ret.distinct);
  ASSERT_EQ(ret.items.size(), 2u);
  EXPECT_EQ(ret.items[0].alias, "firstName");
}

TEST(SqlPgqParserTest, OuterProjectionSelectsSubset) {
  auto pgq = ParseQuery(R"(
SELECT cityId
FROM GRAPH_TABLE (g,
  MATCH (n IS Person)-[IS isLocatedIn]->(c IS City)
  COLUMNS (n.firstName AS firstName, c.id AS cityId)
) AS gt
)");
  ASSERT_TRUE(pgq.ok()) << pgq.status().ToString();
  const auto& ret = std::get<cypher::ReturnClause>(pgq->query.clauses[1]);
  ASSERT_EQ(ret.items.size(), 1u);
  EXPECT_EQ(ret.items[0].alias, "cityId");
}

TEST(SqlPgqParserTest, RejectsUnknownOuterColumn) {
  auto pgq = ParseQuery(R"(
SELECT ghost
FROM GRAPH_TABLE (g,
  MATCH (n IS Person)
  COLUMNS (n.id AS id)
)
)");
  ASSERT_FALSE(pgq.ok());
  EXPECT_EQ(pgq.status().code(), StatusCode::kInvalidArgument);
}

TEST(SqlPgqParserTest, QuantifiedEdgeBecomesVariableLength) {
  auto pgq = ParseQuery(R"(
SELECT * FROM GRAPH_TABLE (g,
  MATCH (a IS Person)-[IS knows]->{1,3}(b IS Person)
  COLUMNS (b.id AS id)
)
)");
  ASSERT_TRUE(pgq.ok()) << pgq.status().ToString();
  const auto& edge =
      std::get<cypher::MatchClause>(pgq->query.clauses[0]).patterns[0]
          .steps[0].first;
  EXPECT_TRUE(edge.variable_length);
  EXPECT_EQ(edge.min_hops, 1);
  EXPECT_EQ(edge.max_hops, 3);
}

TEST(SqlPgqParserTest, OpenEndedQuantifier) {
  auto pgq = ParseQuery(R"(
SELECT * FROM GRAPH_TABLE (g,
  MATCH (a IS Person WHERE a.id = 1)-[IS knows]->{2,}(b IS Person)
  COLUMNS (b.id AS id)
)
)");
  ASSERT_TRUE(pgq.ok()) << pgq.status().ToString();
  const auto& edge =
      std::get<cypher::MatchClause>(pgq->query.clauses[0]).patterns[0]
          .steps[0].first;
  EXPECT_EQ(edge.min_hops, 2);
  EXPECT_EQ(edge.max_hops, cypher::EdgePattern::kUnboundedHops);
}

TEST(SqlPgqParserTest, AnyShortestMarksPath) {
  auto pgq = ParseQuery(R"(
SELECT * FROM GRAPH_TABLE (g,
  MATCH ANY SHORTEST (a IS Person)-[IS knows]->{1,}(b IS Person)
  COLUMNS (b.id AS id)
)
)");
  ASSERT_TRUE(pgq.ok()) << pgq.status().ToString();
  EXPECT_TRUE(std::get<cypher::MatchClause>(pgq->query.clauses[0])
                  .patterns[0].shortest);
}

TEST(SqlPgqParserTest, RejectsMalformedStatements) {
  EXPECT_FALSE(ParseQuery("SELECT * FROM persons").ok());
  EXPECT_FALSE(ParseQuery(
      "SELECT * FROM GRAPH_TABLE (g, MATCH (n IS A))").ok());  // no COLUMNS
}

TEST(SqlPgqParserTest, RejectsOutOfRangeLiteral) {
  auto pgq = ParseQuery(
      "SELECT * FROM GRAPH_TABLE (g,\n"
      "  MATCH (n IS Person)\n"
      "  WHERE n.id = 99999999999999999999\n"
      "  COLUMNS (n.id AS id))");
  ASSERT_FALSE(pgq.ok());
  EXPECT_EQ(pgq.status().code(), StatusCode::kParseError);
  EXPECT_NE(pgq.status().message().find("line 3, col 16"), std::string::npos)
      << pgq.status().ToString();
}

TEST(SqlPgqParserTest, RejectsQuantifierPastIntMax) {
  for (const char* quantifier : {"{3000000000}", "{3000000000,}",
                                 "{1,3000000000}"}) {
    std::string q = std::string(
                        "SELECT * FROM GRAPH_TABLE (g, MATCH (a IS Person)"
                        "-[IS knows]->") +
                    quantifier + "(b IS Person) COLUMNS (b.id AS id))";
    EXPECT_EQ(ParseQuery(q).status().code(), StatusCode::kParseError) << q;
  }
}

// Cypher, GQL and SQL/PGQ share one expression grammar, so an expression
// prints the same from a Cypher WHERE or RETURN item, a GQL FILTER, and a
// SQL/PGQ WHERE or COLUMNS item.
class FrontendExprAgreementTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(FrontendExprAgreementTest, AllFrontendsParseTheSameExpr) {
  const std::string expr = GetParam();
  auto where = [](const Result<cypher::Query>& query) -> std::string {
    if (!query.ok()) return query.status().ToString();
    const auto& match = std::get<cypher::MatchClause>(query->clauses[0]);
    return match.where.has_value() ? match.where->ToString() : "<none>";
  };
  auto item = [](const Result<cypher::Query>& query) -> std::string {
    if (!query.ok()) return query.status().ToString();
    return std::get<cypher::ReturnClause>(query->clauses.back())
        .items[0]
        .expr.ToString();
  };
  auto pgq = [](const std::string& text) -> Result<cypher::Query> {
    RAQLET_ASSIGN_OR_RETURN(PgqQuery parsed, ParseQuery(text));
    return parsed.query;
  };

  const std::string cypher_where = where(cypher::ParseQuery(
      "MATCH (n:Person) WHERE " + expr + " RETURN n.id AS id"));
  EXPECT_EQ(where(gql::ParseQuery("MATCH (n:Person) FILTER " + expr +
                                  " RETURN n.id AS id")),
            cypher_where);
  EXPECT_EQ(where(pgq("SELECT * FROM GRAPH_TABLE (g, MATCH (n IS Person) "
                      "WHERE " + expr + " COLUMNS (n.id AS id))")),
            cypher_where);

  const std::string cypher_item =
      item(cypher::ParseQuery("MATCH (n:Person) RETURN " + expr + " AS v"));
  EXPECT_EQ(cypher_item, cypher_where);
  EXPECT_EQ(item(pgq("SELECT * FROM GRAPH_TABLE (g, MATCH (n IS Person) "
                     "COLUMNS (" + expr + " AS v))")),
            cypher_item);
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, FrontendExprAgreementTest,
    ::testing::Values("-1", "-(n.id)", "n.id % 2 = 0", "NULL", "true", "1.5",
                      "\"s\"", "$p", "count(*)", "count(DISTINCT n.id)",
                      "NOT a OR b AND c", "n.id = 1", "n.id <> 1", "n.id < 1",
                      "n.id <= 1", "n.id > 1", "n.id >= 1"));

TEST(SqlPgqIntegrationTest, CompilesAndMatchesCypherResults) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING}),
  (cityType: City {id INT, name STRING}),
  (:personType)-[locationType: isLocatedIn {id INT}]->(:cityType)
}
)").ok());
  Database db;
  ASSERT_TRUE(compiler.CreateEdbs(&db).ok());
  Relation* person = *db.GetRelation("Person");
  person->Insert({Value::Number(42), db.Str("Ada")});
  person->Insert({Value::Number(7), db.Str("Bob")});
  Relation* city = *db.GetRelation("City");
  city->Insert({Value::Number(100), db.Str("Edinburgh")});
  person->Insert({Value::Number(-5), db.Str("Eve")});
  Relation* located = *db.GetRelation("Person_IS_LOCATED_IN_City");
  located->Insert({Value::Number(42), Value::Number(100), Value::Number(1)});
  located->Insert({Value::Number(-5), Value::Number(100), Value::Number(2)});

  auto pgq_unit = compiler.CompileSqlPgq(kSq1Pgq);
  ASSERT_TRUE(pgq_unit.ok()) << pgq_unit.status().ToString();
  auto cypher_unit = compiler.CompileCypher(
      "MATCH (n:Person {id: 42})-[:IS_LOCATED_IN]->(c:City) "
      "RETURN DISTINCT n.firstName AS firstName, c.id AS cityId");
  ASSERT_TRUE(cypher_unit.ok());

  auto pgq_result = compiler.RunOnDatalog(pgq_unit->optimized, &db);
  ASSERT_TRUE(pgq_result.ok()) << pgq_result.status().ToString();
  auto cypher_result = compiler.RunOnDatalog(cypher_unit->optimized, &db);
  ASSERT_TRUE(cypher_result.ok());
  EXPECT_EQ(pgq_result->ToStringSet(db.symbols()),
            cypher_result->ToStringSet(db.symbols()));
  EXPECT_EQ(pgq_result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(\"Ada\", 100)"}));

  // A negative literal in WHERE: Eve (id -5) is filtered out on both sides.
  auto negative_pgq = compiler.CompileSqlPgq(R"(
SELECT * FROM GRAPH_TABLE (social,
  MATCH (n IS Person)-[IS isLocatedIn]->(c IS City)
  WHERE n.id > -1
  COLUMNS (n.firstName AS firstName, c.id AS cityId)
)
)");
  ASSERT_TRUE(negative_pgq.ok()) << negative_pgq.status().ToString();
  auto negative_cypher = compiler.CompileCypher(
      "MATCH (n:Person)-[:IS_LOCATED_IN]->(c:City) WHERE n.id > -1 "
      "RETURN n.firstName AS firstName, c.id AS cityId");
  ASSERT_TRUE(negative_cypher.ok()) << negative_cypher.status().ToString();
  pgq_result = compiler.RunOnDatalog(negative_pgq->optimized, &db);
  ASSERT_TRUE(pgq_result.ok()) << pgq_result.status().ToString();
  cypher_result = compiler.RunOnDatalog(negative_cypher->optimized, &db);
  ASSERT_TRUE(cypher_result.ok()) << cypher_result.status().ToString();
  EXPECT_EQ(pgq_result->ToStringSet(db.symbols()),
            cypher_result->ToStringSet(db.symbols()));
  EXPECT_EQ(pgq_result->ToStringSet(db.symbols()),
            (std::set<std::string>{"(\"Ada\", 100)"}));
}

}  // namespace
}  // namespace raqlet::sqlpgq
