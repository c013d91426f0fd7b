// Tests for the LDBC SNB-like substrate: deterministic generation, and
// Table-1 queries agreeing across all engines and optimization levels.

#include <gtest/gtest.h>

#include "ldbc/ldbc.h"
#include "raqlet/compiler.h"

namespace raqlet::ldbc {
namespace {

struct Workload {
  Compiler compiler;
  Database db;
  GeneratorOptions options;

  explicit Workload(double sf = 0.1, unsigned seed = 42) {
    options.scale_factor = sf;
    options.seed = seed;
    EXPECT_TRUE(compiler.LoadPgSchema(SnbSchema()).ok());
    EXPECT_TRUE(compiler.CreateEdbs(&db).ok());
    Status st = GenerateSnbData(compiler.dl_schema(), &db, options);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }

  CompileOptions Params() const {
    CompileOptions opts;
    opts.parameters["personId"] =
        dlir::Constant::Number(SamplePersonId(options));
    opts.parameters["maxDate"] = dlir::Constant::Number(MidCreationDate());
    return opts;
  }
};

TEST(LdbcSchemaTest, ParsesAndTranslates) {
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(SnbSchema()).ok());
  const schema::DlSchema& dl = compiler.dl_schema();
  EXPECT_NE(dl.FindNode("Person"), nullptr);
  EXPECT_NE(dl.FindNode("Message"), nullptr);
  EXPECT_NE(dl.FindEdge("KNOWS"), nullptr);
  EXPECT_NE(dl.FindEdge("HAS_CREATOR"), nullptr);
  // Person EDB has the 10 columns the paper's Fig. 3c wildcards imply.
  const schema::NodeRelationInfo* person = dl.FindNode("Person");
  EXPECT_EQ(person->arity(), 10u);
}

TEST(LdbcGeneratorTest, IsDeterministic) {
  Workload a(0.05, 7);
  Workload b(0.05, 7);
  for (const std::string& rel : a.db.RelationNames()) {
    const Relation* ra = *a.db.GetRelation(rel);
    const Relation* rb = *b.db.GetRelation(rel);
    EXPECT_EQ(ra->size(), rb->size()) << rel;
  }
  EXPECT_EQ(a.db.TotalTuples(), b.db.TotalTuples());
}

TEST(LdbcGeneratorTest, ScalesWithScaleFactor) {
  Workload small(0.05);
  Workload large(0.2);
  EXPECT_GT(large.db.TotalTuples(), 2 * small.db.TotalTuples());
  const Relation* persons_small = *small.db.GetRelation("Person");
  const Relation* persons_large = *large.db.GetRelation("Person");
  EXPECT_EQ(persons_small->size(), 50u);
  EXPECT_EQ(persons_large->size(), 200u);
}

TEST(LdbcGeneratorTest, EveryMessageHasOneCreator) {
  Workload w(0.05);
  const Relation* messages = *w.db.GetRelation("Message");
  const Relation* creator = *w.db.GetRelation("Message_HAS_CREATOR_Person");
  EXPECT_EQ(creator->size(), messages->size());
}

TEST(LdbcGeneratorTest, KnowsDegreesAreHeavyTailed) {
  Workload w(0.5);
  const Relation* knows = *w.db.GetRelation("Person_KNOWS_Person");
  std::map<int64_t, int> degree;
  for (const Tuple& row : knows->MaterializeRows()) ++degree[row[0].AsNumber()];
  int max_degree = 0;
  double total = 0;
  for (const auto& [p, d] : degree) {
    max_degree = std::max(max_degree, d);
    total += d;
  }
  double mean = total / static_cast<double>(degree.size());
  EXPECT_GT(max_degree, 3 * mean);  // hubs exist
}

// Table 1 queries agree across every engine and optimization level.
class LdbcQueryAgreementTest
    : public ::testing::TestWithParam<const char*> {};

TEST_P(LdbcQueryAgreementTest, AllEnginesAgree) {
  Workload w(0.1);
  auto unit = w.compiler.CompileCypher(GetParam(), w.Params());
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();

  auto store = w.compiler.BuildGraphStore(w.db);
  ASSERT_TRUE(store.ok());
  auto graph = w.compiler.RunOnGraph(unit->pgir, *store, &w.db);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();

  auto datalog_unopt = w.compiler.RunOnDatalog(unit->dlir, &w.db);
  ASSERT_TRUE(datalog_unopt.ok()) << datalog_unopt.status().ToString();
  auto datalog_opt = w.compiler.RunOnDatalog(unit->optimized, &w.db);
  ASSERT_TRUE(datalog_opt.ok()) << datalog_opt.status().ToString();

  auto g = graph->ToStringSet(w.db.symbols());
  auto d0 = datalog_unopt->ToStringSet(w.db.symbols());
  auto d1 = datalog_opt->ToStringSet(w.db.symbols());
  EXPECT_EQ(g, d0);
  EXPECT_EQ(d0, d1);
  EXPECT_FALSE(d0.empty());  // the sampled person has results

  if (w.compiler.ToSqir(unit->optimized).ok()) {
    auto sql = w.compiler.RunOnSql(unit->optimized, &w.db);
    ASSERT_TRUE(sql.ok()) << sql.status().ToString();
    EXPECT_EQ(d0, sql->ToStringSet(w.db.symbols()));
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, LdbcQueryAgreementTest,
                         ::testing::Values(ShortQuery1(), ComplexQuery2(),
                                           ReachabilityQuery(),
                                           FriendsWithinThreeHops(),
                                           ShortestPathQuery(),
                                           FriendMessageCounts()),
                         [](const auto& info) {
                           switch (info.index) {
                             case 0:
                               return "ShortQuery1";
                             case 1:
                               return "ComplexQuery2";
                             case 2:
                               return "Reachability";
                             case 3:
                               return "ThreeHops";
                             case 4:
                               return "ShortestPath";
                             default:
                               return "FriendMessageCounts";
                           }
                         });

// The agreement above for every person at SF 0.1, not only the sample:
// both graph modes (same rows in the same order), Datalog at opt level 2
// and, where the backend takes the template, SQL return the same row set.
// FriendMessageCounts is left out: the undirected hop lowers to a set of
// node pairs, so Datalog and SQL count a reciprocal KNOWS pair once where
// the graph engine counts each edge, and 53 of the 100 persons get other
// rows from the graph engine (ROADMAP, cross-engine agreement).
struct SweepTemplate {
  const char* name;
  const char* query;
  bool sql;  // SQL rejects the lattice recursion of ShortestPath
};

void PrintTo(const SweepTemplate& t, std::ostream* os) { *os << t.name; }

class LdbcEveryPersonAgreementTest
    : public ::testing::TestWithParam<SweepTemplate> {};

TEST_P(LdbcEveryPersonAgreementTest, AllEnginesAgree) {
  Workload w(0.1);
  auto store = w.compiler.BuildGraphStore(w.db);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  engine::GraphOptions row_mode;
  row_mode.mode = engine::GraphMode::kRowBinding;
  for (int64_t person = 1; person <= w.options.persons(); ++person) {
    CompileOptions opts = w.Params();
    opts.parameters["personId"] = dlir::Constant::Number(person);
    opts.opt_level = 2;
    auto unit = w.compiler.CompileCypher(GetParam().query, opts);
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();

    auto graph = w.compiler.RunOnGraph(unit->pgir, *store, &w.db);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString();
    auto graph_rows =
        w.compiler.RunOnGraph(unit->pgir, *store, &w.db, nullptr, row_mode);
    ASSERT_TRUE(graph_rows.ok()) << graph_rows.status().ToString();
    EXPECT_EQ(graph->rows, graph_rows->rows) << "person " << person;

    auto datalog = w.compiler.RunOnDatalog(unit->optimized, &w.db);
    ASSERT_TRUE(datalog.ok()) << datalog.status().ToString();
    auto rows = datalog->ToStringSet(w.db.symbols());
    EXPECT_EQ(graph->ToStringSet(w.db.symbols()), rows) << "person " << person;

    if (GetParam().sql) {
      auto sql = w.compiler.RunOnSql(unit->optimized, &w.db);
      ASSERT_TRUE(sql.ok()) << sql.status().ToString();
      EXPECT_EQ(sql->ToStringSet(w.db.symbols()), rows) << "person " << person;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Templates, LdbcEveryPersonAgreementTest,
    ::testing::Values(SweepTemplate{"ShortQuery1", ShortQuery1(), true},
                      SweepTemplate{"ComplexQuery2", ComplexQuery2(), true},
                      SweepTemplate{"Reachability", ReachabilityQuery(), true},
                      SweepTemplate{"ThreeHops", FriendsWithinThreeHops(),
                                    true},
                      SweepTemplate{"ShortestPath", ShortestPathQuery(),
                                    false}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(LdbcEmissionTest, Sq1EmitsSqlAndSouffle) {
  Workload w(0.05);
  auto unit = w.compiler.CompileCypher(ShortQuery1(), w.Params());
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  std::string souffle = w.compiler.EmitSouffle(unit->optimized);
  EXPECT_NE(souffle.find(".output Return"), std::string::npos);
  auto sql = w.compiler.EmitSql(unit->optimized);
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();
  EXPECT_NE(sql->find("SELECT DISTINCT"), std::string::npos);
}

TEST(LdbcEmissionTest, ShortestPathSqlRejected) {
  Workload w(0.05);
  auto unit = w.compiler.CompileCypher(ShortestPathQuery(), w.Params());
  ASSERT_TRUE(unit.ok()) << unit.status().ToString();
  auto sql = w.compiler.EmitSql(unit->optimized);
  ASSERT_FALSE(sql.ok());
  EXPECT_EQ(sql.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace raqlet::ldbc
