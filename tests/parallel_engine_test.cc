// Determinism of the parallel evaluation runtime: evaluating any program
// with N threads must produce exactly the same relations — same tuples in
// the same insertion order — as evaluating it with 1 thread, and both must
// agree with the other engines. Exercises fixed workloads (negation,
// aggregation, lattices, mutual recursion), randomly generated recursive
// programs, and the cross-engine Cypher harness's random social graphs.

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "dlir/parser.h"
#include "engine/datalog/engine.h"
#include "raqlet/compiler.h"

namespace raqlet {
namespace {

// Deterministic random edge/node facts shared by every run of one case.
void FillEdges(Database* db, int nodes, int edges, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> pick(1, nodes);
  Relation* node_rel = *db->GetRelation("node");
  for (int i = 1; i <= nodes; ++i) node_rel->Insert({Value::Number(i)});
  Relation* edge_rel = *db->GetRelation("edge");
  for (int i = 0; i < edges; ++i) {
    edge_rel->Insert({Value::Number(pick(rng)), Value::Number(pick(rng))});
  }
}

Result<Database> MakeEdgeDb(const dlir::Program& program, int nodes, int edges,
                            unsigned seed) {
  Database db;
  for (const dlir::RelationDecl& decl : program.decls) {
    if (!decl.is_input) continue;
    RelationSchema schema;
    schema.name = decl.name;
    schema.columns = decl.columns;
    RAQLET_RETURN_IF_ERROR(db.CreateRelation(std::move(schema)).status());
  }
  FillEdges(&db, nodes, edges, seed);
  return db;
}

// Runs `program` serially and with `threads` workers (on fresh but
// identically-seeded databases) and asserts every relation ends up with
// identical rows in identical order.
void ExpectDeterministicEvaluation(const std::string& text, int threads,
                                   unsigned seed, int nodes = 40,
                                   int edges = 120) {
  auto program = dlir::ParseProgram(text);
  ASSERT_TRUE(program.ok()) << program.status().ToString() << "\n" << text;

  auto serial_db = MakeEdgeDb(*program, nodes, edges, seed);
  ASSERT_TRUE(serial_db.ok()) << serial_db.status().ToString();
  auto parallel_db = MakeEdgeDb(*program, nodes, edges, seed);
  ASSERT_TRUE(parallel_db.ok()) << parallel_db.status().ToString();

  engine::EvalStats serial_stats;
  engine::DatalogEngine serial_engine;  // num_threads == 1
  Status s1 = serial_engine.Run(*program, &*serial_db, &serial_stats);
  ASSERT_TRUE(s1.ok()) << s1.ToString() << "\n" << text;

  engine::EvalOptions parallel_options;
  parallel_options.num_threads = threads;
  engine::EvalStats parallel_stats;
  engine::DatalogEngine parallel_engine(parallel_options);
  Status sn = parallel_engine.Run(*program, &*parallel_db, &parallel_stats);
  ASSERT_TRUE(sn.ok()) << sn.ToString() << "\n" << text;

  for (const std::string& name : serial_db->RelationNames()) {
    auto lhs = serial_db->GetRelation(name);
    auto rhs = parallel_db->GetRelation(name);
    ASSERT_TRUE(lhs.ok() && rhs.ok()) << name;
    const std::vector<Tuple>& serial_rows = (*lhs)->MaterializeRows();
    const std::vector<Tuple>& parallel_rows = (*rhs)->MaterializeRows();
    ASSERT_EQ(serial_rows.size(), parallel_rows.size())
        << "relation " << name << " diverged at " << threads << " threads\n"
        << text;
    for (size_t i = 0; i < serial_rows.size(); ++i) {
      ASSERT_EQ(serial_rows[i], parallel_rows[i])
          << "relation " << name << " row " << i << " diverged ("
          << TupleToString(serial_rows[i]) << " vs "
          << TupleToString(parallel_rows[i]) << ") at " << threads
          << " threads\n" << text;
    }
  }
  // The work done must match too, not just the result: same fixpoint
  // structure, same derived-tuple stream.
  EXPECT_EQ(serial_stats.fixpoint_rounds, parallel_stats.fixpoint_rounds);
  EXPECT_EQ(serial_stats.tuples_inserted, parallel_stats.tuples_inserted);
  EXPECT_EQ(serial_stats.tuples_considered, parallel_stats.tuples_considered);
}

constexpr char kTransitiveClosure[] = R"(
.decl node(x: number)
.input node
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
.output tc
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
)";

constexpr char kMutualRecursion[] = R"(
.decl node(x: number)
.input node
.decl edge(x: number, y: number)
.input edge
.decl odd(x: number, y: number)
.decl even(x: number, y: number)
.output even
odd(x, y) :- edge(x, y).
odd(x, y) :- even(x, z), edge(z, y).
even(x, y) :- odd(x, z), edge(z, y).
)";

// Negation and aggregation on top of a recursive SCC (stratified).
constexpr char kNegationAndAggregation[] = R"(
.decl node(x: number)
.input node
.decl edge(x: number, y: number)
.input edge
.decl tc(x: number, y: number)
tc(x, y) :- edge(x, y).
tc(x, y) :- tc(x, z), edge(z, y).
.decl unreachable(x: number, y: number)
unreachable(x, y) :- node(x), node(y), !tc(x, y).
.decl fanout(x: number, n: number)
.output fanout
fanout(x, count()) :- unreachable(x, _).
)";

constexpr char kShortestPathLattice[] = R"(
.decl node(x: number)
.input node
.decl edge(x: number, y: number)
.input edge
.decl dist(x: number, y: number, d: number) @min
.output dist
dist(x, y, 1) :- edge(x, y).
dist(x, y, d + 1) :- dist(x, z, d), edge(z, y).
)";

// Many independent SCCs plus a join stratum on top, so the SCC scheduler
// actually has concurrency to exploit.
constexpr char kIndependentSccs[] = R"(
.decl node(x: number)
.input node
.decl edge(x: number, y: number)
.input edge
.decl fwd(x: number, y: number)
fwd(x, y) :- edge(x, y).
fwd(x, y) :- fwd(x, z), edge(z, y).
.decl bwd(x: number, y: number)
bwd(x, y) :- edge(y, x).
bwd(x, y) :- bwd(x, z), edge(y, z).
.decl loops(x: number)
loops(x) :- fwd(x, x).
.decl both(x: number, y: number)
.output both
both(x, y) :- fwd(x, y), bwd(x, y).
)";

// Many relations derive tuples in the same round — a mutually-recursive
// ring of 8 predicates (one SCC, 8 heads staged per fixpoint round) plus
// independent downstream strata — so the per-relation sharded merge has
// real shards to run concurrently. Exact row order and stats must still
// match the serial run.
constexpr char kManyOutputRelations[] = R"(
.decl node(x: number)
.input node
.decl edge(x: number, y: number)
.input edge
.decl s0(x: number, y: number)
.decl s1(x: number, y: number)
.decl s2(x: number, y: number)
.decl s3(x: number, y: number)
.decl s4(x: number, y: number)
.decl s5(x: number, y: number)
.decl s6(x: number, y: number)
.decl s7(x: number, y: number)
.output s0
s0(x, y) :- edge(x, y).
s0(x, y) :- s7(x, z), edge(z, y).
s1(x, y) :- s0(x, z), edge(z, y).
s2(x, y) :- s1(x, z), edge(z, y).
s3(x, y) :- s2(x, z), edge(z, y).
s4(x, y) :- s3(x, z), edge(z, y).
s5(x, y) :- s4(x, z), edge(z, y).
s6(x, y) :- s5(x, z), edge(z, y).
s7(x, y) :- s6(x, z), edge(z, y).
.decl fwd(x: number, y: number)
fwd(x, y) :- s0(x, y).
fwd(x, y) :- fwd(x, z), s1(z, y).
.decl pairs(x: number, y: number)
.output pairs
pairs(x, y) :- fwd(x, y), s2(x, y).
)";

class ParallelDeterminismTest : public ::testing::TestWithParam<int> {};

TEST(ParallelDeterminismShardedMergeTest, ManyOutputRelationsAtEightThreads) {
  for (unsigned seed : {3u, 19u}) {
    ExpectDeterministicEvaluation(kManyOutputRelations, /*threads=*/8, seed,
                                  /*nodes=*/30, /*edges=*/90);
  }
}

TEST_P(ParallelDeterminismTest, TransitiveClosure) {
  for (unsigned seed : {1u, 2u, 3u}) {
    ExpectDeterministicEvaluation(kTransitiveClosure, GetParam(), seed);
  }
}

TEST_P(ParallelDeterminismTest, MutualRecursion) {
  ExpectDeterministicEvaluation(kMutualRecursion, GetParam(), 7);
}

TEST_P(ParallelDeterminismTest, NegationAndAggregation) {
  ExpectDeterministicEvaluation(kNegationAndAggregation, GetParam(), 11);
}

TEST_P(ParallelDeterminismTest, ShortestPathLattice) {
  ExpectDeterministicEvaluation(kShortestPathLattice, GetParam(), 13);
}

TEST_P(ParallelDeterminismTest, IndependentSccs) {
  ExpectDeterministicEvaluation(kIndependentSccs, GetParam(), 17);
}

// Random recursive programs: a pool of binary predicates defined by rules
// drawn from safe templates, producing chains, mutual-recursion SCCs, and
// multi-recursive-atom rules (several delta variants per round).
std::string RandomRecursiveProgram(unsigned seed) {
  std::mt19937 rng(seed);
  constexpr int kRelations = 5;
  std::uniform_int_distribution<int> rel(0, kRelations - 1);
  std::uniform_int_distribution<int> extra_rules(1, 3);
  std::uniform_int_distribution<int> shape(0, 3);

  std::ostringstream out;
  out << ".decl node(x: number)\n.input node\n";
  out << ".decl edge(x: number, y: number)\n.input edge\n";
  for (int i = 0; i < kRelations; ++i) {
    out << ".decl r" << i << "(x: number, y: number)\n";
  }
  out << ".output r0\n";
  for (int i = 0; i < kRelations; ++i) {
    out << "r" << i << "(x, y) :- edge(x, y).\n";
    int n = extra_rules(rng);
    for (int k = 0; k < n; ++k) {
      int j = rel(rng);
      int m = rel(rng);
      switch (shape(rng)) {
        case 0:  // linear step through another predicate
          out << "r" << i << "(x, y) :- r" << j << "(x, z), edge(z, y).\n";
          break;
        case 1:  // two-predicate join: both atoms may be recursive
          out << "r" << i << "(x, y) :- r" << j << "(x, z), r" << m
              << "(z, y).\n";
          break;
        case 2:  // reversal
          out << "r" << i << "(x, y) :- r" << j << "(y, x).\n";
          break;
        default:  // join plus a filtering constraint
          out << "r" << i << "(x, y) :- r" << j << "(x, z), edge(z, y), "
              << "x != y.\n";
          break;
      }
    }
  }
  return out.str();
}

TEST_P(ParallelDeterminismTest, RandomRecursivePrograms) {
  for (unsigned seed = 0; seed < 8; ++seed) {
    std::string text = RandomRecursiveProgram(seed);
    ExpectDeterministicEvaluation(text, GetParam(), seed * 13 + 1,
                                  /*nodes=*/25, /*edges=*/60);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelDeterminismTest,
                         ::testing::Values(2, 4, 8));

// The cross-engine harness's shape: random social graph, Cypher frontend,
// every engine — with the Datalog engine additionally run at 4 threads.
constexpr char kSocialSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, firstName STRING, age INT}),
  (cityType: City {id INT, name STRING}),
  (:personType)-[locationType: isLocatedIn {id INT}]->(:cityType),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";

void FillSocialDb(Database* db, int persons, int cities, int knows_edges,
                  unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<int> person(1, persons);
  std::uniform_int_distribution<int> city(1, cities);
  std::uniform_int_distribution<int> age(18, 80);
  Relation* person_rel = *db->GetRelation("Person");
  for (int i = 1; i <= persons; ++i) {
    person_rel->Insert({Value::Number(i), db->Str("p" + std::to_string(i % 7)),
                        Value::Number(age(rng))});
  }
  Relation* city_rel = *db->GetRelation("City");
  for (int i = 1; i <= cities; ++i) {
    city_rel->Insert(
        {Value::Number(1000 + i), db->Str("c" + std::to_string(i))});
  }
  Relation* located = *db->GetRelation("Person_IS_LOCATED_IN_City");
  int edge_id = 0;
  for (int i = 1; i <= persons; ++i) {
    located->Insert({Value::Number(i), Value::Number(1000 + city(rng)),
                     Value::Number(++edge_id)});
  }
  Relation* knows = *db->GetRelation("Person_KNOWS_Person");
  for (int i = 0; i < knows_edges; ++i) {
    int a = person(rng);
    int b = person(rng);
    if (a == b) continue;
    knows->Insert(
        {Value::Number(a), Value::Number(b), Value::Number(++edge_id)});
  }
}

class ParallelCrossEngineTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelCrossEngineTest, CypherQueriesAgreeAcrossEnginesAndThreads) {
  const std::vector<std::string> queries = {
      "MATCH (a:Person)-[:KNOWS]->(b:Person) WHERE a.id < 5 "
      "RETURN DISTINCT a.id AS a, b.id AS b",
      "MATCH (a:Person {id: 2})-[:KNOWS*]->(b:Person) "
      "RETURN DISTINCT b.id AS id",
      "MATCH p = shortestPath((a:Person {id: 1})-[:KNOWS*]->(b:Person)) "
      "RETURN DISTINCT b.id AS id, length(p) AS len",
      "MATCH (a:Person)-[:KNOWS]->(b:Person) "
      "WITH a, count(b) AS friends "
      "RETURN DISTINCT a.id AS id, friends",
  };
  for (const std::string& query : queries) {
    Compiler compiler;
    ASSERT_TRUE(compiler.LoadPgSchema(kSocialSchema).ok());
    Database db;
    ASSERT_TRUE(compiler.CreateEdbs(&db).ok());
    FillSocialDb(&db, 30, 4, 60, static_cast<unsigned>(GetParam()) * 77 + 5);

    auto unit = compiler.CompileCypher(query, {});
    ASSERT_TRUE(unit.ok()) << unit.status().ToString() << "\n" << query;

    auto serial = compiler.RunOnDatalog(unit->dlir, &db);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString() << "\n" << query;

    engine::EvalOptions options;
    options.num_threads = 4;
    auto parallel = compiler.RunOnDatalog(unit->dlir, &db, nullptr, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString() << "\n" << query;

    // Bit-identical result table, order included.
    ASSERT_EQ(serial->rows.size(), parallel->rows.size()) << query;
    for (size_t i = 0; i < serial->rows.size(); ++i) {
      EXPECT_EQ(serial->rows[i], parallel->rows[i]) << query << " row " << i;
    }

    // And the graph engine still agrees on the result set.
    auto store = compiler.BuildGraphStore(db);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    auto graph = compiler.RunOnGraph(unit->pgir, *store, &db);
    ASSERT_TRUE(graph.ok()) << graph.status().ToString() << "\n" << query;
    EXPECT_EQ(graph->ToStringSet(db.symbols()),
              parallel->ToStringSet(db.symbols()))
        << query;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ParallelCrossEngineTest,
                         ::testing::Range(0, 4));

}  // namespace
}  // namespace raqlet
