// Parser robustness: every frontend must return a Status (never crash,
// hang, or throw) on arbitrary garbage — random token soups and random
// mutations of valid inputs. The execution soak at the bottom extends the
// same never-crash bar through the engines with randomized QueryGuard
// budgets armed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyses.h"
#include "analysis/diagnostics.h"
#include "analysis/lints.h"
#include "analysis/typecheck.h"
#include "cypher/parser.h"
#include "dlir/parser.h"
#include "engine/datalog/incremental.h"
#include "gql/parser.h"
#include "opt/pass_manager.h"
#include "raqlet/compiler.h"
#include "runtime/query_guard.h"
#include "schema/pg_schema.h"
#include "sqlpgq/parser.h"

namespace raqlet {
namespace {

const char* const kTokenPool[] = {
    "MATCH",  "WHERE",  "RETURN", "WITH",   "DISTINCT", "FILTER", "AS",
    "(",      ")",      "[",      "]",      "{",        "}",      ",",
    ":",      "-",      "->",     "<-",     "*",        "..",     "=",
    "<>",     "<=",     ".",      "n",      "Person",   "id",     "42",
    "3.5",    "\"x\"",  "$p",     "count",  "shortestPath", "IS",
    ".decl",  ".input", ".output", ":-",    "!",        "+",      "/",
    "number", "symbol", "@min",   "SELECT", "FROM",     "GRAPH_TABLE",
    "COLUMNS", "AND",   "OR",     "NOT",    "99999999999999999999",
};

std::string RandomTokenSoup(std::mt19937* rng, int length) {
  std::uniform_int_distribution<size_t> pick(0, std::size(kTokenPool) - 1);
  std::string out;
  for (int i = 0; i < length; ++i) {
    out += kTokenPool[pick(*rng)];
    out += ' ';
  }
  return out;
}

std::string Mutate(const std::string& input, std::mt19937* rng) {
  std::string out = input;
  std::uniform_int_distribution<int> op(0, 2);
  for (int i = 0; i < 4 && !out.empty(); ++i) {
    std::uniform_int_distribution<size_t> pos(0, out.size() - 1);
    size_t p = pos(*rng);
    switch (op(*rng)) {
      case 0:
        out.erase(p, 1);
        break;
      case 1:
        out.insert(p, 1, out[pos(*rng)]);
        break;
      default:
        out[p] = "(){}[],.:-*"[pos(*rng) % 11];
        break;
    }
  }
  return out;
}

// Values a literal's conversion must check: past int64, past double, a
// negative zero, past int32 (a hop bound's type), and a string where a
// number goes.
const char* const kLiteralPool[] = {"99999999999999999999", "1e999", "-0.0",
                                    "3000000000", "\"x\""};

// Replaces one literal or hop bound of `input` with a kLiteralPool value.
// A literal is a quoted string or a run of digits (with its fraction) that
// does not continue an identifier.
std::string MutateLiteral(const std::string& input, std::mt19937* rng) {
  auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
  };
  auto is_digit = [](char c) {
    return std::isdigit(static_cast<unsigned char>(c)) != 0;
  };
  std::vector<std::pair<size_t, size_t>> literals;  // [begin, end)
  for (size_t i = 0; i < input.size();) {
    size_t end = i + 1;
    if (input[i] == '"') {
      end = std::min(input.find('"', i + 1), input.size() - 1) + 1;
      literals.emplace_back(i, end);
    } else if (is_digit(input[i])) {
      while (end < input.size() &&
             (is_digit(input[end]) ||
              (input[end] == '.' && end + 1 < input.size() &&
               is_digit(input[end + 1])))) {
        ++end;
      }
      literals.emplace_back(i, end);
    } else if (is_word(input[i])) {
      while (end < input.size() && is_word(input[end])) ++end;
    }
    i = end;
  }
  if (literals.empty()) return input;
  std::uniform_int_distribution<size_t> pick(0, literals.size() - 1);
  std::uniform_int_distribution<size_t> value(0, std::size(kLiteralPool) - 1);
  const auto [begin, end] = literals[pick(*rng)];
  return input.substr(0, begin) + kLiteralPool[value(*rng)] +
         input.substr(end);
}

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, TokenSoupNeverCrashes) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 97 + 13);
  for (int i = 0; i < 50; ++i) {
    std::string soup = RandomTokenSoup(&rng, 2 + i % 40);
    // Each call must return; the result (ok or error) is irrelevant.
    (void)cypher::ParseQuery(soup);
    (void)dlir::ParseProgram(soup);
    (void)schema::ParsePgSchema(soup);
    (void)sqlpgq::ParseQuery(soup);
  }
  SUCCEED();
}

TEST_P(ParserFuzzTest, MutatedValidInputsNeverCrash) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 131 + 7);
  const std::string valid_cypher =
      "MATCH (n:Person {id: 42})-[:KNOWS*1..3]->(m:Person) WHERE m.age > 10 "
      "RETURN DISTINCT m.name AS name, count(n) AS c";
  const std::string valid_datalog =
      ".decl e(x: number, y: number)\n.input e\n.decl t(x: number, y: "
      "number)\n.output t\nt(x, y) :- e(x, y).\nt(x, y) :- t(x, z), e(z, "
      "y).";
  const std::string valid_schema =
      "CREATE GRAPH { (a: A {id INT}), (:a)-[e: rel {id INT}]->(:a) }";
  const std::string valid_pgq =
      "SELECT * FROM GRAPH_TABLE (g, MATCH (n IS A WHERE n.id = 1) COLUMNS "
      "(n.id AS id))";
  for (int i = 0; i < 50; ++i) {
    (void)cypher::ParseQuery(Mutate(valid_cypher, &rng));
    (void)dlir::ParseProgram(Mutate(valid_datalog, &rng));
    (void)schema::ParsePgSchema(Mutate(valid_schema, &rng));
    (void)sqlpgq::ParseQuery(Mutate(valid_pgq, &rng));
  }
  SUCCEED();
}

// Token soups and character edits rarely put a token where a literal is
// parsed, so this mutation swaps one literal or hop bound of a valid text
// for a value whose conversion must be checked.
TEST_P(ParserFuzzTest, LiteralMutationsNeverCrash) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 61 + 3);
  const std::string valid_cypher =
      "MATCH (n:Person {id: 42})-[:KNOWS*1..3]->(m:Person) WHERE m.age > 10 "
      "AND m.name <> \"Ada\" AND m.score < 2.5 "
      "RETURN DISTINCT m.name AS name, count(n) AS c";
  const std::string valid_gql =
      "MATCH (n:Person)-[:KNOWS*2..4]->(m:Person) FILTER n.id = 7 AND "
      "m.name = \"Bob\" AND m.score >= 0.5 RETURN DISTINCT m.id AS id";
  const std::string valid_pgq =
      "SELECT * FROM GRAPH_TABLE (g, MATCH (n IS A WHERE n.id = 1)-[IS rel]->"
      "{1,3}(m IS A) WHERE m.name = \"x\" AND m.score < 1.5 "
      "COLUMNS (n.id AS id))";
  const std::string valid_datalog =
      ".decl e(x: number, y: number)\n.input e\n.decl t(x: number, y: "
      "number)\n.output t\n.decl w(x: number, s: symbol, f: float)\n"
      "e(1, 2).\nw(3, \"x\", 0.25).\nt(x, y) :- e(x, y), x < 100.\n"
      "t(x, y) :- t(x, z), e(z, y).";
  ASSERT_TRUE(cypher::ParseQuery(valid_cypher).ok());
  ASSERT_TRUE(gql::ParseQuery(valid_gql).ok());
  ASSERT_TRUE(sqlpgq::ParseQuery(valid_pgq).ok());
  ASSERT_TRUE(dlir::ParseProgram(valid_datalog).ok());
  for (int i = 0; i < 50; ++i) {
    (void)cypher::ParseQuery(MutateLiteral(valid_cypher, &rng));
    (void)gql::ParseQuery(MutateLiteral(valid_gql, &rng));
    (void)sqlpgq::ParseQuery(MutateLiteral(valid_pgq, &rng));
    (void)dlir::ParseProgram(MutateLiteral(valid_datalog, &rng));
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest, ::testing::Range(0, 8));

// ---------------------------------------------------------------------------
// Static analyzer as a fuzz oracle
// ---------------------------------------------------------------------------

/// Random syntactically-well-formed DLIR, built directly on the AST so the
/// fuzzer reaches shapes the parser would reject or never emit (negative
/// agg positions, empty-column decls, lattice on anything, duplicate
/// names, unbound everything). The analyzer must return diagnostics on all
/// of them — never crash.
dlir::Program RandomProgram(std::mt19937* rng) {
  std::uniform_int_distribution<int> coin(0, 1);
  std::uniform_int_distribution<int> small(0, 3);
  std::uniform_int_distribution<int> type_pick(0, 2);
  const ValueType kTypes[] = {ValueType::kNumber, ValueType::kSymbol,
                              ValueType::kBool};
  const char* const kNames[] = {"p", "q", "r", "s"};

  dlir::Program program;
  int num_decls = 1 + small(*rng);
  for (int i = 0; i < num_decls; ++i) {
    dlir::RelationDecl decl;
    decl.name = kNames[i % 4];  // collisions on purpose (RQ001 territory)
    int arity = small(*rng);    // zero-arity decls included
    for (int c = 0; c < arity; ++c) {
      decl.columns.push_back(
          {"c" + std::to_string(c), kTypes[type_pick(*rng)]});
    }
    decl.is_input = coin(*rng) == 1;
    decl.is_output = coin(*rng) == 1;
    if (small(*rng) == 0) {
      decl.lattice = coin(*rng) == 1 ? dlir::LatticeKind::kMin
                                     : dlir::LatticeKind::kMax;
    }
    program.decls.push_back(std::move(decl));
  }

  auto random_term = [&]() -> dlir::Term {
    switch (small(*rng)) {
      case 0:
        return dlir::Term::Var(std::string(1, static_cast<char>(
                                                  'x' + small(*rng))));
      case 1:
        return dlir::Term::Num(small(*rng));
      case 2:
        return dlir::Term::Str("s");
      default:
        return dlir::Term::Wildcard();
    }
  };
  auto random_atom = [&]() {
    dlir::Atom atom;
    atom.predicate = kNames[small(*rng) % 4];
    int arity = small(*rng);
    for (int a = 0; a < arity; ++a) atom.args.push_back(random_term());
    atom.negated = small(*rng) == 0;
    return atom;
  };

  int num_rules = small(*rng);
  for (int i = 0; i < num_rules; ++i) {
    dlir::Rule rule;
    rule.head = random_atom();
    rule.head.negated = false;
    int body = small(*rng);
    for (int b = 0; b < body; ++b) rule.body.push_back(random_atom());
    if (small(*rng) == 0) {
      dlir::Constraint c;
      c.op = static_cast<dlir::CmpOp>(small(*rng) % 6);
      c.lhs = random_term();
      c.rhs = small(*rng) == 0
                  ? dlir::Term::Binary(dlir::ArithOp::kAdd, random_term(),
                                       random_term())
                  : random_term();
      rule.constraints.push_back(std::move(c));
    }
    if (small(*rng) == 0) {
      dlir::Aggregate agg;
      agg.func = static_cast<dlir::AggFunc>(small(*rng) % 5);
      agg.arg = random_term();
      rule.agg = agg;
      rule.agg_result_pos = small(*rng) - 1;  // -1..2, often out of range
    }
    program.rules.push_back(std::move(rule));
  }
  return program;
}

class AnalyzerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(AnalyzerFuzzTest, AnalyzerNeverCrashesOnParsedGarbage) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 211 + 3);
  for (int i = 0; i < 50; ++i) {
    auto program = dlir::ParseProgram(RandomTokenSoup(&rng, 2 + i % 40));
    if (!program.ok()) continue;
    analysis::DiagnosticEngine diags;
    analysis::CheckProgram(*program, &diags);
    analysis::LintProgram(*program, &diags);
    (void)diags.Render();
  }
  SUCCEED();
}

TEST_P(AnalyzerFuzzTest, AnalyzerSubsumesValidateOnRandomPrograms) {
  // The engines' entry check and CheckProgram share one structural check,
  // and RQ020 and the engines share one stratification rule: on the wild
  // shapes the generator emits, each pair must agree exactly (and
  // analysis + lints must never crash).
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 157 + 11);
  auto is_structural = [](const analysis::Diagnostic& d) {
    return d.code >= "RQ001" && d.code <= "RQ006";
  };
  for (int i = 0; i < 200; ++i) {
    dlir::Program program = RandomProgram(&rng);
    analysis::DiagnosticEngine diags;
    analysis::CheckProgram(program, &diags);
    analysis::LintProgram(program, &diags);
    const auto& found = diags.diagnostics();
    const bool structural_finding =
        std::any_of(found.begin(), found.end(), is_structural);
    EXPECT_EQ(analysis::VerifyStructure(program).ok(), !structural_finding)
        << program.ToString() << "\n" << diags.Render();
    const bool stratified =
        analysis::AnalyzeStratification(
            program, analysis::DependencyGraph::Build(program))
            .stratified;
    EXPECT_EQ(stratified, !diags.HasCode("RQ020"))
        << program.ToString() << "\n" << diags.Render();
  }
}

TEST_P(AnalyzerFuzzTest, VerifiedProgramsSurvivePipelinesWithVerifyOn) {
  // Programs the verifier accepts must stay verified through every real
  // pass pipeline — an Internal status here means a pass (or the verifier)
  // is wrong, and is exactly what the pass-boundary check exists to catch.
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 89 + 41);
  opt::OptOptions verify_on;
  verify_on.verify_each_pass = true;
  for (int i = 0; i < 100; ++i) {
    dlir::Program program = RandomProgram(&rng);
    if (!analysis::VerifyProgram(program).ok()) continue;
    auto out = opt::PassManager::Aggressive().Run(program, verify_on);
    if (!out.ok()) {
      EXPECT_NE(out.status().code(), StatusCode::kInternal)
          << out.status().ToString() << "\nseed program:\n"
          << program.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerFuzzTest, ::testing::Range(0, 8));

// Guard-armed execution soak: random tiny budgets and deadlines against
// real queries on every engine. Whatever the guard does, the engine must
// return a Status from the guard's terminal set or succeed — and stay
// reusable: a clean re-run must match the unguarded reference exactly.
class GuardSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(GuardSoakTest, RandomBudgetsNeverCrashOrCorrupt) {
  constexpr char kSoakSchema[] = R"(
CREATE GRAPH {
  (personType: Person {id INT, age INT}),
  (:personType)-[knowsType: knows {id INT}]->(:personType)
}
)";
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 193 + 29);
  Compiler compiler;
  ASSERT_TRUE(compiler.LoadPgSchema(kSoakSchema).ok());
  Database db;
  ASSERT_TRUE(compiler.CreateEdbs(&db).ok());
  std::uniform_int_distribution<int> person(1, 25);
  Relation* person_rel = *db.GetRelation("Person");
  for (int i = 1; i <= 25; ++i) {
    person_rel->Insert({Value::Number(i), Value::Number(18 + i % 50)});
  }
  Relation* knows = *db.GetRelation("Person_KNOWS_Person");
  for (int i = 0; i < 50; ++i) {
    knows->Insert({Value::Number(person(rng)), Value::Number(person(rng)),
                   Value::Number(i + 1)});
  }

  const char* const kQueries[] = {
      "MATCH (a:Person)-[:KNOWS*]->(b:Person) "
      "RETURN DISTINCT a.id AS src, b.id AS dst",
      "MATCH (a:Person)-[:KNOWS]->(b:Person)-[:KNOWS]->(c:Person) "
      "RETURN DISTINCT a.id AS a, c.id AS c",
      "MATCH (a:Person)-[:KNOWS*1..3]->(b:Person) WHERE a.id < 10 "
      "RETURN DISTINCT a.id AS a, b.id AS b",
  };
  auto store = compiler.BuildGraphStore(db);
  ASSERT_TRUE(store.ok()) << store.status().ToString();

  std::uniform_int_distribution<int> pick_query(0, std::size(kQueries) - 1);
  std::uniform_int_distribution<int> pick_engine(0, 2);
  std::uniform_int_distribution<int> pick_knob(0, 2);
  std::uniform_int_distribution<size_t> rows_budget(1, 300);
  std::uniform_int_distribution<size_t> bytes_budget(64, 1 << 14);

  for (int iter = 0; iter < 12; ++iter) {
    auto unit = compiler.CompileCypher(kQueries[pick_query(rng)]);
    ASSERT_TRUE(unit.ok()) << unit.status().ToString();

    runtime::QueryGuard guard;
    switch (pick_knob(rng)) {
      case 0:
        guard.set_max_rows(rows_budget(rng));
        break;
      case 1:
        guard.set_max_bytes(bytes_budget(rng));
        break;
      default:
        guard.set_max_rows(rows_budget(rng));
        guard.set_max_bytes(bytes_budget(rng));
        break;
    }

    int which = pick_engine(rng);
    auto run = [&](const runtime::QueryGuard* g)
        -> Result<engine::ResultTable> {
      switch (which) {
        case 0: {
          engine::EvalOptions options;
          options.num_threads = 1 + (iter % 2) * 3;
          return compiler.RunOnDatalog(unit->dlir, &db, nullptr, options,
                                       nullptr, g);
        }
        case 1:
          return compiler.RunOnSql(unit->dlir, &db,
                                   engine::SqlMode::kVectorized, nullptr,
                                   1 + (iter % 2) * 3, nullptr, g);
        default:
          return compiler.RunOnGraph(unit->pgir, *store, &db, nullptr, {},
                                     nullptr, g);
      }
    };

    auto guarded = run(&guard);
    if (!guarded.ok()) {
      StatusCode code = guarded.status().code();
      EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                  code == StatusCode::kDeadlineExceeded ||
                  code == StatusCode::kCancelled)
          << guarded.status().ToString();
    }
    // Reusability after whatever the guard did: unguarded re-run matches
    // an unguarded reference run on the same engine.
    auto reference = run(nullptr);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    auto rerun = run(nullptr);
    ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
    EXPECT_EQ(rerun->rows, reference->rows);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardSoakTest, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Incremental-maintenance soak: random programs × random +/− delta
// streams, with occasional tiny guard budgets armed. Every ApplyDelta
// must return a Status (never crash or hang); a guard trip must poison
// the view, and re-initializing must bring it back in sync with a
// from-scratch oracle — which the stream re-checks periodically.
// ---------------------------------------------------------------------------

class IncrementalSoakTest : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSoakTest, RandomDeltaStreamsNeverCrashOrDiverge) {
  const char* const kPrograms[] = {
      // Linear recursion (DRed).
      ".decl edge(x: number, y: number)\n.input edge\n"
      ".decl tc(x: number, y: number)\n.output tc\n"
      "tc(x, y) :- edge(x, y).\ntc(x, y) :- tc(x, z), edge(z, y).\n",
      // Non-linear recursion (DRed).
      ".decl edge(x: number, y: number)\n.input edge\n"
      ".decl tc(x: number, y: number)\n.output tc\n"
      "tc(x, y) :- edge(x, y).\ntc(x, y) :- tc(x, z), tc(z, y).\n",
      // Stratified negation (counting with ¬∃ flips).
      ".decl edge(x: number, y: number)\n.input edge\n"
      ".decl oneway(x: number, y: number)\n.output oneway\n"
      "oneway(x, y) :- edge(x, y), !edge(y, x).\n",
      // Aggregation (recompute-and-diff).
      ".decl edge(x: number, y: number)\n.input edge\n"
      ".decl outdeg(x: number, d: number)\n.output outdeg\n"
      "outdeg(x, count(y)) :- edge(x, y).\n",
      // @min lattice (recompute-and-diff).
      ".decl edge(x: number, y: number)\n.input edge\n"
      ".decl dist(x: number, y: number, d: number) @min\n.output dist\n"
      "dist(x, y, 1) :- edge(x, y).\n"
      "dist(x, y, d + 1) :- dist(x, z, d), edge(z, y).\n",
  };
  std::mt19937 rng(static_cast<unsigned>(GetParam()) * 173 + 19);
  std::uniform_int_distribution<int> pick_program(0, std::size(kPrograms) - 1);
  std::uniform_int_distribution<int64_t> node(0, 7);
  std::uniform_int_distribution<int> ops(0, 3);
  std::uniform_int_distribution<int> coin(0, 1);

  for (int round = 0; round < 3; ++round) {
    auto program = dlir::ParseProgram(kPrograms[pick_program(rng)]);
    ASSERT_TRUE(program.ok()) << program.status().ToString();

    Database db;
    RelationSchema schema;
    schema.name = "edge";
    schema.columns = {{"x", ValueType::kNumber}, {"y", ValueType::kNumber}};
    Relation* edge = *db.CreateRelation(schema);
    std::set<std::pair<int64_t, int64_t>> model;
    for (int i = 0; i < 10; ++i) {
      auto [a, b] = std::pair{node(rng), node(rng)};
      model.emplace(a, b);
      edge->Insert({Value::Number(a), Value::Number(b)}).value();
    }

    engine::IncrementalOptions options;
    options.num_threads = 1 + (GetParam() % 2) * 3;
    engine::IncrementalView view(options);
    ASSERT_TRUE(view.Initialize(*program, &db).ok());

    for (int step = 0; step < 16; ++step) {
      RelationDelta rd;
      rd.relation = "edge";
      std::vector<std::pair<int64_t, int64_t>> adds, removes;
      for (int i = ops(rng); i > 0; --i) adds.emplace_back(node(rng), node(rng));
      for (int i = ops(rng); i > 0; --i) {
        removes.emplace_back(node(rng), node(rng));
      }
      std::set<std::pair<int64_t, int64_t>> add_set(adds.begin(), adds.end());
      for (auto& p : removes) {
        rd.removes.push_back({Value::Number(p.first), Value::Number(p.second)});
        if (add_set.count(p) == 0) model.erase(p);
      }
      for (auto& p : adds) {
        rd.adds.push_back({Value::Number(p.first), Value::Number(p.second)});
        model.insert(p);
      }
      DeltaBatch batch;
      batch.relations.push_back(std::move(rd));

      // Occasionally arm a starvation-level guard: the delta either
      // completes or trips with a terminal status and poisons the view.
      runtime::QueryGuard guard;
      bool armed = coin(rng) == 1 && step % 5 == 4;
      if (armed) guard.set_max_rows(1);
      auto applied = view.ApplyDelta(batch, nullptr, armed ? &guard : nullptr);
      if (!applied.ok()) {
        StatusCode code = applied.status().code();
        EXPECT_TRUE(code == StatusCode::kResourceExhausted ||
                    code == StatusCode::kDeadlineExceeded ||
                    code == StatusCode::kCancelled)
            << applied.status().ToString();
        // Poisoned until re-initialized; Initialize re-syncs from the
        // (fully applied) base facts.
        EXPECT_EQ(view.ApplyDelta(batch).status().code(),
                  StatusCode::kInvalidArgument);
        ASSERT_TRUE(view.Initialize(*program, &db).ok());
      }

      if (step % 4 == 3) {
        // Differential oracle: from-scratch evaluation on the modeled
        // base facts matches the maintained database for every relation.
        Database oracle;
        Relation* oedge = *oracle.CreateRelation(schema);
        for (auto& [a, b] : model) {
          oedge->Insert({Value::Number(a), Value::Number(b)}).value();
        }
        engine::DatalogEngine eng;
        ASSERT_TRUE(eng.Run(*program, &oracle).ok());
        for (const dlir::RelationDecl& decl : program->decls) {
          auto sorted_rows = [](const Relation& rel) {
            std::vector<Tuple> rows = rel.MaterializeRows();
            std::sort(rows.begin(), rows.end(),
                      [](const Tuple& a, const Tuple& b) {
                        for (size_t i = 0; i < a.size(); ++i) {
                          if (a[i].AsNumber() != b[i].AsNumber()) {
                            return a[i].AsNumber() < b[i].AsNumber();
                          }
                        }
                        return false;
                      });
            return rows;
          };
          EXPECT_EQ(sorted_rows(**db.GetRelation(decl.name)),
                    sorted_rows(**oracle.GetRelation(decl.name)))
              << "relation " << decl.name << " diverged at step " << step;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSoakTest, ::testing::Range(0, 6));

}  // namespace
}  // namespace raqlet
