// raqlet_cli — the compiler as a command-line tool, the way a downstream
// user would script it.
//
//   raqlet_cli --schema schema.pgs --query q.cypher --emit datalog
//   raqlet_cli --schema schema.pgs --query q.cypher --emit sql
//   raqlet_cli --schema schema.pgs --query q.cypher --emit pgir|dlir|report
//   raqlet_cli --schema schema.pgs --query q.cypher --run datalog
//              --facts data_dir            # <relation>.facts files (TSV)
//   raqlet_cli --query q.dl --frontend datalog --run datalog
//              --apply-delta deltas.txt    # incremental view maintenance
//   raqlet_cli --demo                      # built-in schema + query
//
// Options: --frontend cypher|gql|sqlpgq|datalog, --opt 0|1|2,
//          --threads N (parallel Datalog / vectorized-SQL evaluation,
//          default 1),
//          --param name=value (repeatable),
//          --timeout-ms N / --max-rows N / --max-bytes N (execution
//          guardrails; a tripped query exits with a distinct code).
//
// Exit codes: 0 success, 2 usage, and one distinct code per failure kind
// (see ExitCodeFor) so scripts can tell a parse error from a budget trip.

#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diagnostics.h"
#include "analysis/lints.h"
#include "analysis/typecheck.h"
#include "common/str_util.h"
#include "dlir/explain.h"
#include "ldbc/ldbc.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "raqlet/compiler.h"
#include "runtime/query_guard.h"
#include "storage/csv.h"

namespace {

struct CliOptions {
  std::string schema_path;
  std::string query_path;
  std::string frontend = "cypher";
  std::string emit;  // pgir | dlir | optimized | datalog | sql | report
  std::string run;   // datalog | sql | sql-tuple | graph
  std::string facts_dir;
  std::string delta_path;  // --apply-delta FILE: +/− base facts
  std::string trace_path;  // --trace=FILE: Chrome trace-event JSON
  int opt_level = 1;
  int threads = 1;
  long long timeout_ms = 0;   // 0 = no deadline
  long long max_rows = 0;     // 0 = no row budget
  long long max_bytes = 0;    // 0 = no byte budget
  bool demo = false;
  bool explain_analyze = false;
  bool check = false;   // static analyzer, errors only
  bool lint = false;    // analyzer + semantic lints (warnings)
  bool werror = false;  // with --check/--lint: warnings fail the run
  std::map<std::string, raqlet::dlir::Constant> parameters;
};

int Usage() {
  std::cerr <<
      "usage: raqlet_cli --schema FILE --query FILE\n"
      "                  [--frontend cypher|gql|sqlpgq|datalog] [--opt 0|1|2]\n"
      "                  [--emit pgir|dlir|optimized|datalog|sql|report|plan]\n"
      "                  [--run datalog|sql|sql-tuple|graph|graph-rows]\n"
      "                  [--check|--lint] [--werror]\n"
      "                  [--facts DIR] [--apply-delta FILE]\n"
      "                  [--threads N] [--param name=value]...\n"
      "                  [--timeout-ms N] [--max-rows N] [--max-bytes N]\n"
      "                  [--explain-analyze] [--trace=FILE]\n"
      "       raqlet_cli --demo [--trace=FILE]\n"
      "\n"
      "  --check            run the static analyzer (types, safety,\n"
      "                     stratification) and print every diagnostic with\n"
      "                     its stable RQ0xx code; exit 3 on errors\n"
      "  --lint             --check plus semantic lints (unused relations,\n"
      "                     cartesian joins, constant constraints, ...)\n"
      "  --werror           with --check/--lint: warnings also exit 3\n"
      "  --apply-delta FILE with --run datalog: evaluate once, then stream\n"
      "                     the +/− base-fact lines of FILE through the\n"
      "                     incremental maintainer instead of re-running.\n"
      "                     Lines: +edge(1, 2) adds, -edge(1, 2) removes,\n"
      "                     # comments; a line of --- starts a new batch\n"
      "  --explain-analyze  run the query (default engine: datalog) and\n"
      "                     print the plan annotated with runtime counters\n"
      "  --timeout-ms N     abort execution after N ms wall clock\n"
      "  --max-rows N       abort after deriving more than N rows\n"
      "  --max-bytes N      abort when derived relations exceed N bytes\n"
      "  --trace=FILE       write a Chrome trace-event JSON of the whole\n"
      "                     compile+execute (load in Perfetto or\n"
      "                     chrome://tracing)\n";
  return 2;
}

raqlet::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return raqlet::Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// A --param value of the form [+-]digits binds a number, which must fit
// an int64; any other value binds a string.
raqlet::Result<raqlet::dlir::Constant> ParseConstant(const std::string& text) {
  size_t digits = !text.empty() && (text[0] == '+' || text[0] == '-') ? 1 : 0;
  if (text.size() == digits ||
      text.find_first_not_of("0123456789", digits) != std::string::npos) {
    return raqlet::dlir::Constant::String(text);
  }
  RAQLET_ASSIGN_OR_RETURN(int64_t num, raqlet::ParseInt(text));
  return raqlet::dlir::Constant::Number(num);
}

constexpr int64_t kMaxFlag = std::numeric_limits<int64_t>::max();

// The value of a numeric flag: all of `text` must read as a base-10
// integer (ParseInt) in [min, max]; anything else is a usage error.
std::optional<int64_t> FlagValue(const char* text, int64_t min, int64_t max) {
  if (text == nullptr) return std::nullopt;
  raqlet::Result<int64_t> value = raqlet::ParseInt(text);
  if (!value.ok() || *value < min || *value > max) return std::nullopt;
  return *value;
}

// One distinct exit code per failure kind, so scripts (and the CI smoke
// checks) can tell a parse error from a tripped budget without scraping
// stderr. 1 stays the catch-all for codes without a mapping.
int ExitCodeFor(raqlet::StatusCode code) {
  switch (code) {
    case raqlet::StatusCode::kInvalidArgument:
      return 3;
    case raqlet::StatusCode::kParseError:
      return 4;
    case raqlet::StatusCode::kNotFound:
      return 5;
    case raqlet::StatusCode::kUnsupported:
      return 6;
    case raqlet::StatusCode::kInternal:
      return 7;
    case raqlet::StatusCode::kAlreadyExists:
      return 8;
    case raqlet::StatusCode::kCancelled:
      return 9;
    case raqlet::StatusCode::kDeadlineExceeded:
      return 10;
    case raqlet::StatusCode::kResourceExhausted:
      return 11;
    default:
      return 1;
  }
}

int Fail(const raqlet::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return ExitCodeFor(status.code());
}

// Parses the --apply-delta text format: one fact per line, "+pred(1, 2)"
// adds and "-pred(1, 2)" removes; '#' starts a comment; a line of "---"
// closes the current batch and starts the next. Values are integers,
// floats, "quoted" symbols, or true/false.
raqlet::Result<std::vector<raqlet::DeltaBatch>> ParseDeltaFile(
    const std::string& text, raqlet::Database* db) {
  using raqlet::Status;
  using raqlet::Value;
  std::vector<raqlet::DeltaBatch> batches(1);
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos) continue;
    size_t finish = line.find_last_not_of(" \t\r");
    line = line.substr(begin, finish - begin + 1);
    if (line == "---") {
      if (!batches.back().relations.empty()) batches.emplace_back();
      continue;
    }
    auto fail = [&](const std::string& what) {
      return Status::ParseError("delta line " + std::to_string(line_no) +
                                ": " + what);
    };
    if (line[0] != '+' && line[0] != '-') {
      return fail("expected '+' or '-', got '" + line + "'");
    }
    const bool is_add = line[0] == '+';
    size_t paren = line.find('(');
    if (paren == std::string::npos || line.back() != ')') {
      return fail("expected pred(value, ...)");
    }
    std::string pred = line.substr(1, paren - 1);
    size_t pend = pred.find_last_not_of(" \t");
    if (pend == std::string::npos) return fail("missing predicate name");
    pred.erase(pend + 1);

    raqlet::Tuple tuple;
    std::string args = line.substr(paren + 1, line.size() - paren - 2);
    size_t pos = 0;
    while (true) {
      while (pos < args.size() && (args[pos] == ' ' || args[pos] == '\t')) {
        ++pos;
      }
      if (pos >= args.size()) break;
      if (args[pos] == '"') {
        size_t close = args.find('"', pos + 1);
        if (close == std::string::npos) return fail("unterminated string");
        tuple.push_back(Value::Symbol(
            db->symbols().Intern(args.substr(pos + 1, close - pos - 1))));
        pos = close + 1;
      } else {
        size_t comma = args.find(',', pos);
        std::string token = args.substr(
            pos, (comma == std::string::npos ? args.size() : comma) - pos);
        size_t tend = token.find_last_not_of(" \t");
        if (tend == std::string::npos) return fail("empty value");
        token.erase(tend + 1);
        pos += token.size();
        if (token == "true" || token == "false") {
          tuple.push_back(Value::Bool(token == "true"));
        } else if (token.find('.') != std::string::npos) {
          raqlet::Result<double> d = raqlet::ParseFloat(token);
          if (!d.ok()) return fail(d.status().message());
          tuple.push_back(Value::Float(*d));
        } else {
          raqlet::Result<int64_t> n = raqlet::ParseInt(token);
          if (!n.ok()) return fail(n.status().message());
          tuple.push_back(Value::Number(*n));
        }
      }
      while (pos < args.size() && (args[pos] == ' ' || args[pos] == '\t')) {
        ++pos;
      }
      if (pos < args.size()) {
        if (args[pos] != ',') return fail("expected ','");
        ++pos;
      }
    }

    raqlet::RelationDelta* rd = nullptr;
    for (raqlet::RelationDelta& existing : batches.back().relations) {
      if (existing.relation == pred) {
        rd = &existing;
        break;
      }
    }
    if (rd == nullptr) {
      batches.back().relations.push_back({pred, {}, {}});
      rd = &batches.back().relations.back();
    }
    (is_add ? rd->adds : rd->removes).push_back(std::move(tuple));
  }
  if (batches.back().relations.empty() && batches.size() > 1) {
    batches.pop_back();
  }
  return batches;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--schema") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.schema_path = v;
    } else if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.query_path = v;
    } else if (arg == "--frontend") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.frontend = v;
    } else if (arg == "--emit") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.emit = v;
    } else if (arg == "--run") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.run = v;
    } else if (arg == "--facts") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.facts_dir = v;
    } else if (arg == "--apply-delta") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.delta_path = v;
    } else if (arg == "--opt") {
      std::optional<int64_t> v = FlagValue(next(), 0, 2);
      if (!v.has_value()) return Usage();
      options.opt_level = static_cast<int>(*v);
    } else if (arg == "--threads") {
      std::optional<int64_t> v =
          FlagValue(next(), 1, std::numeric_limits<int>::max());
      if (!v.has_value()) return Usage();
      options.threads = static_cast<int>(*v);
    } else if (arg == "--timeout-ms") {
      std::optional<int64_t> v = FlagValue(next(), 1, kMaxFlag);
      if (!v.has_value()) return Usage();
      options.timeout_ms = *v;
    } else if (arg == "--max-rows") {
      std::optional<int64_t> v = FlagValue(next(), 1, kMaxFlag);
      if (!v.has_value()) return Usage();
      options.max_rows = *v;
    } else if (arg == "--max-bytes") {
      std::optional<int64_t> v = FlagValue(next(), 1, kMaxFlag);
      if (!v.has_value()) return Usage();
      options.max_bytes = *v;
    } else if (arg == "--param") {
      const char* v = next();
      if (v == nullptr) return Usage();
      std::string pair = v;
      size_t eq = pair.find('=');
      if (eq == std::string::npos) return Usage();
      auto value = ParseConstant(pair.substr(eq + 1));
      if (!value.ok()) return Fail(value.status());
      options.parameters[pair.substr(0, eq)] = *value;
    } else if (arg == "--demo") {
      options.demo = true;
    } else if (arg == "--check") {
      options.check = true;
    } else if (arg == "--lint") {
      options.lint = true;
    } else if (arg == "--werror") {
      options.werror = true;
    } else if (arg == "--explain-analyze") {
      options.explain_analyze = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      options.trace_path = arg.substr(8);
      if (options.trace_path.empty()) return Usage();
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return Usage();
      options.trace_path = v;
    } else {
      return Usage();
    }
  }

  raqlet::Compiler compiler;

  // Tracing covers everything from compile to the trace write; the
  // session must outlive every engine run but be drained (quiescent)
  // before export, which holds because all Run* calls are synchronous.
  std::unique_ptr<raqlet::obs::TraceSession> trace;
  if (!options.trace_path.empty()) {
    trace = std::make_unique<raqlet::obs::TraceSession>();
  }

  // Metrics are collected for --explain-analyze and as part of the --demo
  // tour (phase timings + engine counters appended to the output).
  raqlet::obs::QueryMetrics metrics;
  raqlet::obs::QueryMetrics* qm =
      options.explain_analyze || options.demo ? &metrics : nullptr;
  if (options.explain_analyze && options.run.empty()) options.run = "datalog";

  std::string query_text;
  if (options.demo) {
    if (auto st = compiler.LoadPgSchema(raqlet::ldbc::SnbSchema()); !st.ok()) {
      return Fail(st);
    }
    query_text = raqlet::ldbc::ShortQuery1();
    options.parameters["personId"] = raqlet::dlir::Constant::Number(42);
    if (options.emit.empty() && options.run.empty()) {
      options.emit = "sql";
      options.run = "datalog";
    }
  } else {
    // The datalog frontend needs no PG-Schema; every other frontend does.
    if (options.query_path.empty()) return Usage();
    if (options.schema_path.empty() && options.frontend != "datalog") {
      return Usage();
    }
    if (!options.schema_path.empty()) {
      auto schema_text = ReadFile(options.schema_path);
      if (!schema_text.ok()) return Fail(schema_text.status());
      if (auto st = compiler.LoadPgSchema(*schema_text); !st.ok()) {
        return Fail(st);
      }
    }
    auto q = ReadFile(options.query_path);
    if (!q.ok()) return Fail(q.status());
    query_text = *q;
  }

  // Compile through the requested frontend.
  raqlet::CompileOptions copts;
  copts.opt_level = options.opt_level;
  copts.parameters = options.parameters;
  copts.metrics = qm;

  const bool analyze_only = options.check || options.lint;
  raqlet::dlir::Program program;
  raqlet::CompiledQuery unit;
  bool have_pgir = false;
  if (options.frontend == "datalog") {
    // In --check/--lint mode, parse without the built-in verification so
    // the analyzer below reports *every* diagnostic (CompileDatalog would
    // turn them into one InvalidArgument).
    auto parsed = analyze_only ? compiler.ParseDatalog(query_text)
                               : compiler.CompileDatalog(query_text);
    if (!parsed.ok()) return Fail(parsed.status());
    if (analyze_only) {
      program = std::move(parsed).value();
    } else {
      auto optimized = compiler.Optimize(*parsed, options.opt_level);
      if (!optimized.ok()) return Fail(optimized.status());
      program = std::move(optimized).value();
    }
  } else {
    auto compiled = options.frontend == "gql"    ? compiler.CompileGql(query_text, copts)
                    : options.frontend == "sqlpgq"
                        ? compiler.CompileSqlPgq(query_text, copts)
                        : compiler.CompileCypher(query_text, copts);
    if (!compiled.ok()) return Fail(compiled.status());
    unit = std::move(compiled).value();
    // Analyze the direct translation (closest to the user's query);
    // everything else uses the optimized form.
    program = analyze_only ? unit.dlir : unit.optimized;
    have_pgir = true;
    for (const std::string& warning : unit.warnings) {
      std::cerr << "warning: " << warning << "\n";
    }
  }

  if (analyze_only) {
    raqlet::analysis::DiagnosticEngine diags;
    raqlet::analysis::CheckProgram(program, &diags);
    if (options.lint) raqlet::analysis::LintProgram(program, &diags);
    if (diags.empty()) {
      std::cout << "no issues found\n";
      return 0;
    }
    std::cout << diags.Render();
    if (diags.has_errors()) return 3;
    if (options.werror && diags.warning_count() > 0) return 3;
    return 0;
  }

  if (!options.emit.empty()) {
    if (options.emit == "pgir" && have_pgir) {
      std::cout << unit.pgir.ToString();
    } else if (options.emit == "dlir" && have_pgir) {
      std::cout << unit.dlir.ToString();
    } else if (options.emit == "optimized" || options.emit == "dlir") {
      std::cout << program.ToString();
    } else if (options.emit == "datalog") {
      std::cout << compiler.EmitSouffle(program);
    } else if (options.emit == "sql") {
      auto sql = compiler.EmitSql(program);
      if (!sql.ok()) return Fail(sql.status());
      std::cout << *sql;
    } else if (options.emit == "report") {
      std::cout << compiler.Analyze(program).ToString();
    } else if (options.emit == "plan") {
      auto plan = raqlet::dlir::ExplainProgram(program);
      if (!plan.ok()) return Fail(plan.status());
      std::cout << *plan;
    } else {
      return Usage();
    }
  }

  if (!options.run.empty()) {
    raqlet::Database db;
    std::vector<std::string> edb_names;
    if (options.frontend == "datalog") {
      // Pure-Datalog runs carry no property-graph schema; the program's
      // own .input declarations define the base relations.
      for (const auto& decl : program.decls) {
        if (!decl.is_input) continue;
        raqlet::RelationSchema schema;
        schema.name = decl.name;
        schema.columns = decl.columns;
        schema.primary_key = decl.primary_key;
        if (auto rel = db.CreateRelation(std::move(schema)); !rel.ok()) {
          return Fail(rel.status());
        }
        edb_names.push_back(decl.name);
      }
    } else {
      if (auto st = compiler.CreateEdbs(&db); !st.ok()) return Fail(st);
      for (const auto& decl : compiler.dl_schema().edbs) {
        edb_names.push_back(decl.name);
      }
    }
    if (options.demo) {
      raqlet::ldbc::GeneratorOptions gen;
      gen.scale_factor = 0.1;
      if (auto st = GenerateSnbData(compiler.dl_schema(), &db, gen); !st.ok()) {
        return Fail(st);
      }
    } else if (!options.facts_dir.empty()) {
      for (const std::string& name : edb_names) {
        auto rel = db.GetRelation(name);
        if (!rel.ok()) continue;
        std::string path = options.facts_dir + "/" + name + ".facts";
        std::ifstream probe(path);
        if (!probe) continue;  // facts files are optional per relation
        if (auto st = raqlet::LoadDelimitedFile(&db, *rel, path); !st.ok()) {
          return Fail(st);
        }
      }
    }

    // Execution guardrails: one guard for the whole run, armed from the
    // CLI budget flags. Unset flags leave the guard unarmed (zero cost).
    raqlet::runtime::QueryGuard guard;
    if (options.timeout_ms > 0) guard.set_timeout_ms(options.timeout_ms);
    if (options.max_rows > 0) {
      guard.set_max_rows(static_cast<size_t>(options.max_rows));
    }
    if (options.max_bytes > 0) {
      guard.set_max_bytes(static_cast<size_t>(options.max_bytes));
    }

    raqlet::Result<raqlet::engine::ResultTable> result =
        raqlet::Status::Internal("unset");
    if (options.run == "datalog" && !options.delta_path.empty()) {
      // Incremental view maintenance: full evaluation once, then each
      // batch from the delta file flows through counting/DRed instead of
      // a from-scratch re-run.
      auto text = ReadFile(options.delta_path);
      if (!text.ok()) return Fail(text.status());
      auto batches = ParseDeltaFile(*text, &db);
      if (!batches.ok()) return Fail(batches.status());
      raqlet::engine::IncrementalOptions inc_options;
      inc_options.num_threads = options.threads;
      auto view =
          compiler.BeginIncremental(program, &db, inc_options, qm, &guard);
      if (!view.ok()) return Fail(view.status());
      for (size_t i = 0; i < batches->size(); ++i) {
        auto applied =
            compiler.ApplyDelta(view->get(), (*batches)[i], qm, &guard);
        if (!applied.ok()) return Fail(applied.status());
        std::cout << "-- delta batch " << (i + 1) << " --\n";
        for (const auto& rel : applied->relations) {
          std::cout << rel.relation << ": +" << rel.added.size() << " -"
                    << rel.removed.size() << "\n";
        }
      }
      std::vector<std::string> outputs = program.OutputRelations();
      if (outputs.size() != 1) {
        return Fail(raqlet::Status::InvalidArgument(
            "expected exactly one output relation"));
      }
      auto rel = db.GetRelation(outputs[0]);
      if (!rel.ok()) return Fail(rel.status());
      raqlet::engine::ResultTable table;
      for (const raqlet::Column& col : (*rel)->schema().columns) {
        table.columns.push_back(col.name);
      }
      table.rows = (*rel)->MaterializeRows();
      result = std::move(table);
    } else if (options.run == "datalog") {
      raqlet::engine::EvalOptions eval_options;
      eval_options.num_threads = options.threads;
      result = compiler.RunOnDatalog(program, &db, nullptr, eval_options, qm,
                                     &guard);
    } else if (options.run == "sql") {
      result = compiler.RunOnSql(program, &db,
                                 raqlet::engine::SqlMode::kVectorized,
                                 nullptr, options.threads, qm, &guard);
    } else if (options.run == "sql-tuple") {
      result = compiler.RunOnSql(program, &db,
                                 raqlet::engine::SqlMode::kTuplePipeline,
                                 nullptr, 1, qm, &guard);
    } else if ((options.run == "graph" || options.run == "graph-rows") &&
               have_pgir) {
      auto store = compiler.BuildGraphStore(db);
      if (!store.ok()) return Fail(store.status());
      raqlet::engine::GraphOptions graph_options;
      if (options.run == "graph-rows") {
        // The historical per-binding interpreter, kept for benchmarking
        // against the default column-batch executor (same results).
        graph_options.mode = raqlet::engine::GraphMode::kRowBinding;
      }
      result = compiler.RunOnGraph(unit.pgir, *store, &db, nullptr,
                                   graph_options, qm, &guard);
    } else {
      return Usage();
    }
    if (!result.ok()) return Fail(result.status());
    std::cout << result->ToString(db.symbols());

    if (options.explain_analyze) {
      auto analyzed = raqlet::dlir::ExplainAnalyzeProgram(program, metrics);
      if (!analyzed.ok()) return Fail(analyzed.status());
      std::cout << "\n" << *analyzed;
    } else if (qm != nullptr) {
      std::cout << "\n" << metrics.ToString();
    }

    if (options.demo) {
      // Guardrail tour: a row-hungry recursive query (the full KNOWS
      // reachability closure) runs on each engine under a deliberately
      // small row budget, handed over as the Run call's trailing guard. It
      // must trip with a terminal status, without charging more than twice
      // its budget, the report shows how far it got, and — the
      // cancellation contract — re-running the very same query on the
      // same database without the budget must succeed.
      std::cout << "\n-- execution guardrails --\n";
      auto closure = compiler.CompileCypher(
          "MATCH (a:Person)-[:KNOWS*]->(b:Person) "
          "RETURN DISTINCT a.id AS src, b.id AS dst");
      if (!closure.ok()) return Fail(closure.status());
      auto store = compiler.BuildGraphStore(db);
      if (!store.ok()) return Fail(store.status());
      raqlet::engine::EvalOptions eval_options;
      eval_options.num_threads = options.threads;
      using RunFn = std::function<raqlet::Result<raqlet::engine::ResultTable>(
          raqlet::obs::QueryMetrics*, const raqlet::runtime::QueryGuard*)>;
      const std::vector<std::pair<std::string, RunFn>> engines = {
          {"datalog",
           [&](auto* sink, auto* g) {
             return compiler.RunOnDatalog(closure->optimized, &db, nullptr,
                                          eval_options, sink, g);
           }},
          {"sql",
           [&](auto* sink, auto* g) {
             return compiler.RunOnSql(closure->optimized, &db,
                                      raqlet::engine::SqlMode::kVectorized,
                                      nullptr, options.threads, sink, g);
           }},
          {"graph",
           [&](auto* sink, auto* g) {
             return compiler.RunOnGraph(closure->pgir, *store, &db, nullptr,
                                        {}, sink, g);
           }},
      };
      constexpr size_t kDemoBudget = 500;
      bool tour_ok = true;
      for (const auto& [name, run] : engines) {
        raqlet::runtime::QueryGuard demo_guard;
        demo_guard.set_max_rows(kDemoBudget);
        raqlet::obs::QueryMetrics trip_metrics;
        auto tripped = run(&trip_metrics, &demo_guard);
        std::cout << name << ": KNOWS closure with --max-rows "
                  << kDemoBudget << ": "
                  << (tripped.ok() ? "unexpected: did not trip"
                                   : tripped.status().ToString())
                  << "\n";
        if (tripped.status().code() !=
            raqlet::StatusCode::kResourceExhausted) {
          tour_ok = false;
          continue;
        }
        std::cout << trip_metrics.ToString();
        if (demo_guard.rows() > 2 * kDemoBudget) {
          std::cout << name << ": unexpected: charged " << demo_guard.rows()
                    << " rows, more than twice the budget\n";
          tour_ok = false;
        }
        auto retry = run(nullptr, nullptr);
        std::cout << name << ": re-run without budget: "
                  << (retry.ok() ? "ok, " + std::to_string(retry->rows.size())
                                       + " rows"
                                 : retry.status().ToString())
                  << "\n";
        tour_ok = tour_ok && retry.ok();
      }
      if (!tour_ok) {
        std::cerr << "error: the guardrail tour failed\n";
        return 1;
      }
    }
  }

  if (trace != nullptr) {
    if (auto st = trace->WriteChromeTrace(options.trace_path); !st.ok()) {
      return Fail(st);
    }
    std::cerr << "trace: " << trace->event_count() << " events -> "
              << options.trace_path << "\n";
  }
  return 0;
}
