#include "raqlet/compiler.h"

#include "analysis/typecheck.h"
#include "obs/trace.h"

#include "cypher/parser.h"
#include "dlir/parser.h"
#include "gql/parser.h"
#include "sqlpgq/parser.h"
#include "dlir/souffle_printer.h"
#include "opt/pass_manager.h"
#include "pgir/cypher_printer.h"
#include "pgir/pgir_to_dlir.h"
#include "sqir/dlir_to_sqir.h"
#include "sqir/sql_printer.h"

namespace raqlet {

Status Compiler::LoadPgSchema(const std::string& text) {
  RAQLET_ASSIGN_OR_RETURN(pg_schema_, schema::ParsePgSchema(text));
  dl_schema_ = schema::TranslateSchema(pg_schema_);
  schema_loaded_ = true;
  return Status::OK();
}

Status Compiler::CreateEdbs(Database* db) const {
  if (!schema_loaded_) return Status::InvalidArgument("no schema loaded");
  return schema::CreateEdbRelations(dl_schema_, db);
}

Result<CompiledQuery> Compiler::CompileCypher(
    const std::string& query, const CompileOptions& options) const {
  return CompileGraphQuery("Cypher", query, options, cypher::ParseQuery);
}

Result<CompiledQuery> Compiler::CompileGql(
    const std::string& query, const CompileOptions& options) const {
  return CompileGraphQuery("GQL", query, options, gql::ParseQuery);
}

Result<CompiledQuery> Compiler::CompileSqlPgq(
    const std::string& query, const CompileOptions& options) const {
  return CompileGraphQuery(
      "SQL/PGQ", query, options,
      [](const std::string& text) -> Result<cypher::Query> {
        RAQLET_ASSIGN_OR_RETURN(sqlpgq::PgqQuery pgq,
                                sqlpgq::ParseQuery(text));
        return std::move(pgq.query);
      });
}

Result<CompiledQuery> Compiler::CompileGraphQuery(
    const char* language, const std::string& query,
    const CompileOptions& options,
    Result<cypher::Query> (*parse)(const std::string&)) const {
  if (!schema_loaded_) {
    return Status::InvalidArgument(std::string("load a PG-Schema before "
                                               "compiling ") +
                                   language + " queries");
  }
  CompiledQuery out;
  {
    obs::PhaseTimer timer(options.metrics, "parse");
    obs::TraceScope span("compile.parse");
    RAQLET_ASSIGN_OR_RETURN(out.ast, parse(query));
  }
  pgir::LowerOptions lower_options;
  lower_options.parameters = options.parameters;
  {
    obs::PhaseTimer timer(options.metrics, "lower-pgir");
    obs::TraceScope span("compile.lower");
    RAQLET_ASSIGN_OR_RETURN(out.pgir,
                            pgir::LowerCypher(out.ast, lower_options));
  }
  out.warnings = out.pgir.warnings;
  {
    obs::PhaseTimer timer(options.metrics, "translate-dlir");
    obs::TraceScope span("compile.translate");
    RAQLET_ASSIGN_OR_RETURN(out.dlir,
                            pgir::TranslateToDlir(out.pgir, dl_schema_));
  }
  {
    obs::PhaseTimer timer(options.metrics, "optimize");
    obs::TraceScope span("compile.optimize");
    RAQLET_ASSIGN_OR_RETURN(out.optimized,
                            Optimize(out.dlir, options.opt_level));
  }
  return out;
}

Result<dlir::Program> Compiler::CompileDatalog(const std::string& text) const {
  RAQLET_ASSIGN_OR_RETURN(dlir::Program program, dlir::ParseProgram(text));
  // The full checker, not just the engines' structural entry check: one
  // compile reports every structural/type/stratification error.
  RAQLET_RETURN_IF_ERROR(analysis::VerifyProgram(program));
  return program;
}

Result<dlir::Program> Compiler::ParseDatalog(const std::string& text) const {
  return dlir::ParseProgram(text);
}

Status Compiler::Check(const dlir::Program& program) const {
  return analysis::VerifyProgram(program);
}

Result<dlir::Program> Compiler::Optimize(const dlir::Program& program,
                                         int opt_level) const {
  switch (opt_level) {
    case 0:
      return program;
    case 1:
      return opt::PassManager::Standard().Run(program);
    default:
      return opt::PassManager::Aggressive().Run(program);
  }
}

analysis::AnalysisReport Compiler::Analyze(const dlir::Program& program) const {
  return analysis::Analyze(program);
}

std::string Compiler::EmitSouffle(const dlir::Program& program) const {
  return dlir::ToSouffle(program);
}

std::string Compiler::EmitCypher(const pgir::PgirQuery& query) const {
  return pgir::ToCypher(query);
}

std::string Compiler::EmitGql(const pgir::PgirQuery& query) const {
  return pgir::ToGql(query);
}

Result<sqir::SqirProgram> Compiler::ToSqir(const dlir::Program& program) const {
  return sqir::TranslateToSqir(program);
}

Result<std::string> Compiler::EmitSql(const dlir::Program& program) const {
  RAQLET_ASSIGN_OR_RETURN(sqir::SqirProgram sqir_program,
                          sqir::TranslateToSqir(program));
  return sqir::ToSql(sqir_program);
}

namespace {

// Returns the cached engine built for `options`, building it on first
// request. Options hold behaviour only, so they key the cache verbatim.
template <typename Options, typename Engine>
const Engine& CachedEngine(
    std::mutex* mutex,
    std::vector<std::pair<Options, std::unique_ptr<Engine>>>* cache,
    const Options& options) {
  std::lock_guard<std::mutex> lock(*mutex);
  for (const auto& [cached_options, engine] : *cache) {
    if (cached_options == options) return *engine;
  }
  cache->emplace_back(options, std::make_unique<Engine>(options));
  return *cache->back().second;
}

const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const Result<T>& result) {
  return result.status();
}

// Folds a QueryGuard trip (its three terminal causes) into the metrics
// sink, so EXPLAIN ANALYZE and --demo can report it.
void RecordGuardTrip(const Status& status, const runtime::QueryGuard* guard,
                     obs::QueryMetrics* metrics) {
  if (metrics == nullptr) return;
  switch (status.code()) {
    case StatusCode::kCancelled:
      ++metrics->guard.cancelled;
      break;
    case StatusCode::kDeadlineExceeded:
      ++metrics->guard.deadline_exceeded;
      break;
    case StatusCode::kResourceExhausted:
      ++metrics->guard.resource_exhausted;
      break;
    default:
      return;
  }
  if (guard != nullptr) {
    metrics->guard.rows = guard->rows();
    metrics->guard.bytes = guard->bytes();
  }
}

// The epilogue of every Run* entry point: times `run` as `phase`, records
// a guard trip on failure, and on success the memory breakdown of `db`.
// `run` returns a Status or a Result, which is passed through.
template <typename Run>
auto Execute(const char* phase, const Database& db,
             const runtime::QueryGuard* guard, obs::QueryMetrics* metrics,
             Run run) -> decltype(run()) {
  auto result = [&] {
    obs::PhaseTimer timer(metrics, phase);
    return run();
  }();
  if (!StatusOf(result).ok()) {
    RecordGuardTrip(StatusOf(result), guard, metrics);
  } else if (metrics != nullptr) {
    obs::CollectMemoryBreakdown(db, metrics);
  }
  return result;
}

}  // namespace

Result<engine::ResultTable> Compiler::RunOnDatalog(
    const dlir::Program& program, Database* db, engine::EvalStats* stats,
    const engine::EvalOptions& options, obs::QueryMetrics* metrics,
    const runtime::QueryGuard* guard) const {
  // Check-before-execute: in debug/sanitizer builds (or with
  // RAQLET_VERIFY_PASSES=1) every program entering an engine has passed
  // the static analyzer. Release keeps the hot path free of it.
  if (analysis::VerifyByDefault()) RAQLET_RETURN_IF_ERROR(Check(program));
  const engine::DatalogEngine& eng =
      CachedEngine(&engine_cache_mutex_, &datalog_engines_, options);
  RAQLET_RETURN_IF_ERROR(Execute("execute-datalog", *db, guard, metrics, [&] {
    return eng.Run(program, db, stats,
                   metrics != nullptr ? &metrics->datalog : nullptr, guard);
  }));
  std::vector<std::string> outputs = program.OutputRelations();
  if (outputs.size() != 1) {
    return Status::InvalidArgument("expected exactly one output relation");
  }
  RAQLET_ASSIGN_OR_RETURN(const Relation* rel, db->GetRelation(outputs[0]));
  engine::ResultTable result;
  for (const Column& col : rel->schema().columns) {
    result.columns.push_back(col.name);
  }
  // Fresh boxed copies: keeps the (possibly benchmarked) output relation's
  // columnar storage free of a row-compatibility cache.
  result.rows = rel->MaterializeRows();
  return result;
}

Result<engine::ResultTable> Compiler::RunOnSql(
    const dlir::Program& program, Database* db, engine::SqlMode mode,
    engine::SqlStats* stats, int num_threads, obs::QueryMetrics* metrics,
    const runtime::QueryGuard* guard) const {
  // Same check-before-execute contract as RunOnDatalog (RunOnGraph takes
  // PGIR, which never passes through DLIR verification).
  if (analysis::VerifyByDefault()) RAQLET_RETURN_IF_ERROR(Check(program));
  RAQLET_ASSIGN_OR_RETURN(sqir::SqirProgram sqir_program,
                          sqir::TranslateToSqir(program));
  engine::SqlOptions options;
  options.mode = mode;
  options.num_threads = num_threads;
  const engine::SqlEngine& eng =
      CachedEngine(&engine_cache_mutex_, &sql_engines_, options);
  return Execute("execute-sql", *db, guard, metrics, [&] {
    return eng.Run(sqir_program, db, stats,
                   metrics != nullptr ? &metrics->sql : nullptr, guard);
  });
}

Result<engine::ResultTable> Compiler::RunOnGraph(
    const pgir::PgirQuery& query, const engine::GraphStore& store,
    Database* db, engine::GraphStats* stats,
    const engine::GraphOptions& options, obs::QueryMetrics* metrics,
    const runtime::QueryGuard* guard) const {
  engine::GraphEngine eng(&store, &dl_schema_, db, options);
  return Execute("execute-graph", *db, guard, metrics, [&] {
    return eng.Run(query, stats,
                   metrics != nullptr ? &metrics->graph : nullptr, guard);
  });
}

Result<engine::GraphStore> Compiler::BuildGraphStore(
    const Database& db) const {
  if (!schema_loaded_) return Status::InvalidArgument("no schema loaded");
  return engine::GraphStore::Build(dl_schema_, db);
}

Result<std::unique_ptr<engine::IncrementalView>> Compiler::BeginIncremental(
    const dlir::Program& program, Database* db,
    const engine::IncrementalOptions& options, obs::QueryMetrics* metrics,
    const runtime::QueryGuard* guard) const {
  if (analysis::VerifyByDefault()) RAQLET_RETURN_IF_ERROR(Check(program));
  auto view = std::make_unique<engine::IncrementalView>(options);
  RAQLET_RETURN_IF_ERROR(
      Execute("initialize-incremental", *db, guard, metrics, [&] {
        return view->Initialize(program, db, nullptr, guard);
      }));
  return view;
}

Result<AppliedDelta> Compiler::ApplyDelta(engine::IncrementalView* view,
                                          const DeltaBatch& delta,
                                          obs::QueryMetrics* metrics,
                                          const runtime::QueryGuard* guard)
    const {
  if (view == nullptr || !view->initialized()) {
    return Status::InvalidArgument("ApplyDelta on an uninitialized view");
  }
  return Execute("apply-delta", *view->database(), guard, metrics, [&] {
    return view->ApplyDelta(
        delta, metrics != nullptr ? &metrics->incremental : nullptr, guard);
  });
}

}  // namespace raqlet
