#ifndef RAQLET_RAQLET_COMPILER_H_
#define RAQLET_RAQLET_COMPILER_H_

// raqlet::Compiler — the public entry point tying the Fig. 1 pipeline
// together: parse (Cypher or Datalog) -> PGIR -> DLIR -> analyses &
// optimizations -> unparse (Soufflé Datalog / SQL) or execute on any of
// the three engines.
//
// Typical use:
//
//   raqlet::Compiler compiler;
//   RAQLET_RETURN_IF_ERROR(compiler.LoadPgSchema(schema_text));
//   RAQLET_ASSIGN_OR_RETURN(auto unit, compiler.CompileCypher(query));
//   std::string datalog = compiler.EmitSouffle(unit.optimized);
//   RAQLET_ASSIGN_OR_RETURN(std::string sql,
//                           compiler.EmitSql(unit.optimized));
//   RAQLET_ASSIGN_OR_RETURN(auto rows,
//                           compiler.RunOnDatalog(unit.optimized, &db));

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyses.h"
#include "common/status.h"
#include "cypher/ast.h"
#include "dlir/program.h"
#include "engine/datalog/engine.h"
#include "engine/datalog/incremental.h"
#include "engine/graph/executor.h"
#include "engine/graph/graph_store.h"
#include "engine/sql/executor.h"
#include "obs/metrics.h"
#include "pgir/pgir.h"
#include "runtime/query_guard.h"
#include "schema/dl_schema.h"
#include "schema/pg_schema.h"
#include "sqir/sqir.h"

namespace raqlet {

/// Everything produced while compiling one Cypher query.
struct CompiledQuery {
  cypher::Query ast;
  pgir::PgirQuery pgir;
  dlir::Program dlir;       // direct translation (paper's unoptimized form)
  dlir::Program optimized;  // after the requested pass pipeline
  std::vector<std::string> warnings;
};

struct CompileOptions {
  /// Values for $parameters in the query text.
  std::map<std::string, dlir::Constant> parameters;
  /// Optimization level: 0 = none, 1 = Standard pipeline (inline,
  /// pushdown, self-join-elim, dedup-atoms, dre — the paper's "fully
  /// optimized" Table 1 configuration), 2 = Aggressive (adds magic sets
  /// and linearization).
  int opt_level = 1;
  /// Observability sink: when set, the pipeline records per-phase wall
  /// times ("parse", "lower-pgir", "translate-dlir", "optimize") into
  /// metrics->phases. Not part of engine-cache keys — a sink, not a
  /// behavioural option.
  obs::QueryMetrics* metrics = nullptr;
};

class Compiler {
 public:
  Compiler() = default;

  /// Loads the PG-Schema (Fig. 2a) and derives the DL-Schema (Fig. 2b).
  Status LoadPgSchema(const std::string& text);

  const schema::PgSchema& pg_schema() const { return pg_schema_; }
  const schema::DlSchema& dl_schema() const { return dl_schema_; }

  /// Creates all EDB relations of the loaded schema in `db`.
  Status CreateEdbs(Database* db) const;

  /// Full Cypher pipeline: parse -> PGIR -> DLIR -> optimize.
  Result<CompiledQuery> CompileCypher(const std::string& query,
                                      const CompileOptions& options = {}) const;

  /// GQL frontend (ISO 39075 core; shares the pattern grammar and the
  /// whole downstream pipeline with Cypher).
  Result<CompiledQuery> CompileGql(const std::string& query,
                                   const CompileOptions& options = {}) const;

  /// SQL/PGQ frontend (ISO 9075-16 GRAPH_TABLE core). The graph name in
  /// the statement is informational (Raqlet has one loaded schema).
  Result<CompiledQuery> CompileSqlPgq(const std::string& query,
                                      const CompileOptions& options = {}) const;

  /// Datalog frontend: parse Soufflé-dialect text into DLIR and verify it
  /// (static analyzer; all errors reported, not just the first).
  Result<dlir::Program> CompileDatalog(const std::string& text) const;

  /// Parse only, no verification — for tools that want to run the
  /// analyzer themselves and render the diagnostics (raqlet_cli --check).
  Result<dlir::Program> ParseDatalog(const std::string& text) const;

  /// The static analyzer as a Status: OK when the program has no
  /// structural/type/stratification errors, otherwise InvalidArgument
  /// carrying every diagnostic (see src/analysis/typecheck.h). Run* entry
  /// points call this before executing when analysis::VerifyByDefault()
  /// is on (debug/sanitizer builds or RAQLET_VERIFY_PASSES=1), keeping
  /// release hot paths unchanged.
  Status Check(const dlir::Program& program) const;

  /// Applies the optimization pipeline for `opt_level` to a program.
  Result<dlir::Program> Optimize(const dlir::Program& program,
                                 int opt_level = 1) const;

  /// §4 static analysis report.
  analysis::AnalysisReport Analyze(const dlir::Program& program) const;

  // ---- backends (unparsers) ----

  /// Soufflé Datalog text (Fig. 3d).
  std::string EmitSouffle(const dlir::Program& program) const;
  /// Cypher / GQL text from PGIR (Fig. 1's graph-language unparsers).
  std::string EmitCypher(const pgir::PgirQuery& query) const;
  std::string EmitGql(const pgir::PgirQuery& query) const;
  /// Recursive SQL text (Fig. 3e). Fails when recursive SQL cannot express
  /// the program (mutual/non-linear recursion, lattice relations).
  Result<std::string> EmitSql(const dlir::Program& program) const;
  /// The SQIR form (for inspection or direct execution).
  Result<sqir::SqirProgram> ToSqir(const dlir::Program& program) const;

  // ---- engines ----
  //
  // The five run entry points share one convention. Options structs hold
  // behaviour only and key the engine caches verbatim. Each entry point
  // takes the optional obs::QueryMetrics sink and runtime::QueryGuard as
  // its last two parameters, for that call only: execution wall time
  // lands in metrics->phases ("execute-*", "initialize-incremental",
  // "apply-delta") and the engine's detailed counters in the matching
  // sub-struct. A tripped guard surfaces as its terminal Status
  // (Cancelled / DeadlineExceeded / ResourceExhausted), is recorded in
  // metrics->guard, and leaves the database, the cached engines and this
  // Compiler reusable. After a successful run the database's memory
  // breakdown lands in metrics->memory; a failed run returns its Status
  // and leaves metrics->memory untouched.

  /// Bottom-up Datalog evaluation (Soufflé stand-in). Returns the rows of
  /// the single output relation. `options.num_threads > 1` evaluates on
  /// the parallel runtime (identical results, see engine/datalog).
  Result<engine::ResultTable> RunOnDatalog(
      const dlir::Program& program, Database* db,
      engine::EvalStats* stats = nullptr,
      const engine::EvalOptions& options = {},
      obs::QueryMetrics* metrics = nullptr,
      const runtime::QueryGuard* guard = nullptr) const;

  /// Recursive-SQL evaluation (DuckDB/HyPer stand-ins via `mode`).
  /// `num_threads > 1` partitions the vectorized mode's leading scan
  /// across the runtime's thread pool (identical results at any count).
  Result<engine::ResultTable> RunOnSql(
      const dlir::Program& program, Database* db,
      engine::SqlMode mode = engine::SqlMode::kVectorized,
      engine::SqlStats* stats = nullptr, int num_threads = 1,
      obs::QueryMetrics* metrics = nullptr,
      const runtime::QueryGuard* guard = nullptr) const;

  /// Graph-traversal evaluation of PGIR (Neo4j stand-in) over a prebuilt
  /// store (use BuildGraphStore; building is the analogue of data load).
  /// `options.mode` selects the binding-table representation: the default
  /// column-batch executor, or the per-binding row interpreter it is
  /// differentially tested against (identical rows, identical order).
  Result<engine::ResultTable> RunOnGraph(
      const pgir::PgirQuery& query, const engine::GraphStore& store,
      Database* db, engine::GraphStats* stats = nullptr,
      const engine::GraphOptions& options = {},
      obs::QueryMetrics* metrics = nullptr,
      const runtime::QueryGuard* guard = nullptr) const;

  /// Builds the adjacency-list property graph from the EDBs in `db`.
  Result<engine::GraphStore> BuildGraphStore(const Database& db) const;

  // ---- incremental maintenance ----

  /// Evaluates `program` on `db` from scratch and returns a maintainable
  /// view: feed it +/− base-fact deltas via ApplyDelta and the derived
  /// relations track what a full re-evaluation would produce (see
  /// engine/datalog/incremental.h for strategy and determinism contract).
  /// Runs the same check-before-execute verification as RunOnDatalog.
  Result<std::unique_ptr<engine::IncrementalView>> BeginIncremental(
      const dlir::Program& program, Database* db,
      const engine::IncrementalOptions& options = {},
      obs::QueryMetrics* metrics = nullptr,
      const runtime::QueryGuard* guard = nullptr) const;

  /// Applies one DeltaBatch through `view`; the incremental counters land
  /// in metrics->incremental.
  Result<AppliedDelta> ApplyDelta(engine::IncrementalView* view,
                                  const DeltaBatch& delta,
                                  obs::QueryMetrics* metrics = nullptr,
                                  const runtime::QueryGuard* guard = nullptr)
      const;

 private:
  // The pipeline every graph-query frontend shares after its parser:
  // PGIR lowering, DLIR translation and optimization. `language` names
  // the frontend in the no-schema error.
  Result<CompiledQuery> CompileGraphQuery(
      const char* language, const std::string& query,
      const CompileOptions& options,
      Result<cypher::Query> (*parse)(const std::string&)) const;

  schema::PgSchema pg_schema_;
  schema::DlSchema dl_schema_;
  bool schema_loaded_ = false;
  // One engine per distinct options value ever requested, so repeated
  // Run* calls reuse the engine's thread pool instead of spawning and
  // joining workers per query. Engines live until the Compiler dies (the
  // set of distinct option values is small in practice) and are safe to
  // run concurrently; the mutex only guards cache lookup and insert.
  template <typename Options, typename Engine>
  using EngineCache =
      std::vector<std::pair<Options, std::unique_ptr<Engine>>>;
  mutable std::mutex engine_cache_mutex_;
  mutable EngineCache<engine::EvalOptions, engine::DatalogEngine>
      datalog_engines_;
  mutable EngineCache<engine::SqlOptions, engine::SqlEngine> sql_engines_;
};

}  // namespace raqlet

#endif  // RAQLET_RAQLET_COMPILER_H_
