#ifndef RAQLET_ENGINE_SQL_EXECUTOR_H_
#define RAQLET_ENGINE_SQL_EXECUTOR_H_

// SQL/CTE executor for SQIR programs — Raqlet's stand-in for the
// relational engines of Table 1 (docs/architecture.md, "The three
// engines").
//
// CTEs materialize in dependency order. WITH RECURSIVE follows SQL:1999
// semantics: the recursive term sees the *working table* (rows added in
// the previous iteration), results union (distinct) into the total until
// the working table empties. Both modes scan the working table in place,
// as the suffix of the total appended last round. A recursive branch
// that references the CTE more than once (non-linear recursion) or
// inside NOT EXISTS (non-monotonic recursion) is rejected.
//
// Both modes share one plan and one pipeline over one binding
// representation: the row index each FROM table is bound to. Join order
// is chosen greedily per SELECT, equality predicates become probes of
// hash indexes prebuilt per plan step (Relation::EnsureIndex, so the
// inner loops pay neither a lock nor an index-cache lookup), and every
// column reference is resolved at plan time to a borrowed ColumnView.
// One expression evaluator, one filter step, one NOT EXISTS probe, one
// projection and one aggregation accumulator work on binding i of a unit
// of n bindings. Projection stages output columns that merge through
// Relation::InsertColumns after the evaluation's reads finish, so a
// recursive branch never reads rows it is appending. The modes differ
// only in traversal order:
//  * kTuplePipeline (HyPer stand-in): depth-first — a unit of one
//    binding flows through the whole join pipeline, rebound in place at
//    each step, before the next match is bound.
//  * kVectorized (DuckDB stand-in): breadth-first — a batch is one
//    row-index array per joined table, and the whole batch advances one
//    step at a time. With SqlOptions::num_threads > 1 the leading scan is
//    partitioned across the runtime's ThreadPool; per-chunk outputs merge
//    in chunk order, so results are bit-identical to serial execution at
//    any thread count.
// Both modes produce the same rows in the same order and the same
// SqlStats and SqlMetrics counters (SqlStepMetrics::batches, which
// counts step invocations, excepted).

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "engine/value_ops.h"
#include "obs/metrics.h"
#include "runtime/execution_context.h"
#include "runtime/query_guard.h"
#include "sqir/sqir.h"
#include "storage/database.h"

namespace raqlet::engine {

enum class SqlMode { kVectorized, kTuplePipeline };

struct SqlOptions {
  SqlMode mode = SqlMode::kVectorized;
  /// Worker threads for the vectorized pipeline (clamped to >= 1).
  /// 1 means strictly serial; results are identical for every value.
  int num_threads = 1;

  /// Behaviour only: the guard and the metrics sink are per-call
  /// parameters of Run, so the options are a complete engine-cache key.
  friend bool operator==(const SqlOptions&, const SqlOptions&) = default;
};

struct SqlStats {
  size_t recursive_iterations = 0;
  size_t rows_materialized = 0;  // CTE rows produced (after dedup)
  size_t rows_scanned = 0;
};

class SqlEngine {
 public:
  explicit SqlEngine(SqlOptions options = {});

  /// Executes `program` against `db`. The database is non-const only to
  /// intern string literals appearing in the query.
  ///
  /// `metrics`, when given, receives per-CTE detail (iterations, dedup
  /// hit rate, per-step operator counters) plus a final "__result__"
  /// entry for the top-level select. Row and dedup counters are
  /// bit-identical across modes and thread counts; only
  /// SqlStepMetrics::batches depends on the traversal and scan chunking.
  ///
  /// `guard`, when given, is polled per CTE materialization step, per
  /// recursive iteration and per scan chunk (kVectorized) or every 64
  /// emitted rows (kTuplePipeline) of this call only; the engine
  /// keeps no guard between calls. A trip aborts execution with the
  /// guard's terminal Status and leaves `db` and this engine reusable:
  /// re-running the same program is bit-identical to a never-tripped run.
  Result<ResultTable> Run(const sqir::SqirProgram& program, Database* db,
                          SqlStats* stats = nullptr,
                          obs::SqlMetrics* metrics = nullptr,
                          const runtime::QueryGuard* guard = nullptr) const;

 private:
  SqlOptions options_;
  // Owns the thread pool when num_threads > 1; the pool is reused across
  // Run calls on the same engine. Makes SqlEngine move-only.
  std::unique_ptr<runtime::ExecutionContext> context_;
};

}  // namespace raqlet::engine

#endif  // RAQLET_ENGINE_SQL_EXECUTOR_H_
