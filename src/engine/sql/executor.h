#ifndef RAQLET_ENGINE_SQL_EXECUTOR_H_
#define RAQLET_ENGINE_SQL_EXECUTOR_H_

// SQL/CTE executor for SQIR programs — Raqlet's stand-in for the
// relational engines of Table 1 (DESIGN.md §2).
//
// CTEs materialize in dependency order. WITH RECURSIVE follows SQL:1999
// semantics: the recursive term sees the *working table* (rows added in
// the previous iteration), results union (distinct) into the total until
// the working table empties. Both modes scan the working table in place,
// as the suffix of the total appended last round. A recursive branch
// that references the CTE more than once (non-linear recursion) or
// inside NOT EXISTS (non-monotonic recursion) is rejected.
//
// Two execution modes exercise genuinely different join code paths:
//  * kVectorized (DuckDB stand-in): column-batched execution in the
//    MonetDB/X100 lineage. Intermediate join state is a BindingBatch —
//    one Value column per referenced table column — and every plan step
//    is a batch operator: a leading full-table scan borrows the
//    relation's column storage as zero-copy views (values are first
//    copied when a filter compacts or a join gathers), probe keys are
//    evaluated column-at-a-time, the hash index is probed once per batch
//    of keys appending match row indexes, filters produce a selection
//    mask that compacts the whole batch, and projection stages output
//    columns that merge through Relation::InsertColumns without ever
//    boxing a row tuple. Aggregation accumulates column-wise over the
//    final batch. With SqlOptions::num_threads > 1 the leading scan is
//    partitioned across the runtime's ThreadPool; per-chunk outputs merge
//    in chunk order, so results are bit-identical to serial execution at
//    any thread count.
//  * kTuplePipeline (HyPer stand-in): depth-first — a binding flows
//    through the whole join pipeline one row at a time before the next
//    one starts.
// Both modes probe hash indexes for equality predicates; indexes are
// prebuilt per plan step (Relation::EnsureIndex), so the inner loops pay
// neither a lock nor an index-cache lookup.

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
  /// Worker threads for the vectorized batch pipeline (clamped to >= 1).
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
  /// hit rate, per-step operator counters from the vectorized pipeline)
  /// plus a final "__result__" entry for the top-level select. Row and
  /// dedup counters are bit-identical across thread counts; only
  /// SqlStepMetrics::batches depends on scan chunking.
  ///
  /// `guard`, when given, is polled per CTE materialization step, per
  /// recursive iteration and per scan chunk of this call only; the engine
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
