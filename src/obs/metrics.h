#ifndef RAQLET_OBS_METRICS_H_
#define RAQLET_OBS_METRICS_H_

// Unified per-query execution metrics across the compilation pipeline and
// all three engines. The engines keep their small public stats structs
// (EvalStats / SqlStats / GraphStats — cheap, always-on totals); the
// structures here are the opt-in detail layer behind EXPLAIN ANALYZE and
// `raqlet_cli --demo`: per-SCC fixpoint breakdowns, per-plan-step operator
// counters, per-clause frontier sizes, pipeline phase timings, and the
// database memory breakdown.
//
// Determinism contract: every *count* recorded here is bit-identical
// across thread counts and execution modes that promise identical results
// (the same contract the engines' stats structs obey, asserted by
// tests/parallel_engine_test.cc), with two documented exceptions: the
// `*_micros` fields are wall time, and SqlStepMetrics::batches counts
// step invocations, which depend on the SQL mode's traversal order and
// on how the leading scan was chunked across threads. Consumers that
// compare metrics must ignore those two;
// ToString() prints timings separately for that reason.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace raqlet {
class Database;  // storage/database.h
}  // namespace raqlet

namespace raqlet::obs {

/// One timed stage of the compile/execute pipeline ("parse", "lower-pgir",
/// "translate-dlir", "optimize", "execute-datalog", ...).
struct PhaseTiming {
  std::string name;
  int64_t micros = 0;
};

/// Per-SCC fixpoint detail from the Datalog engine. Indexed by the SCC's
/// position in DependencyGraph::SccsInTopologicalOrder() — the same index
/// the SCC scheduler uses, so a metrics slot is written by exactly one
/// evaluation task and needs no synchronization.
struct SccMetrics {
  std::vector<std::string> preds;  // predicates of the SCC
  bool recursive = false;
  size_t rounds = 0;            // fixpoint rounds (0 for non-recursive)
  size_t rule_evaluations = 0;  // rule-variant evaluations
  size_t tuples_considered = 0;
  size_t tuples_inserted = 0;
  /// New tuples admitted per merge: for recursive SCCs the exit-rule
  /// (init) batch first, then one entry per fixpoint round — each entry
  /// is the delta the following round joins against, so
  /// round_delta_sizes.size() == rounds + 1 and the last entry is 0 (the
  /// empty delta that ended the fixpoint). Empty for non-recursive SCCs.
  std::vector<size_t> round_delta_sizes;
  int64_t micros = 0;  // wall time of this SCC (non-deterministic)
};

struct DatalogMetrics {
  std::vector<SccMetrics> sccs;

  size_t TotalInserted() const;
  bool empty() const { return sccs.empty(); }
};

/// Per-plan-step operator counters from the SQL executor, filled alike
/// by both modes. Entries are keyed by scanned/probed relation and
/// aggregated over every branch, batch and recursive iteration of the
/// CTE, in first-seen plan order (the join order can differ between
/// branches, so position alone is not a stable key).
struct SqlStepMetrics {
  std::string relation;    // relation scanned or probed at this step
  size_t batches = 0;      // step invocations (traversal-dependent)
  size_t rows_in = 0;      // binding rows entering the step
  size_t probes = 0;       // index probe operations issued
  size_t rows_matched = 0; // join matches before filters
  size_t rows_out = 0;     // rows surviving the step's filters
  /// Filter selectivity: rows_out / rows_matched (1.0 when no filter).
  double Selectivity() const {
    return rows_matched == 0
               ? 1.0
               : static_cast<double>(rows_out) /
                     static_cast<double>(rows_matched);
  }
};

/// Per-CTE detail from the SQL engine.
struct SqlCteMetrics {
  std::string name;
  bool recursive = false;
  size_t iterations = 0;       // semi-naive / working-table rounds
  size_t rows = 0;             // materialized rows (after dedup)
  size_t dedup_attempts = 0;   // rows offered to the dedup table
  size_t dedup_inserted = 0;   // rows admitted (attempts - hits)
  std::vector<SqlStepMetrics> steps;
  /// Dedup hit rate: fraction of offered rows that were duplicates.
  double DedupHitRate() const {
    return dedup_attempts == 0
               ? 0.0
               : 1.0 - static_cast<double>(dedup_inserted) /
                           static_cast<double>(dedup_attempts);
  }
};

struct SqlMetrics {
  std::vector<SqlCteMetrics> ctes;

  bool empty() const { return ctes.empty(); }
};

/// Binding-table size after each evaluated clause of a graph query.
struct GraphClauseMetrics {
  std::string kind;      // "match", "where", "with", "return"
  size_t rows_after = 0; // binding-table rows after the clause
};

struct GraphMetrics {
  std::vector<GraphClauseMetrics> clauses;
  size_t closure_cache_hits = 0;    // memoized reachability reuses
  size_t closure_cache_misses = 0;  // full BFS expansions
  size_t frontier_peak = 0;         // largest BFS frontier seen

  bool empty() const {
    return clauses.empty() && closure_cache_hits == 0 &&
           closure_cache_misses == 0;
  }
};

/// Guard-trip counters (runtime::QueryGuard). Incremented by the Compiler
/// facade when a Run* entry point returns a guard's terminal status, plus
/// the guard's final row/byte tallies — so EXPLAIN ANALYZE and --demo can
/// report how far a budgeted query got before tripping.
struct GuardMetrics {
  size_t cancelled = 0;           // kCancelled trips observed
  size_t deadline_exceeded = 0;   // kDeadlineExceeded trips observed
  size_t resource_exhausted = 0;  // kResourceExhausted trips observed
  size_t rows = 0;   // rows charged to the guard before the trip
  size_t bytes = 0;  // bytes charged to the guard before the trip

  bool empty() const {
    return cancelled == 0 && deadline_exceeded == 0 && resource_exhausted == 0;
  }
};

/// Detail from one incremental maintenance pass (engine::IncrementalView
/// ::ApplyDelta): how much of the dependency graph was re-fired and what
/// each deletion strategy did. Every field is a deterministic count —
/// bit-identical across thread counts, like the engine stats. The view's
/// cumulative counters (IncrementalView::stats) use the same struct.
struct IncrementalMetrics {
  size_t base_added = 0;       // net EDB tuples inserted by the delta
  size_t base_removed = 0;     // net EDB tuples erased by the delta
  size_t sccs_touched = 0;     // SCCs re-fired (reachable from changes)
  size_t sccs_skipped = 0;     // rule-bearing SCCs left untouched
  size_t rounds = 0;           // incremental fixpoint rounds, all phases
  size_t tuples_inserted = 0;  // net derived tuples inserted
  size_t tuples_deleted = 0;   // net derived tuples erased
  size_t overdeleted = 0;      // DRed: tuples tentatively deleted
  size_t rederived = 0;        // DRed: overdeletions proven still derivable
  size_t support_updates = 0;  // counting: per-tuple support adjustments
  size_t recomputed_sccs = 0;  // recompute-and-diff runs (agg/lattice/bail)
  size_t dred_bailouts = 0;    // DRed cascades handed to recompute-and-diff
  /// Rows the bailed-out cascades had overdeleted when they gave up: the
  /// work DRed threw away (not counted in `overdeleted`).
  size_t abandoned_overdeleted = 0;

  IncrementalMetrics& operator+=(const IncrementalMetrics& o) {
    base_added += o.base_added;
    base_removed += o.base_removed;
    sccs_touched += o.sccs_touched;
    sccs_skipped += o.sccs_skipped;
    rounds += o.rounds;
    tuples_inserted += o.tuples_inserted;
    tuples_deleted += o.tuples_deleted;
    overdeleted += o.overdeleted;
    rederived += o.rederived;
    support_updates += o.support_updates;
    recomputed_sccs += o.recomputed_sccs;
    dred_bailouts += o.dred_bailouts;
    abandoned_overdeleted += o.abandoned_overdeleted;
    return *this;
  }
  bool operator==(const IncrementalMetrics&) const = default;

  bool empty() const { return *this == IncrementalMetrics{}; }
};

/// Heap bytes held by one stored relation.
struct RelationMemory {
  std::string name;
  size_t rows = 0;
  size_t bytes = 0;
};

/// Everything observed while compiling and executing one query.
struct QueryMetrics {
  std::vector<PhaseTiming> phases;
  DatalogMetrics datalog;
  SqlMetrics sql;
  GraphMetrics graph;
  IncrementalMetrics incremental;      // view-maintenance detail
  GuardMetrics guard;                  // cancellation/budget trips
  std::vector<RelationMemory> memory;  // per-relation database breakdown

  void AddPhase(std::string name, int64_t micros) {
    phases.push_back({std::move(name), micros});
  }
  size_t TotalMemoryBytes() const;

  /// Human-readable report (the `raqlet_cli --demo` / EXPLAIN ANALYZE
  /// footer). Deterministic counters first, wall-clock timings last.
  std::string ToString() const;
};

/// Fills `metrics->memory` with the per-relation breakdown of `db`
/// (Relation::MemoryBytes — columns, kind sidecars, dedup table), in
/// relation creation order.
void CollectMemoryBreakdown(const Database& db, QueryMetrics* metrics);

/// RAII phase timer: appends {name, elapsed} to metrics->phases on
/// destruction. Null-safe — with metrics == nullptr it does nothing.
class PhaseTimer {
 public:
  PhaseTimer(QueryMetrics* metrics, const char* name);
  ~PhaseTimer();

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  QueryMetrics* metrics_;
  const char* name_;
  int64_t start_us_ = 0;
};

}  // namespace raqlet::obs

#endif  // RAQLET_OBS_METRICS_H_
