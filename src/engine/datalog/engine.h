#ifndef RAQLET_ENGINE_DATALOG_ENGINE_H_
#define RAQLET_ENGINE_DATALOG_ENGINE_H_

// Bottom-up Datalog engine executing DLIR programs against a Database.
//
// This is Raqlet's stand-in for Soufflé (see DESIGN.md §2): stratified
// semi-naive evaluation over indexed relations.
//
//  * Strata are the SCCs of the predicate dependency graph in topological
//    order; negation and aggregation may not cross into their own SCC
//    (classic stratification, checked before execution).
//  * Within a recursive SCC, rules are evaluated semi-naively: one rule
//    variant per recursive body atom, with that atom restricted to the
//    previous iteration's delta.
//  * Join order inside a rule is chosen greedily (most-bound-arguments
//    first); probes use incrementally-maintained hash indexes.
//  * Lattice relations (RelationDecl::lattice = min/max on the last
//    column) merge instead of union: an insert only "counts" if it
//    improves the best value for the key prefix. This gives terminating
//    shortest-path recursion on cyclic graphs (Datalog^o-style monotone
//    aggregation).
//  * With num_threads > 1, execution runs on the raqlet_runtime layer:
//    independent SCCs are scheduled concurrently, and within one fixpoint
//    round each rule variant's outer join range is partitioned across the
//    pool. Workers emit into per-task buffers (recycled through the
//    context's object pool across rounds); the merge is sharded per
//    target relation — each relation's staged runs apply in task order
//    through Relation::InsertColumns on one pool task — so derived
//    relations are bit-identical to a 1-thread run at any thread count.

#include <cstddef>
#include <memory>
#include <string>

#include "common/status.h"
#include "dlir/program.h"
#include "obs/metrics.h"
#include "runtime/execution_context.h"
#include "runtime/query_guard.h"
#include "storage/database.h"

namespace raqlet::engine {

struct EvalOptions {
  /// Semi-naive (deltas) vs naive (full re-evaluation each round).
  /// Naive mode exists for the optimizer ablation benchmarks.
  bool seminaive = true;
  /// Greedy join ordering inside each rule (most bound arguments first);
  /// when false, body atoms join in written order.
  bool reorder_atoms = true;
  /// Degree of parallelism. 1 (default) evaluates strictly serially;
  /// N > 1 evaluates independent SCCs and partitioned delta joins on a
  /// thread pool of N threads. Results are identical for every N.
  int num_threads = 1;

  /// Behaviour only: the guard and the metrics sink are per-call
  /// parameters of Run, so the options are a complete engine-cache key.
  friend bool operator==(const EvalOptions&, const EvalOptions&) = default;
};

struct EvalStats {
  size_t fixpoint_rounds = 0;    // total semi-naive rounds across SCCs
  size_t tuples_inserted = 0;    // new tuples across all IDB relations
  size_t rule_evaluations = 0;   // rule-variant evaluations
  size_t tuples_considered = 0;  // candidate rows scanned/probed

  std::string ToString() const;
};

class DatalogEngine {
 public:
  explicit DatalogEngine(EvalOptions options = {})
      : options_(options),
        context_(std::make_unique<runtime::ExecutionContext>(
            options.num_threads)) {}

  /// Evaluates `program` against `db`. Input relations must pre-exist in
  /// `db` with matching arity; IDB relations are created (or cleared and
  /// recomputed) and filled. On success, output relations hold the query
  /// results.
  ///
  /// `metrics`, when given, receives the per-SCC fixpoint breakdown
  /// (rounds, per-round delta sizes, tuples considered/inserted) indexed
  /// by topological SCC order. Every counter in it is bit-identical
  /// across thread counts; only SccMetrics::micros is wall time.
  ///
  /// `guard`, when given, is polled for this call only; the engine keeps
  /// no guard between calls. A trip aborts evaluation with the guard's
  /// terminal Status and leaves `db`, this engine, and its pools
  /// reusable: re-running the same program recomputes the IDB relations
  /// from scratch, bit-identically to a never-tripped run.
  Status Run(const dlir::Program& program, Database* db,
             EvalStats* stats = nullptr,
             obs::DatalogMetrics* metrics = nullptr,
             const runtime::QueryGuard* guard = nullptr) const;

 private:
  EvalOptions options_;
  // Created eagerly with the engine (num_threads is fixed per engine), so
  // Run stays const and safe to call from multiple threads, and repeated
  // executions (fixpoint benchmarks, servers) reuse the same workers.
  std::unique_ptr<runtime::ExecutionContext> context_;
};

}  // namespace raqlet::engine

#endif  // RAQLET_ENGINE_DATALOG_ENGINE_H_
