#ifndef RAQLET_ENGINE_GRAPH_EXECUTOR_H_
#define RAQLET_ENGINE_GRAPH_EXECUTOR_H_

// Graph engine: interprets PGIR directly over the adjacency-list
// GraphStore, Neo4j-style — a binding table grows clause by clause, edge
// patterns expand via pointer traversal, variable-length and shortest
// paths run BFS. This is the Table 1 "Neo4j" stand-in (DESIGN.md §2).
//
// Two execution modes share the traversal machinery (adjacency walks and
// the memoized reachability closure) but differ in how the binding table
// is represented — the axis the paper's per-binding-interpreter critique
// is about:
//
//  * kColumnBatch (default): the binding table is columnar — one Value
//    column per bound variable. MATCH expansion appends match columns
//    and gathers prior columns through the match selection (no per-match
//    row copy), WHERE filters compact via selection masks, the memoized
//    reachability closure unions straight into a column, and RETURN/WITH
//    projection evaluates items column-at-a-time with DISTINCT deduped
//    once per batch through Relation::InsertColumns' flat open-addressing
//    table (columnar in, columnar out; edge-id binding borrows the edge
//    relation's column storage zero-copy). Aggregates (count/sum/min/max/
//    avg) accumulate column-wise.
//  * kRowBinding: the historical per-binding interpreter — every MATCH
//    step copies and extends whole rows, one binding at a time, and
//    DISTINCT rehashes tuple by tuple. Kept as the faithful per-binding
//    stand-in for benchmarks and as the reference implementation the
//    batch mode is differentially tested against.
//
// Both modes produce bit-identical results — the same rows in the same
// order — which tests/cross_engine_test.cc asserts query by query.
//
// Semantics note: intermediate clauses follow Cypher's bag semantics;
// RETURN DISTINCT deduplicates. The translated queries use DISTINCT (§3),
// making results comparable across engines.

#include "common/status.h"
#include "engine/graph/graph_store.h"
#include "engine/value_ops.h"
#include "obs/metrics.h"
#include "pgir/pgir.h"
#include "runtime/query_guard.h"

namespace raqlet::engine {

/// Binding-table representation; see the file comment.
enum class GraphMode { kColumnBatch, kRowBinding };

/// Evaluation options: behaviour only, like the Datalog engine's
/// EvalOptions and the SQL engine's SqlOptions (the guard and the metrics
/// sink are per-call parameters of Run). Results are identical for every
/// option value.
struct GraphOptions {
  GraphMode mode = GraphMode::kColumnBatch;
};

struct GraphStats {
  size_t rows_expanded = 0;  // binding-table rows produced by MATCH steps
  size_t bfs_visits = 0;     // (node, depth) states visited by BFS
  // Memoized reachability closure (Traversals::Closure): a hit reuses a
  // completed per-start closure set (at lookup or mid-walk), a miss pays
  // a full expansion. Both engines' modes populate these.
  size_t closure_cache_hits = 0;
  size_t closure_cache_misses = 0;
};

class GraphEngine {
 public:
  /// `store`, `dl` and `db` must outlive the engine. The database is
  /// non-const only to intern string literals from the query.
  GraphEngine(const GraphStore* store, const schema::DlSchema* dl,
              Database* db, GraphOptions options = {})
      : store_(store), dl_(dl), db_(db), options_(options) {}

  /// `metrics`, when given, additionally receives per-clause binding-table
  /// sizes, closure-cache hit/miss counts and the peak BFS frontier.
  ///
  /// `guard`, when given, is polled per clause expansion and per BFS
  /// frontier of this call. A trip aborts Run with the guard's terminal
  /// Status and leaves the store and database reusable; re-running the
  /// query is bit-identical to a never-tripped run.
  Result<ResultTable> Run(const pgir::PgirQuery& query,
                          GraphStats* stats = nullptr,
                          obs::GraphMetrics* metrics = nullptr,
                          const runtime::QueryGuard* guard = nullptr) const;

 private:
  const GraphStore* store_;
  const schema::DlSchema* dl_;
  Database* db_;
  GraphOptions options_;
};

}  // namespace raqlet::engine

#endif  // RAQLET_ENGINE_GRAPH_EXECUTOR_H_
