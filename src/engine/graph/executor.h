#ifndef RAQLET_ENGINE_GRAPH_EXECUTOR_H_
#define RAQLET_ENGINE_GRAPH_EXECUTOR_H_

// Graph engine: interprets PGIR directly over the adjacency-list
// GraphStore, Neo4j-style — a binding table grows clause by clause, edge
// patterns expand via pointer traversal, variable-length and shortest
// paths run BFS. This is the Table 1 "Neo4j" stand-in (docs/architecture.md).
//
// One execution drives every query: the clause loop (guard poll,
// graph.clause span, per-clause metrics), the pattern matcher with one
// expander per pattern kind (lone node, single edge, variable-length or
// shortest edge), the projection layout and the aggregation are written
// once, over the traversal machinery (adjacency walks, BFS, and the
// memoized reachability closure). Every expander scans unbound endpoints
// through one helper and hands each match — a source row plus the values
// it binds — to the binding table. That helper seeks a node pattern that
// the MATCH's WHERE pins with a top-level conjunct `v.id = literal`
// (GraphStore::NodesWithId) instead of scanning its label, and every
// expansion drops a binding whose pinned endpoint differs, as Neo4j's
// NodeUniqueIndexSeek starts from the one node. The WHERE still runs in
// full, so the seek only narrows the candidates and the rows and their
// order stay those of the scan. The two modes differ only in the binding
// table, the axis the paper's per-binding-interpreter critique is about:
//
//  * kColumnBatch (default): one Value column per bound variable. A MATCH
//    step records the match selection and gathers each prior column once
//    through it (no per-match row copy), expressions are evaluated
//    column-at-a-time, and DISTINCT dedups once per batch through
//    Relation::InsertColumns.
//  * kRowBinding: the per-binding interpreter. Every match copies and
//    extends its source row, expressions are evaluated one row at a time,
//    and DISTINCT rehashes tuple by tuple. It is the faithful per-binding
//    stand-in for benchmarks and the reference for the representation.
//
// Both modes produce bit-identical results — the same rows in the same
// order — and identical GraphStats and GraphMetrics, which
// tests/cross_engine_test.cc asserts query by query.
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
  /// `guard`, when given, is polled per clause and per BFS frontier of
  /// this call. Each binding a MATCH expansion emits is charged once to
  /// its row budget, in chunks of 64 that also poll it, so a budget trips
  /// at most 64 rows past its limit. A trip aborts Run with the guard's
  /// terminal Status and leaves the store and database reusable;
  /// re-running the query is bit-identical to a never-tripped run.
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
