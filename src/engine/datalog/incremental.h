#ifndef RAQLET_ENGINE_DATALOG_INCREMENTAL_H_
#define RAQLET_ENGINE_DATALOG_INCREMENTAL_H_

// Incremental maintenance of a Datalog program's derived relations under
// streaming +/− base-fact deltas (the ROADMAP's "maintainable view
// engine" item).
//
// An IncrementalView pairs one stratified DLIR program with one Database:
// Initialize() evaluates the program from scratch and builds the
// maintenance state; each ApplyDelta() applies a DeltaBatch to the base
// relations and repairs every derived relation to exactly what a
// from-scratch re-evaluation would produce — same rows, same insertion
// order up to the differential contract below — while re-firing only the
// SCCs of the dependency graph reachable from changed predicates.
//
// ## Deletion strategy, per SCC
//
//  * Counting — non-recursive SCCs without aggregation or lattice merge.
//    Initialize() records a support count (number of distinct derivations)
//    per derived tuple; a delta adjusts supports with the exact signed
//    telescoping sum Δ(R₁⋈…⋈Rₙ) = Σᵢ R₁ⁿᵉʷ…Rᵢ₋₁ⁿᵉʷ ⋈ ΔRᵢ ⋈ Rᵢ₊₁ᵒˡᵈ…Rₙᵒˡᵈ
//    (negated atoms contribute ¬∃-flips over their projection keys).
//    Tuples whose support reaches 0 are erased; tuples whose support
//    leaves 0 are inserted.
//  * DRed (delete-and-rederive) — recursive SCCs without aggregation or
//    lattice merge. Overdelete everything transitively derivable from the
//    removed facts against the pre-delta state, erase, rederive the
//    overdeleted tuples still derivable from the remaining facts, then
//    continue semi-naive insertion from the incoming additions plus the
//    rederivations. Pure insert-only deltas skip straight to the
//    continuation — the cheap path streaming appends take. A cascade
//    past 1/5 of the SCC's rows (and 4,096 rows) bails out, before
//    anything is erased, to recompute-and-diff.
//  * Recompute-and-diff — SCCs with aggregation or lattice relations
//    (support counts do not model merge/group semantics). The SCC's rules
//    are re-run from scratch on the current lower strata and the result
//    is written back as a diff against the previous rows.
//
// Every phase runs on the batch engine's evaluator (evaluator.h) as
// batches of rule variants whose atoms read NEW, OLD or Δ row ranges; see
// docs/incremental.md.
//
// ## Determinism contract
//
// Maintained relations are NOT re-sorted: surviving rows keep their
// relative order (Relation::EraseBatch compacts in place) and repaired
// rows append in deterministic derivation order, so an incrementally
// maintained relation holds exactly the same row SET as a from-scratch
// evaluation, in a deterministic (but possibly different) row ORDER.
// Every ApplyDelta is bit-identical across thread counts: rows, row
// order and counters all match between num_threads = 1 and N.
//
// ## Guard interaction
//
// ApplyDelta polls the optional QueryGuard at every fixpoint round and
// phase boundary and charges the deterministic per-round insert/delete
// counts via AddRows. A trip aborts mid-repair, which leaves the view
// (and the database's derived relations) in an undefined intermediate
// state: the view poisons itself and every later ApplyDelta fails with
// InvalidArgument until Initialize() is called again.

#include <memory>

#include "common/status.h"
#include "dlir/program.h"
#include "engine/datalog/engine.h"
#include "obs/metrics.h"
#include "runtime/query_guard.h"
#include "storage/database.h"

namespace raqlet::engine {

struct IncrementalOptions {
  /// Degree of parallelism for every maintenance phase; results are
  /// identical for every N.
  int num_threads = 1;
};

class IncrementalView {
 public:
  explicit IncrementalView(IncrementalOptions options = {});
  ~IncrementalView();

  IncrementalView(const IncrementalView&) = delete;
  IncrementalView& operator=(const IncrementalView&) = delete;

  /// Evaluates `program` against `db` from scratch (clearing any existing
  /// IDB relations) and builds the maintenance state: dependency SCCs,
  /// per-SCC strategy, compiled rules, and support counts for counting
  /// strata. `program` must pass analysis verification for the ordinary
  /// engine; additionally every relation a delta may target must be a
  /// declared input. Re-initializing an existing (or poisoned) view is
  /// allowed and resets it completely.
  Status Initialize(const dlir::Program& program, Database* db,
                    EvalStats* stats = nullptr,
                    const runtime::QueryGuard* guard = nullptr);

  bool initialized() const;

  /// Applies `delta` to the base relations (Database::ApplyDelta
  /// semantics) and incrementally repairs every derived relation. The
  /// returned AppliedDelta lists the net change per relation — base
  /// relations first in batch order, then derived relations in dependency
  /// (topological) order. Deltas may only target declared input
  /// relations. On error the view is poisoned (see header comment).
  Result<AppliedDelta> ApplyDelta(const DeltaBatch& delta,
                                  obs::IncrementalMetrics* metrics = nullptr,
                                  const runtime::QueryGuard* guard = nullptr);

  /// Cumulative counters across every ApplyDelta since Initialize.
  const obs::IncrementalMetrics& stats() const;

  /// The database this view maintains (nullptr before Initialize).
  Database* database() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace raqlet::engine

#endif  // RAQLET_ENGINE_DATALOG_INCREMENTAL_H_
