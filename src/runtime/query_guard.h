#ifndef RAQLET_RUNTIME_QUERY_GUARD_H_
#define RAQLET_RUNTIME_QUERY_GUARD_H_

// Cooperative execution guardrails: cancellation, wall-clock deadline and
// row/memory budgets for one query evaluation.
//
// A QueryGuard is owned by the caller (CLI, test, future raqletd session)
// and handed to an engine as the trailing `guard` parameter of one run
// call; no options struct carries it. Engines poll it at natural
// quiescence points — per fixpoint round, per CTE iteration, per
// batch/chunk, per clause, per BFS frontier — never mid-tuple, so a
// trip can only be observed where the engine's existing error paths
// already guarantee clean unwinding (pooled buffers reset, staged columns
// dropped, partial IDB state cleared on the next run).
//
// Cost discipline mirrors the obs layer's zero-cost-off rule:
//  * guard == nullptr (the default everywhere): no check at all.
//  * guard set but unarmed (no limit, never cancelled): Check() is one
//    relaxed atomic load.
//  * armed: Check() is one relaxed load on the sticky trip word plus, at
//    the amortized checkpoint granularity above, one steady_clock read
//    when a deadline is set.
//
// Determinism contract:
//  * The first terminal cause wins: the trip word is set once by CAS;
//    every subsequent Check()/AddRows()/AddBytes() on any thread returns
//    the same Status, so a ParallelFor seeing trips in several chunks and
//    RunSccDag's lowest-index-error discipline both report one cause.
//  * Row budgets trip deterministically: AddRows() is fed the engines'
//    deterministic tuple counters at round/iteration boundaries (the
//    graph engine: every 64 bindings a MATCH emits), so the same budget
//    trips in the same round at any thread count.
//  * Deadlines and Cancel() are wall-clock events; *when* they trip is
//    inherently timing-dependent, but the terminal code and the clean
//    post-trip state are not.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace raqlet::runtime {

class QueryGuard {
 public:
  QueryGuard() = default;

  // Guards are polled concurrently by pool workers; keep one per query
  // and do not copy it mid-run.
  QueryGuard(const QueryGuard&) = delete;
  QueryGuard& operator=(const QueryGuard&) = delete;

  // ---- configuration (set before handing the guard to a Run call) ----

  /// Trip with kDeadlineExceeded once `ms` milliseconds have elapsed from
  /// this call. ms <= 0 clears the deadline.
  void set_timeout_ms(int64_t ms) {
    if (ms <= 0) {
      has_deadline_ = false;
    } else {
      deadline_ = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(ms);
      has_deadline_ = true;
    }
    RecomputeArmed();
  }
  /// Trip with kResourceExhausted once the engines have derived more than
  /// `n` tuples (0 = unlimited). Counted via AddRows at deterministic
  /// checkpoints.
  void set_max_rows(size_t n) {
    max_rows_ = n;
    RecomputeArmed();
  }
  /// Trip with kResourceExhausted once tracked evaluation memory exceeds
  /// `n` bytes (0 = unlimited). Accounted via AddBytes with the
  /// Relation::MemoryBytes / staged-buffer byte counts the obs layer
  /// already maintains.
  void set_max_bytes(size_t n) {
    max_bytes_ = n;
    RecomputeArmed();
  }

  /// Request cancellation (kCancelled). Thread-safe, idempotent, callable
  /// while a query is running — that is the point.
  void Cancel() {
    armed_.store(true, std::memory_order_relaxed);
    Trip(StatusCode::kCancelled);
  }

  /// Re-arms the guard for another run: clears the trip, the cancellation
  /// and the row/byte progress. Limits (deadline excepted — re-set it)
  /// are kept.
  void Reset() {
    tripped_.store(0, std::memory_order_relaxed);
    rows_.store(0, std::memory_order_relaxed);
    bytes_.store(0, std::memory_order_relaxed);
    has_deadline_ = false;
    RecomputeArmed();
  }

  // ---- polling (engine side) ----

  /// Cheap checkpoint: cancellation + deadline. OK unless tripped.
  Status Check() const {
    if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
    return CheckSlow();
  }

  /// Deterministic budget checkpoint: account `delta` freshly derived
  /// tuples and trip once the total exceeds the row budget.
  Status AddRows(size_t delta) const {
    if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
    if (max_rows_ > 0) {
      size_t total = rows_.fetch_add(delta, std::memory_order_relaxed) + delta;
      if (total > max_rows_) Trip(StatusCode::kResourceExhausted);
    }
    return CheckSlow();
  }

  /// Accounts `delta` additional bytes of evaluation memory (relation
  /// growth + staged buffers) and trips past the byte budget.
  Status AddBytes(size_t delta) const {
    if (!armed_.load(std::memory_order_relaxed)) return Status::OK();
    if (max_bytes_ > 0) {
      size_t total =
          bytes_.fetch_add(delta, std::memory_order_relaxed) + delta;
      if (total > max_bytes_) Trip(StatusCode::kResourceExhausted);
    }
    return CheckSlow();
  }

  // ---- inspection ----

  bool tripped() const {
    return tripped_.load(std::memory_order_relaxed) != 0;
  }
  /// The sticky terminal cause (OK when not tripped).
  Status TripStatus() const;
  size_t rows() const { return rows_.load(std::memory_order_relaxed); }
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t max_rows() const { return max_rows_; }
  size_t max_bytes() const { return max_bytes_; }

 private:
  Status CheckSlow() const;
  /// Records the first terminal cause; later causes lose the CAS and the
  /// original sticks.
  void Trip(StatusCode code) const {
    int expected = 0;
    tripped_.compare_exchange_strong(expected, static_cast<int>(code),
                                     std::memory_order_relaxed,
                                     std::memory_order_relaxed);
  }
  void RecomputeArmed() {
    armed_.store(has_deadline_ || max_rows_ > 0 || max_bytes_ > 0 ||
                     tripped_.load(std::memory_order_relaxed) != 0,
                 std::memory_order_relaxed);
  }

  // Sticky trip word: 0 = running, else the StatusCode of the first cause.
  mutable std::atomic<int> tripped_{0};
  // Off-path gate: false means no limit is set and Cancel() never fired,
  // so every checkpoint is a single relaxed load.
  std::atomic<bool> armed_{false};
  mutable std::atomic<size_t> rows_{0};
  mutable std::atomic<size_t> bytes_{0};
  std::chrono::steady_clock::time_point deadline_{};
  bool has_deadline_ = false;
  size_t max_rows_ = 0;
  size_t max_bytes_ = 0;
};

}  // namespace raqlet::runtime

#endif  // RAQLET_RUNTIME_QUERY_GUARD_H_
