#ifndef RAQLET_E2EBENCH_HARNESS_H_
#define RAQLET_E2EBENCH_HARNESS_H_

// Workload-independent parts of the end-to-end benchmark: timing, the
// order-independent row digest the reference oracle compares through,
// percentiles and the latency-group gap check, op samples, and the fold of
// a trace capture into per-op layer self times.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/value.h"
#include "obs/trace.h"
#include "storage/relation.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Accumulates wall time spent in the benchmark's own reference oracle, so
/// it can be taken out of setup_s and ops_per_s.
class OracleClock {
 public:
  class Scope {
   public:
    explicit Scope(OracleClock* clock) : clock_(clock), start_(Clock::now()) {}
    ~Scope() { clock_->ms_ += MsSince(start_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    OracleClock* clock_;
    Clock::time_point start_;
  };
  double ms() const { return ms_; }

 private:
  double ms_ = 0;
};

/// Order-independent digest of a bag of rows: the row count plus two sums
/// of independent 64-bit row hashes. Two bags with equal digests are equal
/// except with probability about 2^-128; an expected set compared this way
/// also rejects a result holding a duplicate row.
struct RowDigest {
  uint64_t rows = 0;
  uint64_t sum_a = 0;
  uint64_t sum_b = 0;

  void Add(const raqlet::Tuple& row);
  void Remove(const raqlet::Tuple& row);
  bool operator==(const RowDigest& other) const {
    return rows == other.rows && sum_a == other.sum_a && sum_b == other.sum_b;
  }
  bool operator!=(const RowDigest& other) const { return !(*this == other); }
};

RowDigest DigestRows(const std::vector<raqlet::Tuple>& rows);
/// Order-sensitive hash of a row sequence (rows and their order).
uint64_t OrderedHash(const std::vector<raqlet::Tuple>& rows);
/// Digests a stored relation column-wise, without boxing rows.
RowDigest DigestRelation(const raqlet::Relation& relation);

/// Linear-interpolated percentile (q in [0, 1]) of unsorted values; 0 for
/// an empty input.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// One labelled latency sample. `group` names the population the sample
/// comes from (a template, a delta kind, an (op, config) pair): the gap
/// check reports a percentile that falls between two groups.
struct Sample {
  double ms = 0;
  std::string group;
};

/// Result of checking where a percentile of pooled samples falls.
struct GapCheck {
  bool on_gap = false;
  std::string detail;  // the two separated groups when on_gap
};

/// A percentile sits on a gap when its value lies outside the central 80%
/// (p10..p90) of every group: it then falls between two groups' latencies,
/// and a small shift in the group mix moves it from one to the other.
GapCheck CheckGap(const std::vector<Sample>& samples, double q);

/// Peak resident set size of this process in MiB.
double PeakRssMb();

// ---------------------------------------------------------------------------
// Trace folding
// ---------------------------------------------------------------------------

/// What the benchmark knows about one op it traced.
struct TracedOp {
  int64_t id = 0;
  std::string frontend;  // "cypher" | "gql" | "sqlpgq" | "" (delta ops)
  std::string engine;    // "datalog" | "sql" | "graph" | "" (delta ops)
  int threads = 1;
  bool delta = false;
};

/// Per-op layer times folded out of one trace capture. Times are self
/// times in milliseconds: a span's duration minus the child spans nested
/// in it on the same thread.
struct OpLayers {
  TracedOp op;
  double wall_ms = 0;                    // the bench.op span
  std::map<std::string, double> self_ms; // layer name -> self time
  double engine_span_ms = 0;  // datalog.run / sql.run / graph.run duration
  double facade_ms = 0;       // bench.run duration (the facade Run* call)
  double pool_task_ms = 0;    // sum of pool.task durations, all threads
  double recompute_ms = 0;    // datalog.* self time inside a delta op
};

/// Maps a program or benchmark span name (index suffix stripped) to the
/// layer it is charged to; the frontend picks the parse layer.
std::string LayerOfSpan(const std::string& base_name,
                        const std::string& frontend);

/// Folds the events of one capture. `ops` lists the ops whose bench.op
/// spans are in `events` (matched by the "bench.op <id>" index). Events on
/// any thread that start inside an op's bench.op interval belong to it.
std::vector<OpLayers> FoldTrace(const std::vector<raqlet::obs::TraceEvent>& events,
                                const std::vector<TracedOp>& ops);

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Shortest decimal form that reads back to the same double.
std::string FormatNumber(double value);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace e2e

#endif  // RAQLET_E2EBENCH_HARNESS_H_
