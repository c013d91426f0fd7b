#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "engine/datalog/engine.h"
#include "ldbc/ldbc.h"
#include "obs/trace.h"
#include "raqlet/compiler.h"

namespace e2e {
namespace {

using raqlet::CompiledQuery;
using raqlet::CompileOptions;
using raqlet::Database;
using raqlet::DeltaBatch;
using raqlet::Relation;
using raqlet::RelationDelta;
using raqlet::Result;
using raqlet::Status;
using raqlet::Tuple;
using raqlet::Value;
using raqlet::engine::ResultTable;
namespace obs = raqlet::obs;
namespace engine = raqlet::engine;

// ---------------------------------------------------------------------------
// Engine configs, frontends, op kinds
// ---------------------------------------------------------------------------

enum class Engine { kDatalog, kSql, kGraph };

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kDatalog:
      return "datalog";
    case Engine::kSql:
      return "sql";
    default:
      return "graph";
  }
}

struct EngineConfig {
  const char* name;    // also the prefix of the config's p50 metric
  Engine engine;
  int threads;
};

// Run in this order inside a slot, so each 4-thread run directly follows
// the 1-thread run it is cross-checked against.
constexpr EngineConfig kConfigs[] = {
    {"datalog", Engine::kDatalog, 1}, {"datalog_4t", Engine::kDatalog, 4},
    {"sql", Engine::kSql, 1},         {"sql_4t", Engine::kSql, 4},
    {"graph", Engine::kGraph, 1},
};
constexpr int kNumConfigs = static_cast<int>(std::size(kConfigs));

constexpr int kNumFrontends = 3;
constexpr const char* kFrontendNames[kNumFrontends] = {"cypher", "gql",
                                                       "sqlpgq"};

/// One query in the three source languages (same rows by construction).
struct QueryTemplate {
  const char* name;
  std::string text[kNumFrontends];
};

enum class OpKind { kRead, kInsert, kDelete, kMixed };

struct OpRecord {
  OpKind kind = OpKind::kRead;
  int config = -1;    // reads only
  std::string group;  // template (reads) or delta step (writes)
  double op_ms = 0;
  double compile_ms = 0;
  double run_ms = 0;  // the Run* call (reads) or ApplyDelta (writes)
  bool rebuilt_store = false;  // a graph read that first rebuilt the store
  bool traced = false;
};

std::mt19937_64 CycleRng(uint64_t seed, uint64_t cycle) {
  std::seed_seq seq{static_cast<uint32_t>(seed), static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(cycle), 0x5eedu};
  return std::mt19937_64(seq);
}

/// The digest of an op's expected rows, and one of the rows, which the
/// self-test corrupts.
struct Expected {
  RowDigest digest;
  std::optional<Tuple> some_row;

  void Add(const Tuple& row) {
    digest.Add(row);
    if (!some_row) some_row = row;
  }
};

// ---------------------------------------------------------------------------
// Runner: op bookkeeping shared by every workload
// ---------------------------------------------------------------------------

class Runner {
 public:
  explicit Runner(int64_t corrupt_op) : corrupt_op_(corrupt_op) {}

  int64_t BeginOp() {
    ++attempted;
    return next_op_++;
  }
  bool corrupts(int64_t op) const { return op == corrupt_op_; }

  void Fail(int64_t op, const std::string& what) {
    ++failed;
    if (failed <= 20) std::fprintf(stderr, "e2ebench: op %lld failed: %s\n",
                                   static_cast<long long>(op), what.c_str());
  }

  void Record(const OpRecord& record) {
    if (!recording) return;
    records.push_back(record);
    records.back().traced = traced;
  }

  /// Warm-up cycles log every op's work counters; set-ups from scratch
  /// with the same seed must log identical lines.
  void LogCounters(const std::string& op, const std::vector<uint64_t>& counters) {
    if (!warmup) return;
    std::string line = op + ":";
    for (uint64_t c : counters) line += " " + std::to_string(c);
    counter_log.push_back(std::move(line));
  }
  void Count(const std::string& name, double value) {
    if (warmup) counts[name] += value;
  }

  bool warmup = false;     // attach QueryMetrics sinks, log counters
  bool recording = false;  // timed loop: keep OpRecords
  bool traced = false;     // a TraceSession is installed
  std::vector<OpRecord> records;
  std::vector<TracedOp> traced_ops;
  std::vector<std::string> counter_log;
  std::map<std::string, double> counts;
  OracleClock oracle;
  uint64_t attempted = 0;
  uint64_t failed = 0;

 private:
  int64_t corrupt_op_;
  int64_t next_op_ = 0;
};

// Deterministic counters of one engine run: the public stats structs plus,
// when a QueryMetrics sink was attached, its counts. Left out are timings
// and the SqlStepMetrics fields that depend on how the leading scan was
// chunked across threads: batches (documented in obs/metrics.h), and
// rows_in and probes, which count one seed row per chunk on a plan's
// leading step.
std::vector<uint64_t> DatalogCounters(const engine::EvalStats& s,
                                      const obs::QueryMetrics* m) {
  std::vector<uint64_t> out = {s.fixpoint_rounds, s.tuples_inserted,
                               s.rule_evaluations, s.tuples_considered};
  if (m == nullptr) return out;
  for (const obs::SccMetrics& scc : m->datalog.sccs) {
    out.insert(out.end(), {scc.rounds, scc.rule_evaluations,
                           scc.tuples_considered, scc.tuples_inserted});
    out.insert(out.end(), scc.round_delta_sizes.begin(),
               scc.round_delta_sizes.end());
  }
  return out;
}

std::vector<uint64_t> SqlCounters(const engine::SqlStats& s,
                                  const obs::QueryMetrics* m) {
  std::vector<uint64_t> out = {s.recursive_iterations, s.rows_materialized,
                               s.rows_scanned};
  if (m == nullptr) return out;
  for (const obs::SqlCteMetrics& cte : m->sql.ctes) {
    out.insert(out.end(), {cte.iterations, cte.rows, cte.dedup_attempts,
                           cte.dedup_inserted});
    for (const obs::SqlStepMetrics& step : cte.steps) {
      out.insert(out.end(), {step.rows_matched, step.rows_out});
    }
  }
  return out;
}

std::vector<uint64_t> GraphCounters(const engine::GraphStats& s,
                                    const obs::QueryMetrics* m) {
  std::vector<uint64_t> out = {s.rows_expanded, s.bfs_visits,
                               s.closure_cache_hits, s.closure_cache_misses};
  if (m == nullptr) return out;
  for (const obs::GraphClauseMetrics& clause : m->graph.clauses) {
    out.push_back(clause.rows_after);
  }
  out.push_back(m->graph.frontier_peak);
  return out;
}

std::vector<uint64_t> IncrementalCounters(const obs::IncrementalMetrics& m) {
  return {m.base_added,      m.base_removed,    m.sccs_touched,
          m.sccs_skipped,    m.rounds,          m.tuples_inserted,
          m.tuples_deleted,  m.overdeleted,     m.rederived,
          m.support_updates, m.recomputed_sccs, m.dred_bailouts};
}

// ---------------------------------------------------------------------------
// Workload base: one read op, one delta op, one template slot
// ---------------------------------------------------------------------------

struct SetupTimes {
  double generate_ms = 0;
  double store_ms = 0;
  double view_init_ms = 0;
  double warmup_ms = 0;
  double total_ms = 0;
};

/// What a read returned, kept to cross-check 1 vs 4 threads.
struct ReadOutput {
  int64_t op = -1;
  bool ok = false;
  uint64_t rows_hash = 0;  // OrderedHash of the result rows
  std::vector<uint64_t> counters;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the data and builds the graph store and the maintained
  /// view, from scratch. The warm-up cycle is run by the caller.
  virtual Status Build(uint64_t seed, Runner& runner, SetupTimes* times) = 0;
  /// Runs cycle `cycle`. Its parameters depend only on (seed, cycle).
  virtual void RunCycle(uint64_t cycle, Runner& runner) = 0;
  /// Cycles per period: every op kind runs once per period, and a period
  /// that starts on the base data ends on it. Warm-up runs one period.
  virtual uint64_t Period() const = 0;
  /// From-scratch set-ups timed for setup_s (the median is reported).
  virtual int SetupRepeats() const = 0;

  /// Median wall time of evaluating the maintained view's program from
  /// scratch on a fresh copy of the base data (incremental.speedup_vs_full).
  double FullEvalMs() {
    std::vector<double> runs;
    for (int i = 0; i < 3; ++i) {
      Database db;
      if (!compiler_.CreateEdbs(&db).ok() || !LoadBase(&db).ok()) return 0;
      engine::DatalogEngine eng;
      const auto t0 = Clock::now();
      if (!eng.Run(view_program_, &db).ok()) return 0;
      runs.push_back(MsSince(t0));
    }
    return Median(runs);
  }

 protected:
  /// Fills a database holding the schema's EDBs with this run's base data
  /// (deterministic in the seed given to Build).
  virtual Status LoadBase(Database* db) = 0;

  Status BuildCommon(const char* schema, const char* view_program,
                     SetupTimes* times) {
    RAQLET_RETURN_IF_ERROR(compiler_.LoadPgSchema(schema));
    {
      const auto t0 = Clock::now();
      RAQLET_RETURN_IF_ERROR(compiler_.CreateEdbs(&db_));
      RAQLET_RETURN_IF_ERROR(LoadBase(&db_));
      times->generate_ms = MsSince(t0);
    }
    {
      const auto t0 = Clock::now();
      RAQLET_ASSIGN_OR_RETURN(engine::GraphStore store,
                              compiler_.BuildGraphStore(db_));
      store_ = std::make_unique<engine::GraphStore>(std::move(store));
      times->store_ms = MsSince(t0);
    }
    {
      const auto t0 = Clock::now();
      RAQLET_ASSIGN_OR_RETURN(view_program_,
                              compiler_.CompileDatalog(view_program));
      RAQLET_ASSIGN_OR_RETURN(view_,
                              compiler_.BeginIncremental(view_program_, &db_));
      times->view_init_ms = MsSince(t0);
    }
    return Status::OK();
  }

  Result<CompiledQuery> Compile(int frontend, const std::string& text,
                                const CompileOptions& options) const {
    switch (frontend) {
      case 0:
        return compiler_.CompileCypher(text, options);
      case 1:
        return compiler_.CompileGql(text, options);
      default:
        return compiler_.CompileSqlPgq(text, options);
    }
  }

  /// One read op: compile the template's text in `frontend` (to optimized
  /// DLIR and on to SQL text), run it on `config`, check the rows.
  ReadOutput RunRead(Runner& runner, const QueryTemplate& tmpl, int frontend,
                     int config, const CompileOptions& options,
                     const Expected& expected) {
    const EngineConfig& cfg = kConfigs[config];
    const int64_t id = runner.BeginOp();
    if (runner.traced) {
      runner.traced_ops.push_back({id, kFrontendNames[frontend],
                                   EngineName(cfg.engine), cfg.threads, false});
    }
    obs::QueryMetrics metrics;
    obs::QueryMetrics* sink = runner.warmup ? &metrics : nullptr;
    OpRecord record;
    record.config = config;
    record.group = tmpl.name;
    ReadOutput out;
    out.op = id;
    std::optional<Result<ResultTable>> result;
    std::optional<Result<CompiledQuery>> unit;
    engine::EvalStats eval_stats;
    engine::SqlStats sql_stats;
    engine::GraphStats graph_stats;
    const auto op_start = Clock::now();
    {
      obs::TraceScope op_span("bench.op", id);
      {
        obs::TraceScope span("bench.compile");
        const auto t0 = Clock::now();
        CompileOptions opts = options;
        opts.opt_level = 2;
        unit.emplace(Compile(frontend, tmpl.text[frontend], opts));
        if (unit->ok()) {
          obs::TraceScope emit("sqir.emit");
          Result<std::string> sql = compiler_.EmitSql((*unit)->optimized);
          if (!sql.ok()) unit.emplace(sql.status());
        }
        record.compile_ms = MsSince(t0);
      }
      if (!unit->ok()) {
        result.emplace(unit->status());
      } else {
        if (cfg.engine == Engine::kGraph && store_stale_) {
          obs::TraceScope span("bench.store");
          record.rebuilt_store = true;
          Result<engine::GraphStore> store = compiler_.BuildGraphStore(db_);
          if (store.ok()) {
            store_ = std::make_unique<engine::GraphStore>(std::move(store).value());
            store_stale_ = false;
          }
        }
        obs::TraceScope span("bench.run");
        const auto t0 = Clock::now();
        const CompiledQuery& q = unit->value();
        switch (cfg.engine) {
          case Engine::kDatalog: {
            engine::EvalOptions eval;
            eval.num_threads = cfg.threads;
            result.emplace(compiler_.RunOnDatalog(q.optimized, &db_,
                                                  &eval_stats, eval, sink));
            break;
          }
          case Engine::kSql:
            result.emplace(compiler_.RunOnSql(
                q.optimized, &db_, engine::SqlMode::kVectorized, &sql_stats,
                cfg.threads, sink));
            break;
          case Engine::kGraph:
            result.emplace(compiler_.RunOnGraph(q.pgir, *store_, &db_,
                                                &graph_stats, {}, sink));
            break;
        }
        record.run_ms = MsSince(t0);
      }
    }
    record.op_ms = MsSince(op_start);
    runner.Record(record);

    OracleClock::Scope oracle(&runner.oracle);
    if (!result->ok()) {
      runner.Fail(id, std::string(tmpl.name) + " on " + cfg.name + ": " +
                          result->status().ToString());
      return out;
    }
    // Counters are logged before the row check, so a wrong result fails
    // only its own op and not the set-up-to-set-up counter comparison.
    const CompiledQuery& q = unit->value();
    switch (cfg.engine) {
      case Engine::kDatalog:
        out.counters = DatalogCounters(eval_stats, sink);
        break;
      case Engine::kSql:
        out.counters = SqlCounters(sql_stats, sink);
        break;
      case Engine::kGraph:
        out.counters = GraphCounters(graph_stats, sink);
        break;
    }
    runner.LogCounters(std::string(tmpl.name) + "/" + cfg.name, out.counters);
    runner.Count("pgir.dlir_rules", static_cast<double>(q.dlir.rules.size()));
    runner.Count("opt.rules", static_cast<double>(q.optimized.rules.size()));
    if (config == 0) {
      runner.Count("datalog.rounds", static_cast<double>(eval_stats.fixpoint_rounds));
      runner.Count("datalog.tuples_considered",
                   static_cast<double>(eval_stats.tuples_considered));
      runner.Count("datalog.tuples_inserted",
                   static_cast<double>(eval_stats.tuples_inserted));
      if (sink != nullptr) {
        size_t rows = 0;
        for (const obs::RelationMemory& rel : metrics.memory) rows += rel.rows;
        runner.counts["storage.bytes"] = static_cast<double>(metrics.TotalMemoryBytes());
        runner.counts["storage.rows"] = static_cast<double>(rows);
      }
    } else if (config == 2) {
      runner.Count("sql.iterations",
                   static_cast<double>(sql_stats.recursive_iterations));
      runner.Count("sql.rows_scanned", static_cast<double>(sql_stats.rows_scanned));
      for (const obs::SqlCteMetrics& cte : metrics.sql.ctes) {
        runner.Count("sql.dedup_attempts", static_cast<double>(cte.dedup_attempts));
        runner.Count("sql.dedup_inserted", static_cast<double>(cte.dedup_inserted));
      }
    } else if (config == 4) {
      runner.Count("graph.closure_misses",
                   static_cast<double>(graph_stats.closure_cache_misses));
      runner.Count("graph.closure_hits",
                   static_cast<double>(graph_stats.closure_cache_hits));
      runner.Count("graph.bfs_visits", static_cast<double>(graph_stats.bfs_visits));
    }

    RowDigest want = expected.digest;
    if (runner.corrupts(id) && expected.some_row) {
      Tuple corrupted = *expected.some_row;
      corrupted[0] = Value::Number(-1);
      want.Remove(*expected.some_row);
      want.Add(corrupted);
    }
    if (DigestRows((*result)->rows) != want) {
      runner.Fail(id, std::string(tmpl.name) + " via " +
                          kFrontendNames[frontend] + " on " + cfg.name +
                          ": " + std::to_string((*result)->rows.size()) +
                          " rows differ from the " +
                          std::to_string(want.rows) + " expected");
      return out;
    }
    out.ok = true;
    out.rows_hash = OrderedHash((*result)->rows);
    return out;
  }

  /// One template slot: the same query and parameters on all five configs,
  /// with the 1- and 4-thread runs of each paradigm cross-checked for
  /// identical rows and counters. The source language rotates per
  /// paradigm, so both runs of a pair compile the same text and the check
  /// compares thread counts only.
  void RunSlot(Runner& runner, const QueryTemplate& tmpl,
               const CompileOptions& options, const Expected& expected,
               uint64_t* op_in_cycle) {
    ReadOutput serial;
    int frontend = 0;
    for (int config = 0; config < kNumConfigs; ++config) {
      if (kConfigs[config].threads == 1) {
        frontend = static_cast<int>((*op_in_cycle)++ % kNumFrontends);
      }
      ReadOutput out = RunRead(runner, tmpl, frontend, config, options, expected);
      if (kConfigs[config].threads == 1) {
        serial = std::move(out);
        continue;
      }
      OracleClock::Scope oracle(&runner.oracle);
      if (serial.ok && out.ok &&
          (serial.rows_hash != out.rows_hash ||
           serial.counters != out.counters)) {
        runner.Fail(out.op,
                    std::string(tmpl.name) + ": " + kConfigs[config].name +
                        " rows or work counters differ from 1 thread");
      }
    }
  }

  using ViewDigests = std::vector<std::pair<std::string, RowDigest>>;

  /// One write op: a Compiler::ApplyDelta on the maintained view, then the
  /// view's relations checked against `expect()`, the oracle's closure of
  /// the base after the delta.
  void RunDelta(Runner& runner, OpKind kind, const char* step,
                std::vector<RelationDelta> relations,
                const std::function<ViewDigests()>& expect) {
    DeltaBatch batch;
    batch.relations = std::move(relations);
    ViewDigests expected;
    {
      OracleClock::Scope oracle(&runner.oracle);
      expected = expect();
    }
    const int64_t id = runner.BeginOp();
    if (runner.traced) runner.traced_ops.push_back({id, "", "", 1, true});
    obs::QueryMetrics metrics;
    obs::QueryMetrics* sink = runner.warmup ? &metrics : nullptr;
    OpRecord record;
    record.kind = kind;
    record.group = step;
    std::optional<Result<raqlet::AppliedDelta>> applied;
    const auto op_start = Clock::now();
    {
      obs::TraceScope op_span("bench.op", id);
      obs::TraceScope span("bench.delta");
      applied.emplace(compiler_.ApplyDelta(view_.get(), batch, sink));
    }
    record.op_ms = record.run_ms = MsSince(op_start);
    runner.Record(record);
    // The graph store indexes node and edge relations by row, so a delta
    // to one makes it stale; the next graph read rebuilds it.
    const raqlet::schema::DlSchema& schema = compiler_.dl_schema();
    for (const RelationDelta& rel : batch.relations) {
      for (const auto& [label, info] : schema.nodes_by_label) {
        if (info.relation == rel.relation) store_stale_ = true;
      }
      for (const auto& [label, info] : schema.edges_by_label) {
        if (info.relation == rel.relation) store_stale_ = true;
      }
    }

    OracleClock::Scope oracle(&runner.oracle);
    if (!applied->ok()) {
      runner.Fail(id, std::string(step) + ": " + applied->status().ToString());
      return;
    }
    if (sink != nullptr) {
      const obs::IncrementalMetrics& m = metrics.incremental;
      runner.LogCounters(step, IncrementalCounters(m));
      runner.Count("incremental.bailouts", static_cast<double>(m.dred_bailouts));
      runner.Count("incremental.overdeleted", static_cast<double>(m.overdeleted));
      runner.Count("incremental.rederived", static_cast<double>(m.rederived));
      runner.Count("incremental.tuples_inserted",
                   static_cast<double>(m.tuples_inserted));
    }
    for (const auto& [name, digest] : expected) {
      Result<Relation*> rel = db_.GetRelation(name);
      if (!rel.ok() || DigestRelation(**rel) != digest) {
        runner.Fail(id, std::string(step) + ": maintained " + name +
                            " differs from the closure of the base");
        return;
      }
    }
  }

  raqlet::Compiler compiler_;
  Database db_;
  std::unique_ptr<engine::GraphStore> store_;
  bool store_stale_ = false;  // set when a delta changed a graph relation
  raqlet::dlir::Program view_program_;
  std::unique_ptr<engine::IncrementalView> view_;
  uint64_t seed_ = 0;
};

// ---------------------------------------------------------------------------
// Reference helpers
// ---------------------------------------------------------------------------

using Adjacency = std::unordered_map<int64_t, std::vector<int64_t>>;

/// Nodes reachable from `start` over 1..max_hops edges (max_hops < 0:
/// unbounded), by breadth-first search.
std::vector<int64_t> Reachable(const Adjacency& adj, int64_t start,
                               int max_hops) {
  std::unordered_set<int64_t> seen;
  std::vector<int64_t> out;
  std::vector<int64_t> frontier = {start};
  for (int depth = 1; !frontier.empty() && (max_hops < 0 || depth <= max_hops);
       ++depth) {
    std::vector<int64_t> next;
    for (int64_t node : frontier) {
      auto it = adj.find(node);
      if (it == adj.end()) continue;
      for (int64_t succ : it->second) {
        if (seen.insert(succ).second) {
          out.push_back(succ);
          next.push_back(succ);
        }
      }
    }
    frontier = std::move(next);
  }
  return out;
}

/// All (a, b) with b reachable from a over one or more edges.
Expected Closure(const Adjacency& adj, const std::vector<int64_t>& nodes) {
  Expected out;
  for (int64_t a : nodes) {
    for (int64_t b : Reachable(adj, a, -1)) {
      out.Add({Value::Number(a), Value::Number(b)});
    }
  }
  return out;
}

Status ColumnIndex(const Relation& rel, const char* column, int* out) {
  *out = rel.schema().ColumnIndex(column);
  if (*out < 0) {
    return Status::NotFound(rel.schema().name + " has no column " + column);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// SNB workloads (ldbc-interactive, view-churn)
// ---------------------------------------------------------------------------

constexpr double kScaleFactor = 0.3;

const QueryTemplate& Sq1() {
  static const QueryTemplate t = {
      "SQ1",
      {raqlet::ldbc::ShortQuery1(),
       R"(
MATCH (n:Person)-[:IS_LOCATED_IN]->(p:City)
FILTER n.id = $personId
RETURN DISTINCT n.firstName AS firstName, n.lastName AS lastName,
  n.birthday AS birthday, n.locationIP AS locationIP,
  n.browserUsed AS browserUsed, p.id AS cityId, n.gender AS gender,
  n.creationDate AS creationDate
)",
       R"(
SELECT DISTINCT * FROM GRAPH_TABLE (snb,
  MATCH (n IS Person WHERE n.id = $personId)-[IS isLocatedIn]->(p IS City)
  COLUMNS (n.firstName AS firstName, n.lastName AS lastName,
    n.birthday AS birthday, n.locationIP AS locationIP,
    n.browserUsed AS browserUsed, p.id AS cityId, n.gender AS gender,
    n.creationDate AS creationDate)
)
)"}};
  return t;
}

const QueryTemplate& Cq2() {
  static const QueryTemplate t = {
      "CQ2",
      {raqlet::ldbc::ComplexQuery2(),
       R"(
MATCH (p:Person)-[:KNOWS]-(friend:Person)<-[:HAS_CREATOR]-(m:Message)
FILTER p.id = $personId AND m.creationDate <= $maxDate
RETURN DISTINCT friend.id AS personId, friend.firstName AS personFirstName,
  friend.lastName AS personLastName, m.id AS messageId,
  m.content AS messageContent, m.creationDate AS messageCreationDate
)",
       R"(
SELECT DISTINCT * FROM GRAPH_TABLE (snb,
  MATCH (p IS Person WHERE p.id = $personId)-[IS knows]-(friend IS Person)
        <-[IS hasCreator]-(m IS Message)
  WHERE m.creationDate <= $maxDate
  COLUMNS (friend.id AS personId, friend.firstName AS personFirstName,
    friend.lastName AS personLastName, m.id AS messageId,
    m.content AS messageContent, m.creationDate AS messageCreationDate)
)
)"}};
  return t;
}

const QueryTemplate& Reach() {
  static const QueryTemplate t = {
      "REACH",
      {raqlet::ldbc::ReachabilityQuery(),
       R"(
MATCH (p:Person)-[:KNOWS*]->(q:Person)
FILTER p.id = $personId
RETURN DISTINCT q.id AS personId
)",
       R"(
SELECT DISTINCT * FROM GRAPH_TABLE (snb,
  MATCH (p IS Person WHERE p.id = $personId)-[IS knows]->{1,}(q IS Person)
  COLUMNS (q.id AS personId)
)
)"}};
  return t;
}

const QueryTemplate& Hops3() {
  static const QueryTemplate t = {
      "HOPS3",
      {raqlet::ldbc::FriendsWithinThreeHops(),
       R"(
MATCH (p:Person)-[:KNOWS*1..3]->(q:Person)
FILTER p.id = $personId
RETURN DISTINCT q.id AS personId
)",
       R"(
SELECT DISTINCT * FROM GRAPH_TABLE (snb,
  MATCH (p IS Person WHERE p.id = $personId)-[IS knows]->{1,3}(q IS Person)
  COLUMNS (q.id AS personId)
)
)"}};
  return t;
}

CompileOptions PersonParams(int64_t person) {
  CompileOptions options;
  options.parameters["personId"] = raqlet::dlir::Constant::Number(person);
  options.parameters["maxDate"] =
      raqlet::dlir::Constant::Number(raqlet::ldbc::MidCreationDate());
  return options;
}

/// The SNB generator's base relations, mirrored for the oracle, plus the
/// KNOWS edges as the deltas have left them. The data set is the
/// generator's default (seed 42) for every workload seed, as LDBC fixes
/// the data per scale factor; the workload seed draws the parameters and
/// deltas.
class SnbWorkload : public Workload {
 protected:
  Status LoadBase(Database* db) override {
    raqlet::ldbc::GeneratorOptions gen;
    gen.scale_factor = kScaleFactor;
    RAQLET_RETURN_IF_ERROR(
        raqlet::ldbc::GenerateSnbData(compiler_.dl_schema(), db, gen));
    return LoadExtra(db);
  }
  virtual Status LoadExtra(Database*) { return Status::OK(); }

  /// Reads the generated base relations into the oracle's mirror.
  Status MirrorBase() {
    RAQLET_ASSIGN_OR_RETURN(Relation * person, db_.GetRelation("Person"));
    int id, first, last, birthday, ip, browser, gender, created;
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*person, "id", &id));
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*person, "firstName", &first));
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*person, "lastName", &last));
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*person, "birthday", &birthday));
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*person, "locationIP", &ip));
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*person, "browserUsed", &browser));
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*person, "gender", &gender));
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*person, "creationDate", &created));
    for (const Tuple& row : person->MaterializeRows()) {
      persons_[row[id].AsNumber()] = {row[first],   row[last],
                                      row[birthday], row[ip],
                                      row[browser], Value(),
                                      row[gender],  row[created]};
    }
    person_ids_.clear();
    for (const auto& [pid, row] : persons_) person_ids_.push_back(pid);
    std::sort(person_ids_.begin(), person_ids_.end());

    RAQLET_ASSIGN_OR_RETURN(Relation * located,
                            db_.GetRelation("Person_IS_LOCATED_IN_City"));
    for (const Tuple& row : located->MaterializeRows()) {
      persons_[row[0].AsNumber()][5] = row[1];
    }
    RAQLET_ASSIGN_OR_RETURN(Relation * message, db_.GetRelation("Message"));
    int m_id, m_content, m_date;
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*message, "id", &m_id));
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*message, "content", &m_content));
    RAQLET_RETURN_IF_ERROR(ColumnIndex(*message, "creationDate", &m_date));
    for (const Tuple& row : message->MaterializeRows()) {
      messages_[row[m_id].AsNumber()] = {row[m_content], row[m_date]};
    }
    RAQLET_ASSIGN_OR_RETURN(Relation * creator,
                            db_.GetRelation("Message_HAS_CREATOR_Person"));
    for (const Tuple& row : creator->MaterializeRows()) {
      creator_of_[row[0].AsNumber()] = row[1].AsNumber();
      messages_by_[row[1].AsNumber()].push_back(row[0].AsNumber());
    }
    RAQLET_ASSIGN_OR_RETURN(Relation * knows,
                            db_.GetRelation("Person_KNOWS_Person"));
    base_knows_ = knows->MaterializeRows();
    SetKnows(base_knows_);

    // Parameter curation, as LDBC does it: $personId is drawn from the
    // persons whose KNOWS degree lies between the quartiles, so one
    // template's latency stays one group instead of spanning hubs and
    // leaves.
    std::vector<size_t> degrees;
    auto degree = [&](int64_t pid) {
      auto it = undirected_.find(pid);
      return it == undirected_.end() ? size_t{0} : it->second.size();
    };
    for (int64_t pid : person_ids_) degrees.push_back(degree(pid));
    std::sort(degrees.begin(), degrees.end());
    const size_t lo = degrees[degrees.size() / 4];
    const size_t hi = degrees[degrees.size() * 3 / 4];
    param_ids_.clear();
    for (int64_t pid : person_ids_) {
      if (degree(pid) >= lo && degree(pid) <= hi) param_ids_.push_back(pid);
    }
    std::mt19937_64 rng(seed_ ^ 0x706172616d73ULL);
    std::shuffle(param_ids_.begin(), param_ids_.end(), rng);
    return Status::OK();
  }

  void SetKnows(const std::vector<Tuple>& knows) {
    knows_ = knows;
    out_.clear();
    undirected_.clear();
    for (const Tuple& row : knows_) {
      const int64_t a = row[0].AsNumber();
      const int64_t b = row[1].AsNumber();
      out_[a].push_back(b);
      undirected_[a].insert(b);
      undirected_[b].insert(a);
    }
  }

  Expected ExpectSq1(int64_t pid) const {
    Expected out;
    out.Add(persons_.at(pid));
    return out;
  }

  Expected ExpectCq2(int64_t pid) const {
    Expected out;
    const int64_t max_date = raqlet::ldbc::MidCreationDate();
    auto friends = undirected_.find(pid);
    if (friends == undirected_.end()) return out;
    for (int64_t f : friends->second) {
      auto msgs = messages_by_.find(f);
      if (msgs == messages_by_.end()) continue;
      const Tuple& person = persons_.at(f);
      for (int64_t m : msgs->second) {
        const Tuple& msg = messages_.at(m);
        if (msg[1].AsNumber() > max_date) continue;
        out.Add({Value::Number(f), person[0], person[1], Value::Number(m),
                 msg[0], msg[1]});
      }
    }
    return out;
  }

  Expected ExpectReach(int64_t pid, int max_hops) const {
    Expected out;
    for (int64_t q : Reachable(out_, pid, max_hops)) out.Add({Value::Number(q)});
    return out;
  }

  /// Any person (delta endpoints).
  int64_t PickPerson(std::mt19937_64& rng) const {
    return person_ids_[std::uniform_int_distribution<size_t>(0, person_ids_.size() - 1)(rng)];
  }
  /// The curated $personId of read slot `slot` (of `slots` per cycle) in
  /// `cycle`. Each slot walks the seed's shuffle of the curated pool from
  /// its own offset, one person per cycle, so a run draws every curated
  /// person about equally often and a template's median does not move with
  /// which persons a seed happens to draw.
  int64_t SlotParam(uint64_t cycle, size_t slot, size_t slots) const {
    const size_t n = param_ids_.size();
    return param_ids_[(cycle + slot * n / slots) % n];
  }

  // Person id -> SQ1 row (firstName, lastName, birthday, locationIP,
  // browserUsed, cityId, gender, creationDate).
  std::unordered_map<int64_t, Tuple> persons_;
  std::vector<int64_t> person_ids_;
  std::vector<int64_t> param_ids_;  // curated $personId pool, seed-shuffled
  std::unordered_map<int64_t, Tuple> messages_;  // id -> (content, date)
  std::unordered_map<int64_t, int64_t> creator_of_;
  std::unordered_map<int64_t, std::vector<int64_t>> messages_by_;
  std::vector<Tuple> base_knows_;
  std::vector<Tuple> knows_;  // current KNOWS rows
  Adjacency out_;             // directed KNOWS adjacency of knows_
  std::unordered_map<int64_t, std::set<int64_t>> undirected_;
};

/// Short bound LDBC queries: compile and per-query engine overhead are the
/// work. Writes are LDBC-style "add like" updates to a counting view that
/// no read touches.
class LdbcInteractive : public SnbWorkload {
 public:
  uint64_t Period() const override { return 4; }
  int SetupRepeats() const override { return 11; }

  Status Build(uint64_t seed, Runner& runner, SetupTimes* times) override {
    seed_ = seed;
    RAQLET_RETURN_IF_ERROR(
        BuildCommon(raqlet::ldbc::SnbSchema(), kLikesView, times));
    OracleClock::Scope oracle(&runner.oracle);
    RAQLET_RETURN_IF_ERROR(MirrorBase());
    RAQLET_ASSIGN_OR_RETURN(Relation * likes,
                            db_.GetRelation("Person_LIKES_Message"));
    base_likes_ = likes->MaterializeRows();
    base_view_ = ExpectFriendLikes({}, {});
    return Status::OK();
  }

  void RunCycle(uint64_t cycle, Runner& runner) override {
    uint64_t op_in_cycle = cycle;
    const QueryTemplate* slots[] = {&Sq1(), &Sq1(), &Cq2(), &Reach(), &Hops3()};
    for (size_t slot = 0; slot < std::size(slots); ++slot) {
      const QueryTemplate* tmpl = slots[slot];
      const int64_t pid = SlotParam(cycle, slot, std::size(slots));
      Expected expected;
      {
        OracleClock::Scope oracle(&runner.oracle);
        if (tmpl == &Sq1()) {
          expected = ExpectSq1(pid);
        } else if (tmpl == &Cq2()) {
          expected = ExpectCq2(pid);
        } else {
          expected = ExpectReach(pid, tmpl == &Reach() ? -1 : 3);
        }
      }
      RunSlot(runner, *tmpl, PersonParams(pid), expected, &op_in_cycle);
    }

    // One write per cycle, in periods of four: 10 new likes, their
    // removal, then 5 likes out and 5 in, and that churn's exact inverse.
    std::mt19937_64 wrng = CycleRng(seed_ ^ 0x6c696b6573ULL, cycle / 4);
    std::vector<Tuple> fresh = FreshLikes(wrng, cycle / 4, 15);
    std::vector<Tuple> added(fresh.begin(), fresh.begin() + 10);
    std::vector<Tuple> churn_in(fresh.begin() + 10, fresh.end());
    std::vector<Tuple> churn_out;
    std::sample(base_likes_.begin(), base_likes_.end(),
                std::back_inserter(churn_out), 5, wrng);
    const char* rel = "Person_LIKES_Message";
    switch (cycle % 4) {
      case 0:
        Delta(runner, OpKind::kInsert, "insert", {{rel, added, {}}}, added, {});
        break;
      case 1:
        Delta(runner, OpKind::kDelete, "delete", {{rel, {}, added}}, {}, {});
        break;
      case 2:
        Delta(runner, OpKind::kMixed, "churn", {{rel, churn_in, churn_out}},
              churn_in, churn_out);
        break;
      default:
        Delta(runner, OpKind::kMixed, "inverse", {{rel, churn_out, churn_in}},
              {}, {});
        break;
    }
  }

 private:
  static constexpr const char* kLikesView = R"(
.decl Person_KNOWS_Person(id1: number, id2: number, id: number, creationDate: number)
.input Person_KNOWS_Person
.decl Person_LIKES_Message(id1: number, id2: number, id: number, creationDate: number)
.input Person_LIKES_Message
.decl friend_likes(person: number, message: number)
.output friend_likes
friend_likes(p, m) :- Person_KNOWS_Person(p, f, _, _), Person_LIKES_Message(f, m, _, _).
)";

  std::vector<Tuple> FreshLikes(std::mt19937_64& rng, uint64_t cycle,
                                size_t count) const {
    std::uniform_int_distribution<size_t> message(1, messages_.size());
    std::vector<Tuple> out;
    for (size_t i = 0; i < count; ++i) {
      out.push_back({Value::Number(PickPerson(rng)),
                     Value::Number(static_cast<int64_t>(message(rng))),
                     Value::Number(int64_t{1} << 40 | static_cast<int64_t>(cycle * 64 + i)),
                     Value::Number(raqlet::ldbc::MidCreationDate())});
    }
    return out;
  }

  /// friend_likes over the base likes plus `added` minus `removed`.
  RowDigest ExpectFriendLikes(const std::vector<Tuple>& added,
                              const std::vector<Tuple>& removed) const {
    std::set<Tuple> removed_set(removed.begin(), removed.end());
    std::unordered_map<int64_t, std::vector<int64_t>> liked_by;
    auto add = [&](const Tuple& like) {
      liked_by[like[0].AsNumber()].push_back(like[1].AsNumber());
    };
    for (const Tuple& like : base_likes_) {
      if (!removed_set.count(like)) add(like);
    }
    for (const Tuple& like : added) add(like);
    std::set<std::pair<int64_t, int64_t>> rows;
    for (const Tuple& edge : knows_) {
      auto it = liked_by.find(edge[1].AsNumber());
      if (it == liked_by.end()) continue;
      for (int64_t m : it->second) rows.insert({edge[0].AsNumber(), m});
    }
    RowDigest digest;
    for (const auto& [p, m] : rows) digest.Add({Value::Number(p), Value::Number(m)});
    return digest;
  }

  void Delta(Runner& runner, OpKind kind, const char* step,
             std::vector<RelationDelta> relations,
             const std::vector<Tuple>& added, const std::vector<Tuple>& removed) {
    RunDelta(runner, kind, step, std::move(relations), [&]() -> ViewDigests {
      return {{"friend_likes", added.empty() && removed.empty()
                                   ? base_view_
                                   : ExpectFriendLikes(added, removed)}};
    });
  }

  std::vector<Tuple> base_likes_;
  RowDigest base_view_;
};

/// The write path: a reply forest and KNOWS under churn, maintained by one
/// IncrementalView, with a CQ2 slot (all five configs) after every delta.
class ViewChurn : public SnbWorkload {
 public:
  uint64_t Period() const override { return 1; }
  int SetupRepeats() const override { return 9; }

  Status Build(uint64_t seed, Runner& runner, SetupTimes* times) override {
    seed_ = seed;
    RAQLET_RETURN_IF_ERROR(
        BuildCommon(raqlet::ldbc::SnbSchema(), kChurnView, times));
    OracleClock::Scope oracle(&runner.oracle);
    RAQLET_RETURN_IF_ERROR(MirrorBase());
    RAQLET_ASSIGN_OR_RETURN(Relation * replies, db_.GetRelation("reply_of"));
    parent_.clear();
    base_replies_ = replies->MaterializeRows();
    for (const Tuple& row : base_replies_) {
      parent_[row[0].AsNumber()] = row[1].AsNumber();
    }
    base_ancestors_ = ExpectAncestors({});
    base_reach_ = ExpectReach();
    base_friend_reply_ = ExpectFriendReply({});
    return Status::OK();
  }

  void RunCycle(uint64_t cycle, Runner& runner) override {
    std::mt19937_64 rng = CycleRng(seed_, cycle);
    uint64_t op_in_cycle = cycle;
    std::vector<Tuple> detached;
    std::sample(base_replies_.begin(), base_replies_.end(),
                std::back_inserter(detached), 10, rng);
    std::vector<Tuple> knows_out;
    std::sample(base_knows_.begin(), base_knows_.end(),
                std::back_inserter(knows_out), 5, rng);
    std::vector<Tuple> knows_in;
    std::uniform_int_distribution<int> date(0, 1000000);
    for (int i = 0; i < 5; ++i) {
      int64_t a = PickPerson(rng);
      int64_t b = PickPerson(rng);
      while (b == a) b = PickPerson(rng);
      knows_in.push_back({Value::Number(a), Value::Number(b),
                          Value::Number(int64_t{1} << 40 |
                                        static_cast<int64_t>(cycle * 8 + i)),
                          Value::Number(raqlet::ldbc::MidCreationDate() + date(rng))});
    }
    std::vector<Tuple> churned;
    {
      std::set<Tuple> out(knows_out.begin(), knows_out.end());
      for (const Tuple& row : base_knows_) {
        if (!out.count(row)) churned.push_back(row);
      }
      churned.insert(churned.end(), knows_in.begin(), knows_in.end());
    }

    // A CQ2 slot (all five configs), one before the deltas and one after
    // each.
    Read(runner, cycle, 0, &op_in_cycle);
    // 1. Detach reply edges: DRed over the thread forest.
    RunDelta(runner, OpKind::kDelete, "detach", {{"reply_of", {}, detached}}, [&] {
      return Digests(ExpectAncestors(detached), base_reach_,
                     ExpectFriendReply(detached));
    });
    Read(runner, cycle, 1, &op_in_cycle);
    // 2. Re-attach them: the insert continuation.
    RunDelta(runner, OpKind::kInsert, "reattach", {{"reply_of", detached, {}}}, [&] {
      return Digests(base_ancestors_, base_reach_, base_friend_reply_);
    });
    Read(runner, cycle, 2, &op_in_cycle);
    // 3. KNOWS churn: reachability bails out to recompute-and-diff.
    RunDelta(runner, OpKind::kMixed, "churn",
         {{"Person_KNOWS_Person", knows_in, knows_out}}, [&] {
           SetKnows(churned);
           return Digests(base_ancestors_, ExpectReach(), ExpectFriendReply({}));
         });
    Read(runner, cycle, 3, &op_in_cycle);
    // 4. The churn's exact inverse.
    RunDelta(runner, OpKind::kMixed, "inverse",
         {{"Person_KNOWS_Person", knows_out, knows_in}}, [&] {
           SetKnows(base_knows_);
           return Digests(base_ancestors_, base_reach_, base_friend_reply_);
         });
    Read(runner, cycle, 4, &op_in_cycle);
  }

 private:
  static constexpr const char* kChurnView = R"(
.decl reply_of(msg: number, parent: number)
.input reply_of
.decl Person_KNOWS_Person(id1: number, id2: number, id: number, creationDate: number)
.input Person_KNOWS_Person
.decl Message_HAS_CREATOR_Person(id1: number, id2: number, id: number)
.input Message_HAS_CREATOR_Person
.decl thread_ancestor(msg: number, ancestor: number)
.output thread_ancestor
thread_ancestor(m, a) :- reply_of(m, a).
thread_ancestor(m, a) :- thread_ancestor(m, p), reply_of(p, a).
.decl knows_reach(x: number, y: number)
.output knows_reach
knows_reach(x, y) :- Person_KNOWS_Person(x, y, _, _).
knows_reach(x, z) :- knows_reach(x, y), Person_KNOWS_Person(y, z, _, _).
.decl friend_reply(msg: number, author: number)
.output friend_reply
friend_reply(m, a) :- reply_of(m, p), Message_HAS_CREATOR_Person(m, a, _), Message_HAS_CREATOR_Person(p, b, _), Person_KNOWS_Person(a, b, _, _).
)";

  // Reply forest: message i replies to a uniformly chosen earlier message
  // with probability 0.7. Fixed like the SNB data.
  Status LoadExtra(Database* db) override {
    raqlet::RelationSchema schema;
    schema.name = "reply_of";
    schema.columns = {{"msg", raqlet::ValueType::kNumber},
                      {"parent", raqlet::ValueType::kNumber}};
    RAQLET_ASSIGN_OR_RETURN(Relation * rel, db->CreateRelation(std::move(schema)));
    RAQLET_ASSIGN_OR_RETURN(Relation * messages, db->GetRelation("Message"));
    std::mt19937_64 rng(42);
    std::bernoulli_distribution replies(0.7);
    std::vector<Tuple> batch;
    for (int64_t m = 2; m <= static_cast<int64_t>(messages->size()); ++m) {
      if (!replies(rng)) continue;
      int64_t parent = std::uniform_int_distribution<int64_t>(1, m - 1)(rng);
      batch.push_back({Value::Number(m), Value::Number(parent)});
    }
    return rel->InsertBatch(std::move(batch)).status();
  }

  static ViewDigests Digests(RowDigest ancestors, RowDigest reach,
                             RowDigest friend_reply) {
    return {{"thread_ancestor", ancestors},
            {"knows_reach", reach},
            {"friend_reply", friend_reply}};
  }

  /// Read slot `slot` (of five per cycle): CQ2 on every config.
  void Read(Runner& runner, uint64_t cycle, size_t slot, uint64_t* op_in_cycle) {
    const int64_t pid = SlotParam(cycle, slot, 5);
    Expected expected;
    {
      OracleClock::Scope oracle(&runner.oracle);
      expected = ExpectCq2(pid);
    }
    RunSlot(runner, Cq2(), PersonParams(pid), expected, op_in_cycle);
  }

  /// thread_ancestor with the reply edges in `detached` removed.
  RowDigest ExpectAncestors(const std::vector<Tuple>& detached) const {
    std::unordered_set<int64_t> cut;
    for (const Tuple& row : detached) cut.insert(row[0].AsNumber());
    RowDigest digest;
    for (const auto& [msg, first] : parent_) {
      if (cut.count(msg)) continue;
      int64_t at = msg;
      while (true) {
        auto it = parent_.find(at);
        if (it == parent_.end() || cut.count(at)) break;
        digest.Add({Value::Number(msg), Value::Number(it->second)});
        at = it->second;
      }
    }
    return digest;
  }

  RowDigest ExpectReach() const { return Closure(out_, person_ids_).digest; }

  RowDigest ExpectFriendReply(const std::vector<Tuple>& detached) const {
    std::unordered_set<int64_t> cut;
    for (const Tuple& row : detached) cut.insert(row[0].AsNumber());
    std::set<std::pair<int64_t, int64_t>> rows;
    for (const auto& [msg, parent] : parent_) {
      if (cut.count(msg)) continue;
      const int64_t a = creator_of_.at(msg);
      const int64_t b = creator_of_.at(parent);
      auto it = out_.find(a);
      if (it != out_.end() &&
          std::find(it->second.begin(), it->second.end(), b) != it->second.end()) {
        rows.insert({msg, a});
      }
    }
    RowDigest digest;
    for (const auto& [m, a] : rows) digest.Add({Value::Number(m), Value::Number(a)});
    return digest;
  }

  std::unordered_map<int64_t, int64_t> parent_;
  std::vector<Tuple> base_replies_;
  RowDigest base_ancestors_;
  RowDigest base_reach_;
  RowDigest base_friend_reply_;
};

// ---------------------------------------------------------------------------
// tc-closure
// ---------------------------------------------------------------------------

constexpr int kTcNodes = 300;

/// Whole-graph transitive closure: join, merge/dedup, result boxing and
/// the parallel runtime are the work. Writes maintain the same closure as
/// an IncrementalView.
class TcClosure : public Workload {
 public:
  uint64_t Period() const override { return 2; }
  int SetupRepeats() const override { return 7; }

  Status Build(uint64_t seed, Runner& runner, SetupTimes* times) override {
    seed_ = seed;
    RAQLET_RETURN_IF_ERROR(BuildCommon(kSchema, kTcView, times));
    OracleClock::Scope oracle(&runner.oracle);
    RAQLET_ASSIGN_OR_RETURN(Relation * edges,
                            db_.GetRelation("Node_CONNECTS_TO_Node"));
    base_edges_ = edges->MaterializeRows();
    for (int64_t n = 1; n <= kTcNodes; ++n) nodes_.push_back(n);
    base_ = EdgeClosure(base_edges_);
    return Status::OK();
  }

  void RunCycle(uint64_t cycle, Runner& runner) override {
    uint64_t op_in_cycle = cycle;
    RunSlot(runner, kTcQuery, {}, base_, &op_in_cycle);

    // Writes: every cycle 10 new edges and their removal; every other
    // cycle also 5 edges out and 5 in and that churn's exact inverse.
    std::mt19937_64 wrng = CycleRng(seed_ ^ 0x6564676573ULL, cycle);
    std::uniform_int_distribution<int64_t> node(1, kTcNodes);
    std::vector<Tuple> fresh;
    for (int i = 0; i < 15; ++i) {
      fresh.push_back({Value::Number(node(wrng)), Value::Number(node(wrng)),
                       Value::Number(int64_t{1} << 40 |
                                     static_cast<int64_t>(cycle * 16 + i))});
    }
    std::vector<Tuple> added(fresh.begin(), fresh.begin() + 10);
    std::vector<Tuple> churn_in(fresh.begin() + 10, fresh.end());
    std::vector<Tuple> churn_out;
    std::sample(base_edges_.begin(), base_edges_.end(),
                std::back_inserter(churn_out), 5, wrng);
    const char* rel = "Node_CONNECTS_TO_Node";
    Delta(runner, OpKind::kInsert, "insert", {{rel, added, {}}}, added, {});
    Delta(runner, OpKind::kDelete, "delete", {{rel, {}, added}}, {}, {});
    if (cycle % 2 == 1) {
      Delta(runner, OpKind::kMixed, "churn", {{rel, churn_in, churn_out}},
            churn_in, churn_out);
      Delta(runner, OpKind::kMixed, "inverse", {{rel, churn_out, churn_in}},
            {}, {});
    }
  }

 private:
  static constexpr const char* kSchema = R"(
CREATE GRAPH {
  (nodeType: Node {id INT}),
  (:nodeType)-[edgeType: connectsTo {id INT}]->(:nodeType)
}
)";

  static constexpr const char* kTcView = R"(
.decl Node_CONNECTS_TO_Node(id1: number, id2: number, id: number)
.input Node_CONNECTS_TO_Node
.decl tc_view(x: number, y: number)
.output tc_view
tc_view(x, y) :- Node_CONNECTS_TO_Node(x, y, _).
tc_view(x, z) :- tc_view(x, y), Node_CONNECTS_TO_Node(y, z, _).
)";

  inline static const QueryTemplate kTcQuery = {
      "TC",
      {R"(
MATCH (a:Node)-[:CONNECTS_TO*]->(b:Node)
RETURN DISTINCT a.id AS src, b.id AS dst
)",
       R"(
MATCH (a:Node)-[:CONNECTS_TO*1..]->(b:Node)
RETURN DISTINCT a.id AS src, b.id AS dst
)",
       R"(
SELECT DISTINCT * FROM GRAPH_TABLE (g,
  MATCH (a IS Node)-[IS connectsTo]->{1,}(b IS Node)
  COLUMNS (a.id AS src, b.id AS dst)
)
)"}};

  // The graph bench/bench_tc.cc builds: out-degree 2 to uniformly random
  // nodes, fixed for every workload seed (70,244 closure rows at 300
  // nodes); the workload seed draws the deltas.
  Status LoadBase(Database* db) override {
    RAQLET_ASSIGN_OR_RETURN(Relation * node, db->GetRelation("Node"));
    RAQLET_ASSIGN_OR_RETURN(Relation * edge,
                            db->GetRelation("Node_CONNECTS_TO_Node"));
    std::mt19937 rng(1234);
    std::uniform_int_distribution<int> pick(1, kTcNodes);
    std::vector<Tuple> nodes;
    std::vector<Tuple> edges;
    int64_t id = 0;
    for (int64_t n = 1; n <= kTcNodes; ++n) nodes.push_back({Value::Number(n)});
    for (int64_t n = 1; n <= kTcNodes; ++n) {
      for (int k = 0; k < 2; ++k) {
        edges.push_back({Value::Number(n), Value::Number(pick(rng)),
                         Value::Number(++id)});
      }
    }
    RAQLET_RETURN_IF_ERROR(node->InsertBatch(std::move(nodes)).status());
    return edge->InsertBatch(std::move(edges)).status();
  }

  Expected EdgeClosure(const std::vector<Tuple>& edges) const {
    Adjacency adj;
    for (const Tuple& e : edges) adj[e[0].AsNumber()].push_back(e[1].AsNumber());
    return Closure(adj, nodes_);
  }

  void Delta(Runner& runner, OpKind kind, const char* step,
             std::vector<RelationDelta> relations,
             const std::vector<Tuple>& added, const std::vector<Tuple>& removed) {
    RunDelta(runner, kind, step, std::move(relations), [&]() -> ViewDigests {
      if (added.empty() && removed.empty()) return {{"tc_view", base_.digest}};
      std::set<Tuple> out(removed.begin(), removed.end());
      std::vector<Tuple> edges;
      for (const Tuple& e : base_edges_) {
        if (!out.count(e)) edges.push_back(e);
      }
      edges.insert(edges.end(), added.begin(), added.end());
      return {{"tc_view", EdgeClosure(edges).digest}};
    });
  }

  std::vector<Tuple> base_edges_;
  std::vector<int64_t> nodes_;
  Expected base_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "ldbc-interactive") return std::make_unique<LdbcInteractive>();
  if (name == "tc-closure") return std::make_unique<TcClosure>();
  if (name == "view-churn") return std::make_unique<ViewChurn>();
  return nullptr;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::vector<Sample> Samples(const std::vector<OpRecord>& records,
                            const std::function<bool(const OpRecord&)>& keep,
                            const std::function<double(const OpRecord&)>& value,
                            const std::function<std::string(const OpRecord&)>& group) {
  std::vector<Sample> out;
  for (const OpRecord& r : records) {
    if (!r.traced && keep(r)) out.push_back({value(r), group(r)});
  }
  return out;
}

std::vector<double> Values(const std::vector<Sample>& samples) {
  std::vector<double> out;
  for (const Sample& s : samples) out.push_back(s.ms);
  return out;
}

std::string Fixed(double value, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, value);
  return buf;
}

/// A percentile metric and the samples it is taken over.
struct Pct {
  std::string name;
  std::vector<Sample> samples;
  double q;
  /// Reported with the per-layer metrics instead of the end-to-end ones.
  bool per_layer = false;

  double value() const { return Percentile(Values(samples), q); }
};

struct LayerSpec {
  const char* metric;
  const char* layer;  // OpLayers::self_ms key
  const char* moves;  // the end-to-end metric it should move
};

// Per-layer time metrics taken as the median self time per op over the
// ops the layer appears in.
constexpr LayerSpec kTimedLayers[] = {
    {"cypher.parse_ms", "cypher.parse", "compile_p50_ms"},
    {"gql.parse_ms", "gql.parse", "compile_p50_ms"},
    {"sqlpgq.parse_ms", "sqlpgq.parse", "compile_p50_ms"},
    {"pgir.lower_ms", "pgir.lower", "compile_p50_ms"},
    {"pgir.translate_ms", "pgir.translate", "compile_p50_ms"},
    {"opt.optimize_ms", "opt.optimize", "compile_p50_ms"},
    {"sqir.emit_ms", "sqir.emit", "compile_p50_ms"},
    {"datalog.join_ms", "datalog.join", "datalog_p50_ms"},
    {"datalog.merge_ms", "datalog.merge", "datalog_p50_ms"},
    {"sql.round_ms", "sql.round", "sql_p50_ms"},
    {"graph.clause_ms", "graph.clause", "graph_p50_ms, op_p90_ms, ops_per_s"},
    {"graph.closure_ms", "graph.closure", "graph_p50_ms, op_p90_ms, ops_per_s"},
    {"bench.unattributed_ms", "unattributed", "(none)"},
};

void AddPerLayer(const std::vector<OpLayers>& layers,
                 const std::vector<OpRecord>& records,
                 const std::vector<Pct>& pcts,
                 const std::map<std::string, double>& counts,
                 const std::vector<SetupTimes>& setups, double full_eval_ms,
                 std::vector<Metric>* metrics, std::string* text) {
  auto median_of = [&](const std::function<bool(const OpLayers&)>& keep,
                       const std::function<double(const OpLayers&)>& value) {
    std::vector<double> v;
    for (const OpLayers& l : layers) {
      if (keep(l)) v.push_back(value(l));
    }
    return Median(v);
  };
  auto count = [&](const char* name) {
    auto it = counts.find(name);
    return it == counts.end() ? 0.0 : it->second;
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };

  std::vector<std::pair<Metric, std::string>> rows;  // metric, should move
  for (const LayerSpec& spec : kTimedLayers) {
    const std::string layer = spec.layer;
    double v = median_of(
        [&](const OpLayers& l) {
          auto it = l.self_ms.find(layer);
          return it != l.self_ms.end() && it->second > 0;
        },
        [&](const OpLayers& l) { return l.self_ms.at(layer); });
    rows.push_back({{spec.metric, v, "ms"}, spec.moves});
  }
  rows.push_back(
      {{"storage.materialize_ms",
        median_of([](const OpLayers& l) { return l.op.engine == "datalog"; },
                  [](const OpLayers& l) {
                    return std::max(0.0, l.facade_ms - l.engine_span_ms);
                  }),
        "ms"},
       "datalog_p50_ms, sql_p50_ms"});
  rows.push_back(
      {{"runtime.busy_ratio",
        median_of([](const OpLayers& l) { return !l.op.delta && l.op.threads > 1; },
                  [&](const OpLayers& l) {
                    return ratio(l.pool_task_ms, l.facade_ms * l.op.threads);
                  }),
        "ratio"},
       "ops_per_s"});
  for (const Pct& p : pcts) {
    if (p.per_layer) rows.push_back({{p.name, p.value(), "ms"}, "ops_per_s"});
  }
  rows.push_back(
      {{"incremental.recompute_ms",
        median_of([](const OpLayers& l) { return l.op.delta && l.recompute_ms > 0; },
                  [](const OpLayers& l) { return l.recompute_ms; }),
        "ms"},
       "delta_mixed_p50_ms"});

  double traced_ms = 0;
  double untraced_ms = 0;
  for (const OpRecord& r : records) {
    (r.traced ? traced_ms : untraced_ms) += r.op_ms;
  }
  // A from-scratch evaluation over one ApplyDelta, per delta kind, each on
  // the population of its delta_*_p50_ms (gap-checked with it). The metric
  // is the recompute side: the churn/inverse pairs.
  std::string speedups;
  double mixed_speedup = 0;
  for (const Pct& p : pcts) {
    if (p.name.rfind("delta_", 0) != 0) continue;
    const double speedup = ratio(full_eval_ms, p.value());
    speedups += "  " + p.name + ": " + Fixed(speedup, 2) + "x\n";
    if (p.name == "delta_mixed_p50_ms") mixed_speedup = speedup;
  }
  rows.push_back({{"incremental.speedup_vs_full", mixed_speedup, "ratio"},
                  "delta_mixed_p50_ms"});

  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& s : setups) v.push_back(s.*field);
    return Median(v);
  };
  const char* setup_moves = "setup_s";
  rows.push_back({{"ldbc.generate_ms", setup_median(&SetupTimes::generate_ms), "ms"},
                  setup_moves});
  rows.push_back({{"engine.graph_store_ms", setup_median(&SetupTimes::store_ms), "ms"},
                  setup_moves});
  rows.push_back({{"incremental.init_ms", setup_median(&SetupTimes::view_init_ms), "ms"},
                  setup_moves});
  rows.push_back({{"setup.warmup_ms", setup_median(&SetupTimes::warmup_ms), "ms"},
                  setup_moves});
  rows.push_back({{"obs.trace_overhead_ratio", ratio(traced_ms, untraced_ms), "ratio"},
                  "(none)"});

  const char* compile = "compile_p50_ms";
  const char* datalog = "datalog_p50_ms";
  const char* sql = "sql_p50_ms";
  const char* graph = "graph_p50_ms, op_p90_ms, ops_per_s";
  rows.push_back({{"pgir.dlir_rules", count("pgir.dlir_rules"), "count"}, compile});
  rows.push_back({{"opt.rules", count("opt.rules"), "count"}, compile});
  rows.push_back({{"datalog.rounds", count("datalog.rounds"), "count"}, datalog});
  rows.push_back({{"datalog.tuples_considered", count("datalog.tuples_considered"),
                   "count"}, datalog});
  rows.push_back({{"datalog.tuples_inserted", count("datalog.tuples_inserted"),
                   "count"}, datalog});
  rows.push_back({{"storage.bytes_per_tuple",
                   ratio(count("storage.bytes"), count("storage.rows")), "B/tuple"},
                  "peak_rss_mb"});
  rows.push_back({{"sql.iterations", count("sql.iterations"), "count"}, sql});
  rows.push_back({{"sql.rows_scanned", count("sql.rows_scanned"), "count"}, sql});
  const double dedup_attempts = count("sql.dedup_attempts");
  rows.push_back({{"sql.dedup_hit_rate",
                   dedup_attempts > 0
                       ? 1.0 - count("sql.dedup_inserted") / dedup_attempts
                       : 0.0,
                   "ratio"},
                  sql});
  rows.push_back({{"graph.closure_misses", count("graph.closure_misses"), "count"}, graph});
  rows.push_back({{"graph.closure_hit_rate",
                   ratio(count("graph.closure_hits"),
                         count("graph.closure_hits") + count("graph.closure_misses")),
                   "ratio"}, graph});
  rows.push_back({{"graph.bfs_visits", count("graph.bfs_visits"), "count"}, graph});
  rows.push_back({{"incremental.bailouts", count("incremental.bailouts"), "count"},
                  "delta_mixed_p50_ms"});
  rows.push_back({{"incremental.overdeleted", count("incremental.overdeleted"), "count"},
                  "delta_delete_p50_ms"});
  rows.push_back({{"incremental.rederived", count("incremental.rederived"), "count"},
                  "delta_delete_p50_ms"});
  rows.push_back({{"incremental.tuples_inserted",
                   count("incremental.tuples_inserted"), "count"},
                  "delta_insert_p50_ms"});

  *text += "\nPer-layer metrics (times: median self time per op from the traced\n"
           "cycles; counts: totals over one warm-up cycle, which repeat exactly)\n";
  for (const auto& [metric, moves] : rows) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-30s %14.6g %-8s should move: %s\n",
                  metric.name.c_str(), metric.value, metric.unit.c_str(),
                  moves.c_str());
    *text += line;
    metrics->push_back(metric);
  }
  *text += "\nFrom-scratch evaluation of the view's program " +
           Fixed(full_eval_ms) + " ms, over each delta kind's p50:\n" + speedups;

  // The full breakdown: every layer's self time, including the engine
  // and facade remainders that have no metric of their own.
  std::map<std::string, std::pair<double, size_t>> totals;
  double wall = 0;
  for (const OpLayers& l : layers) {
    wall += l.wall_ms;
    for (const auto& [layer, ms] : l.self_ms) {
      totals[layer].first += ms;
      ++totals[layer].second;
    }
  }
  *text += "\nSelf time by layer over all traced ops (share of traced op wall time)\n";
  for (const auto& [layer, total] : totals) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-24s %10s ms total over %6zu ops  %6s%%\n",
                  layer.c_str(), Fixed(total.first).c_str(), total.second,
                  Fixed(100.0 * ratio(total.first, wall), 1).c_str());
    *text += line;
  }
  *text += "  unattributed remainder (bench.op self time): " +
           Fixed(totals["unattributed"].first) + " ms of " + Fixed(wall) +
           " ms traced op wall time\n";
  *text += "  trace overhead (traced / untraced op time): " +
           Fixed(ratio(traced_ms, untraced_ms), 4) + "\n";
}

}  // namespace

bool RunWorkload(const std::string& name, const RunOptions& options,
                 RunReport* report) {
  std::unique_ptr<Workload> workload = MakeWorkload(name);
  if (workload == nullptr) return false;
  Runner runner(options.corrupt_op);
  std::vector<SetupTimes> setups;
  std::vector<std::string> first_log;
  std::map<std::string, double> counts;
  const int repeats = workload->SetupRepeats();
  for (int r = 0; r < repeats; ++r) {
    if (r > 0) {
      workload.reset();  // free the previous instance before building anew
      workload = MakeWorkload(name);
    }
    runner.counter_log.clear();
    runner.counts.clear();
    const double oracle_before = runner.oracle.ms();
    const auto start = Clock::now();
    SetupTimes times;
    Status built = workload->Build(options.seed, runner, &times);
    if (!built.ok()) {
      runner.Fail(-1, "set-up: " + built.ToString());
      report->correct = false;
      report->attempted = std::max<uint64_t>(1, runner.attempted);
      report->failed = runner.failed;
      return true;
    }
    const double oracle_mid = runner.oracle.ms();
    const auto warm = Clock::now();
    runner.warmup = true;
    for (uint64_t c = 0; c < workload->Period(); ++c) workload->RunCycle(c, runner);
    runner.warmup = false;
    times.warmup_ms = MsSince(warm) - (runner.oracle.ms() - oracle_mid);
    times.total_ms = MsSince(start) - (runner.oracle.ms() - oracle_before);
    setups.push_back(times);
    if (r == 0) {
      first_log = runner.counter_log;
    } else if (runner.counter_log != first_log) {
      runner.Fail(-1, "work counters differ between from-scratch set-ups");
    }
    counts = runner.counts;
  }

  // The timed closed loop: one client, whole periods, until the time is up.
  runner.recording = true;
  std::vector<OpLayers> layers;
  const double oracle_before = runner.oracle.ms();
  const auto loop_start = Clock::now();
  const uint64_t period = workload->Period();
  uint64_t cycle = 0;
  while (MsSince(loop_start) < options.seconds * 1000) {
    for (uint64_t c = cycle; c < cycle + period; ++c) workload->RunCycle(c, runner);
    if (options.trace) {
      // The same period again, traced: identical ops on an identical state.
      runner.traced_ops.clear();
      obs::TraceSession session;
      runner.traced = true;
      for (uint64_t c = cycle; c < cycle + period; ++c) workload->RunCycle(c, runner);
      runner.traced = false;
      std::vector<OpLayers> folded = FoldTrace(session.Events(), runner.traced_ops);
      layers.insert(layers.end(), folded.begin(), folded.end());
    }
    cycle += period;
  }
  const double loop_ms =
      MsSince(loop_start) - (runner.oracle.ms() - oracle_before);

  const std::vector<OpRecord>& recs = runner.records;
  std::vector<Metric>& m = report->metrics;
  std::string& text = report->text;
  text += "workload " + name + ", seed " + std::to_string(options.seed) + ", " +
          std::to_string(cycle) + " timed cycles, " +
          std::to_string(recs.size()) + " timed ops\n";
  std::vector<double> setup_totals;
  for (const SetupTimes& s : setups) setup_totals.push_back(s.total_ms);
  text += "set-up: median of " + std::to_string(setups.size()) +
          " from-scratch set-ups " + Fixed(Median(setup_totals)) +
          " ms (oracle time excluded)\n";

  auto is_read = [](const OpRecord& r) { return r.kind == OpKind::kRead; };
  auto by_template = [](const OpRecord& r) { return r.group; };
  auto run_ms = [](const OpRecord& r) { return r.run_ms; };
  std::vector<Pct> pcts;
  pcts.push_back({"compile_p50_ms",
                  Samples(recs, is_read, [](const OpRecord& r) { return r.compile_ms; },
                          by_template),
                  0.5});
  for (int c = 0; c < kNumConfigs; ++c) {
    // The 4-thread configs are runtime-layer metrics: on the short reads
    // their time is mostly waking pool workers, which follows the host's
    // other load, so they carry no regression bound.
    const bool threaded = kConfigs[c].threads > 1;
    pcts.push_back({(threaded ? "runtime." : "") + std::string(kConfigs[c].name) +
                        "_p50_ms",
                    Samples(recs,
                            [c](const OpRecord& r) {
                              return r.kind == OpKind::kRead && r.config == c;
                            },
                            run_ms, by_template),
                    0.5, threaded});
  }
  pcts.push_back({"op_p90_ms",
                  Samples(recs, [](const OpRecord&) { return true; },
                          [](const OpRecord& r) { return r.op_ms; },
                          [](const OpRecord& r) {
                            if (r.kind != OpKind::kRead) return r.group;
                            return r.group + "/" + kConfigs[r.config].name +
                                   (r.rebuilt_store ? "+store" : "");
                          }),
                  0.9});
  const std::pair<const char*, OpKind> deltas[] = {
      {"delta_insert_p50_ms", OpKind::kInsert},
      {"delta_delete_p50_ms", OpKind::kDelete}};
  for (const auto& [metric, kind] : deltas) {
    pcts.push_back({metric,
                    Samples(recs, [k = kind](const OpRecord& r) { return r.kind == k; },
                            run_ms, by_template),
                    0.5});
  }
  // A churn and its exact inverse are two latency modes; one sample is the
  // mean of a pair, so the median never falls between the modes.
  std::vector<Sample> mixed;
  double churn_ms = -1;
  for (const OpRecord& r : recs) {
    if (r.traced || r.kind != OpKind::kMixed) continue;
    if (churn_ms < 0) {
      churn_ms = r.run_ms;
    } else {
      mixed.push_back({(churn_ms + r.run_ms) / 2, "churn+inverse"});
      churn_ms = -1;
    }
  }
  pcts.push_back({"delta_mixed_p50_ms", mixed, 0.5});

  if (!options.trace) {
    m.push_back({"setup_s", Median(setup_totals) / 1000.0, "s"});
    for (const Pct& p : pcts) {
      if (p.per_layer) continue;
      m.push_back({p.name, p.value(), "ms"});
      if (p.name == "compile_p50_ms") {
        m.push_back({"ops_per_s",
                     loop_ms > 0 ? static_cast<double>(recs.size()) / (loop_ms / 1000.0) : 0,
                     "1/s"});
      }
    }
    m.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  }

  text += "\nLatency percentiles (n = samples; gap = sample between two latency groups)\n";
  for (const Pct& p : pcts) {
    GapCheck gap = CheckGap(p.samples, p.q);
    char line[320];
    std::snprintf(line, sizeof(line), "  %-22s %12s ms  n=%-6zu %s\n",
                  p.name.c_str(), Fixed(p.value(), 4).c_str(),
                  p.samples.size(), gap.on_gap ? ("GAP: " + gap.detail).c_str() : "ok");
    text += line;
    if (gap.on_gap) report->gaps.push_back(p.name + ": " + gap.detail);
  }

  // Per-template medians for every config (printed, not gated).
  std::map<std::string, std::map<int, std::vector<double>>> per_template;
  std::map<std::string, std::vector<double>> per_delta;
  for (const OpRecord& r : recs) {
    if (r.traced) continue;
    if (r.kind == OpKind::kRead) {
      per_template[r.group][r.config].push_back(r.run_ms);
      per_template[r.group][-1].push_back(r.compile_ms);
    } else {
      per_delta[r.group].push_back(r.run_ms);
    }
  }
  text += "\nPer-template medians, ms (compile, then the Run* call per config)\n";
  text += "  template       compile    datalog datalog_4t        sql     sql_4t      graph\n";
  for (const auto& [tmpl, by_config] : per_template) {
    char line[256];
    std::string cells;
    for (int c = -1; c < kNumConfigs; ++c) {
      auto it = by_config.find(c);
      char cell[32];
      std::snprintf(cell, sizeof(cell), " %10s",
                    it == by_config.end() ? "-" : Fixed(Median(it->second)).c_str());
      cells += cell;
    }
    std::snprintf(line, sizeof(line), "  %-10s%s\n", tmpl.c_str(), cells.c_str());
    text += line;
  }
  for (const auto& [step, values] : per_delta) {
    text += "  delta " + step + ": median " + Fixed(Median(values)) + " ms, n=" +
            std::to_string(values.size()) + "\n";
  }

  if (options.trace) {
    AddPerLayer(layers, recs, pcts, counts, setups, workload->FullEvalMs(), &m, &text);
  }

  report->attempted = std::max<uint64_t>(1, runner.attempted);
  report->failed = runner.failed;
  report->correct = runner.failed == 0;
  text += "\nfail_rate " + FormatNumber(static_cast<double>(runner.failed) /
                                        static_cast<double>(report->attempted)) +
          " (" + std::to_string(runner.failed) + " failed of " +
          std::to_string(report->attempted) + " ops attempted, set-ups included)\n";
  return true;
}

}  // namespace e2e
