#include "obs/metrics.h"

#include <chrono>
#include <sstream>

#include "storage/database.h"

namespace raqlet::obs {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JoinPreds(const std::vector<std::string>& preds) {
  std::string out;
  for (const std::string& p : preds) {
    if (!out.empty()) out += ", ";
    out += p;
  }
  return out;
}

}  // namespace

size_t DatalogMetrics::TotalInserted() const {
  size_t n = 0;
  for (const SccMetrics& scc : sccs) n += scc.tuples_inserted;
  return n;
}

size_t QueryMetrics::TotalMemoryBytes() const {
  size_t n = 0;
  for (const RelationMemory& rel : memory) n += rel.bytes;
  return n;
}

std::string QueryMetrics::ToString() const {
  std::ostringstream os;
  if (!datalog.empty()) {
    os << "datalog:\n";
    for (size_t i = 0; i < datalog.sccs.size(); ++i) {
      const SccMetrics& scc = datalog.sccs[i];
      os << "  scc " << i << " [" << JoinPreds(scc.preds) << "]"
         << (scc.recursive ? " recursive" : "") << ": rounds=" << scc.rounds
         << " inserted=" << scc.tuples_inserted
         << " considered=" << scc.tuples_considered
         << " rule_evals=" << scc.rule_evaluations;
      if (!scc.round_delta_sizes.empty()) {
        os << " deltas=[";
        for (size_t r = 0; r < scc.round_delta_sizes.size(); ++r) {
          if (r > 0) os << " ";
          os << scc.round_delta_sizes[r];
        }
        os << "]";
      }
      os << "\n";
    }
  }
  if (!sql.empty()) {
    os << "sql:\n";
    for (const SqlCteMetrics& cte : sql.ctes) {
      os << "  cte " << cte.name << (cte.recursive ? " recursive" : "")
         << ": iterations=" << cte.iterations << " rows=" << cte.rows
         << " dedup_attempts=" << cte.dedup_attempts
         << " dedup_hit_rate=" << cte.DedupHitRate() << "\n";
      for (size_t s = 0; s < cte.steps.size(); ++s) {
        const SqlStepMetrics& step = cte.steps[s];
        os << "    step " << s << " " << step.relation
           << ": batches=" << step.batches << " rows_in=" << step.rows_in
           << " probes=" << step.probes << " matched=" << step.rows_matched
           << " rows_out=" << step.rows_out
           << " selectivity=" << step.Selectivity() << "\n";
      }
    }
  }
  if (!graph.empty()) {
    os << "graph:\n";
    for (size_t i = 0; i < graph.clauses.size(); ++i) {
      os << "  clause " << i << " " << graph.clauses[i].kind
         << ": rows=" << graph.clauses[i].rows_after << "\n";
    }
    os << "  closure cache: hits=" << graph.closure_cache_hits
       << " misses=" << graph.closure_cache_misses
       << " frontier_peak=" << graph.frontier_peak << "\n";
  }
  if (!incremental.empty()) {
    os << "incremental:\n";
    os << "  base: added=" << incremental.base_added
       << " removed=" << incremental.base_removed << "\n";
    os << "  sccs: touched=" << incremental.sccs_touched
       << " skipped=" << incremental.sccs_skipped
       << " recomputed=" << incremental.recomputed_sccs
       << " dred_bailouts=" << incremental.dred_bailouts
       << " rounds=" << incremental.rounds << "\n";
    os << "  derived: inserted=" << incremental.tuples_inserted
       << " deleted=" << incremental.tuples_deleted
       << " overdeleted=" << incremental.overdeleted
       << " abandoned_overdeleted=" << incremental.abandoned_overdeleted
       << " rederived=" << incremental.rederived
       << " support_updates=" << incremental.support_updates << "\n";
  }
  if (!guard.empty()) {
    os << "guard trips:";
    if (guard.cancelled > 0) os << " cancelled=" << guard.cancelled;
    if (guard.deadline_exceeded > 0) {
      os << " deadline_exceeded=" << guard.deadline_exceeded;
    }
    if (guard.resource_exhausted > 0) {
      os << " resource_exhausted=" << guard.resource_exhausted;
    }
    os << " (rows=" << guard.rows << " bytes=" << guard.bytes << ")\n";
  }
  if (!memory.empty()) {
    os << "memory: " << TotalMemoryBytes() << " bytes\n";
    for (const RelationMemory& rel : memory) {
      os << "  " << rel.name << ": rows=" << rel.rows
         << " bytes=" << rel.bytes;
      if (rel.rows > 0) {
        os << " (" << (rel.bytes / rel.rows) << " B/tuple)";
      }
      os << "\n";
    }
  }
  if (!phases.empty()) {
    os << "phases (wall time, non-deterministic):\n";
    for (const PhaseTiming& phase : phases) {
      os << "  " << phase.name << ": " << phase.micros << " us\n";
    }
  }
  return os.str();
}

void CollectMemoryBreakdown(const Database& db, QueryMetrics* metrics) {
  if (metrics == nullptr) return;
  metrics->memory.clear();
  for (const std::string& name : db.RelationNames()) {
    auto rel = db.GetRelation(name);
    if (!rel.ok()) continue;
    metrics->memory.push_back(
        {name, (*rel)->size(), (*rel)->MemoryBytes()});
  }
}

PhaseTimer::PhaseTimer(QueryMetrics* metrics, const char* name)
    : metrics_(metrics), name_(name) {
  if (metrics_ != nullptr) start_us_ = NowMicros();
}

PhaseTimer::~PhaseTimer() {
  if (metrics_ == nullptr) return;
  metrics_->AddPhase(name_, NowMicros() - start_us_);
}

}  // namespace raqlet::obs
