#ifndef RAQLET_RUNTIME_FAILPOINT_H_
#define RAQLET_RUNTIME_FAILPOINT_H_

// Fault-injection harness: named sites on the engines' durable-state
// mutation paths that tests arm to fire a Status failure or a delay at
// the Nth hit, proving the cancellation/cleanup contract ("a tripped or
// failed query never corrupts state") by construction rather than hope.
//
// Sites are compiled out by default — the macros expand to nothing, so
// release hot loops pay zero cost. Configure with -DRAQLET_FAILPOINTS=ON
// (CMake option; the `asan-failpoint` preset and CI leg do this) to
// compile them in; even then an unarmed process costs one relaxed atomic
// load per hit.
//
// Two macro flavours, matching what a site can express:
//  * RAQLET_FAILPOINT(site) — in a function returning Status (or used
//    with RAQLET_RETURN_IF_ERROR-style propagation): if the site is armed
//    with a failure, returns that Status from the enclosing function; an
//    armed delay sleeps in place.
//  * RAQLET_FAILPOINT_DELAY(site) — in void/pointer-returning code (index
//    build, pool task dispatch): honours only the delay arming, widening
//    race windows for cancellation tests without changing control flow.
//
// Site catalogue (docs/robustness.md keeps the authoritative list):
//   storage.insert_batch    Relation::InsertBatch, on a non-empty batch
//   storage.insert_columns  Relation::InsertColumns, on a non-empty batch
//   storage.erase_batch     Relation::EraseBatch, before tombstoning
//   storage.index_build     Relation::FoldSuffix (delay only)
//   datalog.apply_staged    datalog EmitBuffer merge, per relation group
//   sql.cte_merge           SQL executor, before a CTE materialize step
//   graph.project           graph executor, before RETURN/WITH projection
//   runtime.pool_dispatch   ThreadPool::WorkerLoop, before running a task
//                           (delay only)

#include <string>
#include <vector>

#include "common/status.h"

namespace raqlet::runtime {

/// True when the harness is compiled in (RAQLET_FAILPOINTS=ON); tests
/// skip the injection suites otherwise.
bool FailpointsCompiledIn();

/// The names of every site reachable in this build, for sweep tests.
/// Status-firing sites only; delay-only sites are listed separately.
std::vector<std::string> FailpointStatusSites();
std::vector<std::string> FailpointDelaySites();

/// Arms `site` to fire `status` on its `after_hits`-th hit (1 = first)
/// and every hit after. Re-arming overwrites. No-op when compiled out.
void ArmFailpoint(const std::string& site, Status status, int after_hits = 1);

/// Arms `site` to sleep `delay_ms` on every hit from `after_hits` on.
void ArmFailpointDelay(const std::string& site, int delay_ms,
                       int after_hits = 1);

/// Disarms one site / all sites and resets their hit counters.
void DisarmFailpoint(const std::string& site);
void DisarmAllFailpoints();

/// Hit count of `site` since it was last (dis)armed, for test assertions.
int FailpointHits(const std::string& site);

// Internal: macro backends. FailpointHit returns the armed Status (OK when
// unarmed / before the Nth hit) and applies any armed delay in place;
// FailpointDelayHit applies delays only.
Status FailpointHit(const char* site);
void FailpointDelayHit(const char* site);

}  // namespace raqlet::runtime

#if defined(RAQLET_FAILPOINTS)
#define RAQLET_FAILPOINT(site)                                        \
  do {                                                                \
    ::raqlet::Status _raqlet_fp = ::raqlet::runtime::FailpointHit(site); \
    if (!_raqlet_fp.ok()) return _raqlet_fp;                          \
  } while (false)
#define RAQLET_FAILPOINT_DELAY(site) \
  ::raqlet::runtime::FailpointDelayHit(site)
#else
#define RAQLET_FAILPOINT(site) \
  do {                         \
  } while (false)
#define RAQLET_FAILPOINT_DELAY(site) \
  do {                               \
  } while (false)
#endif

#endif  // RAQLET_RUNTIME_FAILPOINT_H_
