#include "runtime/failpoint.h"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

namespace raqlet::runtime {

namespace {

// One registry per process. The fast path is the armed-count gate below;
// the mutex only guards the map on (dis)arm and on hits while armed —
// i.e. only inside tests that opted in.
struct FailpointState {
  Status status;          // OK when only a delay is armed
  int delay_ms = 0;
  int after_hits = 1;
  int hits = 0;
};

std::mutex g_mutex;
std::map<std::string, FailpointState>& Registry() {
  static std::map<std::string, FailpointState> registry;
  return registry;
}
std::atomic<int> g_armed_count{0};

}  // namespace

bool FailpointsCompiledIn() {
#if defined(RAQLET_FAILPOINTS)
  return true;
#else
  return false;
#endif
}

std::vector<std::string> FailpointStatusSites() {
  return {"storage.insert_batch", "storage.insert_columns",
          "storage.erase_batch",  "datalog.apply_staged",
          "sql.cte_merge",        "graph.project"};
}

std::vector<std::string> FailpointDelaySites() {
  return {"storage.index_build", "runtime.pool_dispatch"};
}

void ArmFailpoint(const std::string& site, Status status, int after_hits) {
  std::lock_guard<std::mutex> lock(g_mutex);
  auto [it, inserted] = Registry().insert_or_assign(
      site, FailpointState{std::move(status), 0, after_hits, 0});
  (void)it;
  if (inserted) g_armed_count.fetch_add(1, std::memory_order_relaxed);
}

void ArmFailpointDelay(const std::string& site, int delay_ms,
                       int after_hits) {
  std::lock_guard<std::mutex> lock(g_mutex);
  auto [it, inserted] = Registry().insert_or_assign(
      site, FailpointState{Status::OK(), delay_ms, after_hits, 0});
  (void)it;
  if (inserted) g_armed_count.fetch_add(1, std::memory_order_relaxed);
}

void DisarmFailpoint(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  if (Registry().erase(site) > 0) {
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAllFailpoints() {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_armed_count.fetch_sub(static_cast<int>(Registry().size()),
                          std::memory_order_relaxed);
  Registry().clear();
}

int FailpointHits(const std::string& site) {
  std::lock_guard<std::mutex> lock(g_mutex);
  auto it = Registry().find(site);
  return it == Registry().end() ? 0 : it->second.hits;
}

Status FailpointHit(const char* site) {
  if (g_armed_count.load(std::memory_order_relaxed) == 0) {
    return Status::OK();
  }
  int delay_ms = 0;
  Status fire;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = Registry().find(site);
    if (it == Registry().end()) return Status::OK();
    FailpointState& state = it->second;
    ++state.hits;
    if (state.hits < state.after_hits) return Status::OK();
    delay_ms = state.delay_ms;
    fire = state.status;
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
  return fire;
}

void FailpointDelayHit(const char* site) {
  if (g_armed_count.load(std::memory_order_relaxed) == 0) return;
  int delay_ms = 0;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = Registry().find(site);
    if (it == Registry().end()) return;
    FailpointState& state = it->second;
    ++state.hits;
    if (state.hits < state.after_hits) return;
    delay_ms = state.delay_ms;
  }
  if (delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
  }
}

}  // namespace raqlet::runtime
