// End-to-end benchmark: one process runs one workload and prints a
// human-readable report followed by one JSON result line.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//   e2ebench --selftest
//
// Workloads: ldbc-interactive, tc-closure, view-churn (see README.md).
// --trace 0 reports the end-to-end metrics; --trace 1 repeats every cycle
// under a TraceSession and reports the per-layer metrics instead.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       e2ebench --selftest\n");
  return 2;
}

bool Check(bool condition, const char* what) {
  std::printf("  %-64s %s\n", what, condition ? "ok" : "FAILED");
  return condition;
}

raqlet::obs::TraceEvent Event(const char* name, int64_t ts, int64_t end,
                              uint32_t tid) {
  return {name, ts, end - ts, tid};
}

// The benchmark's own tests: the row digest, the trace fold, the gap
// check, and the oracle counting a corrupted expected row as a failure.
int SelfTest() {
  using raqlet::Tuple;
  using raqlet::Value;
  bool ok = true;
  std::printf("e2ebench self-test\n");

  const Tuple a = {Value::Number(1), Value::Number(2)};
  const Tuple b = {Value::Number(2), Value::Number(1)};
  const Tuple c = {Value::Number(1), Value::Number(3)};
  ok &= Check(e2e::DigestRows({a, b}) == e2e::DigestRows({b, a}),
              "digest ignores row order");
  ok &= Check(e2e::DigestRows({a, b}) != e2e::DigestRows({a, c}),
              "digest sees one changed row");
  ok &= Check(e2e::DigestRows({a, b}) != e2e::DigestRows({a, b, b}),
              "digest sees a duplicate row");
  ok &= Check(e2e::DigestRows({a}) != e2e::DigestRows({b}),
              "digest depends on column order");

  const std::vector<raqlet::obs::TraceEvent> events = {
      Event("bench.op 7", 0, 100, 0),      Event("bench.compile", 10, 40, 0),
      Event("compile.parse", 12, 20, 0),   Event("bench.run", 50, 90, 0),
      Event("datalog.run", 52, 88, 0),     Event("datalog.variant 0", 55, 70, 0),
      Event("pool.task", 56, 80, 1),       Event("bench.op 8", 200, 210, 0),
  };
  e2e::TracedOp op{7, "gql", "datalog", 4, false};
  std::vector<e2e::OpLayers> folded = e2e::FoldTrace(events, {op});
  const auto& self = folded[0].self_ms;
  auto near = [](double x, double y) { return x > y - 1e-9 && x < y + 1e-9; };
  ok &= Check(near(self.at("unattributed"), 0.030), "op self time excludes children");
  ok &= Check(near(self.at("compile.facade"), 0.022), "compile facade self time");
  ok &= Check(near(self.at("gql.parse"), 0.008), "parse charged to the op's frontend");
  ok &= Check(near(self.at("datalog.other"), 0.021), "engine span self time");
  ok &= Check(near(self.at("datalog.join"), 0.015), "variant span is the join layer");
  ok &= Check(near(self.at("runtime.pool"), 0.024), "worker-thread span joins its op");
  ok &= Check(near(folded[0].facade_ms - folded[0].engine_span_ms, 0.004),
              "facade minus engine span (materialize)");
  ok &= Check(self.size() == 7, "spans of an untracked op are ignored");

  std::vector<e2e::Sample> two_groups;
  for (int i = 0; i < 50; ++i) {
    two_groups.push_back({1.0 + i * 0.001, "fast"});
    two_groups.push_back({10.0 + i * 0.01, "slow"});
  }
  ok &= Check(e2e::CheckGap(two_groups, 0.5).on_gap, "median between two groups is a gap");
  ok &= Check(!e2e::CheckGap(two_groups, 0.25).on_gap, "p25 inside one group is not");

  // No timed loop: the set-ups' warm-up periods run and check every op kind.
  e2e::RunOptions options;
  options.seed = 7;
  options.seconds = 0;
  e2e::RunReport clean;
  e2e::RunWorkload("ldbc-interactive", options, &clean);
  ok &= Check(clean.correct && clean.failed == 0, "oracle passes an uncorrupted run");
  options.corrupt_op = 0;  // the first set-up's first op: SQ1 on 1-thread Datalog
  e2e::RunReport corrupted;
  e2e::RunWorkload("ldbc-interactive", options, &corrupted);
  ok &= Check(!corrupted.correct && corrupted.failed == 1,
              "oracle counts an op whose expected row was corrupted");

  std::printf("self-test %s\n", ok ? "passed" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  e2e::RunOptions options;
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--selftest") return SelfTest();
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = value;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || number < 0) return Usage();
    if (arg == "--seed") {
      options.seed = static_cast<uint64_t>(number);
      have_seed = true;
    } else if (arg == "--seconds") {
      options.seconds = number;
      have_seconds = true;
    } else if (arg == "--trace") {
      trace = static_cast<int>(number);
    } else {
      return Usage();
    }
  }
  if (workload.empty() || !have_seed || !have_seconds ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  options.trace = trace == 1;

  e2e::RunReport report;
  if (!e2e::RunWorkload(workload, options, &report)) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  std::fputs(report.text.c_str(), stdout);
  for (const std::string& gap : report.gaps) {
    std::printf("gap-check: %s\n", gap.c_str());
  }
  std::printf("%s\n", e2e::ResultJson(report.correct, report.attempted,
                                      report.failed, report.metrics)
                          .c_str());
  return 0;
}
