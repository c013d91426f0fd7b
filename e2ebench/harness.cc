#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <unordered_map>

#include <sys/resource.h>

namespace e2e {

namespace {

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t ValueWord(const raqlet::Value& v) {
  return SplitMix(static_cast<uint64_t>(v.RawBits()) ^
                  (static_cast<uint64_t>(v.kind()) << 59));
}

uint64_t RowHash(const raqlet::Tuple& row) {
  uint64_t h = 0x243f6a8885a308d3ULL ^ row.size();
  for (const raqlet::Value& v : row) h = SplitMix(h ^ ValueWord(v));
  return h;
}

}  // namespace

void RowDigest::Add(const raqlet::Tuple& row) {
  const uint64_t h = RowHash(row);
  ++rows;
  sum_a += h;
  sum_b += SplitMix(h ^ 0x13198a2e03707344ULL);
}

void RowDigest::Remove(const raqlet::Tuple& row) {
  const uint64_t h = RowHash(row);
  --rows;
  sum_a -= h;
  sum_b -= SplitMix(h ^ 0x13198a2e03707344ULL);
}

RowDigest DigestRows(const std::vector<raqlet::Tuple>& rows) {
  RowDigest digest;
  for (const raqlet::Tuple& row : rows) digest.Add(row);
  return digest;
}

uint64_t OrderedHash(const std::vector<raqlet::Tuple>& rows) {
  uint64_t h = rows.size();
  for (const raqlet::Tuple& row : rows) h = SplitMix(h ^ RowHash(row));
  return h;
}

RowDigest DigestRelation(const raqlet::Relation& relation) {
  std::vector<raqlet::Relation::ColumnView> columns;
  for (size_t c = 0; c < relation.arity(); ++c) {
    columns.push_back(relation.Column(c));
  }
  RowDigest digest;
  raqlet::Tuple row(relation.arity());
  for (size_t r = 0; r < relation.size(); ++r) {
    for (size_t c = 0; c < columns.size(); ++c) row[c] = columns[c].at(r);
    digest.Add(row);
  }
  return digest;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double pos = q * static_cast<double>(values.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, values.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

GapCheck CheckGap(const std::vector<Sample>& samples, double q) {
  GapCheck out;
  std::map<std::string, std::vector<double>> by_group;
  std::vector<double> all;
  for (const Sample& s : samples) {
    by_group[s.group].push_back(s.ms);
    all.push_back(s.ms);
  }
  if (by_group.size() < 2) return out;
  const double value = Percentile(all, q);
  std::string below, above;
  double below_hi = 0, above_lo = 0;
  for (const auto& [group, values] : by_group) {
    const double lo = Percentile(values, 0.1);
    const double hi = Percentile(values, 0.9);
    if (lo <= value && value <= hi) return out;
    if (hi < value && (below.empty() || hi > below_hi)) {
      below = group;
      below_hi = hi;
    }
    if (lo > value && (above.empty() || lo < above_lo)) {
      above = group;
      above_lo = lo;
    }
  }
  out.on_gap = true;
  out.detail = FormatNumber(value) + " lies between " +
               (below.empty() ? "nothing" : below + " (p90 " + FormatNumber(below_hi) + ")") +
               " and " +
               (above.empty() ? "nothing" : above + " (p10 " + FormatNumber(above_lo) + ")");
  return out;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ---------------------------------------------------------------------------
// Trace folding
// ---------------------------------------------------------------------------

std::string LayerOfSpan(const std::string& base, const std::string& frontend) {
  static const std::unordered_map<std::string, std::string> kLayers = {
      {"compile.lower", "pgir.lower"},
      {"compile.translate", "pgir.translate"},
      {"compile.optimize", "opt.optimize"},
      {"sqir.emit", "sqir.emit"},
      {"datalog.variant", "datalog.join"},
      {"datalog.merge", "datalog.merge"},
      {"datalog.run", "datalog.other"},
      {"datalog.scc", "datalog.other"},
      {"datalog.round", "datalog.other"},
      {"sql.round", "sql.round"},
      {"sql.run", "sql.other"},
      {"sql.cte", "sql.other"},
      {"graph.clause", "graph.clause"},
      {"graph.closure", "graph.closure"},
      {"graph.run", "graph.other"},
      {"pool.task", "runtime.pool"},
      {"pool.for", "runtime.pool"},
      {"dag.node", "runtime.pool"},
      {"bench.op", "unattributed"},
      {"bench.compile", "compile.facade"},
      {"bench.run", "engine.facade"},
      {"bench.delta", "incremental.maintain"},
      {"bench.store", "engine.graph_store"},
  };
  if (base == "compile.parse") return frontend + ".parse";
  auto it = kLayers.find(base);
  return it != kLayers.end() ? it->second : "other." + base;
}

namespace {

struct Span {
  std::string base;
  int64_t index = -1;
  int64_t ts = 0;
  int64_t end = 0;
  uint32_t tid = 0;
  int64_t self = 0;
  int op = -1;  // position in the op list
};

Span ParseSpan(const raqlet::obs::TraceEvent& event) {
  Span span;
  size_t space = event.name.find(' ');
  span.base = event.name.substr(0, space);
  if (space != std::string::npos) {
    span.index = std::stoll(event.name.substr(space + 1));
  }
  span.ts = event.ts_us;
  span.end = event.ts_us + event.dur_us;
  span.tid = event.tid;
  span.self = event.dur_us;
  return span;
}

}  // namespace

std::vector<OpLayers> FoldTrace(
    const std::vector<raqlet::obs::TraceEvent>& events,
    const std::vector<TracedOp>& ops) {
  std::vector<Span> spans;
  spans.reserve(events.size());
  for (const raqlet::obs::TraceEvent& event : events) {
    spans.push_back(ParseSpan(event));
  }

  // Op intervals from the bench.op spans (the single client runs ops one
  // after another, so intervals are disjoint).
  std::unordered_map<int64_t, int> op_pos;
  for (size_t i = 0; i < ops.size(); ++i) op_pos[ops[i].id] = static_cast<int>(i);
  std::vector<std::pair<int64_t, int>> starts;  // (ts, op position)
  std::vector<int64_t> ends(ops.size(), 0);
  for (const Span& span : spans) {
    if (span.base != "bench.op") continue;
    auto it = op_pos.find(span.index);
    if (it == op_pos.end()) continue;
    starts.push_back({span.ts, it->second});
    ends[static_cast<size_t>(it->second)] = span.end;
  }
  std::sort(starts.begin(), starts.end());
  for (Span& span : spans) {
    auto it = std::upper_bound(
        starts.begin(), starts.end(),
        std::make_pair(span.ts, static_cast<int>(ops.size())));
    if (it == starts.begin()) continue;
    --it;
    if (span.ts <= ends[static_cast<size_t>(it->second)]) span.op = it->second;
  }

  // Self time by nesting, per thread: parents sort before their children
  // (earlier start, or the same start and a longer duration).
  std::vector<size_t> order(spans.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Span& x = spans[a];
    const Span& y = spans[b];
    if (x.tid != y.tid) return x.tid < y.tid;
    if (x.ts != y.ts) return x.ts < y.ts;
    return x.end > y.end;
  });
  std::vector<size_t> stack;
  uint32_t current_tid = 0;
  for (size_t idx : order) {
    Span& span = spans[idx];
    if (stack.empty() || span.tid != current_tid) {
      stack.clear();
      current_tid = span.tid;
    }
    // Pop the spans that ended before this one started; a zero-length
    // span in its parent's last microsecond still nests in it.
    while (!stack.empty() && spans[stack.back()].end <= span.ts &&
           !(spans[stack.back()].end == span.ts && span.end == span.ts)) {
      stack.pop_back();
    }
    if (!stack.empty() && span.end <= spans[stack.back()].end) {
      spans[stack.back()].self -= span.end - span.ts;
    }
    stack.push_back(idx);
  }

  std::vector<OpLayers> out(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) out[i].op = ops[i];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    if (span.op < 0) continue;
    OpLayers& layers = out[static_cast<size_t>(span.op)];
    const double self_ms = static_cast<double>(span.self) / 1000.0;
    const double dur_ms = static_cast<double>(span.end - span.ts) / 1000.0;
    layers.self_ms[LayerOfSpan(span.base, layers.op.frontend)] += self_ms;
    if (span.base == "bench.op") layers.wall_ms = dur_ms;
    if (span.base == "bench.run") layers.facade_ms += dur_ms;
    if (span.base == "datalog.run" || span.base == "sql.run" ||
        span.base == "graph.run") {
      layers.engine_span_ms += dur_ms;
    }
    if (span.base == "pool.task") layers.pool_task_ms += dur_ms;
    if (layers.op.delta && span.base.rfind("datalog.", 0) == 0) {
      layers.recompute_ms += self_ms;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string FormatNumber(double value) {
  char buf[64];
  auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           FormatNumber(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace e2e
