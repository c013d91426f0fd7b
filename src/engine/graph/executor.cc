#include "engine/graph/executor.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

#include "obs/trace.h"
#include "runtime/failpoint.h"
#include "storage/relation.h"

namespace raqlet::engine {

namespace {

using cypher::BinOp;
using cypher::EdgeDirection;
using cypher::Expr;
using cypher::ExprKind;
using pgir::EdgePat;
using pgir::Item;
using pgir::MatchOp;
using pgir::NodePat;
using pgir::PgirQuery;
using pgir::ReturnOp;
using pgir::WhereOp;
using pgir::WithOp;

struct ColumnMeta {
  enum Kind { kNode, kEdge, kValue, kPathLength };
  Kind kind = kValue;
  std::string label;       // node label / edge label
  int row_column = -1;     // kEdge: index of the hidden edge-row column
};

dlir::CmpOp ToCmpOp(BinOp op) {
  switch (op) {
    case BinOp::kEq:
      return dlir::CmpOp::kEq;
    case BinOp::kNe:
      return dlir::CmpOp::kNe;
    case BinOp::kLt:
      return dlir::CmpOp::kLt;
    case BinOp::kLe:
      return dlir::CmpOp::kLe;
    case BinOp::kGt:
      return dlir::CmpOp::kGt;
    default:
      return dlir::CmpOp::kGe;
  }
}

dlir::ArithOp ToArithOp(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
      return dlir::ArithOp::kAdd;
    case BinOp::kSub:
      return dlir::ArithOp::kSub;
    case BinOp::kMul:
      return dlir::ArithOp::kMul;
    case BinOp::kDiv:
      return dlir::ArithOp::kDiv;
    default:
      return dlir::ArithOp::kMod;
  }
}

// Traversal machinery shared by both binding-table representations:
// direction-aware neighbour walks, the memoized >=1-step reachability
// closure, and the BFS variants for bounded/shortest variable-length
// patterns. Memoization lives here so a query pays for each closure once
// regardless of which executor asked for it.
class Traversals {
 public:
  Traversals(const GraphStore& store, GraphStats* stats,
             obs::GraphMetrics* metrics = nullptr,
             const runtime::QueryGuard* guard = nullptr)
      : store_(store), stats_(stats), metrics_(metrics), guard_(guard) {}

  // Polled once per BFS frontier pop. A trip abandons the walk early; the
  // partial closure is still memoized, but the memo dies with this
  // execution object (one per Run), and the clause loop re-checks the
  // guard before any partial result could reach the caller.
  bool GuardTripped() const {
    return guard_ != nullptr && !guard_->Check().ok();
  }

  // Neighbour expansion respecting direction.
  void ForEachNeighbor(const std::string& edge_label, int64_t node,
                       EdgeDirection direction, bool reverse,
                       const std::function<void(const GraphStore::Neighbor&)>&
                           visit) const {
    EdgeDirection dir = direction;
    if (reverse && dir == EdgeDirection::kOutgoing) {
      dir = EdgeDirection::kIncoming;
    } else if (reverse && dir == EdgeDirection::kIncoming) {
      dir = EdgeDirection::kOutgoing;
    }
    if (dir == EdgeDirection::kOutgoing || dir == EdgeDirection::kUndirected) {
      for (const auto& nb : store_.OutNeighbors(edge_label, node)) visit(nb);
    }
    if (dir == EdgeDirection::kIncoming || dir == EdgeDirection::kUndirected) {
      for (const auto& nb : store_.InNeighbors(edge_label, node)) visit(nb);
    }
  }

  // Memoized >=1-step reachability closure, keyed per (edge label,
  // direction, reverse) traversal and shared across every start node of
  // the query — a traversal that reaches an already-closed node unions
  // the cached set instead of re-walking (closure sets are transitively
  // closed, so their members never need expanding either).
  using NodeSet = std::unordered_set<int64_t>;
  const NodeSet& Closure(const std::string& upper, EdgeDirection direction,
                         bool reverse, int64_t start) const {
    auto& memo =
        closure_memos_[{upper, static_cast<int>(direction), reverse}];
    auto hit = memo.find(start);
    if (hit != memo.end()) {
      NoteClosureHit();
      return *hit->second;
    }
    NoteClosureMiss();
    obs::TraceScope span("graph.closure");
    auto result = std::make_unique<NodeSet>();
    NodeSet& reached = *result;
    std::deque<int64_t> queue;  // nodes whose edges still need walking
    auto visit = [&](const GraphStore::Neighbor& nb) {
      if (reached.insert(nb.node).second) queue.push_back(nb.node);
    };
    ForEachNeighbor(upper, start, direction, reverse, visit);
    while (!queue.empty()) {
      if (GuardTripped()) break;
      NoteFrontier(queue.size());
      int64_t node = queue.front();
      queue.pop_front();
      auto cached = memo.find(node);
      if (cached != memo.end()) {
        NoteClosureHit();
        for (int64_t m : *cached->second) reached.insert(m);
        continue;
      }
      ForEachNeighbor(upper, node, direction, reverse, visit);
      if (stats_ != nullptr) ++stats_->bfs_visits;
    }
    return *memo.emplace(start, std::move(result)).first->second;
  }

  // Sorted view of Closure(start), cached so repeated bindings with the
  // same start do not re-sort (the deterministic emit order of unbounded
  // reachability is ascending node id).
  const std::vector<int64_t>& SortedClosure(const std::string& upper,
                                            EdgeDirection direction,
                                            bool reverse,
                                            int64_t start) const {
    auto& memo =
        sorted_memos_[{upper, static_cast<int>(direction), reverse}];
    auto hit = memo.find(start);
    if (hit != memo.end()) return hit->second;
    const NodeSet& closed = Closure(upper, direction, reverse, start);
    std::vector<int64_t> sorted(closed.begin(), closed.end());
    std::sort(sorted.begin(), sorted.end());
    return memo.emplace(start, std::move(sorted)).first->second;
  }

  // BFS over (node, depth) states, mirroring the DLIR walk semantics.
  // Returns reachable nodes with qualifying depths in [min_hops, max_hops]
  // (max < 0 = unbounded), or min distances when `shortest`.
  std::vector<std::pair<int64_t, int64_t>> Bfs(const std::string& upper,
                                               int64_t start,
                                               EdgeDirection direction,
                                               bool reverse, int min_hops,
                                               int max_hops,
                                               bool shortest) const {
    std::vector<std::pair<int64_t, int64_t>> out;
    if (!shortest && max_hops < 0 && min_hops <= 1) {
      // Plain unbounded reachability: no caller consumes the depths (the
      // emit path only reads them for shortest-path length bindings), so
      // serve the memoized closure. Sorted for a deterministic row order.
      const std::vector<int64_t>& closed =
          SortedClosure(upper, direction, reverse, start);
      out.reserve(closed.size() + 1);
      for (int64_t node : closed) out.emplace_back(node, 1);
      if (min_hops == 0) out.emplace_back(start, 0);
      return out;
    }
    if (shortest || max_hops < 0) {
      if (!shortest && min_hops > 1) {
        // Walks of length >= m: exact-depth states up to m, then closure.
        auto exact = BoundedWalks(upper, start, direction, reverse, min_hops,
                                  min_hops);
        std::set<int64_t> frontier;
        for (const auto& [node, d] : exact) frontier.insert(node);
        std::set<int64_t> all(frontier);
        for (int64_t node : frontier) {
          for (const auto& [n2, d2] :
               Bfs(upper, node, direction, reverse, 1, -1, false)) {
            all.insert(n2);
          }
        }
        for (int64_t node : all) out.emplace_back(node, min_hops);
        return out;
      }
      // Min walk-length (>= 1) BFS, seeded from the one-step neighbours so
      // that cycles back to `start` are found (matching the DLIR
      // reachability/lattice semantics, where dist(x, x) exists on cycles).
      std::unordered_map<int64_t, int64_t> dist;
      std::deque<int64_t> queue;
      ForEachNeighbor(upper, start, direction, reverse,
                      [&](const GraphStore::Neighbor& nb) {
                        if (dist.count(nb.node) > 0) return;
                        dist[nb.node] = 1;
                        queue.push_back(nb.node);
                      });
      while (!queue.empty()) {
        if (GuardTripped()) break;
        NoteFrontier(queue.size());
        int64_t node = queue.front();
        queue.pop_front();
        int64_t d = dist[node];
        ForEachNeighbor(upper, node, direction, reverse,
                        [&](const GraphStore::Neighbor& nb) {
                          if (dist.count(nb.node) > 0) return;
                          dist[nb.node] = d + 1;
                          queue.push_back(nb.node);
                        });
        if (stats_ != nullptr) ++stats_->bfs_visits;
      }
      for (const auto& [node, d] : dist) out.emplace_back(node, d);
      if (min_hops == 0) out.emplace_back(start, 0);
      return out;
    }
    return BoundedWalks(upper, start, direction, reverse, min_hops, max_hops);
  }

  // Exact (node, depth) walk states for bounded ranges.
  std::vector<std::pair<int64_t, int64_t>> BoundedWalks(
      const std::string& upper, int64_t start, EdgeDirection direction,
      bool reverse, int min_hops, int max_hops) const {
    std::set<std::pair<int64_t, int64_t>> states;  // (node, depth)
    std::deque<std::pair<int64_t, int64_t>> queue;
    queue.emplace_back(start, 0);
    states.insert({start, 0});
    std::set<std::pair<int64_t, int64_t>> result;
    while (!queue.empty()) {
      if (GuardTripped()) break;
      NoteFrontier(queue.size());
      auto [node, d] = queue.front();
      queue.pop_front();
      if (d >= min_hops && d >= 1) result.insert({node, d});
      if (min_hops == 0 && d == 0) result.insert({node, 0});
      if (d == max_hops) continue;
      ForEachNeighbor(upper, node, direction, reverse,
                      [&](const GraphStore::Neighbor& nb) {
                        if (states.insert({nb.node, d + 1}).second) {
                          queue.emplace_back(nb.node, d + 1);
                        }
                      });
      if (stats_ != nullptr) ++stats_->bfs_visits;
    }
    return {result.begin(), result.end()};
  }

 private:
  void NoteClosureHit() const {
    if (stats_ != nullptr) ++stats_->closure_cache_hits;
    if (metrics_ != nullptr) ++metrics_->closure_cache_hits;
  }
  void NoteClosureMiss() const {
    if (stats_ != nullptr) ++stats_->closure_cache_misses;
    if (metrics_ != nullptr) ++metrics_->closure_cache_misses;
  }
  void NoteFrontier(size_t size) const {
    if (metrics_ != nullptr && size > metrics_->frontier_peak) {
      metrics_->frontier_peak = size;
    }
  }

  const GraphStore& store_;
  GraphStats* stats_;
  obs::GraphMetrics* metrics_;
  const runtime::QueryGuard* guard_;
  // Completed reachability closures per traversal signature; see Closure.
  mutable std::map<std::tuple<std::string, int, bool>,
                   std::unordered_map<int64_t, std::unique_ptr<NodeSet>>>
      closure_memos_;
  mutable std::map<std::tuple<std::string, int, bool>,
                   std::unordered_map<int64_t, std::vector<int64_t>>>
      sorted_memos_;
};

// ---------------------------------------------------------------------------
// kRowBinding: the historical per-binding interpreter. The binding table is
// a vector of row tuples; every MATCH step copies and extends whole rows one
// binding at a time. Kept verbatim as the paper's Table 1 per-binding
// stand-in and as the reference the batch mode is differentially tested
// against (cross_engine_test.cc asserts exact row-order equality).
// ---------------------------------------------------------------------------

// The clause-by-clause binding table.
struct BindingTable {
  std::vector<std::string> columns;
  std::map<std::string, size_t> index;
  std::vector<ColumnMeta> meta;
  std::vector<Tuple> rows;

  int Find(const std::string& name) const {
    auto it = index.find(name);
    return it == index.end() ? -1 : static_cast<int>(it->second);
  }
  size_t AddColumn(const std::string& name, ColumnMeta m) {
    index[name] = columns.size();
    columns.push_back(name);
    meta.push_back(m);
    return columns.size() - 1;
  }
};

class RowExecution {
 public:
  RowExecution(const GraphStore& store, const schema::DlSchema& dl,
               Database* db, GraphStats* stats,
               obs::GraphMetrics* metrics = nullptr,
               const runtime::QueryGuard* guard = nullptr)
      : store_(store), dl_(dl), db_(db), stats_(stats), metrics_(metrics),
        guard_(guard), trav_(store, stats, metrics, guard) {}

  Result<ResultTable> Run(const PgirQuery& query) {
    table_.rows.push_back({});  // one empty binding
    int64_t clause_index = 0;
    size_t rows_prev = 0;
    for (const pgir::Op& op : query.ops) {
      // Per-clause guard checkpoint: poll before expanding, and feed the
      // budget the previous clause's binding-table growth (deterministic
      // — clause boundaries are the same at every thread count).
      if (guard_ != nullptr) {
        size_t now = table_.rows.size();
        RAQLET_RETURN_IF_ERROR(
            guard_->AddRows(now > rows_prev ? now - rows_prev : 0));
        rows_prev = now;
        RAQLET_RETURN_IF_ERROR(guard_->Check());
      }
      obs::TraceScope clause_span("graph.clause", clause_index++);
      const char* kind = "";
      if (const auto* match = std::get_if<MatchOp>(&op)) {
        kind = "match";
        RAQLET_RETURN_IF_ERROR(ExecMatch(*match));
      } else if (const auto* where = std::get_if<WhereOp>(&op)) {
        kind = "where";
        RAQLET_RETURN_IF_ERROR(ExecWhere(*where));
      } else if (const auto* with = std::get_if<WithOp>(&op)) {
        kind = "with";
        RAQLET_RETURN_IF_ERROR(ExecProjection(with->items, with->distinct,
                                              /*is_return=*/false));
      } else if (const auto* ret = std::get_if<ReturnOp>(&op)) {
        kind = "return";
        RAQLET_RETURN_IF_ERROR(
            ExecProjection(ret->items, ret->distinct, /*is_return=*/true));
      }
      if (metrics_ != nullptr) {
        metrics_->clauses.push_back({kind, table_.rows.size()});
      }
    }
    // A trip inside the last clause (e.g. a BFS abandoned mid-frontier)
    // must surface as the terminal status, never as a partial result.
    if (guard_ != nullptr) RAQLET_RETURN_IF_ERROR(guard_->Check());
    ResultTable result;
    result.columns = table_.columns;
    result.rows = std::move(table_.rows);
    return result;
  }

 private:
  // ---- MATCH ----

  Status CheckNode(const NodePat& node, bool* known) {
    int col = table_.Find(node.id);
    *known = col >= 0;
    if (!*known && node.label.empty()) {
      return Status::Unsupported("unlabeled node pattern introduces '" +
                                 node.id + "'");
    }
    if (!node.label.empty() && dl_.FindNode(node.label) == nullptr) {
      return Status::NotFound("no node type with label '" + node.label + "'");
    }
    return Status::OK();
  }

  Status ExecMatch(const MatchOp& match) {
    for (const EdgePat& edge : match.edges) {
      if (edge.variable_length || edge.shortest) {
        RAQLET_RETURN_IF_ERROR(ExpandRecursive(edge));
      } else {
        RAQLET_RETURN_IF_ERROR(ExpandSimple(edge));
      }
    }
    for (const NodePat& node : match.nodes) {
      RAQLET_RETURN_IF_ERROR(ExpandLoneNode(node));
    }
    return Status::OK();
  }

  Status ExpandLoneNode(const NodePat& node) {
    bool known = false;
    RAQLET_RETURN_IF_ERROR(CheckNode(node, &known));
    if (known) {
      // Label filter on the existing binding.
      if (node.label.empty()) return Status::OK();
      size_t col = static_cast<size_t>(table_.Find(node.id));
      std::vector<Tuple> kept;
      for (Tuple& row : table_.rows) {
        if (store_.HasLabel(node.label, row[col].AsNumber())) {
          kept.push_back(std::move(row));
        }
      }
      table_.rows = std::move(kept);
      return Status::OK();
    }
    size_t col = table_.AddColumn(node.id, {ColumnMeta::kNode, node.label, -1});
    (void)col;
    std::vector<Tuple> next;
    for (const Tuple& row : table_.rows) {
      for (int64_t id : store_.NodesWithLabel(node.label)) {
        Tuple extended = row;
        extended.push_back(Value::Number(id));
        next.push_back(std::move(extended));
        if (stats_ != nullptr) ++stats_->rows_expanded;
      }
    }
    table_.rows = std::move(next);
    return Status::OK();
  }

  // Resolves endpoint label checks after traversal.
  bool EndpointOk(const NodePat& node, int64_t id) const {
    return node.label.empty() || store_.HasLabel(node.label, id);
  }

  Status ExpandSimple(const EdgePat& edge) {
    const schema::EdgeRelationInfo* info = dl_.FindEdge(edge.label);
    if (info == nullptr) {
      return Status::NotFound("no edge type with label '" + edge.label + "'");
    }
    bool src_known = false;
    bool dst_known = false;
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.src, &src_known));
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.dst, &dst_known));

    int src_col = table_.Find(edge.src.id);
    int dst_col = table_.Find(edge.dst.id);

    // New columns for unbound endpoints and the edge binding.
    if (!src_known) {
      table_.AddColumn(edge.src.id, {ColumnMeta::kNode, edge.src.label, -1});
    }
    if (!dst_known && edge.dst.id != edge.src.id) {
      table_.AddColumn(edge.dst.id, {ColumnMeta::kNode, edge.dst.label, -1});
    }
    bool bind_edge = info->PropertyColumn("id") >= 0 &&
                     edge.direction != EdgeDirection::kUndirected &&
                     table_.Find(edge.id) < 0;
    int edge_row_col = -1;
    if (bind_edge) {
      edge_row_col = static_cast<int>(table_.columns.size()) + 1;
      table_.AddColumn(edge.id,
                       {ColumnMeta::kEdge, edge.label, edge_row_col});
      table_.AddColumn("__row_" + edge.id, {ColumnMeta::kValue, "", -1});
    }

    const std::string upper = schema::ToUpperSnake(edge.label);
    int id_prop_col = info->PropertyColumn("id");
    // Borrow the edge-id column once for the whole expansion.
    Relation::ColumnView edge_id_col;
    if (bind_edge) {
      Result<Relation::ColumnView> c = store_.EdgeColumn(upper, id_prop_col);
      RAQLET_RETURN_IF_ERROR(c.status());
      edge_id_col = *c;
    }
    std::vector<Tuple> next;
    auto emit = [&](const Tuple& base, int64_t src_id, int64_t dst_id,
                    uint32_t edge_row) {
      if (!EndpointOk(edge.src, src_id) || !EndpointOk(edge.dst, dst_id)) {
        return;
      }
      Tuple row = base;
      if (!src_known) row.push_back(Value::Number(src_id));
      if (!dst_known && edge.dst.id != edge.src.id) {
        row.push_back(Value::Number(dst_id));
      } else if (!dst_known && edge.dst.id == edge.src.id &&
                 src_id != dst_id) {
        return;  // (a)-[:X]->(a): self loop required
      }
      if (bind_edge) {
        row.push_back(edge_id_col.at(edge_row));
        row.push_back(Value::Number(edge_row));
      }
      next.push_back(std::move(row));
      if (stats_ != nullptr) ++stats_->rows_expanded;
    };

    for (const Tuple& row : table_.rows) {
      std::optional<int64_t> src_val;
      std::optional<int64_t> dst_val;
      if (src_known) src_val = row[static_cast<size_t>(src_col)].AsNumber();
      if (dst_known) dst_val = row[static_cast<size_t>(dst_col)].AsNumber();

      // Deduplicate undirected self-loop double visits.
      std::set<std::pair<int64_t, uint32_t>> seen;
      auto visit = [&](int64_t from, const GraphStore::Neighbor& nb) {
        if (!seen.insert({nb.node, nb.edge_row}).second) return;
        if (dst_val.has_value() && nb.node != *dst_val) return;
        if (edge.dst.id == edge.src.id && !dst_known && nb.node != from) {
          return;  // repeated identifier within the pattern
        }
        emit(row, from, nb.node, nb.edge_row);
      };

      if (src_val.has_value()) {
        trav_.ForEachNeighbor(upper, *src_val, edge.direction,
                              /*reverse=*/false,
                              [&](const GraphStore::Neighbor& nb) {
                                visit(*src_val, nb);
                              });
      } else if (dst_val.has_value()) {
        // Traverse backwards, binding the source.
        trav_.ForEachNeighbor(upper, *dst_val, edge.direction,
                              /*reverse=*/true,
                              [&](const GraphStore::Neighbor& nb) {
                                seen.clear();
                                if (dst_val.has_value()) {
                                  // nb.node is the source here.
                                  emit(row, nb.node, *dst_val, nb.edge_row);
                                }
                              });
      } else {
        // Neither endpoint bound: scan source label (or all labeled nodes
        // of the schema endpoint).
        std::string scan_label = !edge.src.label.empty()
                                     ? edge.src.label
                                     : info->src_label;
        for (int64_t id : store_.NodesWithLabel(scan_label)) {
          seen.clear();
          trav_.ForEachNeighbor(upper, id, edge.direction, /*reverse=*/false,
                                [&](const GraphStore::Neighbor& nb) {
                                  visit(id, nb);
                                });
        }
      }
    }
    table_.rows = std::move(next);
    return Status::OK();
  }

  Status ExpandRecursive(const EdgePat& edge) {
    const schema::EdgeRelationInfo* info = dl_.FindEdge(edge.label);
    if (info == nullptr) {
      return Status::NotFound("no edge type with label '" + edge.label + "'");
    }
    const std::string upper = schema::ToUpperSnake(edge.label);
    bool src_known = false;
    bool dst_known = false;
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.src, &src_known));
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.dst, &dst_known));
    int src_col = table_.Find(edge.src.id);
    int dst_col = table_.Find(edge.dst.id);

    if (!src_known) {
      table_.AddColumn(edge.src.id, {ColumnMeta::kNode, edge.src.label, -1});
    }
    if (!dst_known) {
      table_.AddColumn(edge.dst.id, {ColumnMeta::kNode, edge.dst.label, -1});
    }
    bool bind_len = edge.shortest && !edge.path_id.empty();
    if (bind_len) {
      table_.AddColumn(edge.path_id + "_len",
                       {ColumnMeta::kPathLength, "", -1});
    }

    std::vector<Tuple> next;
    auto emit = [&](const Tuple& base, int64_t src_id, int64_t dst_id,
                    int64_t len) {
      if (!EndpointOk(edge.src, src_id) || !EndpointOk(edge.dst, dst_id)) {
        return;
      }
      Tuple row = base;
      if (!src_known) row.push_back(Value::Number(src_id));
      if (!dst_known) row.push_back(Value::Number(dst_id));
      if (bind_len) row.push_back(Value::Number(len));
      next.push_back(std::move(row));
      if (stats_ != nullptr) ++stats_->rows_expanded;
    };

    for (const Tuple& row : table_.rows) {
      std::optional<int64_t> src_val;
      std::optional<int64_t> dst_val;
      if (src_known) src_val = row[static_cast<size_t>(src_col)].AsNumber();
      if (dst_known) dst_val = row[static_cast<size_t>(dst_col)].AsNumber();

      auto run_from = [&](int64_t start) {
        auto reached = trav_.Bfs(upper, start, edge.direction,
                                 /*reverse=*/false, edge.min_hops,
                                 edge.max_hops, edge.shortest);
        std::set<std::pair<int64_t, int64_t>> dedup;
        for (const auto& [node, d] : reached) {
          if (dst_val.has_value() && node != *dst_val) continue;
          if (edge.shortest) {
            emit(row, start, node, d);
          } else if (dedup.insert({node, 0}).second) {
            emit(row, start, node, d);  // pair once, any qualifying depth
          }
        }
      };

      if (src_val.has_value()) {
        run_from(*src_val);
      } else if (dst_val.has_value()) {
        // Reverse BFS from the destination.
        auto reached = trav_.Bfs(upper, *dst_val, edge.direction,
                                 /*reverse=*/true, edge.min_hops,
                                 edge.max_hops, edge.shortest);
        std::set<int64_t> dedup;
        for (const auto& [node, d] : reached) {
          if (edge.shortest) {
            emit(row, node, *dst_val, d);
          } else if (dedup.insert(node).second) {
            emit(row, node, *dst_val, d);
          }
        }
      } else {
        std::string scan_label = !edge.src.label.empty()
                                     ? edge.src.label
                                     : info->src_label;
        for (int64_t start : store_.NodesWithLabel(scan_label)) {
          run_from(start);
        }
      }
    }
    table_.rows = std::move(next);
    return Status::OK();
  }

  // ---- expressions ----

  Result<Value> Eval(const Expr& expr, const Tuple& row) const {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return ConstantToValue(expr.literal, &db_->symbols());
      case ExprKind::kVariable: {
        int col = table_.Find(expr.var);
        if (col < 0) {
          return Status::NotFound("unknown identifier '" + expr.var + "'");
        }
        return row[static_cast<size_t>(col)];
      }
      case ExprKind::kProperty: {
        int col = table_.Find(expr.var);
        if (col < 0) {
          return Status::NotFound("unknown identifier '" + expr.var + "'");
        }
        const ColumnMeta& meta = table_.meta[static_cast<size_t>(col)];
        if (meta.kind == ColumnMeta::kNode) {
          if (expr.property == "id") return row[static_cast<size_t>(col)];
          return store_.NodeProperty(meta.label,
                                     row[static_cast<size_t>(col)].AsNumber(),
                                     expr.property);
        }
        if (meta.kind == ColumnMeta::kEdge) {
          if (expr.property == "id") return row[static_cast<size_t>(col)];
          uint32_t edge_row = static_cast<uint32_t>(
              row[static_cast<size_t>(meta.row_column)].AsNumber());
          return store_.EdgeProperty(meta.label, edge_row, expr.property);
        }
        return Status::Unsupported("property access on value identifier '" +
                                   expr.var + "'");
      }
      case ExprKind::kParameter:
        return Status::Internal("unresolved parameter");
      case ExprKind::kBinary: {
        switch (expr.bin_op) {
          case BinOp::kAnd:
          case BinOp::kOr: {
            RAQLET_ASSIGN_OR_RETURN(Value lhs, Eval(expr.children[0], row));
            RAQLET_ASSIGN_OR_RETURN(Value rhs, Eval(expr.children[1], row));
            bool l = lhs.AsBool();
            bool r = rhs.AsBool();
            return Value::Bool(expr.bin_op == BinOp::kAnd ? (l && r)
                                                          : (l || r));
          }
          case BinOp::kEq:
          case BinOp::kNe:
          case BinOp::kLt:
          case BinOp::kLe:
          case BinOp::kGt:
          case BinOp::kGe: {
            RAQLET_ASSIGN_OR_RETURN(Value lhs, Eval(expr.children[0], row));
            RAQLET_ASSIGN_OR_RETURN(Value rhs, Eval(expr.children[1], row));
            return Value::Bool(
                CheckCmp(ToCmpOp(expr.bin_op), lhs, rhs, db_->symbols()));
          }
          default: {
            RAQLET_ASSIGN_OR_RETURN(Value lhs, Eval(expr.children[0], row));
            RAQLET_ASSIGN_OR_RETURN(Value rhs, Eval(expr.children[1], row));
            return EvalArith(ToArithOp(expr.bin_op), lhs, rhs);
          }
        }
      }
      case ExprKind::kUnary: {
        RAQLET_ASSIGN_OR_RETURN(Value inner, Eval(expr.children[0], row));
        if (expr.un_op == cypher::UnOp::kNot) {
          return Value::Bool(!inner.AsBool());
        }
        return EvalArith(dlir::ArithOp::kSub, Value::Number(0), inner);
      }
      case ExprKind::kCall: {
        if (expr.function == "id" && expr.children.size() == 1) {
          return Eval(expr.children[0], row);
        }
        if (expr.function == "length" && expr.children.size() == 1 &&
            expr.children[0].kind == ExprKind::kVariable) {
          int col = table_.Find(expr.children[0].var + "_len");
          if (col >= 0) return row[static_cast<size_t>(col)];
          return Status::Unsupported("length() of a non-shortest-path "
                                     "variable");
        }
        return Status::Unsupported("function '" + expr.function + "'");
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  Status ExecWhere(const WhereOp& where) {
    std::vector<Tuple> kept;
    for (Tuple& row : table_.rows) {
      RAQLET_ASSIGN_OR_RETURN(Value v, Eval(where.predicate, row));
      if (v.AsBool()) kept.push_back(std::move(row));
    }
    table_.rows = std::move(kept);
    return Status::OK();
  }

  // ---- WITH / RETURN ----

  Status ExecProjection(const std::vector<Item>& items, bool distinct,
                        bool is_return) {
    RAQLET_FAILPOINT("graph.project");
    int agg_pos = -1;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].expr.IsAggregateCall()) {
        if (agg_pos >= 0) {
          return Status::Unsupported("at most one aggregate per projection");
        }
        agg_pos = static_cast<int>(i);
      }
    }

    BindingTable next;
    for (const Item& item : items) {
      ColumnMeta meta{ColumnMeta::kValue, "", -1};
      if (item.expr.kind == ExprKind::kVariable) {
        int col = table_.Find(item.expr.var);
        if (col >= 0) meta = table_.meta[static_cast<size_t>(col)];
      }
      next.AddColumn(item.alias, meta);
    }
    // Preserve hidden edge-row columns for identifiers that survive.
    std::map<size_t, size_t> row_col_remap;
    for (size_t i = 0; i < items.size(); ++i) {
      const ColumnMeta& meta = next.meta[i];
      if (meta.kind == ColumnMeta::kEdge && meta.row_column >= 0) {
        size_t hidden =
            next.AddColumn("__row_" + items[i].alias,
                           {ColumnMeta::kValue, "", -1});
        row_col_remap[i] = hidden;
        next.meta[i].row_column = static_cast<int>(hidden);
      }
    }

    if (agg_pos < 0) {
      // Rows dedup by bits, as relations (and so the column-batch mode)
      // do: 0.0 and -0.0 stay two rows.
      std::unordered_set<Tuple, TupleHash, TupleBitEq> dedup;
      for (const Tuple& row : table_.rows) {
        Tuple out;
        for (size_t i = 0; i < items.size(); ++i) {
          RAQLET_ASSIGN_OR_RETURN(Value v, Eval(items[i].expr, row));
          out.push_back(v);
        }
        for (const auto& [item_idx, hidden_idx] : row_col_remap) {
          int old_col = table_.Find(items[item_idx].expr.var);
          const ColumnMeta& old_meta =
              table_.meta[static_cast<size_t>(old_col)];
          out.push_back(row[static_cast<size_t>(old_meta.row_column)]);
        }
        if (distinct && !dedup.insert(out).second) continue;
        next.rows.push_back(std::move(out));
      }
      // Hidden columns are internal: drop them for RETURN.
      if (is_return) DropHiddenColumns(&next);
      table_ = std::move(next);
      return Status::OK();
    }

    // Aggregation (bag semantics over the binding table, Cypher-style).
    const Expr& agg_call = items[static_cast<size_t>(agg_pos)].expr;
    struct AggState {
      int64_t count = 0;
      double sum = 0.0;
      bool any_float = false;
      std::optional<Value> min;
      std::optional<Value> max;
      std::unordered_set<Tuple, TupleHash> distinct_args;
    };
    std::map<Tuple, AggState> groups;
    for (const Tuple& row : table_.rows) {
      Tuple key;
      for (size_t i = 0; i < items.size(); ++i) {
        if (static_cast<int>(i) == agg_pos) continue;
        RAQLET_ASSIGN_OR_RETURN(Value v, Eval(items[i].expr, row));
        key.push_back(v);
      }
      AggState& state = groups[key];
      Value arg = Value::Number(0);
      if (!agg_call.children.empty()) {
        RAQLET_ASSIGN_OR_RETURN(arg, Eval(agg_call.children[0], row));
      }
      if (agg_call.distinct_arg &&
          !state.distinct_args.insert(Tuple{arg}).second) {
        continue;
      }
      state.count += 1;
      state.any_float |= arg.kind() == ValueType::kFloat;
      state.sum += arg.NumericValue();
      if (!state.min.has_value() ||
          CompareValues(arg, *state.min, db_->symbols()) < 0) {
        state.min = arg;
      }
      if (!state.max.has_value() ||
          CompareValues(arg, *state.max, db_->symbols()) > 0) {
        state.max = arg;
      }
    }
    for (const auto& [key, state] : groups) {
      Value result;
      if (agg_call.function == "count") {
        result = Value::Number(state.count);
      } else if (agg_call.function == "sum") {
        result = state.any_float
                     ? Value::Float(state.sum)
                     : Value::Number(static_cast<int64_t>(state.sum));
      } else if (agg_call.function == "min") {
        result = state.min.value_or(Value::Null());
      } else if (agg_call.function == "max") {
        result = state.max.value_or(Value::Null());
      } else {  // avg
        result = Value::Float(state.count == 0
                                  ? 0.0
                                  : state.sum /
                                        static_cast<double>(state.count));
      }
      Tuple out;
      size_t ki = 0;
      for (size_t i = 0; i < items.size(); ++i) {
        if (static_cast<int>(i) == agg_pos) {
          out.push_back(result);
        } else {
          out.push_back(key[ki++]);
        }
      }
      next.rows.push_back(std::move(out));
    }
    if (is_return) DropHiddenColumns(&next);
    table_ = std::move(next);
    return Status::OK();
  }

  void DropHiddenColumns(BindingTable* table) const {
    std::vector<size_t> keep;
    for (size_t i = 0; i < table->columns.size(); ++i) {
      if (table->columns[i].rfind("__row_", 0) != 0) keep.push_back(i);
    }
    if (keep.size() == table->columns.size()) return;
    BindingTable trimmed;
    for (size_t i : keep) {
      trimmed.AddColumn(table->columns[i], table->meta[i]);
    }
    for (const Tuple& row : table->rows) {
      Tuple out;
      for (size_t i : keep) out.push_back(row[i]);
      trimmed.rows.push_back(std::move(out));
    }
    *table = std::move(trimmed);
  }

  const GraphStore& store_;
  const schema::DlSchema& dl_;
  Database* db_;
  GraphStats* stats_;
  obs::GraphMetrics* metrics_;
  const runtime::QueryGuard* guard_;
  BindingTable table_;
  Traversals trav_;
};

// ---------------------------------------------------------------------------
// kColumnBatch: the columnar binding table. One Value column per bound
// variable; MATCH expansion records, per emitted binding, only the index of
// its source row plus the newly-bound values, then gathers every prior
// column through that selection in one pass per column — no per-match row
// copy, no per-row allocation. WHERE compacts via a selection mask,
// projection evaluates items column-at-a-time, and DISTINCT dedups once per
// batch through Relation::InsertColumns. Row order is bit-identical to the
// row-binding interpreter (asserted by cross_engine_test.cc).
// ---------------------------------------------------------------------------

struct BindingBatch {
  std::vector<std::string> columns;
  std::map<std::string, size_t> index;
  std::vector<ColumnMeta> meta;
  std::vector<std::vector<Value>> cols;  // one vector per column
  size_t rows = 0;

  int Find(const std::string& name) const {
    auto it = index.find(name);
    return it == index.end() ? -1 : static_cast<int>(it->second);
  }
  size_t AddColumn(const std::string& name, ColumnMeta m) {
    index[name] = columns.size();
    columns.push_back(name);
    meta.push_back(m);
    cols.emplace_back();
    return columns.size() - 1;
  }
};

class BatchExecution {
 public:
  BatchExecution(const GraphStore& store, const schema::DlSchema& dl,
                 Database* db, GraphStats* stats,
                 obs::GraphMetrics* metrics = nullptr,
                 const runtime::QueryGuard* guard = nullptr)
      : store_(store), dl_(dl), db_(db), stats_(stats), metrics_(metrics),
        guard_(guard), trav_(store, stats, metrics, guard) {}

  Result<ResultTable> Run(const PgirQuery& query) {
    table_.rows = 1;  // one empty binding
    int64_t clause_index = 0;
    size_t rows_prev = 0;
    for (const pgir::Op& op : query.ops) {
      // Per-clause guard checkpoint; see RowExecution::Run. The two modes
      // count identical row deltas, so a fixed budget trips both at the
      // same clause.
      if (guard_ != nullptr) {
        size_t now = have_result_rows_ ? result_rows_.size() : table_.rows;
        RAQLET_RETURN_IF_ERROR(
            guard_->AddRows(now > rows_prev ? now - rows_prev : 0));
        rows_prev = now;
        RAQLET_RETURN_IF_ERROR(guard_->Check());
      }
      obs::TraceScope clause_span("graph.clause", clause_index++);
      EnsureColumnar();
      const char* kind = "";
      if (const auto* match = std::get_if<MatchOp>(&op)) {
        kind = "match";
        RAQLET_RETURN_IF_ERROR(ExecMatch(*match));
      } else if (const auto* where = std::get_if<WhereOp>(&op)) {
        kind = "where";
        RAQLET_RETURN_IF_ERROR(ExecWhere(*where));
      } else if (const auto* with = std::get_if<WithOp>(&op)) {
        kind = "with";
        RAQLET_RETURN_IF_ERROR(ExecProjection(with->items, with->distinct,
                                              /*is_return=*/false));
      } else if (const auto* ret = std::get_if<ReturnOp>(&op)) {
        kind = "return";
        RAQLET_RETURN_IF_ERROR(
            ExecProjection(ret->items, ret->distinct, /*is_return=*/true));
      }
      if (metrics_ != nullptr) {
        metrics_->clauses.push_back(
            {kind, have_result_rows_ ? result_rows_.size() : table_.rows});
      }
    }
    // See RowExecution::Run: a trip inside the last clause must surface
    // as the terminal status, never as a partial result.
    if (guard_ != nullptr) RAQLET_RETURN_IF_ERROR(guard_->Check());
    ResultTable result;
    result.columns = table_.columns;
    if (have_result_rows_) {
      result.rows = std::move(result_rows_);
    } else {
      result.rows = Materialize();
    }
    return result;
  }

 private:
  // A column expression over the batch: either a borrowed column (one
  // value per batch row) or a broadcast scalar. Computed intermediates
  // live in an EvalScratch deque so borrowed pointers stay stable.
  struct BCol {
    const std::vector<Value>* col = nullptr;
    Value scalar;
    const Value& at(size_t i) const {
      return col != nullptr ? (*col)[i] : scalar;
    }
  };
  using EvalScratch = std::deque<std::vector<Value>>;

  // ---- batch plumbing ----

  // Projection/aggregation paths that dedup through a Relation hand the
  // result back as row tuples; re-transpose lazily if another clause
  // follows (RETURN is last in every real query, so this is free).
  void EnsureColumnar() {
    if (!have_result_rows_) return;
    table_.cols.assign(table_.columns.size(), {});
    for (size_t c = 0; c < table_.columns.size(); ++c) {
      std::vector<Value>& col = table_.cols[c];
      col.resize(result_rows_.size());
      for (size_t i = 0; i < result_rows_.size(); ++i) {
        col[i] = c < result_rows_[i].size() ? result_rows_[i][c] : Value();
      }
    }
    table_.rows = result_rows_.size();
    result_rows_.clear();
    have_result_rows_ = false;
  }

  std::vector<Tuple> Materialize() const {
    std::vector<Tuple> rows(table_.rows);
    for (size_t i = 0; i < table_.rows; ++i) {
      Tuple& t = rows[i];
      t.reserve(table_.cols.size());
      for (const std::vector<Value>& col : table_.cols) {
        t.push_back(i < col.size() ? col[i] : Value());
      }
    }
    return rows;
  }

  // Gathers the pre-expansion columns through the match selection `src`
  // (one pass per column) and installs the columns this clause appended.
  // `appended` must hold exactly the vectors for columns registered after
  // `prior_ncols`, in registration order.
  void InstallExpansion(size_t prior_ncols, const std::vector<uint32_t>& src,
                        std::vector<std::vector<Value>> appended) {
    for (size_t c = 0; c < prior_ncols; ++c) {
      const std::vector<Value>& old = table_.cols[c];
      std::vector<Value> gathered(src.size());
      for (size_t k = 0; k < src.size(); ++k) gathered[k] = old[src[k]];
      table_.cols[c] = std::move(gathered);
    }
    for (size_t k = 0; k < appended.size(); ++k) {
      table_.cols[prior_ncols + k] = std::move(appended[k]);
    }
    table_.rows = src.size();
  }

  // Drops batch rows whose keep flag is 0, compacting every column in
  // place (stable).
  void CompactBatch(const std::vector<char>& keep) {
    size_t kept = 0;
    for (size_t i = 0; i < table_.rows; ++i) kept += keep[i] != 0;
    if (kept == table_.rows) return;
    for (std::vector<Value>& col : table_.cols) {
      if (col.size() != table_.rows) continue;
      size_t w = 0;
      for (size_t i = 0; i < col.size(); ++i) {
        if (keep[i]) col[w++] = col[i];
      }
      col.resize(w);
    }
    table_.rows = kept;
  }

  // ---- MATCH ----

  Status CheckNode(const NodePat& node, bool* known) {
    int col = table_.Find(node.id);
    *known = col >= 0;
    if (!*known && node.label.empty()) {
      return Status::Unsupported("unlabeled node pattern introduces '" +
                                 node.id + "'");
    }
    if (!node.label.empty() && dl_.FindNode(node.label) == nullptr) {
      return Status::NotFound("no node type with label '" + node.label + "'");
    }
    return Status::OK();
  }

  bool EndpointOk(const NodePat& node, int64_t id) const {
    return node.label.empty() || store_.HasLabel(node.label, id);
  }

  Status ExecMatch(const MatchOp& match) {
    for (const EdgePat& edge : match.edges) {
      if (edge.variable_length || edge.shortest) {
        RAQLET_RETURN_IF_ERROR(ExpandRecursive(edge));
      } else {
        RAQLET_RETURN_IF_ERROR(ExpandSimple(edge));
      }
    }
    for (const NodePat& node : match.nodes) {
      RAQLET_RETURN_IF_ERROR(ExpandLoneNode(node));
    }
    return Status::OK();
  }

  Status ExpandLoneNode(const NodePat& node) {
    bool known = false;
    RAQLET_RETURN_IF_ERROR(CheckNode(node, &known));
    if (known) {
      // Label filter on the existing binding: selection-mask compaction.
      if (node.label.empty()) return Status::OK();
      const std::vector<Value>& col =
          table_.cols[static_cast<size_t>(table_.Find(node.id))];
      std::vector<char> keep(table_.rows);
      for (size_t i = 0; i < table_.rows; ++i) {
        keep[i] = store_.HasLabel(node.label, col[i].AsNumber());
      }
      CompactBatch(keep);
      return Status::OK();
    }
    const size_t prior_ncols = table_.cols.size();
    table_.AddColumn(node.id, {ColumnMeta::kNode, node.label, -1});
    const std::vector<int64_t>& nodes = store_.NodesWithLabel(node.label);
    std::vector<uint32_t> src;
    std::vector<Value> vals;
    src.reserve(table_.rows * nodes.size());
    vals.reserve(table_.rows * nodes.size());
    for (size_t i = 0; i < table_.rows; ++i) {
      for (int64_t id : nodes) {
        src.push_back(static_cast<uint32_t>(i));
        vals.push_back(Value::Number(id));
        if (stats_ != nullptr) ++stats_->rows_expanded;
      }
    }
    std::vector<std::vector<Value>> appended;
    appended.push_back(std::move(vals));
    InstallExpansion(prior_ncols, src, std::move(appended));
    return Status::OK();
  }

  Status ExpandSimple(const EdgePat& edge) {
    const schema::EdgeRelationInfo* info = dl_.FindEdge(edge.label);
    if (info == nullptr) {
      return Status::NotFound("no edge type with label '" + edge.label + "'");
    }
    bool src_known = false;
    bool dst_known = false;
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.src, &src_known));
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.dst, &dst_known));

    int src_col = table_.Find(edge.src.id);
    int dst_col = table_.Find(edge.dst.id);

    const size_t prior_ncols = table_.cols.size();
    if (!src_known) {
      table_.AddColumn(edge.src.id, {ColumnMeta::kNode, edge.src.label, -1});
    }
    if (!dst_known && edge.dst.id != edge.src.id) {
      table_.AddColumn(edge.dst.id, {ColumnMeta::kNode, edge.dst.label, -1});
    }
    bool bind_edge = info->PropertyColumn("id") >= 0 &&
                     edge.direction != EdgeDirection::kUndirected &&
                     table_.Find(edge.id) < 0;
    if (bind_edge) {
      int edge_row_col = static_cast<int>(table_.columns.size()) + 1;
      table_.AddColumn(edge.id,
                       {ColumnMeta::kEdge, edge.label, edge_row_col});
      table_.AddColumn("__row_" + edge.id, {ColumnMeta::kValue, "", -1});
    }

    const std::string upper = schema::ToUpperSnake(edge.label);
    int id_prop_col = info->PropertyColumn("id");
    // Borrow the edge-id column once for the whole expansion.
    Relation::ColumnView edge_id_col;
    if (bind_edge) {
      Result<Relation::ColumnView> c = store_.EdgeColumn(upper, id_prop_col);
      RAQLET_RETURN_IF_ERROR(c.status());
      edge_id_col = *c;
    }

    // Per-match output: the source-row selection plus one vector per
    // newly-bound column. Prior columns are gathered once at the end.
    std::vector<uint32_t> match_src;
    std::vector<Value> col_src;
    std::vector<Value> col_dst;
    std::vector<Value> col_edge;
    std::vector<Value> col_erow;
    auto emit = [&](size_t row_i, int64_t src_id, int64_t dst_id,
                    uint32_t edge_row) {
      if (!EndpointOk(edge.src, src_id) || !EndpointOk(edge.dst, dst_id)) {
        return;
      }
      if (!dst_known && edge.dst.id == edge.src.id && src_id != dst_id) {
        return;  // (a)-[:X]->(a): self loop required
      }
      match_src.push_back(static_cast<uint32_t>(row_i));
      if (!src_known) col_src.push_back(Value::Number(src_id));
      if (!dst_known && edge.dst.id != edge.src.id) {
        col_dst.push_back(Value::Number(dst_id));
      }
      if (bind_edge) {
        col_edge.push_back(edge_id_col.at(edge_row));
        col_erow.push_back(Value::Number(edge_row));
      }
      if (stats_ != nullptr) ++stats_->rows_expanded;
    };

    std::set<std::pair<int64_t, uint32_t>> seen;
    for (size_t i = 0; i < table_.rows; ++i) {
      std::optional<int64_t> src_val;
      std::optional<int64_t> dst_val;
      if (src_known) {
        src_val = table_.cols[static_cast<size_t>(src_col)][i].AsNumber();
      }
      if (dst_known) {
        dst_val = table_.cols[static_cast<size_t>(dst_col)][i].AsNumber();
      }

      // Deduplicate undirected self-loop double visits.
      seen.clear();
      auto visit = [&](int64_t from, const GraphStore::Neighbor& nb) {
        if (!seen.insert({nb.node, nb.edge_row}).second) return;
        if (dst_val.has_value() && nb.node != *dst_val) return;
        if (edge.dst.id == edge.src.id && !dst_known && nb.node != from) {
          return;  // repeated identifier within the pattern
        }
        emit(i, from, nb.node, nb.edge_row);
      };

      if (src_val.has_value()) {
        trav_.ForEachNeighbor(upper, *src_val, edge.direction,
                              /*reverse=*/false,
                              [&](const GraphStore::Neighbor& nb) {
                                visit(*src_val, nb);
                              });
      } else if (dst_val.has_value()) {
        // Traverse backwards, binding the source.
        trav_.ForEachNeighbor(upper, *dst_val, edge.direction,
                              /*reverse=*/true,
                              [&](const GraphStore::Neighbor& nb) {
                                // nb.node is the source here.
                                emit(i, nb.node, *dst_val, nb.edge_row);
                              });
      } else {
        // Neither endpoint bound: scan source label (or all labeled nodes
        // of the schema endpoint).
        std::string scan_label = !edge.src.label.empty()
                                     ? edge.src.label
                                     : info->src_label;
        for (int64_t id : store_.NodesWithLabel(scan_label)) {
          seen.clear();
          trav_.ForEachNeighbor(upper, id, edge.direction, /*reverse=*/false,
                                [&](const GraphStore::Neighbor& nb) {
                                  visit(id, nb);
                                });
        }
      }
    }

    std::vector<std::vector<Value>> appended;
    if (!src_known) appended.push_back(std::move(col_src));
    if (!dst_known && edge.dst.id != edge.src.id) {
      appended.push_back(std::move(col_dst));
    }
    if (bind_edge) {
      appended.push_back(std::move(col_edge));
      appended.push_back(std::move(col_erow));
    }
    InstallExpansion(prior_ncols, match_src, std::move(appended));
    return Status::OK();
  }

  Status ExpandRecursive(const EdgePat& edge) {
    const schema::EdgeRelationInfo* info = dl_.FindEdge(edge.label);
    if (info == nullptr) {
      return Status::NotFound("no edge type with label '" + edge.label + "'");
    }
    const std::string upper = schema::ToUpperSnake(edge.label);
    bool src_known = false;
    bool dst_known = false;
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.src, &src_known));
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.dst, &dst_known));
    int src_col = table_.Find(edge.src.id);
    int dst_col = table_.Find(edge.dst.id);

    const size_t prior_ncols = table_.cols.size();
    if (!src_known) {
      table_.AddColumn(edge.src.id, {ColumnMeta::kNode, edge.src.label, -1});
    }
    if (!dst_known) {
      table_.AddColumn(edge.dst.id, {ColumnMeta::kNode, edge.dst.label, -1});
    }
    bool bind_len = edge.shortest && !edge.path_id.empty();
    if (bind_len) {
      table_.AddColumn(edge.path_id + "_len",
                       {ColumnMeta::kPathLength, "", -1});
    }

    std::vector<uint32_t> match_src;
    std::vector<Value> col_src;
    std::vector<Value> col_dst;
    std::vector<Value> col_len;
    auto emit = [&](size_t row_i, int64_t src_id, int64_t dst_id,
                    int64_t len) {
      if (!EndpointOk(edge.src, src_id) || !EndpointOk(edge.dst, dst_id)) {
        return;
      }
      match_src.push_back(static_cast<uint32_t>(row_i));
      if (!src_known) col_src.push_back(Value::Number(src_id));
      if (!dst_known) col_dst.push_back(Value::Number(dst_id));
      if (bind_len) col_len.push_back(Value::Number(len));
      if (stats_ != nullptr) ++stats_->rows_expanded;
    };

    // Unbounded non-shortest reachability skips the per-row (node, depth)
    // materialization and set-based dedup entirely: the memoized closure
    // is already a set, so its sorted members union straight into the
    // destination column. Equivalent to (and ordered like) the generic
    // path below.
    const bool closure_fast =
        !edge.shortest && edge.max_hops < 0 && edge.min_hops <= 1;

    for (size_t i = 0; i < table_.rows; ++i) {
      std::optional<int64_t> src_val;
      std::optional<int64_t> dst_val;
      if (src_known) {
        src_val = table_.cols[static_cast<size_t>(src_col)][i].AsNumber();
      }
      if (dst_known) {
        dst_val = table_.cols[static_cast<size_t>(dst_col)][i].AsNumber();
      }

      auto closure_from = [&](int64_t start) {
        for (int64_t node :
             trav_.SortedClosure(upper, edge.direction, false, start)) {
          if (dst_val.has_value() && node != *dst_val) continue;
          emit(i, start, node, 1);
        }
        if (edge.min_hops == 0 &&
            (!dst_val.has_value() || *dst_val == start) &&
            trav_.Closure(upper, edge.direction, false, start)
                    .count(start) == 0) {
          emit(i, start, start, 0);
        }
      };

      auto run_from = [&](int64_t start) {
        if (closure_fast) {
          closure_from(start);
          return;
        }
        auto reached = trav_.Bfs(upper, start, edge.direction,
                                 /*reverse=*/false, edge.min_hops,
                                 edge.max_hops, edge.shortest);
        std::set<std::pair<int64_t, int64_t>> dedup;
        for (const auto& [node, d] : reached) {
          if (dst_val.has_value() && node != *dst_val) continue;
          if (edge.shortest) {
            emit(i, start, node, d);
          } else if (dedup.insert({node, 0}).second) {
            emit(i, start, node, d);  // pair once, any qualifying depth
          }
        }
      };

      if (src_val.has_value()) {
        run_from(*src_val);
      } else if (dst_val.has_value()) {
        // Reverse traversal from the destination, binding sources.
        if (closure_fast) {
          for (int64_t node :
               trav_.SortedClosure(upper, edge.direction, true, *dst_val)) {
            emit(i, node, *dst_val, 1);
          }
          if (edge.min_hops == 0 &&
              trav_.Closure(upper, edge.direction, true, *dst_val)
                      .count(*dst_val) == 0) {
            emit(i, *dst_val, *dst_val, 0);
          }
          continue;
        }
        auto reached = trav_.Bfs(upper, *dst_val, edge.direction,
                                 /*reverse=*/true, edge.min_hops,
                                 edge.max_hops, edge.shortest);
        std::set<int64_t> dedup;
        for (const auto& [node, d] : reached) {
          if (edge.shortest) {
            emit(i, node, *dst_val, d);
          } else if (dedup.insert(node).second) {
            emit(i, node, *dst_val, d);
          }
        }
      } else {
        std::string scan_label = !edge.src.label.empty()
                                     ? edge.src.label
                                     : info->src_label;
        for (int64_t start : store_.NodesWithLabel(scan_label)) {
          run_from(start);
        }
      }
    }

    std::vector<std::vector<Value>> appended;
    if (!src_known) appended.push_back(std::move(col_src));
    if (!dst_known) appended.push_back(std::move(col_dst));
    if (bind_len) appended.push_back(std::move(col_len));
    InstallExpansion(prior_ncols, match_src, std::move(appended));
    return Status::OK();
  }

  // ---- expressions (column-at-a-time) ----

  Result<BCol> EvalBatch(const Expr& expr, EvalScratch* scratch) const {
    const size_t n = table_.rows;
    auto make_scalar = [](Value v) {
      BCol out;
      out.scalar = v;
      return out;
    };
    auto make_owned = [&](std::vector<Value> vals) {
      scratch->push_back(std::move(vals));
      BCol out;
      out.col = &scratch->back();
      return out;
    };
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return make_scalar(ConstantToValue(expr.literal, &db_->symbols()));
      case ExprKind::kVariable: {
        int col = table_.Find(expr.var);
        if (col < 0) {
          return Status::NotFound("unknown identifier '" + expr.var + "'");
        }
        BCol out;
        out.col = &table_.cols[static_cast<size_t>(col)];
        return out;
      }
      case ExprKind::kProperty: {
        int col = table_.Find(expr.var);
        if (col < 0) {
          return Status::NotFound("unknown identifier '" + expr.var + "'");
        }
        const ColumnMeta& meta = table_.meta[static_cast<size_t>(col)];
        if (meta.kind == ColumnMeta::kNode) {
          const std::vector<Value>& ids =
              table_.cols[static_cast<size_t>(col)];
          if (expr.property == "id") {
            BCol out;
            out.col = &ids;
            return out;
          }
          std::vector<Value> vals(n);
          for (size_t i = 0; i < n; ++i) {
            RAQLET_ASSIGN_OR_RETURN(
                vals[i], store_.NodeProperty(meta.label, ids[i].AsNumber(),
                                             expr.property));
          }
          return make_owned(std::move(vals));
        }
        if (meta.kind == ColumnMeta::kEdge) {
          if (expr.property == "id") {
            BCol out;
            out.col = &table_.cols[static_cast<size_t>(col)];
            return out;
          }
          const std::vector<Value>& edge_rows =
              table_.cols[static_cast<size_t>(meta.row_column)];
          std::vector<Value> vals(n);
          for (size_t i = 0; i < n; ++i) {
            RAQLET_ASSIGN_OR_RETURN(
                vals[i],
                store_.EdgeProperty(
                    meta.label,
                    static_cast<uint32_t>(edge_rows[i].AsNumber()),
                    expr.property));
          }
          return make_owned(std::move(vals));
        }
        return Status::Unsupported("property access on value identifier '" +
                                   expr.var + "'");
      }
      case ExprKind::kParameter:
        return Status::Internal("unresolved parameter");
      case ExprKind::kBinary: {
        RAQLET_ASSIGN_OR_RETURN(BCol lhs,
                                EvalBatch(expr.children[0], scratch));
        RAQLET_ASSIGN_OR_RETURN(BCol rhs,
                                EvalBatch(expr.children[1], scratch));
        const bool scalar = lhs.col == nullptr && rhs.col == nullptr;
        switch (expr.bin_op) {
          case BinOp::kAnd:
          case BinOp::kOr: {
            auto apply = [&](const Value& l, const Value& r) {
              bool lb = l.AsBool();
              bool rb = r.AsBool();
              return Value::Bool(expr.bin_op == BinOp::kAnd ? (lb && rb)
                                                            : (lb || rb));
            };
            if (scalar) return make_scalar(apply(lhs.scalar, rhs.scalar));
            std::vector<Value> vals(n);
            for (size_t i = 0; i < n; ++i) {
              vals[i] = apply(lhs.at(i), rhs.at(i));
            }
            return make_owned(std::move(vals));
          }
          case BinOp::kEq:
          case BinOp::kNe:
          case BinOp::kLt:
          case BinOp::kLe:
          case BinOp::kGt:
          case BinOp::kGe: {
            dlir::CmpOp op = ToCmpOp(expr.bin_op);
            if (scalar) {
              return make_scalar(Value::Bool(
                  CheckCmp(op, lhs.scalar, rhs.scalar, db_->symbols())));
            }
            std::vector<Value> vals(n);
            for (size_t i = 0; i < n; ++i) {
              vals[i] = Value::Bool(
                  CheckCmp(op, lhs.at(i), rhs.at(i), db_->symbols()));
            }
            return make_owned(std::move(vals));
          }
          default: {
            dlir::ArithOp op = ToArithOp(expr.bin_op);
            if (scalar) {
              RAQLET_ASSIGN_OR_RETURN(Value v,
                                      EvalArith(op, lhs.scalar, rhs.scalar));
              return make_scalar(v);
            }
            std::vector<Value> vals(n);
            for (size_t i = 0; i < n; ++i) {
              RAQLET_ASSIGN_OR_RETURN(vals[i],
                                      EvalArith(op, lhs.at(i), rhs.at(i)));
            }
            return make_owned(std::move(vals));
          }
        }
      }
      case ExprKind::kUnary: {
        RAQLET_ASSIGN_OR_RETURN(BCol inner,
                                EvalBatch(expr.children[0], scratch));
        if (expr.un_op == cypher::UnOp::kNot) {
          if (inner.col == nullptr) {
            return make_scalar(Value::Bool(!inner.scalar.AsBool()));
          }
          std::vector<Value> vals(n);
          for (size_t i = 0; i < n; ++i) {
            vals[i] = Value::Bool(!inner.at(i).AsBool());
          }
          return make_owned(std::move(vals));
        }
        if (inner.col == nullptr) {
          RAQLET_ASSIGN_OR_RETURN(
              Value v, EvalArith(dlir::ArithOp::kSub, Value::Number(0),
                                 inner.scalar));
          return make_scalar(v);
        }
        std::vector<Value> vals(n);
        for (size_t i = 0; i < n; ++i) {
          RAQLET_ASSIGN_OR_RETURN(
              vals[i],
              EvalArith(dlir::ArithOp::kSub, Value::Number(0), inner.at(i)));
        }
        return make_owned(std::move(vals));
      }
      case ExprKind::kCall: {
        if (expr.function == "id" && expr.children.size() == 1) {
          return EvalBatch(expr.children[0], scratch);
        }
        if (expr.function == "length" && expr.children.size() == 1 &&
            expr.children[0].kind == ExprKind::kVariable) {
          int col = table_.Find(expr.children[0].var + "_len");
          if (col >= 0) {
            BCol out;
            out.col = &table_.cols[static_cast<size_t>(col)];
            return out;
          }
          return Status::Unsupported("length() of a non-shortest-path "
                                     "variable");
        }
        return Status::Unsupported("function '" + expr.function + "'");
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  Status ExecWhere(const WhereOp& where) {
    if (table_.rows == 0) return Status::OK();
    EvalScratch scratch;
    RAQLET_ASSIGN_OR_RETURN(BCol pred, EvalBatch(where.predicate, &scratch));
    std::vector<char> keep(table_.rows);
    for (size_t i = 0; i < table_.rows; ++i) {
      keep[i] = pred.at(i).AsBool();
    }
    CompactBatch(keep);
    return Status::OK();
  }

  // ---- WITH / RETURN ----

  static RelationSchema ScratchSchema(size_t ncols) {
    RelationSchema schema;
    schema.name = "__graph_distinct__";
    schema.columns.resize(ncols);
    return schema;
  }

  // Drops "__row_" columns from a projection result. `rows`, when given,
  // holds the row-major form of the table (hidden columns are always
  // registered last by ExecProjection, so dropping is a truncation).
  static void DropHidden(BindingBatch* table, std::vector<Tuple>* rows) {
    std::vector<size_t> keep;
    for (size_t i = 0; i < table->columns.size(); ++i) {
      if (table->columns[i].rfind("__row_", 0) != 0) keep.push_back(i);
    }
    if (keep.size() == table->columns.size()) return;
    bool prefix = true;
    for (size_t k = 0; k < keep.size(); ++k) prefix &= keep[k] == k;
    BindingBatch trimmed;
    for (size_t i : keep) {
      trimmed.AddColumn(table->columns[i], table->meta[i]);
      trimmed.cols.back() = std::move(table->cols[i]);
    }
    trimmed.rows = table->rows;
    *table = std::move(trimmed);
    if (rows == nullptr) return;
    for (Tuple& row : *rows) {
      if (prefix) {
        if (row.size() > keep.size()) row.resize(keep.size());
        continue;
      }
      Tuple out;
      out.reserve(keep.size());
      for (size_t i : keep) {
        if (i < row.size()) out.push_back(row[i]);
      }
      row = std::move(out);
    }
  }

  Status ExecProjection(const std::vector<Item>& items, bool distinct,
                        bool is_return) {
    RAQLET_FAILPOINT("graph.project");
    int agg_pos = -1;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].expr.IsAggregateCall()) {
        if (agg_pos >= 0) {
          return Status::Unsupported("at most one aggregate per projection");
        }
        agg_pos = static_cast<int>(i);
      }
    }

    BindingBatch next;
    for (const Item& item : items) {
      ColumnMeta meta{ColumnMeta::kValue, "", -1};
      if (item.expr.kind == ExprKind::kVariable) {
        int col = table_.Find(item.expr.var);
        if (col >= 0) meta = table_.meta[static_cast<size_t>(col)];
      }
      next.AddColumn(item.alias, meta);
    }
    // Preserve hidden edge-row columns for identifiers that survive.
    std::map<size_t, size_t> row_col_remap;
    for (size_t i = 0; i < items.size(); ++i) {
      const ColumnMeta& meta = next.meta[i];
      if (meta.kind == ColumnMeta::kEdge && meta.row_column >= 0) {
        size_t hidden =
            next.AddColumn("__row_" + items[i].alias,
                           {ColumnMeta::kValue, "", -1});
        row_col_remap[i] = hidden;
        next.meta[i].row_column = static_cast<int>(hidden);
      }
    }

    if (agg_pos < 0) {
      return ProjectPlain(items, distinct, is_return, row_col_remap, &next);
    }
    return ProjectAggregate(items, static_cast<size_t>(agg_pos), is_return,
                            &next);
  }

  Status ProjectPlain(const std::vector<Item>& items, bool distinct,
                      bool is_return,
                      const std::map<size_t, size_t>& row_col_remap,
                      BindingBatch* next) {
    const size_t n = table_.rows;
    const size_t out_cols = next->columns.size();
    if (n == 0) {
      if (is_return) DropHidden(next, nullptr);
      table_ = std::move(*next);
      table_.rows = 0;
      have_result_rows_ = false;
      return Status::OK();
    }

    // Evaluate every item column-at-a-time; hidden edge-row columns
    // borrow their source column directly.
    EvalScratch scratch;
    std::vector<BCol> out(out_cols);
    for (size_t i = 0; i < items.size(); ++i) {
      RAQLET_ASSIGN_OR_RETURN(out[i], EvalBatch(items[i].expr, &scratch));
    }
    for (const auto& [item_idx, hidden_idx] : row_col_remap) {
      int old_col = table_.Find(items[item_idx].expr.var);
      const ColumnMeta& old_meta = table_.meta[static_cast<size_t>(old_col)];
      out[hidden_idx].col =
          &table_.cols[static_cast<size_t>(old_meta.row_column)];
    }

    if (distinct) {
      // Stage the evaluated columns and dedup once per batch through
      // Relation::InsertColumns (first occurrence wins, batch order kept —
      // the same policy the per-tuple hash set implemented). Columnar in,
      // columnar out; rows are only boxed for the final RETURN.
      std::vector<std::vector<Value>> staged(out_cols);
      for (size_t c = 0; c < out_cols; ++c) {
        staged[c].reserve(n);
        for (size_t i = 0; i < n; ++i) staged[c].push_back(out[c].at(i));
      }
      Relation dedup_rel(ScratchSchema(out_cols));
      RAQLET_RETURN_IF_ERROR(dedup_rel.InsertColumns(&staged).status());
      if (is_return) {
        std::vector<Tuple> rows = dedup_rel.MaterializeRows();
        DropHidden(next, &rows);
        table_ = std::move(*next);
        table_.rows = rows.size();
        result_rows_ = std::move(rows);
        have_result_rows_ = true;
        return Status::OK();
      }
      // Intermediate WITH DISTINCT: stay columnar.
      next->cols.assign(out_cols, {});
      for (size_t c = 0; c < out_cols; ++c) {
        const Relation::ColumnView view = dedup_rel.Column(c);
        next->cols[c].reserve(view.size());
        for (size_t i = 0; i < view.size(); ++i) {
          next->cols[c].push_back(view.at(i));
        }
      }
      next->rows = dedup_rel.size();
      table_ = std::move(*next);
      have_result_rows_ = false;
      return Status::OK();
    }

    // No dedup: install the evaluated columns directly. Both borrow
    // sources — the old binding table and the scratch deque — are
    // discarded right after, so a column borrowed by exactly one output
    // is moved, not copied (a second borrow of the same source copies).
    std::map<const std::vector<Value>*, size_t> borrows;
    for (size_t c = 0; c < out_cols; ++c) {
      if (out[c].col != nullptr) ++borrows[out[c].col];
    }
    auto find_mutable =
        [&](const std::vector<Value>* src) -> std::vector<Value>* {
      for (std::vector<Value>& col : table_.cols) {
        if (&col == src) return &col;
      }
      for (std::vector<Value>& col : scratch) {
        if (&col == src) return &col;
      }
      return nullptr;
    };
    for (size_t c = 0; c < out_cols; ++c) {
      if (out[c].col == nullptr) {
        next->cols[c].assign(n, out[c].scalar);
        continue;
      }
      std::vector<Value>* source =
          borrows[out[c].col] == 1 ? find_mutable(out[c].col) : nullptr;
      if (source != nullptr) {
        next->cols[c] = std::move(*source);
      } else {
        next->cols[c] = *out[c].col;
      }
    }
    next->rows = n;
    if (is_return) DropHidden(next, nullptr);
    table_ = std::move(*next);
    have_result_rows_ = false;
    return Status::OK();
  }

  Status ProjectAggregate(const std::vector<Item>& items, size_t agg_pos,
                          bool is_return, BindingBatch* next) {
    // Aggregation (bag semantics over the binding table, Cypher-style):
    // group keys and the aggregate argument are evaluated column-wise,
    // then accumulated in one pass over the batch.
    const Expr& agg_call = items[agg_pos].expr;
    struct AggState {
      int64_t count = 0;
      double sum = 0.0;
      bool any_float = false;
      std::optional<Value> min;
      std::optional<Value> max;
      std::unordered_set<Tuple, TupleHash> distinct_args;
    };
    std::map<Tuple, AggState> groups;
    const size_t n = table_.rows;
    if (n > 0) {
      EvalScratch scratch;
      std::vector<BCol> key_cols;
      key_cols.reserve(items.size() - 1);
      for (size_t i = 0; i < items.size(); ++i) {
        if (i == agg_pos) continue;
        RAQLET_ASSIGN_OR_RETURN(BCol c, EvalBatch(items[i].expr, &scratch));
        key_cols.push_back(c);
      }
      std::optional<BCol> arg_col;
      if (!agg_call.children.empty()) {
        RAQLET_ASSIGN_OR_RETURN(BCol c,
                                EvalBatch(agg_call.children[0], &scratch));
        arg_col = c;
      }
      Tuple key(key_cols.size());
      for (size_t i = 0; i < n; ++i) {
        for (size_t k = 0; k < key_cols.size(); ++k) {
          key[k] = key_cols[k].at(i);
        }
        AggState& state = groups[key];
        Value arg =
            arg_col.has_value() ? arg_col->at(i) : Value::Number(0);
        if (agg_call.distinct_arg &&
            !state.distinct_args.insert(Tuple{arg}).second) {
          continue;
        }
        state.count += 1;
        state.any_float |= arg.kind() == ValueType::kFloat;
        state.sum += arg.NumericValue();
        if (!state.min.has_value() ||
            CompareValues(arg, *state.min, db_->symbols()) < 0) {
          state.min = arg;
        }
        if (!state.max.has_value() ||
            CompareValues(arg, *state.max, db_->symbols()) > 0) {
          state.max = arg;
        }
      }
    }

    std::vector<Tuple> out_rows;
    out_rows.reserve(groups.size());
    for (const auto& [key, state] : groups) {
      Value result;
      if (agg_call.function == "count") {
        result = Value::Number(state.count);
      } else if (agg_call.function == "sum") {
        result = state.any_float
                     ? Value::Float(state.sum)
                     : Value::Number(static_cast<int64_t>(state.sum));
      } else if (agg_call.function == "min") {
        result = state.min.value_or(Value::Null());
      } else if (agg_call.function == "max") {
        result = state.max.value_or(Value::Null());
      } else {  // avg
        result = Value::Float(state.count == 0
                                  ? 0.0
                                  : state.sum /
                                        static_cast<double>(state.count));
      }
      Tuple out;
      size_t ki = 0;
      for (size_t i = 0; i < items.size(); ++i) {
        if (i == agg_pos) {
          out.push_back(result);
        } else {
          out.push_back(key[ki++]);
        }
      }
      out_rows.push_back(std::move(out));
    }
    if (is_return) DropHidden(next, &out_rows);
    table_ = std::move(*next);
    table_.rows = out_rows.size();
    result_rows_ = std::move(out_rows);
    have_result_rows_ = true;
    return Status::OK();
  }

  const GraphStore& store_;
  const schema::DlSchema& dl_;
  Database* db_;
  GraphStats* stats_;
  obs::GraphMetrics* metrics_;
  const runtime::QueryGuard* guard_;
  BindingBatch table_;
  Traversals trav_;
  // Row-major form of the latest projection when it went through a dedup
  // relation or aggregation; see EnsureColumnar.
  std::vector<Tuple> result_rows_;
  bool have_result_rows_ = false;
};

}  // namespace

Result<ResultTable> GraphEngine::Run(const pgir::PgirQuery& query,
                                     GraphStats* stats,
                                     obs::GraphMetrics* metrics,
                                     const runtime::QueryGuard* guard) const {
  obs::TraceScope run_span("graph.run");
  if (options_.mode == GraphMode::kRowBinding) {
    RowExecution exec(*store_, *dl_, db_, stats, metrics, guard);
    return exec.Run(query);
  }
  BatchExecution exec(*store_, *dl_, db_, stats, metrics, guard);
  return exec.Run(query);
}

}  // namespace raqlet::engine
