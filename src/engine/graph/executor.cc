#include "engine/graph/executor.h"

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

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

// A MATCH expansion charges the guard's row budget, and so polls it, once
// per this many emitted bindings (the SQL tuple pipeline's cadence).
constexpr size_t kGuardChunk = 64;

struct ColumnMeta {
  enum Kind { kNode, kEdge, kValue, kPathLength };
  Kind kind = kValue;
  std::string label;       // node label / edge label
  int row_column = -1;     // kEdge: index of the hidden edge-row column
};

// Names and kinds of the binding table's columns, shared by both table
// representations.
struct Layout {
  std::vector<std::string> columns;
  std::map<std::string, size_t> index;
  std::vector<ColumnMeta> meta;

  int Find(const std::string& name) const {
    auto it = index.find(name);
    return it == index.end() ? -1 : static_cast<int>(it->second);
  }
  size_t Add(const std::string& name, ColumnMeta m) {
    index[name] = columns.size();
    columns.push_back(name);
    meta.push_back(std::move(m));
    return columns.size() - 1;
  }
  size_t size() const { return columns.size(); }
};

// The values one match binds, in the order the expansion added their
// columns: at most a source, a destination, an edge id and its row.
struct NewValues {
  std::array<Value, 4> values;
  size_t size = 0;
  void Push(Value v) { values[size++] = v; }
};

// What a WITH/RETURN produces: its layout (the items, then the hidden
// edge-row columns it carries), the item expressions, the input column
// each carried column copies, and the aggregate item's position.
struct Projection {
  Layout layout;
  std::vector<const Expr*> exprs;
  std::vector<size_t> carried;
  int agg = -1;
};

// A node pattern's pin: the one id its node can have for the WHERE right
// after the MATCH to hold, read from a top-level conjunct `v.id = literal`.
// The WHERE compares with Value::operator==, as CheckCmp's kEq does, and a
// bound node is a Number, so a Float, string, bool or NULL literal, or two
// different ids, admit no node.
struct Pin {
  bool admits = true;
  int64_t id = 0;
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

// Reads property `name` of the node or edge bound in a column described by
// `meta`: `id` is the column's value, `edge_row` the value of its hidden
// edge-row column (edges only).
Result<Value> ReadProperty(const GraphStore& store, const ColumnMeta& meta,
                           const Value& id, const Value& edge_row,
                           const std::string& name) {
  if (name == "id") return id;
  if (meta.kind == ColumnMeta::kNode) {
    return store.NodeProperty(meta.label, id.AsNumber(), name);
  }
  return store.EdgeProperty(meta.label,
                            static_cast<uint32_t>(edge_row.AsNumber()), name);
}

// Traversal machinery: direction-aware adjacency, the memoized >=1-step
// reachability closure, and the walks behind variable-length and shortest
// patterns. Memoization lives here so a query pays for each closure once.
class Traversals {
 public:
  using Neighbors = std::vector<GraphStore::Neighbor>;

  Traversals(const GraphStore& store, GraphStats* stats,
             obs::GraphMetrics* metrics, const runtime::QueryGuard* guard)
      : store_(store), stats_(stats), metrics_(metrics), guard_(guard) {}

  // The adjacency lists a walk from `node` follows, in walk order: the
  // out-list, the in-list, or both for an undirected edge. `reverse` walks
  // against the edge direction.
  std::array<const Neighbors*, 2> Adjacent(const std::string& upper,
                                           int64_t node,
                                           EdgeDirection direction,
                                           bool reverse) const {
    static const Neighbors kNone;
    if (reverse && direction != EdgeDirection::kUndirected) {
      direction = direction == EdgeDirection::kOutgoing
                      ? EdgeDirection::kIncoming
                      : EdgeDirection::kOutgoing;
    }
    return {direction != EdgeDirection::kIncoming
                ? &store_.OutNeighbors(upper, node)
                : &kNone,
            direction != EdgeDirection::kOutgoing
                ? &store_.InNeighbors(upper, node)
                : &kNone};
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
    auto expand = [&](int64_t node) {
      for (const Neighbors* list : Adjacent(upper, node, direction, reverse)) {
        for (const GraphStore::Neighbor& nb : *list) {
          if (reached.insert(nb.node).second) queue.push_back(nb.node);
        }
      }
    };
    expand(start);
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
      expand(node);
      if (stats_ != nullptr) ++stats_->bfs_visits;
    }
    return *memo.emplace(start, std::move(result)).first->second;
  }

  // Sorted view of Closure(start), cached so repeated bindings with the
  // same start do not re-sort (the deterministic emit order of unbounded
  // reachability is ascending node id). Only a miss of this cache looks
  // the closure up, so only that lookup counts as a closure hit or miss.
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

  // Calls visit(node, length) -> Status for every node the variable-length
  // or shortest pattern `edge` reaches from `start`, mirroring the DLIR
  // walk semantics; a visit error stops the walk. A shortest pattern
  // reports each reached node with its distance (a cycle back to `start`
  // included), then `start` at length 0 when min_hops is 0. Any other
  // pattern reports each reached node once, in ascending id order, with
  // its first qualifying length; unbounded reachability (no max, min_hops
  // <= 1) is the memoized closure.
  template <typename Visit>
  Status Reach(const EdgePat& edge, const std::string& upper, bool reverse,
               int64_t start, Visit visit) const {
    const EdgeDirection direction = edge.direction;
    if (edge.shortest) {
      for (const auto& [node, d] :
           ShortestDistances(upper, start, direction, reverse)) {
        RAQLET_RETURN_IF_ERROR(visit(node, d));
      }
      return edge.min_hops == 0 ? visit(start, 0) : Status::OK();
    }
    if (edge.max_hops < 0 && edge.min_hops <= 1) {
      const std::vector<int64_t>& closed =
          SortedClosure(upper, direction, reverse, start);
      for (int64_t node : closed) RAQLET_RETURN_IF_ERROR(visit(node, 1));
      if (edge.min_hops == 0 &&
          !std::binary_search(closed.begin(), closed.end(), start)) {
        return visit(start, 0);
      }
      return Status::OK();
    }
    if (edge.max_hops >= 0) {
      for (const auto& [node, d] : BoundedWalks(upper, start, direction,
                                                reverse, edge.min_hops,
                                                edge.max_hops)) {
        RAQLET_RETURN_IF_ERROR(visit(node, d));
      }
      return Status::OK();
    }
    // Walks of length >= min_hops > 1: the exact-length ends, then all
    // they reach.
    std::set<int64_t> all;
    for (const auto& [node, d] : BoundedWalks(upper, start, direction,
                                              reverse, edge.min_hops,
                                              edge.min_hops)) {
      all.insert(node);
      const std::vector<int64_t>& closed =
          SortedClosure(upper, direction, reverse, node);
      all.insert(closed.begin(), closed.end());
    }
    for (int64_t node : all) RAQLET_RETURN_IF_ERROR(visit(node, edge.min_hops));
    return Status::OK();
  }

 private:
  // Polled once per BFS frontier pop. A trip abandons the walk early; the
  // partial closure is still memoized, but the memo dies with this
  // execution (one per Run), and the clause loop re-polls the guard
  // before any partial result could reach the caller.
  bool GuardTripped() const {
    return guard_ != nullptr && !guard_->Check().ok();
  }

  // Min walk-length (>= 1) BFS, seeded from the one-step neighbours so
  // that cycles back to `start` are found (matching the DLIR
  // reachability/lattice semantics, where dist(x, x) exists on cycles).
  std::unordered_map<int64_t, int64_t> ShortestDistances(
      const std::string& upper, int64_t start, EdgeDirection direction,
      bool reverse) const {
    std::unordered_map<int64_t, int64_t> dist;
    std::deque<int64_t> queue;
    auto expand = [&](int64_t node, int64_t d) {
      for (const Neighbors* list : Adjacent(upper, node, direction, reverse)) {
        for (const GraphStore::Neighbor& nb : *list) {
          if (dist.try_emplace(nb.node, d).second) queue.push_back(nb.node);
        }
      }
    };
    expand(start, 1);
    while (!queue.empty()) {
      if (GuardTripped()) break;
      NoteFrontier(queue.size());
      int64_t node = queue.front();
      queue.pop_front();
      expand(node, dist[node] + 1);
      if (stats_ != nullptr) ++stats_->bfs_visits;
    }
    return dist;
  }

  // BFS over (node, depth) states up to max_hops. Returns each node that
  // ends a walk of min_hops..max_hops edges once, in ascending order, with
  // its shortest such walk.
  std::vector<std::pair<int64_t, int64_t>> BoundedWalks(
      const std::string& upper, int64_t start, EdgeDirection direction,
      bool reverse, int min_hops, int max_hops) const {
    std::set<std::pair<int64_t, int64_t>> states;  // (node, depth)
    std::deque<std::pair<int64_t, int64_t>> queue;
    queue.emplace_back(start, 0);
    states.insert({start, 0});
    std::set<std::pair<int64_t, int64_t>> ends;
    while (!queue.empty()) {
      if (GuardTripped()) break;
      NoteFrontier(queue.size());
      auto [node, d] = queue.front();
      queue.pop_front();
      if (d >= min_hops && (d >= 1 || min_hops == 0)) ends.insert({node, d});
      if (d == max_hops) continue;
      for (const Neighbors* list : Adjacent(upper, node, direction, reverse)) {
        for (const GraphStore::Neighbor& nb : *list) {
          if (states.insert({nb.node, d + 1}).second) {
            queue.emplace_back(nb.node, d + 1);
          }
        }
      }
      if (stats_ != nullptr) ++stats_->bfs_visits;
    }
    std::vector<std::pair<int64_t, int64_t>> out;
    for (const auto& end : ends) {
      if (out.empty() || out.back().first != end.first) out.push_back(end);
    }
    return out;
  }

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
// The two binding tables. Execution (below) drives either one through the
// same interface:
//   size(), NumberAt(col, row)        read the bound rows
//   BeginClause()                     before every clause
//   BeginExpansion(), Append(row, v), EndExpansion()
//                                     one MATCH step: each match extends
//                                     source row `row` by the values `v`
//   Compact(keep)                     drop the rows whose flag is 0
//   ForEachRow(exprs, visit)          visit(row, values) with `exprs`
//                                     evaluated on every row
//   Project(projection, distinct)     a WITH/RETURN without aggregation
//   Install(layout, rows)             an aggregation's rows
//   TakeRows()                        the final rows
// `layout` names the columns; an expansion adds its columns to it before
// BeginExpansion.
// ---------------------------------------------------------------------------

// The per-binding interpreter: the table is a vector of row tuples, every
// match copies and extends its source row, expressions are evaluated one
// row at a time, and DISTINCT rehashes tuple by tuple.
class RowTable {
 public:
  RowTable(const GraphStore& store, Database* db) : store_(store), db_(db) {
    rows_.emplace_back();  // one empty binding
  }

  Layout layout;

  size_t size() const { return rows_.size(); }
  int64_t NumberAt(size_t col, size_t row) const {
    return rows_[row][col].AsNumber();
  }
  void BeginClause() {}

  void BeginExpansion() { next_.clear(); }
  void Append(size_t row, const NewValues& v) {
    Tuple extended;
    extended.reserve(rows_[row].size() + v.size);
    extended = rows_[row];
    extended.insert(extended.end(), v.values.begin(),
                    v.values.begin() + static_cast<std::ptrdiff_t>(v.size));
    next_.push_back(std::move(extended));
  }
  void EndExpansion() { rows_ = std::move(next_); }

  void Compact(const std::vector<char>& keep) {
    size_t kept = 0;
    for (size_t i = 0; i < rows_.size(); ++i) {
      if (!keep[i]) continue;
      if (kept != i) rows_[kept] = std::move(rows_[i]);
      ++kept;
    }
    rows_.resize(kept);
  }

  template <typename Visit>
  Status ForEachRow(const std::vector<const Expr*>& exprs,
                    Visit visit) const {
    Tuple values(exprs.size());
    for (size_t i = 0; i < rows_.size(); ++i) {
      for (size_t k = 0; k < exprs.size(); ++k) {
        RAQLET_ASSIGN_OR_RETURN(values[k], Eval(*exprs[k], rows_[i]));
      }
      visit(i, values);
    }
    return Status::OK();
  }

  Status Project(Projection p, bool distinct) {
    // Rows dedup by bits, as relations (and so the column table) do: 0.0
    // and -0.0 stay two rows.
    std::unordered_set<Tuple, TupleHash, TupleBitEq> seen;
    std::vector<Tuple> out;
    RAQLET_RETURN_IF_ERROR(
        ForEachRow(p.exprs, [&](size_t i, const Tuple& values) {
          Tuple row = values;
          for (size_t col : p.carried) row.push_back(rows_[i][col]);
          if (distinct && !seen.insert(row).second) return;
          out.push_back(std::move(row));
        }));
    Install(std::move(p.layout), std::move(out));
    return Status::OK();
  }

  void Install(Layout next, std::vector<Tuple> rows) {
    layout = std::move(next);
    rows_ = std::move(rows);
  }

  std::vector<Tuple> TakeRows() { return std::move(rows_); }

 private:
  Result<Value> Eval(const Expr& expr, const Tuple& row) const {
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return ConstantToValue(expr.literal, &db_->symbols());
      case ExprKind::kVariable:
      case ExprKind::kProperty: {
        int col = layout.Find(expr.var);
        if (col < 0) {
          return Status::NotFound("unknown identifier '" + expr.var + "'");
        }
        const Value& id = row[static_cast<size_t>(col)];
        if (expr.kind == ExprKind::kVariable) return id;
        const ColumnMeta& meta = layout.meta[static_cast<size_t>(col)];
        if (meta.kind != ColumnMeta::kNode && meta.kind != ColumnMeta::kEdge) {
          return Status::Unsupported("property access on value identifier '" +
                                     expr.var + "'");
        }
        const Value& edge_row =
            meta.kind == ColumnMeta::kEdge
                ? row[static_cast<size_t>(meta.row_column)]
                : id;
        return ReadProperty(store_, meta, id, edge_row, expr.property);
      }
      case ExprKind::kParameter:
        return Status::Internal("unresolved parameter");
      case ExprKind::kBinary: {
        RAQLET_ASSIGN_OR_RETURN(Value lhs, Eval(expr.children[0], row));
        RAQLET_ASSIGN_OR_RETURN(Value rhs, Eval(expr.children[1], row));
        switch (expr.bin_op) {
          case BinOp::kAnd:
            return Value::Bool(lhs.AsBool() && rhs.AsBool());
          case BinOp::kOr:
            return Value::Bool(lhs.AsBool() || rhs.AsBool());
          case BinOp::kEq:
          case BinOp::kNe:
          case BinOp::kLt:
          case BinOp::kLe:
          case BinOp::kGt:
          case BinOp::kGe:
            return Value::Bool(
                CheckCmp(ToCmpOp(expr.bin_op), lhs, rhs, db_->symbols()));
          default:
            return EvalArith(ToArithOp(expr.bin_op), lhs, rhs);
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
          int col = layout.Find(expr.children[0].var + "_len");
          if (col >= 0) return row[static_cast<size_t>(col)];
          return Status::Unsupported("length() of a non-shortest-path "
                                     "variable");
        }
        return Status::Unsupported("function '" + expr.function + "'");
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  const GraphStore& store_;
  Database* db_;
  std::vector<Tuple> rows_;
  std::vector<Tuple> next_;  // the rows of the expansion in progress
};

// The columnar table: one Value column per bound variable. An expansion
// records, per match, only the index of its source row plus the newly
// bound values, then gathers every prior column through that selection in
// one pass per column — no per-match row copy. Expressions are evaluated
// column-at-a-time, and DISTINCT dedups once per batch through
// Relation::InsertColumns.
class ColumnTable {
 public:
  ColumnTable(const GraphStore& store, Database* db)
      : store_(store), db_(db) {}

  Layout layout;

  size_t size() const { return rows_; }
  int64_t NumberAt(size_t col, size_t row) const {
    return cols_[col][row].AsNumber();
  }

  // DISTINCT and aggregation leave their rows boxed (the final RETURN is
  // handed out as is); a clause that follows gets them back as columns.
  void BeginClause() {
    if (!boxed_) return;
    cols_.assign(layout.size(), {});
    for (size_t c = 0; c < cols_.size(); ++c) {
      cols_[c].resize(rows_);
      for (size_t i = 0; i < rows_; ++i) cols_[c][i] = boxed_rows_[i][c];
    }
    boxed_rows_.clear();
    boxed_ = false;
  }

  void BeginExpansion() {
    selection_.clear();
    appended_.assign(layout.size() - cols_.size(), {});
  }
  void Append(size_t row, const NewValues& v) {
    selection_.push_back(static_cast<uint32_t>(row));
    for (size_t k = 0; k < v.size; ++k) appended_[k].push_back(v.values[k]);
  }
  void EndExpansion() {
    for (std::vector<Value>& col : cols_) {
      std::vector<Value> gathered(selection_.size());
      for (size_t k = 0; k < selection_.size(); ++k) {
        gathered[k] = col[selection_[k]];
      }
      col = std::move(gathered);
    }
    for (std::vector<Value>& col : appended_) cols_.push_back(std::move(col));
    rows_ = selection_.size();
    selection_ = std::vector<uint32_t>();  // free it before later clauses
  }

  void Compact(const std::vector<char>& keep) {
    size_t kept = 0;
    for (size_t i = 0; i < rows_; ++i) kept += keep[i] != 0;
    if (kept == rows_) return;
    for (std::vector<Value>& col : cols_) {
      size_t w = 0;
      for (size_t i = 0; i < rows_; ++i) {
        if (keep[i]) col[w++] = col[i];
      }
      col.resize(w);
    }
    rows_ = kept;
  }

  template <typename Visit>
  Status ForEachRow(const std::vector<const Expr*>& exprs,
                    Visit visit) const {
    if (rows_ == 0) return Status::OK();
    EvalScratch scratch;
    std::vector<BCol> cols;
    cols.reserve(exprs.size());
    for (const Expr* expr : exprs) {
      RAQLET_ASSIGN_OR_RETURN(BCol col, EvalBatch(*expr, &scratch));
      cols.push_back(col);
    }
    Tuple values(exprs.size());
    for (size_t i = 0; i < rows_; ++i) {
      for (size_t k = 0; k < cols.size(); ++k) values[k] = cols[k].at(i);
      visit(i, values);
    }
    return Status::OK();
  }

  Status Project(Projection p, bool distinct) {
    const size_t n = rows_;
    const size_t width = p.layout.size();
    std::vector<std::vector<Value>> out(width);
    if (n > 0) {
      // Evaluate every item column-at-a-time; carried edge-row columns
      // borrow their source column directly.
      EvalScratch scratch;
      std::vector<BCol> src(width);
      for (size_t c = 0; c < p.exprs.size(); ++c) {
        RAQLET_ASSIGN_OR_RETURN(src[c], EvalBatch(*p.exprs[c], &scratch));
      }
      for (size_t k = 0; k < p.carried.size(); ++k) {
        src[p.exprs.size() + k].col = &cols_[p.carried[k]];
      }
      // Both borrow sources — the old columns and the scratch deque — are
      // discarded right after, so a column borrowed by exactly one output
      // is moved, not copied (a second borrow of the same source copies).
      std::map<const std::vector<Value>*, size_t> borrows;
      for (const BCol& c : src) {
        if (c.col != nullptr) ++borrows[c.col];
      }
      auto find_mutable =
          [&](const std::vector<Value>* col) -> std::vector<Value>* {
        for (std::vector<Value>& own : cols_) {
          if (&own == col) return &own;
        }
        for (std::vector<Value>& own : scratch) {
          if (&own == col) return &own;
        }
        return nullptr;
      };
      for (size_t c = 0; c < width; ++c) {
        if (src[c].col == nullptr) {
          out[c].assign(n, src[c].scalar);
          continue;
        }
        std::vector<Value>* source =
            borrows[src[c].col] == 1 ? find_mutable(src[c].col) : nullptr;
        if (source != nullptr) {
          out[c] = std::move(*source);
        } else {
          out[c] = *src[c].col;
        }
      }
    }
    if (distinct && n > 0) {
      // Dedup once per batch: first occurrence wins and batch order is
      // kept, the row table's policy.
      RelationSchema schema;
      schema.name = "__graph_distinct__";
      schema.columns.resize(width);
      Relation dedup(schema);
      RAQLET_RETURN_IF_ERROR(dedup.InsertColumns(&out).status());
      Install(std::move(p.layout), dedup.MaterializeRows());
      return Status::OK();
    }
    layout = std::move(p.layout);
    cols_ = std::move(out);
    return Status::OK();
  }

  void Install(Layout next, std::vector<Tuple> rows) {
    layout = std::move(next);
    cols_.clear();
    rows_ = rows.size();
    boxed_rows_ = std::move(rows);
    boxed_ = true;
  }

  std::vector<Tuple> TakeRows() {
    if (boxed_) return std::move(boxed_rows_);
    std::vector<Tuple> rows(rows_);
    for (size_t i = 0; i < rows_; ++i) {
      rows[i].reserve(cols_.size());
      for (const std::vector<Value>& col : cols_) rows[i].push_back(col[i]);
    }
    return rows;
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

  Result<BCol> EvalBatch(const Expr& expr, EvalScratch* scratch) const {
    const size_t n = rows_;
    auto make_scalar = [](Value v) {
      BCol out;
      out.scalar = v;
      return out;
    };
    auto make_column = [](const std::vector<Value>* col) {
      BCol out;
      out.col = col;
      return out;
    };
    auto make_owned = [&](std::vector<Value> vals) {
      scratch->push_back(std::move(vals));
      return make_column(&scratch->back());
    };
    // Applies `op` (returning Value, or Result<Value> when it can fail)
    // row by row, or once when both sides are scalars.
    auto map2 = [&](const BCol& lhs, const BCol& rhs,
                    auto op) -> Result<BCol> {
      if (lhs.col == nullptr && rhs.col == nullptr) {
        RAQLET_ASSIGN_OR_RETURN(Value v,
                                Result<Value>(op(lhs.scalar, rhs.scalar)));
        return make_scalar(v);
      }
      std::vector<Value> vals(n);
      for (size_t i = 0; i < n; ++i) {
        if constexpr (std::is_same_v<decltype(op(lhs.at(i), rhs.at(i))),
                                     Value>) {
          vals[i] = op(lhs.at(i), rhs.at(i));
        } else {
          RAQLET_ASSIGN_OR_RETURN(vals[i], op(lhs.at(i), rhs.at(i)));
        }
      }
      return make_owned(std::move(vals));
    };
    switch (expr.kind) {
      case ExprKind::kLiteral:
        return make_scalar(ConstantToValue(expr.literal, &db_->symbols()));
      case ExprKind::kVariable:
      case ExprKind::kProperty: {
        int col = layout.Find(expr.var);
        if (col < 0) {
          return Status::NotFound("unknown identifier '" + expr.var + "'");
        }
        const std::vector<Value>& ids = cols_[static_cast<size_t>(col)];
        if (expr.kind == ExprKind::kVariable) return make_column(&ids);
        const ColumnMeta& meta = layout.meta[static_cast<size_t>(col)];
        if (meta.kind != ColumnMeta::kNode && meta.kind != ColumnMeta::kEdge) {
          return Status::Unsupported("property access on value identifier '" +
                                     expr.var + "'");
        }
        if (expr.property == "id") return make_column(&ids);
        const std::vector<Value>& edge_rows =
            meta.kind == ColumnMeta::kEdge
                ? cols_[static_cast<size_t>(meta.row_column)]
                : ids;
        std::vector<Value> vals(n);
        for (size_t i = 0; i < n; ++i) {
          RAQLET_ASSIGN_OR_RETURN(
              vals[i],
              ReadProperty(store_, meta, ids[i], edge_rows[i], expr.property));
        }
        return make_owned(std::move(vals));
      }
      case ExprKind::kParameter:
        return Status::Internal("unresolved parameter");
      case ExprKind::kBinary: {
        RAQLET_ASSIGN_OR_RETURN(BCol lhs,
                                EvalBatch(expr.children[0], scratch));
        RAQLET_ASSIGN_OR_RETURN(BCol rhs,
                                EvalBatch(expr.children[1], scratch));
        switch (expr.bin_op) {
          case BinOp::kAnd:
          case BinOp::kOr: {
            const bool conj = expr.bin_op == BinOp::kAnd;
            return map2(lhs, rhs, [conj](const Value& l, const Value& r) {
              return Value::Bool(conj ? l.AsBool() && r.AsBool()
                                      : l.AsBool() || r.AsBool());
            });
          }
          case BinOp::kEq:
          case BinOp::kNe:
          case BinOp::kLt:
          case BinOp::kLe:
          case BinOp::kGt:
          case BinOp::kGe: {
            const dlir::CmpOp op = ToCmpOp(expr.bin_op);
            return map2(lhs, rhs, [&](const Value& l, const Value& r) {
              return Value::Bool(CheckCmp(op, l, r, db_->symbols()));
            });
          }
          default: {
            const dlir::ArithOp op = ToArithOp(expr.bin_op);
            return map2(lhs, rhs, [op](const Value& l, const Value& r) {
              return EvalArith(op, l, r);
            });
          }
        }
      }
      case ExprKind::kUnary: {
        // A unary operator maps its operand paired with itself.
        RAQLET_ASSIGN_OR_RETURN(BCol inner,
                                EvalBatch(expr.children[0], scratch));
        if (expr.un_op == cypher::UnOp::kNot) {
          return map2(inner, inner, [](const Value& v, const Value&) {
            return Value::Bool(!v.AsBool());
          });
        }
        return map2(inner, inner, [](const Value& v, const Value&) {
          return EvalArith(dlir::ArithOp::kSub, Value::Number(0), v);
        });
      }
      case ExprKind::kCall: {
        if (expr.function == "id" && expr.children.size() == 1) {
          return EvalBatch(expr.children[0], scratch);
        }
        if (expr.function == "length" && expr.children.size() == 1 &&
            expr.children[0].kind == ExprKind::kVariable) {
          int col = layout.Find(expr.children[0].var + "_len");
          if (col >= 0) return make_column(&cols_[static_cast<size_t>(col)]);
          return Status::Unsupported("length() of a non-shortest-path "
                                     "variable");
        }
        return Status::Unsupported("function '" + expr.function + "'");
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  const GraphStore& store_;
  Database* db_;
  std::vector<std::vector<Value>> cols_;  // one vector per layout column
  size_t rows_ = 1;                       // one empty binding
  // Row-major rows of the latest DISTINCT or aggregation; see BeginClause.
  std::vector<Tuple> boxed_rows_;
  bool boxed_ = false;
  // The expansion in progress: source row and new values of each match.
  std::vector<uint32_t> selection_;
  std::vector<std::vector<Value>> appended_;
};

// ---------------------------------------------------------------------------
// One execution of a query over binding table `Table`: the clause loop, the
// pattern matcher and its expanders, the projection layout and the
// aggregation are written once; the table decides how bindings are stored,
// evaluated and deduplicated.
// ---------------------------------------------------------------------------

template <typename Table>
class Execution {
 public:
  Execution(const GraphStore& store, const schema::DlSchema& dl, Database* db,
            GraphStats* stats, obs::GraphMetrics* metrics,
            const runtime::QueryGuard* guard)
      : store_(store), dl_(dl), db_(db), stats_(stats), metrics_(metrics),
        guard_(guard), table_(store, db), trav_(store, stats, metrics, guard) {}

  Result<ResultTable> Run(const PgirQuery& query) {
    for (size_t k = 0; k < query.ops.size(); ++k) {
      const pgir::Op& op = query.ops[k];
      if (guard_ != nullptr) RAQLET_RETURN_IF_ERROR(PollGuard());
      obs::TraceScope clause_span("graph.clause", static_cast<int64_t>(k));
      table_.BeginClause();
      const char* kind = "";
      if (const auto* match = std::get_if<MatchOp>(&op)) {
        kind = "match";
        const WhereOp* where = k + 1 < query.ops.size()
                                   ? std::get_if<WhereOp>(&query.ops[k + 1])
                                   : nullptr;
        RAQLET_RETURN_IF_ERROR(ExecMatch(*match, where));
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
        metrics_->clauses.push_back({kind, table_.size()});
      }
    }
    // A trip inside the last clause (e.g. a BFS abandoned mid-frontier)
    // must surface as the terminal status, never as a partial result.
    if (guard_ != nullptr) RAQLET_RETURN_IF_ERROR(PollGuard());
    ResultTable result;
    result.columns = table_.layout.columns;
    result.rows = table_.TakeRows();
    return result;
  }

 private:
  // ---- MATCH ----

  Status CheckNode(const NodePat& node, bool* known) const {
    *known = table_.layout.Find(node.id) >= 0;
    if (!*known && node.label.empty()) {
      return Status::Unsupported("unlabeled node pattern introduces '" +
                                 node.id + "'");
    }
    if (!node.label.empty() && dl_.FindNode(node.label) == nullptr) {
      return Status::NotFound("no node type with label '" + node.label + "'");
    }
    return Status::OK();
  }

  // The WHERE still runs in full after the MATCH: its pins only narrow
  // the candidates, so the MATCH emits the subset of its bindings that the
  // WHERE could keep, in the same order.
  Status ExecMatch(const MatchOp& match, const WhereOp* where) {
    pins_.clear();
    if (where != nullptr) CollectPins(where->predicate);
    for (const EdgePat& edge : match.edges) {
      if (edge.variable_length || edge.shortest) {
        RAQLET_RETURN_IF_ERROR(ExpandPath(edge));
      } else {
        RAQLET_RETURN_IF_ERROR(ExpandEdge(edge));
      }
    }
    for (const NodePat& node : match.nodes) {
      RAQLET_RETURN_IF_ERROR(ExpandNode(node));
    }
    return Status::OK();
  }

  // Pins each variable that a top-level AND conjunct `v.id = literal`
  // (literal on either side) of `predicate` names. Only the MATCH's node
  // patterns look their variable up (FindPin).
  void CollectPins(const Expr& predicate) {
    if (predicate.kind != ExprKind::kBinary) return;
    if (predicate.bin_op == BinOp::kAnd) {
      CollectPins(predicate.children[0]);
      CollectPins(predicate.children[1]);
      return;
    }
    if (predicate.bin_op != BinOp::kEq) return;
    const Expr* prop = &predicate.children[0];
    const Expr* literal = &predicate.children[1];
    if (prop->kind == ExprKind::kLiteral) std::swap(prop, literal);
    if (prop->kind != ExprKind::kProperty || prop->property != "id" ||
        literal->kind != ExprKind::kLiteral) {
      return;
    }
    const Pin pin{literal->literal.type == ValueType::kNumber,
                  literal->literal.num};
    auto [it, fresh] = pins_.emplace(prop->var, pin);
    if (!fresh && (!pin.admits || it->second.id != pin.id)) {
      it->second.admits = false;
    }
  }

  // The pin of `node`, or null; an expansion looks it up once.
  const Pin* FindPin(const NodePat& node) const {
    auto it = pins_.find(node.id);
    return it == pins_.end() ? nullptr : &it->second;
  }

  // The candidates for an unbound node pattern, in scan order: every node
  // with its label (or with `schema_label` when the pattern has none), or,
  // when the pattern is pinned, a seek of the pinned id.
  std::span<const int64_t> ScanNodes(
      const NodePat& node, const Pin* pin,
      const std::string& schema_label = "") const {
    const std::string& label = node.label.empty() ? schema_label : node.label;
    if (pin == nullptr) return store_.NodesWithLabel(label);
    if (!pin->admits) return {};
    return store_.NodesWithId(label, pin->id);
  }

  bool EndpointOk(const NodePat& node, const Pin* pin, int64_t id) const {
    if (pin != nullptr && (!pin->admits || pin->id != id)) return false;
    return node.label.empty() || store_.HasLabel(node.label, id);
  }

  // Hands one match to the table and charges it: every emitted binding
  // counts once toward rows_expanded and toward the guard's row budget,
  // which is charged and polled every kGuardChunk bindings.
  Status Emit(size_t row, const NewValues& values) {
    table_.Append(row, values);
    if (stats_ != nullptr) ++stats_->rows_expanded;
    if (guard_ != nullptr && ++unpaid_ == kGuardChunk) return PollGuard();
    return Status::OK();
  }

  Status PollGuard() { return guard_->AddRows(std::exchange(unpaid_, 0)); }

  Status ExpandNode(const NodePat& node) {
    bool known = false;
    RAQLET_RETURN_IF_ERROR(CheckNode(node, &known));
    const Pin* pin = FindPin(node);
    if (known) {
      // Label and pin filter on the existing binding.
      if (node.label.empty() && pin == nullptr) return Status::OK();
      const size_t col = static_cast<size_t>(table_.layout.Find(node.id));
      std::vector<char> keep(table_.size());
      for (size_t i = 0; i < keep.size(); ++i) {
        keep[i] = EndpointOk(node, pin, table_.NumberAt(col, i));
      }
      table_.Compact(keep);
      return Status::OK();
    }
    table_.layout.Add(node.id, {ColumnMeta::kNode, node.label, -1});
    table_.BeginExpansion();
    const std::span<const int64_t> ids = ScanNodes(node, pin);
    for (size_t i = 0, n = table_.size(); i < n; ++i) {
      for (int64_t id : ids) {
        NewValues v;
        v.Push(Value::Number(id));
        RAQLET_RETURN_IF_ERROR(Emit(i, v));
      }
    }
    table_.EndExpansion();
    return Status::OK();
  }

  Status ExpandEdge(const EdgePat& edge) {
    const schema::EdgeRelationInfo* info = dl_.FindEdge(edge.label);
    if (info == nullptr) {
      return Status::NotFound("no edge type with label '" + edge.label + "'");
    }
    bool src_known = false;
    bool dst_known = false;
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.src, &src_known));
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.dst, &dst_known));
    Layout& layout = table_.layout;
    const int src_col = layout.Find(edge.src.id);
    const int dst_col = layout.Find(edge.dst.id);
    // (a)-[:X]->(a): the repeated identifier needs a self-loop.
    const bool self = edge.dst.id == edge.src.id;

    // New columns for unbound endpoints and the edge binding.
    if (!src_known) {
      layout.Add(edge.src.id, {ColumnMeta::kNode, edge.src.label, -1});
    }
    if (!dst_known && !self) {
      layout.Add(edge.dst.id, {ColumnMeta::kNode, edge.dst.label, -1});
    }
    const int id_prop_col = info->PropertyColumn("id");
    const bool undirected = edge.direction == EdgeDirection::kUndirected;
    const bool bind_edge =
        id_prop_col >= 0 && !undirected && layout.Find(edge.id) < 0;
    if (bind_edge) {
      const int edge_row_col = static_cast<int>(layout.size()) + 1;
      layout.Add(edge.id, {ColumnMeta::kEdge, edge.label, edge_row_col});
      layout.Add("__row_" + edge.id, {ColumnMeta::kValue, "", -1});
    }

    const std::string upper = schema::ToUpperSnake(edge.label);
    // Borrow the edge-id column once for the whole expansion.
    Relation::ColumnView edge_ids;
    if (bind_edge) {
      RAQLET_ASSIGN_OR_RETURN(edge_ids, store_.EdgeColumn(upper, id_prop_col));
    }
    const Pin* src_pin = FindPin(edge.src);
    const Pin* dst_pin = FindPin(edge.dst);
    const std::span<const int64_t> sources =
        src_known || dst_known
            ? std::span<const int64_t>()
            : ScanNodes(edge.src, src_pin, info->src_label);

    table_.BeginExpansion();
    std::set<uint32_t> loops;  // self-loops an undirected walk meets twice
    for (size_t i = 0, n = table_.size(); i < n; ++i) {
      auto emit = [&](int64_t src_id, int64_t dst_id,
                      uint32_t edge_row) -> Status {
        if (!EndpointOk(edge.src, src_pin, src_id) ||
            !EndpointOk(edge.dst, dst_pin, dst_id)) {
          return Status::OK();
        }
        NewValues v;
        if (!src_known) v.Push(Value::Number(src_id));
        if (!dst_known && !self) v.Push(Value::Number(dst_id));
        if (bind_edge) {
          v.Push(edge_ids.at(edge_row));
          v.Push(Value::Number(edge_row));
        }
        return Emit(i, v);
      };
      // Walks the edges of `from`, bound as the source (or, `reverse`, as
      // the destination: walking backwards binds the source), to `to` if
      // given.
      auto walk = [&](int64_t from, std::optional<int64_t> to,
                      bool reverse) -> Status {
        loops.clear();
        for (const auto* list :
             trav_.Adjacent(upper, from, edge.direction, reverse)) {
          for (const GraphStore::Neighbor& nb : *list) {
            if (to.has_value() && nb.node != *to) continue;
            if (self && !dst_known && nb.node != from) continue;
            if (undirected && nb.node == from &&
                !loops.insert(nb.edge_row).second) {
              continue;
            }
            RAQLET_RETURN_IF_ERROR(reverse
                                       ? emit(nb.node, from, nb.edge_row)
                                       : emit(from, nb.node, nb.edge_row));
          }
        }
        return Status::OK();
      };

      if (src_known) {
        std::optional<int64_t> to;
        if (dst_known) to = table_.NumberAt(static_cast<size_t>(dst_col), i);
        RAQLET_RETURN_IF_ERROR(
            walk(table_.NumberAt(static_cast<size_t>(src_col), i), to,
                 /*reverse=*/false));
      } else if (dst_known) {
        RAQLET_RETURN_IF_ERROR(
            walk(table_.NumberAt(static_cast<size_t>(dst_col), i),
                 std::nullopt, /*reverse=*/true));
      } else {
        for (int64_t from : sources) {
          RAQLET_RETURN_IF_ERROR(
              walk(from, std::nullopt, /*reverse=*/false));
        }
      }
    }
    table_.EndExpansion();
    return Status::OK();
  }

  Status ExpandPath(const EdgePat& edge) {
    const schema::EdgeRelationInfo* info = dl_.FindEdge(edge.label);
    if (info == nullptr) {
      return Status::NotFound("no edge type with label '" + edge.label + "'");
    }
    bool src_known = false;
    bool dst_known = false;
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.src, &src_known));
    RAQLET_RETURN_IF_ERROR(CheckNode(edge.dst, &dst_known));
    Layout& layout = table_.layout;
    const int src_col = layout.Find(edge.src.id);
    const int dst_col = layout.Find(edge.dst.id);

    if (!src_known) {
      layout.Add(edge.src.id, {ColumnMeta::kNode, edge.src.label, -1});
    }
    if (!dst_known) {
      layout.Add(edge.dst.id, {ColumnMeta::kNode, edge.dst.label, -1});
    }
    const bool bind_len = edge.shortest && !edge.path_id.empty();
    if (bind_len) {
      layout.Add(edge.path_id + "_len", {ColumnMeta::kPathLength, "", -1});
    }

    const std::string upper = schema::ToUpperSnake(edge.label);
    const Pin* src_pin = FindPin(edge.src);
    const Pin* dst_pin = FindPin(edge.dst);
    const std::span<const int64_t> sources =
        src_known || dst_known
            ? std::span<const int64_t>()
            : ScanNodes(edge.src, src_pin, info->src_label);
    table_.BeginExpansion();
    for (size_t i = 0, n = table_.size(); i < n; ++i) {
      auto emit = [&](int64_t src_id, int64_t dst_id, int64_t len) -> Status {
        if (!EndpointOk(edge.src, src_pin, src_id) ||
            !EndpointOk(edge.dst, dst_pin, dst_id)) {
          return Status::OK();
        }
        NewValues v;
        if (!src_known) v.Push(Value::Number(src_id));
        if (!dst_known) v.Push(Value::Number(dst_id));
        if (bind_len) v.Push(Value::Number(len));
        return Emit(i, v);
      };

      if (src_known) {
        const int64_t from = table_.NumberAt(static_cast<size_t>(src_col), i);
        std::optional<int64_t> to;
        if (dst_known) to = table_.NumberAt(static_cast<size_t>(dst_col), i);
        RAQLET_RETURN_IF_ERROR(trav_.Reach(
            edge, upper, /*reverse=*/false, from,
            [&](int64_t node, int64_t len) {
              return to.has_value() && node != *to ? Status::OK()
                                                   : emit(from, node, len);
            }));
      } else if (dst_known) {
        // Reverse traversal from the destination, binding sources.
        const int64_t to = table_.NumberAt(static_cast<size_t>(dst_col), i);
        RAQLET_RETURN_IF_ERROR(trav_.Reach(
            edge, upper, /*reverse=*/true, to,
            [&](int64_t node, int64_t len) { return emit(node, to, len); }));
      } else {
        for (int64_t from : sources) {
          RAQLET_RETURN_IF_ERROR(trav_.Reach(
              edge, upper, /*reverse=*/false, from,
              [&](int64_t node, int64_t len) {
                return emit(from, node, len);
              }));
        }
      }
    }
    table_.EndExpansion();
    return Status::OK();
  }

  // ---- WHERE ----

  Status ExecWhere(const WhereOp& where) {
    std::vector<char> keep(table_.size());
    RAQLET_RETURN_IF_ERROR(table_.ForEachRow(
        {&where.predicate},
        [&](size_t i, const Tuple& values) { keep[i] = values[0].AsBool(); }));
    table_.Compact(keep);
    return Status::OK();
  }

  // ---- WITH / RETURN ----

  Status ExecProjection(const std::vector<Item>& items, bool distinct,
                        bool is_return) {
    RAQLET_FAILPOINT("graph.project");
    const Layout& input = table_.layout;
    Projection p;
    for (size_t i = 0; i < items.size(); ++i) {
      const Expr& expr = items[i].expr;
      if (expr.IsAggregateCall()) {
        if (p.agg >= 0) {
          return Status::Unsupported("at most one aggregate per projection");
        }
        p.agg = static_cast<int>(i);
      }
      ColumnMeta meta;
      if (expr.kind == ExprKind::kVariable) {
        int col = input.Find(expr.var);
        if (col >= 0) meta = input.meta[static_cast<size_t>(col)];
      }
      p.layout.Add(items[i].alias, meta);
      p.exprs.push_back(&expr);
    }
    // A WITH without aggregation carries the hidden edge-row column of
    // every edge it passes on, so later clauses can read the edge's
    // properties. RETURN ends the query and an aggregate's rows hold only
    // its items, so there an edge becomes a plain value.
    for (size_t i = 0; i < items.size(); ++i) {
      if (p.layout.meta[i].kind != ColumnMeta::kEdge) continue;
      if (is_return || p.agg >= 0) {
        p.layout.meta[i] = ColumnMeta{};
        continue;
      }
      p.carried.push_back(static_cast<size_t>(p.layout.meta[i].row_column));
      p.layout.meta[i].row_column = static_cast<int>(
          p.layout.Add("__row_" + items[i].alias, ColumnMeta{}));
    }
    if (p.agg >= 0) return Aggregate(std::move(p));
    return table_.Project(std::move(p), distinct);
  }

  // Aggregation (bag semantics over the binding table, Cypher-style): the
  // group keys are the other items, and the groups come out in key order.
  Status Aggregate(Projection p) {
    const size_t agg = static_cast<size_t>(p.agg);
    const Expr& call = *p.exprs[agg];
    std::vector<const Expr*> inputs;  // the group keys, then the argument
    for (size_t i = 0; i < p.exprs.size(); ++i) {
      if (i != agg) inputs.push_back(p.exprs[i]);
    }
    const size_t nkeys = inputs.size();
    if (!call.children.empty()) inputs.push_back(&call.children[0]);

    struct AggState {
      int64_t count = 0;
      double sum = 0.0;
      bool any_float = false;
      std::optional<Value> min;
      std::optional<Value> max;
      std::unordered_set<Tuple, TupleHash> distinct_args;
    };
    std::map<Tuple, AggState> groups;
    Tuple key;
    RAQLET_RETURN_IF_ERROR(
        table_.ForEachRow(inputs, [&](size_t, const Tuple& values) {
          key.assign(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(nkeys));
          AggState& state = groups[key];
          const Value arg =
              values.size() > nkeys ? values[nkeys] : Value::Number(0);
          if (call.distinct_arg &&
              !state.distinct_args.insert(Tuple{arg}).second) {
            return;
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
        }));

    std::vector<Tuple> rows;
    rows.reserve(groups.size());
    for (const auto& [group, state] : groups) {
      Value result;
      if (call.function == "count") {
        result = Value::Number(state.count);
      } else if (call.function == "sum") {
        result = state.any_float
                     ? Value::Float(state.sum)
                     : Value::Number(static_cast<int64_t>(state.sum));
      } else if (call.function == "min") {
        result = state.min.value_or(Value::Null());
      } else if (call.function == "max") {
        result = state.max.value_or(Value::Null());
      } else {  // avg
        result = Value::Float(state.count == 0
                                  ? 0.0
                                  : state.sum /
                                        static_cast<double>(state.count));
      }
      Tuple row = group;
      row.insert(row.begin() + static_cast<std::ptrdiff_t>(agg), result);
      rows.push_back(std::move(row));
    }
    table_.Install(std::move(p.layout), std::move(rows));
    return Status::OK();
  }

  const GraphStore& store_;
  const schema::DlSchema& dl_;
  Database* db_;
  GraphStats* stats_;
  obs::GraphMetrics* metrics_;
  const runtime::QueryGuard* guard_;
  Table table_;
  Traversals trav_;
  size_t unpaid_ = 0;  // emitted bindings not yet charged to the guard
  std::map<std::string, Pin> pins_;  // the current MATCH's, by variable
};

}  // namespace

Result<ResultTable> GraphEngine::Run(const pgir::PgirQuery& query,
                                     GraphStats* stats,
                                     obs::GraphMetrics* metrics,
                                     const runtime::QueryGuard* guard) const {
  obs::TraceScope run_span("graph.run");
  if (options_.mode == GraphMode::kRowBinding) {
    return Execution<RowTable>(*store_, *dl_, db_, stats, metrics, guard)
        .Run(query);
  }
  return Execution<ColumnTable>(*store_, *dl_, db_, stats, metrics, guard)
      .Run(query);
}

}  // namespace raqlet::engine
