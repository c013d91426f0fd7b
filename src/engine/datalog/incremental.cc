#include "engine/datalog/incremental.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/dependency_graph.h"
#include "engine/datalog/evaluator.h"
#include "obs/trace.h"
#include "runtime/execution_context.h"

namespace raqlet::engine {

namespace {

using dlir::LatticeKind;
using dlir::Rule;
using dlir::Term;
using dlir::TermKind;

// DRed bail-out: once a deletion's overdeletion cascade passes 1/5 of the
// SCC's pre-delta rows — and 4,096 rows, so small SCCs never bail — the
// view abandons DRed (nothing has been erased yet) and recomputes the SCC
// instead. The decision depends only on deterministic sizes, so the chosen
// path is identical across thread counts. The values are not derived from
// this evaluator's costs; re-deriving them needs measurements first.
constexpr double kBailOutFraction = 0.2;
constexpr size_t kBailOutFloor = 4096;

// The net change one ApplyDelta made to a relation. Every writer erases
// before it appends, and erasing keeps the survivors in order, so the live
// rows [0, keep) are exactly the pre-delta rows that were never erased:
//   NEW = live rows [0, size)
//   OLD = live rows [0, keep) + `erased`, every pre-delta row erased (also
//         the ones a later step appended again)
//   Δ+  = `added` = NEW ∖ OLD,  Δ− = `removed` = OLD ∖ NEW
// `erased`, `plus` and `minus` are view-owned relations; none enters the
// Database. `plus` and `minus` hold Δ+ and Δ− for reading as variant
// rows, built on first use.
struct PredDelta {
  size_t keep = 0;
  std::unique_ptr<Relation> erased;
  std::vector<Tuple> added;
  std::vector<Tuple> removed;
  std::unique_ptr<Relation> plus;
  std::unique_ptr<Relation> minus;
};

std::unique_ptr<Relation> EmptyLike(const Relation& rel) {
  return std::make_unique<Relation>(rel.schema());
}

// Boxed copies of `rel`'s rows at `rows`, in that order.
std::vector<Tuple> RowsAt(const Relation& rel,
                          const std::vector<uint32_t>& rows) {
  std::vector<Tuple> out;
  out.reserve(rows.size());
  for (uint32_t r : rows) {
    Tuple t;
    t.reserve(rel.arity());
    for (size_t c = 0; c < rel.arity(); ++c) t.push_back(rel.ValueAt(r, c));
    out.push_back(std::move(t));
  }
  return out;
}

// Derives d->added and d->removed from the live rows, d->keep and
// d->erased.
void Net(const Relation& live, PredDelta* d) {
  for (Tuple& t : live.MaterializeRows(d->keep)) {
    if (!d->erased->Contains(t)) d->added.push_back(std::move(t));
  }
  for (Tuple& t : d->erased->MaterializeRows()) {
    if (!live.Contains(t)) d->removed.push_back(std::move(t));
  }
}

// Flipped keys of a negated atom: `on` keys' ¬∃ became true, `off` keys'
// became false.
struct FlipKeys {
  std::unique_ptr<Relation> on;
  std::unique_ptr<Relation> off;
};

// The distinct keys (the negated atom's `key_columns`) of the rows `d`
// changed whose ¬∃ truth value flipped.
Result<FlipKeys> FlippedKeys(const Relation& live, const PredDelta& d,
                             const std::vector<int>& key_columns) {
  // Index rows are ascending, so the first row of a key decides whether
  // any row below `end` carries it.
  auto exists = [&key_columns](const Relation& rel, size_t end,
                               const Tuple& key) {
    if (end == 0) return false;
    const Relation::KeyIndex* index = rel.EnsureIndex(key_columns);
    auto it = index->find(key);
    return it != index->end() && !it->second.empty() &&
           it->second.front() < end;
  };
  std::unordered_set<Tuple, TupleHash> seen;
  std::vector<Tuple> on;
  std::vector<Tuple> off;
  for (const std::vector<Tuple>* changed : {&d.added, &d.removed}) {
    for (const Tuple& row : *changed) {
      Tuple key;
      key.reserve(key_columns.size());
      for (int c : key_columns) key.push_back(row[static_cast<size_t>(c)]);
      if (!seen.insert(key).second) continue;
      const bool now = exists(live, live.size(), key);
      const bool before = exists(live, d.keep, key) ||
                          exists(*d.erased, d.erased->size(), key);
      if (before && !now) on.push_back(std::move(key));
      if (now && !before) off.push_back(std::move(key));
    }
  }
  RelationSchema schema;
  schema.name = live.name();
  for (int c : key_columns) {
    schema.columns.push_back(live.schema().columns[static_cast<size_t>(c)]);
  }
  FlipKeys out{std::make_unique<Relation>(schema),
               std::make_unique<Relation>(schema)};
  RAQLET_RETURN_IF_ERROR(out.on->InsertBatch(on).status());
  RAQLET_RETURN_IF_ERROR(out.off->InsertBatch(off).status());
  return out;
}

// A variant of `rule` whose atom `delta` reads `rows` and whose other atoms
// read what `state` picks for them.
template <typename StateFn>
Variant Vary(const CompiledRule& rule, int delta, AtomSource rows,
             const StateFn& state, Relation* target = nullptr) {
  Variant v(&rule, delta, target);
  for (size_t a = 0; a < rule.atoms.size(); ++a) {
    v.sources.push_back(static_cast<int>(a) == delta ? rows
                                                     : state(rule.atoms[a]));
  }
  return v;
}

AtomSource NewState(const CompiledAtom& atom) {
  return WholeRelation(atom.relation);
}

// The compiled index of the atom at `body_index` in its source rule.
int AtomAt(const CompiledRule& rule, size_t body_index) {
  for (size_t a = 0; a < rule.atoms.size(); ++a) {
    if (rule.atoms[a].body_index == static_cast<int>(body_index)) {
      return static_cast<int>(a);
    }
  }
  return -1;
}

}  // namespace

struct IncrementalView::Impl {
  enum class Policy { kCounting, kDred, kRecompute };

  // A rule with one atom rewritten to read rows the view supplies: a
  // negated atom made positive over its non-wildcard arguments (reading
  // flipped keys), or an extra atom over the head's terms (reading the
  // overdeleted rows, for rederivation).
  struct RewrittenRule {
    CompiledRule rule;
    int atom = -1;                 // the rewritten atom, in rule.atoms
    std::vector<int> key_columns;  // flips: the negated atom's key positions
  };

  struct SccPlan {
    SccWork work;  // preds, live head relations, compiled rules
    Policy policy = Policy::kCounting;
    std::vector<const Rule*> rules;  // work.rules' sources, into `program`
    std::vector<RewrittenRule> rederive;  // DRed, aligned with work.rules
    std::vector<RewrittenRule> flips;     // one per negated body atom
    std::set<std::string> body_preds;
  };

  // One ApplyDelta's working state.
  struct Pass {
    Pass(RuleEvaluator eval, const runtime::QueryGuard* guard)
        : eval(std::move(eval)), guard(guard) {}

    RuleEvaluator eval;
    const runtime::QueryGuard* guard;
    std::unordered_map<std::string, PredDelta> deltas;
    obs::IncrementalMetrics local;
    EvalStats evaluated;  // evaluator counters; not reported

    const PredDelta* Changed(const std::string& pred) const {
      auto it = deltas.find(pred);
      return it == deltas.end() ? nullptr : &it->second;
    }
    // `pred`'s Δ− (`removed`) or Δ+ rows as a relation, or null when
    // there are none. Δ− is `erased` itself unless some erased row was
    // appended again.
    Result<const Relation*> DeltaRows(const std::string& pred, bool removed) {
      auto it = deltas.find(pred);
      if (it == deltas.end()) return nullptr;
      PredDelta& d = it->second;
      const std::vector<Tuple>& rows = removed ? d.removed : d.added;
      if (rows.empty()) return nullptr;
      if (removed && rows.size() == d.erased->size()) return d.erased.get();
      std::unique_ptr<Relation>& rel = removed ? d.minus : d.plus;
      if (rel == nullptr) {
        rel = EmptyLike(*d.erased);
        RAQLET_RETURN_IF_ERROR(rel->InsertBatch(rows).status());
      }
      return rel.get();
    }
    AtomSource Old(const CompiledAtom& atom) const {
      const PredDelta* d = Changed(atom.predicate);
      if (d == nullptr) return WholeRelation(atom.relation);
      return {{atom.relation, 0, d->keep},
              {d->erased.get(), 0, d->erased->size()}};
    }
    Status Guard(size_t rows) const {
      if (guard == nullptr) return Status::OK();
      RAQLET_RETURN_IF_ERROR(guard->AddRows(rows));
      return guard->Check();
    }
    // Evaluates `variants` and merges the heads into their targets.
    Status EvaluateInto(const std::vector<Variant>& variants) {
      std::vector<EmitBuffer> heads;
      RAQLET_RETURN_IF_ERROR(eval.Evaluate(variants, &heads, &evaluated));
      return eval.Merge(&heads).status();
    }
  };

  IncrementalOptions options;
  Database* db = nullptr;
  dlir::Program program;
  std::deque<Rule> rewritten_sources;  // sources of rederive/flip rules
  bool initialized = false;
  bool poisoned = false;
  obs::IncrementalMetrics stats;
  std::vector<SccPlan> sccs;
  std::unordered_map<std::string, Relation*> relations;
  std::set<std::string> input_preds;
  // Per-predicate support counts (number of distinct derivations) for
  // counting-policy SCCs. Keyed per stored row, so by the relation's dedup
  // equality (TupleBitEq): 0.0 and -0.0 are two rows with two counts.
  std::unordered_map<std::string,
                     std::unordered_map<Tuple, int64_t, TupleHash, TupleBitEq>>
      support;
  // The view's one execution context: every phase fans out on its pool.
  std::unique_ptr<runtime::ExecutionContext> context;

  Relation* Live(const std::string& name) const {
    auto it = relations.find(name);
    return it == relations.end() ? nullptr : it->second;
  }

  EvalOptions eval_options() const {
    EvalOptions out;
    out.num_threads = options.num_threads;
    return out;
  }

  Status Initialize(const dlir::Program& prog, Database* database,
                    EvalStats* eval_stats, const runtime::QueryGuard* guard);
  Result<AppliedDelta> Apply(const DeltaBatch& batch,
                             obs::IncrementalMetrics* metrics,
                             const runtime::QueryGuard* guard);

 private:
  Result<RewrittenRule> Rewrite(Rule rule, size_t atom,
                                const RuleEvaluator& eval,
                                const std::set<std::string>& scc_preds,
                                std::vector<int> key_columns);

  // Records `d` as `pred`'s delta (dropped when it nets to nothing), adding
  // its Δ+/Δ− sizes to the given counters.
  static void Record(const std::string& pred, PredDelta d, Pass* pass,
                     size_t* added, size_t* removed);
  // The writer of counting and recompute: erases `gone` from `rel`, then
  // appends `born`, and records the change.
  Status Replace(const std::string& pred, Relation* rel,
                 std::vector<Tuple> gone, std::vector<Tuple> born,
                 Pass* pass) const;

  Status ApplyCounting(SccPlan* scc, Pass* pass);
  Status ApplyDred(SccPlan* scc, Pass* pass, bool* bailed);
  Status ApplyRecompute(SccPlan* scc, Pass* pass);
};

Result<IncrementalView::Impl::RewrittenRule> IncrementalView::Impl::Rewrite(
    Rule rule, size_t atom, const RuleEvaluator& eval,
    const std::set<std::string>& scc_preds, std::vector<int> key_columns) {
  rewritten_sources.push_back(std::move(rule));
  RewrittenRule out;
  RAQLET_ASSIGN_OR_RETURN(
      out.rule,
      eval.Compile(rewritten_sources.back(),
                   [this](const std::string& name) { return Live(name); },
                   scc_preds));
  out.atom = AtomAt(out.rule, atom);
  out.key_columns = std::move(key_columns);
  return out;
}

Status IncrementalView::Impl::Initialize(const dlir::Program& prog,
                                         Database* database,
                                         EvalStats* eval_stats,
                                         const runtime::QueryGuard* guard) {
  initialized = false;
  poisoned = false;
  stats = obs::IncrementalMetrics{};
  sccs.clear();
  rewritten_sources.clear();
  relations.clear();
  input_preds.clear();
  support.clear();
  db = database;
  program = prog;
  if (context == nullptr) {
    context = std::make_unique<runtime::ExecutionContext>(options.num_threads);
  }

  // From-scratch evaluation (also runs the structural entry check and
  // checks stratification).
  RAQLET_RETURN_IF_ERROR(RunProgram(program, db, eval_options(), context.get(),
                                    guard, eval_stats, nullptr));

  for (const dlir::RelationDecl& decl : program.decls) {
    RAQLET_ASSIGN_OR_RETURN(Relation * rel, db->GetRelation(decl.name));
    relations[decl.name] = rel;
    if (decl.is_input) input_preds.insert(decl.name);
  }
  auto resolve = [this](const std::string& name) { return Live(name); };
  RuleEvaluator eval(&db->symbols(), eval_options(), context.get(), guard);

  analysis::DependencyGraph graph = analysis::DependencyGraph::Build(program);
  const auto& topo = graph.SccsInTopologicalOrder();
  sccs.reserve(topo.size());
  for (size_t i = 0; i < topo.size(); ++i) {
    SccPlan scc;
    scc.work.index = static_cast<int>(i);
    scc.work.preds = topo[i];
    scc.work.recursive = graph.IsRecursiveScc(static_cast<int>(i));
    const std::set<std::string> scc_set(topo[i].begin(), topo[i].end());
    bool needs_recompute = false;
    for (const std::string& pred : scc.work.preds) {
      scc.work.relations.push_back(relations.at(pred));
      const dlir::RelationDecl* decl = program.FindDecl(pred);
      if (decl != nullptr && decl->lattice != LatticeKind::kNone) {
        needs_recompute = true;
      }
    }
    for (const Rule& rule : program.rules) {
      if (scc_set.count(rule.head.predicate) == 0) continue;
      if (rule.agg.has_value()) needs_recompute = true;
      for (const dlir::Atom& atom : rule.body) {
        scc.body_preds.insert(atom.predicate);
        if (atom.negated) {
          // A negated atom with computed args cannot source projection-key
          // deltas; fall back to recomputing the SCC.
          for (const Term& arg : atom.args) {
            if (arg.kind == TermKind::kBinary) needs_recompute = true;
          }
        }
      }
      RAQLET_ASSIGN_OR_RETURN(CompiledRule compiled,
                              eval.Compile(rule, resolve, scc_set));
      scc.work.rules.push_back(std::move(compiled));
      scc.rules.push_back(&rule);
    }
    scc.policy = needs_recompute ? Policy::kRecompute
                                 : (scc.work.recursive ? Policy::kDred
                                                       : Policy::kCounting);
    for (const Rule* rule : scc.rules) {
      if (scc.policy == Policy::kRecompute) break;
      for (size_t b = 0; b < rule->body.size(); ++b) {
        if (!rule->body[b].negated) continue;
        Rule flip = *rule;
        dlir::Atom& atom = flip.body[b];
        std::vector<int> key_columns;
        std::vector<Term> keys;
        for (size_t c = 0; c < atom.args.size(); ++c) {
          if (atom.args[c].kind == TermKind::kWildcard) continue;
          key_columns.push_back(static_cast<int>(c));
          keys.push_back(atom.args[c]);
        }
        atom.negated = false;
        atom.args = std::move(keys);
        RAQLET_ASSIGN_OR_RETURN(RewrittenRule rewritten,
                                Rewrite(std::move(flip), b, eval, scc_set,
                                        std::move(key_columns)));
        scc.flips.push_back(std::move(rewritten));
      }
      if (scc.policy == Policy::kDred) {
        Rule rederive = *rule;
        rederive.body.push_back({rule->head.predicate, rule->head.args});
        RAQLET_ASSIGN_OR_RETURN(RewrittenRule rewritten,
                                Rewrite(std::move(rederive), rule->body.size(),
                                        eval, scc_set, {}));
        scc.rederive.push_back(std::move(rewritten));
      }
    }
    sccs.push_back(std::move(scc));
  }

  // Support counts: one full-join evaluation per counting SCC, counting
  // every distinct derivation of each head tuple.
  for (SccPlan& scc : sccs) {
    if (scc.policy != Policy::kCounting || scc.work.rules.empty()) continue;
    std::vector<Variant> variants;
    for (const CompiledRule& rule : scc.work.rules) {
      variants.emplace_back(&rule);
    }
    std::vector<EmitBuffer> heads;
    EvalStats work;
    RAQLET_RETURN_IF_ERROR(eval.Evaluate(variants, &heads, &work));
    auto& counts = support[scc.work.preds[0]];
    for (const EmitBuffer& buffer : heads) {
      for (size_t row = 0; row < buffer.staged_rows; ++row) {
        counts[buffer.Row(row)] += 1;
      }
    }
    eval.Release(&heads);
    if (guard != nullptr) RAQLET_RETURN_IF_ERROR(guard->Check());
  }

  initialized = true;
  return Status::OK();
}

void IncrementalView::Impl::Record(const std::string& pred, PredDelta d,
                                   Pass* pass, size_t* added,
                                   size_t* removed) {
  *added += d.added.size();
  *removed += d.removed.size();
  if (!d.added.empty() || !d.removed.empty()) {
    pass->deltas[pred] = std::move(d);
  }
}

Status IncrementalView::Impl::Replace(const std::string& pred, Relation* rel,
                                      std::vector<Tuple> gone,
                                      std::vector<Tuple> born,
                                      Pass* pass) const {
  // `gone` and `born` are disjoint, every row of `gone` is present and no
  // row of `born` is, so they are exactly Δ− and Δ+.
  PredDelta d;
  RAQLET_ASSIGN_OR_RETURN(size_t erased, rel->EraseBatch(gone));
  d.keep = rel->size();
  RAQLET_ASSIGN_OR_RETURN(size_t appended, rel->InsertBatch(born));
  if (erased != gone.size() || appended != born.size()) {
    return Status::Internal("repair of '" + pred + "' erased " +
                            std::to_string(erased) + " of " +
                            std::to_string(gone.size()) + " and appended " +
                            std::to_string(appended) + " of " +
                            std::to_string(born.size()) + " tuples");
  }
  d.erased = EmptyLike(*rel);
  RAQLET_RETURN_IF_ERROR(d.erased->InsertBatch(gone).status());
  d.added = std::move(born);
  d.removed = std::move(gone);
  Record(pred, std::move(d), pass, &pass->local.tuples_inserted,
         &pass->local.tuples_deleted);
  return Status::OK();
}

Status IncrementalView::Impl::ApplyCounting(SccPlan* scc, Pass* pass) {
  const std::string& pred = scc->work.preds[0];
  auto& counts = support[pred];

  // Telescoping variants: Δ(R₁⋈…⋈Rₙ) = Σᵢ R₁ⁿᵉʷ…ΔRᵢ…Rₙᵒˡᵈ, atoms before
  // the delta atom (in body order) reading NEW and atoms after it OLD.
  std::vector<Variant> variants;
  std::vector<int64_t> signs;
  auto telescope = [&](const CompiledRule& rule, int delta,
                       const Relation* rows, int64_t sign) {
    const int pivot = rule.atoms[static_cast<size_t>(delta)].body_index;
    variants.push_back(
        Vary(rule, delta, WholeRelation(rows), [&](const CompiledAtom& atom) {
          return atom.body_index < pivot ? NewState(atom) : pass->Old(atom);
        }));
    signs.push_back(sign);
  };
  for (const CompiledRule& rule : scc->work.rules) {
    for (size_t a = 0; a < rule.atoms.size(); ++a) {
      if (rule.atoms[a].negated) continue;
      const std::string& atom_pred = rule.atoms[a].predicate;
      RAQLET_ASSIGN_OR_RETURN(const Relation* minus,
                              pass->DeltaRows(atom_pred, true));
      if (minus != nullptr) telescope(rule, static_cast<int>(a), minus, -1);
      RAQLET_ASSIGN_OR_RETURN(const Relation* plus,
                              pass->DeltaRows(atom_pred, false));
      if (plus != nullptr) telescope(rule, static_cast<int>(a), plus, +1);
    }
  }
  std::vector<FlipKeys> keys;  // alive until evaluated
  for (const RewrittenRule& flip : scc->flips) {
    const CompiledAtom& atom = flip.rule.atoms[static_cast<size_t>(flip.atom)];
    const PredDelta* d = pass->Changed(atom.predicate);
    if (d == nullptr) continue;
    RAQLET_ASSIGN_OR_RETURN(
        FlipKeys k, FlippedKeys(*atom.relation, *d, flip.key_columns));
    if (!k.on->empty()) telescope(flip.rule, flip.atom, k.on.get(), +1);
    if (!k.off->empty()) telescope(flip.rule, flip.atom, k.off.get(), -1);
    keys.push_back(std::move(k));
  }

  // Signed support deltas, accumulated in first-touch order so the
  // resulting erase and append batches are deterministic.
  std::vector<EmitBuffer> heads;
  RAQLET_RETURN_IF_ERROR(
      pass->eval.Evaluate(variants, &heads, &pass->evaluated));
  std::unordered_map<Tuple, int64_t, TupleHash, TupleBitEq> dcount;
  std::vector<Tuple> touched;
  for (const EmitBuffer& buffer : heads) {
    for (size_t row = 0; row < buffer.staged_rows; ++row) {
      auto [it, fresh] = dcount.emplace(buffer.Row(row), 0);
      if (fresh) touched.push_back(it->first);
      it->second += signs[buffer.variant];
    }
  }
  pass->eval.Release(&heads);

  std::vector<Tuple> to_add;
  std::vector<Tuple> to_remove;
  for (const Tuple& h : touched) {
    int64_t delta = dcount[h];
    if (delta == 0) continue;
    auto it = counts.find(h);
    int64_t old_support = it == counts.end() ? 0 : it->second;
    int64_t new_support = old_support + delta;
    if (new_support < 0) {
      return Status::Internal(
          "support count underflow for '" + pred +
          "' — counting maintenance invariant violated");
    }
    ++pass->local.support_updates;
    if (new_support == 0) {
      counts.erase(h);
    } else {
      counts[h] = new_support;
    }
    if (old_support == 0 && new_support > 0) to_add.push_back(h);
    if (old_support > 0 && new_support == 0) to_remove.push_back(h);
  }
  pass->local.rounds += 1;
  RAQLET_RETURN_IF_ERROR(pass->Guard(to_add.size() + to_remove.size()));
  return Replace(pred, scc->work.relations[0], std::move(to_remove),
                 std::move(to_add), pass);
}

Status IncrementalView::Impl::ApplyDred(SccPlan* scc, Pass* pass,
                                        bool* bailed) {
  *bailed = false;
  SccWork& work = scc->work;
  const size_t n = work.relations.size();
  // Overdeleted rows per predicate, in discovery order.
  std::vector<std::unique_ptr<Relation>> over(n);
  std::unordered_map<const Relation*, size_t> pos;  // live head → index
  size_t scc_rows = 0;
  for (size_t i = 0; i < n; ++i) {
    over[i] = EmptyLike(*work.relations[i]);
    pos[work.relations[i]] = i;
    scc_rows += work.relations[i]->size();
  }
  const size_t bail_at = std::max(
      static_cast<size_t>(kBailOutFraction * static_cast<double>(scc_rows)),
      kBailOutFloor);
  auto over_of = [&](const CompiledRule& rule) {
    return over[pos.at(rule.head_relation)].get();
  };
  // Until the erase below, this SCC's own relations still hold their
  // pre-delta rows, so reading them whole is reading OLD.
  auto old_state = [pass](const CompiledAtom& atom) { return pass->Old(atom); };

  // Negated-atom key flips, against the final lower strata.
  std::vector<FlipKeys> flips(scc->flips.size());
  for (size_t f = 0; f < scc->flips.size(); ++f) {
    const RewrittenRule& flip = scc->flips[f];
    const CompiledAtom& atom = flip.rule.atoms[static_cast<size_t>(flip.atom)];
    const PredDelta* d = pass->Changed(atom.predicate);
    if (d == nullptr) continue;
    RAQLET_ASSIGN_OR_RETURN(flips[f],
                            FlippedKeys(*atom.relation, *d, flip.key_columns));
  }

  // ---- Overdeletion: every head derivable in OLD from a removed lower
  // row or a ¬∃ that stopped holding, then semi-naive rounds over the
  // overdeleted rows with every other atom reading OLD. ----
  {
    obs::TraceScope span("incremental.overdelete");
    std::vector<Variant> variants;
    for (const CompiledRule& rule : work.rules) {
      for (size_t a = 0; a < rule.atoms.size(); ++a) {
        const CompiledAtom& atom = rule.atoms[a];
        if (atom.recursive || atom.negated) continue;
        RAQLET_ASSIGN_OR_RETURN(const Relation* minus,
                                pass->DeltaRows(atom.predicate, true));
        if (minus == nullptr) continue;
        variants.push_back(Vary(rule, static_cast<int>(a), WholeRelation(minus),
                                old_state, over_of(rule)));
      }
    }
    for (size_t f = 0; f < flips.size(); ++f) {
      if (flips[f].off == nullptr || flips[f].off->empty()) continue;
      const RewrittenRule& flip = scc->flips[f];
      variants.push_back(Vary(flip.rule, flip.atom,
                              WholeRelation(flips[f].off.get()), old_state,
                              over_of(flip.rule)));
    }
    RAQLET_RETURN_IF_ERROR(pass->EvaluateInto(variants));

    std::vector<size_t> propagated(n, 0);  // over rows already joined
    while (true) {
      size_t total = 0;
      size_t frontier = 0;
      for (size_t i = 0; i < n; ++i) {
        total += over[i]->size();
        frontier += over[i]->size() - propagated[i];
      }
      // The cascade only grows, so checking after each merged round makes
      // the same decision as checking after every head.
      if (total > bail_at) {
        *bailed = true;
        pass->local.dred_bailouts += 1;
        pass->local.abandoned_overdeleted += total;
        return Status::OK();
      }
      if (frontier == 0) break;
      pass->local.rounds += 1;
      RAQLET_RETURN_IF_ERROR(pass->Guard(frontier));
      variants.clear();
      for (const CompiledRule& rule : work.rules) {
        for (int a : rule.recursive_atoms) {
          const size_t i = pos.at(rule.atoms[static_cast<size_t>(a)].relation);
          if (over[i]->size() == propagated[i]) continue;
          variants.push_back(Vary(rule, a,
                                  {{over[i].get(), propagated[i],
                                    over[i]->size()}},
                                  old_state, over_of(rule)));
        }
      }
      for (size_t i = 0; i < n; ++i) propagated[i] = over[i]->size();
      RAQLET_RETURN_IF_ERROR(pass->EvaluateInto(variants));
    }
  }

  // ---- Erase the overdeleted rows. ----
  std::vector<size_t> keep(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Tuple> rows = over[i]->MaterializeRows();
    size_t erased;
    RAQLET_ASSIGN_OR_RETURN(erased, work.relations[i]->EraseBatch(rows));
    if (erased != rows.size()) {
      return Status::Internal("DRed erase removed " + std::to_string(erased) +
                              " of " + std::to_string(rows.size()) +
                              " overdeleted tuples in '" + work.preds[i] +
                              "'");
    }
    keep[i] = work.relations[i]->size();
    pass->local.overdeleted += rows.size();
  }

  // ---- One batch, every atom reading NEW: rederive the overdeleted rows
  // still derivable (each rule joined with its head's overdeleted rows),
  // and seed the insertions from lower-strata additions and ¬∃ that
  // started holding. ----
  std::vector<Variant> variants;
  for (const RewrittenRule& rederive : scc->rederive) {
    const Relation* rows = over_of(rederive.rule);
    if (rows->empty()) continue;
    variants.push_back(Vary(rederive.rule, rederive.atom,
                            WholeRelation(rows), NewState));
  }
  for (const CompiledRule& rule : work.rules) {
    for (size_t a = 0; a < rule.atoms.size(); ++a) {
      const CompiledAtom& atom = rule.atoms[a];
      if (atom.recursive || atom.negated) continue;
      RAQLET_ASSIGN_OR_RETURN(const Relation* plus,
                              pass->DeltaRows(atom.predicate, false));
      if (plus == nullptr) continue;
      variants.push_back(
          Vary(rule, static_cast<int>(a), WholeRelation(plus), NewState));
    }
  }
  for (size_t f = 0; f < flips.size(); ++f) {
    if (flips[f].on == nullptr || flips[f].on->empty()) continue;
    const RewrittenRule& flip = scc->flips[f];
    variants.push_back(Vary(flip.rule, flip.atom,
                            WholeRelation(flips[f].on.get()), NewState));
  }
  RAQLET_RETURN_IF_ERROR(pass->EvaluateInto(variants));

  // ---- Semi-naive continuation: the engine's own fixpoint loop, with
  // every row appended since the erase as the first delta. This is the
  // entire algorithm for insert-only deltas. ----
  EvalStats continuation;
  RAQLET_RETURN_IF_ERROR(
      pass->eval.RunScc(&work, &keep, &continuation, nullptr));
  pass->local.rounds += continuation.fixpoint_rounds;

  for (size_t i = 0; i < n; ++i) {
    PredDelta d;
    d.keep = keep[i];
    d.erased = std::move(over[i]);
    Net(*work.relations[i], &d);
    pass->local.rederived += d.erased->size() - d.removed.size();
    Record(work.preds[i], std::move(d), pass, &pass->local.tuples_inserted,
           &pass->local.tuples_deleted);
  }
  return Status::OK();
}

Status IncrementalView::Impl::ApplyRecompute(SccPlan* scc, Pass* pass) {
  // Re-run the SCC from empty into scratch heads over the final lower
  // strata, on the engine's own fixpoint loop.
  SccWork fresh;
  fresh.index = scc->work.index;
  fresh.preds = scc->work.preds;
  fresh.recursive = scc->work.recursive;
  std::vector<std::unique_ptr<Relation>> scratch;
  std::unordered_map<std::string, Relation*> heads;
  for (size_t i = 0; i < fresh.preds.size(); ++i) {
    scratch.push_back(EmptyLike(*scc->work.relations[i]));
    fresh.relations.push_back(scratch.back().get());
    heads[fresh.preds[i]] = scratch.back().get();
    const dlir::RelationDecl* decl = program.FindDecl(fresh.preds[i]);
    if (decl != nullptr && decl->lattice != LatticeKind::kNone) {
      fresh.lattice[scratch.back().get()].kind = decl->lattice;
    }
  }
  auto resolve = [&](const std::string& name) {
    auto head = heads.find(name);
    return head != heads.end() ? head->second : Live(name);
  };
  const std::set<std::string> scc_set(fresh.preds.begin(), fresh.preds.end());
  {
    obs::TraceScope span("incremental.recompute");
    for (const Rule* rule : scc->rules) {
      RAQLET_ASSIGN_OR_RETURN(CompiledRule compiled,
                              pass->eval.Compile(*rule, resolve, scc_set));
      fresh.rules.push_back(std::move(compiled));
    }
    EvalStats recompute;
    RAQLET_RETURN_IF_ERROR(
        pass->eval.RunScc(&fresh, nullptr, &recompute, nullptr));
  }
  pass->local.rounds += 1;
  pass->local.recomputed_sccs += 1;

  // Write the result back as a diff: erase the rows it lost, append the
  // rows it gained. The diff is one unboxed pass over the result against
  // the live dedup table; only the changed rows are boxed.
  for (size_t i = 0; i < fresh.preds.size(); ++i) {
    Relation* live = scc->work.relations[i];
    const Relation& result = *fresh.relations[i];
    Relation::RowDiff diff;
    {
      obs::TraceScope span("incremental.diff");
      diff = live->Diff(result);
    }
    RAQLET_RETURN_IF_ERROR(
        pass->Guard(diff.only_here.size() + diff.only_there.size()));
    obs::TraceScope span("incremental.write");
    RAQLET_RETURN_IF_ERROR(Replace(fresh.preds[i], live,
                                   RowsAt(*live, diff.only_here),
                                   RowsAt(result, diff.only_there), pass));
  }
  return Status::OK();
}

Result<AppliedDelta> IncrementalView::Impl::Apply(
    const DeltaBatch& batch, obs::IncrementalMetrics* metrics,
    const runtime::QueryGuard* guard) {
  Pass pass(RuleEvaluator(&db->symbols(), eval_options(), context.get(),
                          guard),
            guard);

  // Apply the base delta. A relation may appear in several entries, so
  // each erased tuple is either a pre-delta row or one an earlier entry
  // appended; only the former belong to OLD.
  std::vector<std::string> base_order;
  std::unordered_map<std::string, size_t> pre_size;
  for (const RelationDelta& rd : batch.relations) {
    if (pre_size.emplace(rd.relation, relations.at(rd.relation)->size())
            .second) {
      base_order.push_back(rd.relation);
    }
  }
  AppliedDelta base;
  RAQLET_ASSIGN_OR_RETURN(base, db->ApplyDelta(batch));
  std::unordered_map<std::string,
                     std::unordered_set<Tuple, TupleHash, TupleBitEq>>
      appended;
  std::unordered_map<std::string, std::vector<Tuple>> erased;
  for (AppliedRelationDelta& ard : base.relations) {
    auto& mine = appended[ard.relation];
    for (Tuple& t : ard.removed) {
      if (mine.erase(t) == 0) erased[ard.relation].push_back(std::move(t));
    }
    for (Tuple& t : ard.added) mine.insert(std::move(t));
  }
  for (const std::string& pred : base_order) {
    const Relation& rel = *relations.at(pred);
    PredDelta d;
    d.erased = EmptyLike(rel);
    RAQLET_RETURN_IF_ERROR(d.erased->InsertBatch(erased[pred]).status());
    d.keep = pre_size[pred] - d.erased->size();
    Net(rel, &d);
    Record(pred, std::move(d), &pass, &pass.local.base_added,
           &pass.local.base_removed);
  }
  RAQLET_RETURN_IF_ERROR(
      pass.Guard(pass.local.base_added + pass.local.base_removed));

  // Re-fire only the SCCs whose body predicates changed, in topological
  // order, so each SCC sees final lower-stratum states.
  for (SccPlan& scc : sccs) {
    if (scc.work.rules.empty()) continue;
    bool affected = false;
    for (const std::string& dep : scc.body_preds) {
      if (pass.Changed(dep) != nullptr) {
        affected = true;
        break;
      }
    }
    if (!affected) {
      ++pass.local.sccs_skipped;
      continue;
    }
    ++pass.local.sccs_touched;
    switch (scc.policy) {
      case Policy::kCounting:
        RAQLET_RETURN_IF_ERROR(ApplyCounting(&scc, &pass));
        break;
      case Policy::kDred: {
        bool bailed = false;
        RAQLET_RETURN_IF_ERROR(ApplyDred(&scc, &pass, &bailed));
        if (bailed) RAQLET_RETURN_IF_ERROR(ApplyRecompute(&scc, &pass));
        break;
      }
      case Policy::kRecompute:
        RAQLET_RETURN_IF_ERROR(ApplyRecompute(&scc, &pass));
        break;
    }
  }

  // Assemble the net result: base relations in first-appearance batch
  // order, then derived relations in topological order.
  AppliedDelta out;
  auto append = [&](const std::string& pred) {
    auto it = pass.deltas.find(pred);
    if (it == pass.deltas.end()) return;
    AppliedRelationDelta ard;
    ard.relation = pred;
    ard.added = std::move(it->second.added);
    ard.removed = std::move(it->second.removed);
    out.total_added += ard.added.size();
    out.total_removed += ard.removed.size();
    out.relations.push_back(std::move(ard));
  };
  for (const std::string& pred : base_order) append(pred);
  for (const SccPlan& scc : sccs) {
    for (const std::string& pred : scc.work.preds) {
      if (input_preds.count(pred) == 0) append(pred);
    }
  }

  stats += pass.local;
  if (metrics != nullptr) *metrics += pass.local;
  return out;
}

// ---------------------------------------------------------------------------
// Public surface.
// ---------------------------------------------------------------------------

IncrementalView::IncrementalView(IncrementalOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->options = options;
}

IncrementalView::~IncrementalView() = default;

Status IncrementalView::Initialize(const dlir::Program& program, Database* db,
                                   EvalStats* stats,
                                   const runtime::QueryGuard* guard) {
  return impl_->Initialize(program, db, stats, guard);
}

bool IncrementalView::initialized() const { return impl_->initialized; }

const obs::IncrementalMetrics& IncrementalView::stats() const {
  return impl_->stats;
}

Database* IncrementalView::database() const { return impl_->db; }

Result<AppliedDelta> IncrementalView::ApplyDelta(
    const DeltaBatch& delta, obs::IncrementalMetrics* metrics,
    const runtime::QueryGuard* guard) {
  if (!impl_->initialized) {
    return Status::InvalidArgument(
        "IncrementalView::ApplyDelta before Initialize");
  }
  if (impl_->poisoned) {
    return Status::InvalidArgument(
        "incremental view poisoned by a previous failed ApplyDelta; call "
        "Initialize again");
  }
  for (const RelationDelta& rd : delta.relations) {
    if (impl_->input_preds.count(rd.relation) == 0) {
      return Status::InvalidArgument(
          "delta targets non-input relation '" + rd.relation +
          "' — only declared input relations accept base-fact deltas");
    }
  }
  Result<AppliedDelta> result = impl_->Apply(delta, metrics, guard);
  // Any failure past validation may have left base or derived relations
  // half-repaired; poison the view until re-initialized.
  if (!result.ok()) impl_->poisoned = true;
  return result;
}

}  // namespace raqlet::engine
