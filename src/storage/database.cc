#include "storage/database.h"

#include <unordered_set>

namespace raqlet {

Result<Relation*> Database::CreateRelation(RelationSchema schema) {
  const std::string name = schema.name;
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation already exists: " + name);
  }
  auto relation = std::make_unique<Relation>(std::move(schema));
  Relation* out = relation.get();
  relations_.emplace(name, std::move(relation));
  creation_order_.push_back(name);
  return out;
}

Result<Relation*> Database::GetRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no such relation: " + name);
  }
  return it->second.get();
}

Result<const Relation*> Database::GetRelation(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no such relation: " + name);
  }
  return static_cast<const Relation*>(it->second.get());
}

std::vector<std::string> Database::RelationNames() const {
  return creation_order_;
}

size_t Database::TotalTuples() const {
  size_t total = 0;
  for (const auto& [name, rel] : relations_) total += rel->size();
  return total;
}

Result<AppliedDelta> Database::ApplyDelta(const DeltaBatch& batch) {
  AppliedDelta out;
  for (const RelationDelta& rd : batch.relations) {
    Relation* rel;
    RAQLET_ASSIGN_OR_RETURN(rel, GetRelation(rd.relation));
    const size_t arity = rel->arity();
    for (const std::vector<Tuple>* list : {&rd.adds, &rd.removes}) {
      for (const Tuple& t : *list) {
        if (t.size() != arity) {
          return Status::InvalidArgument(
              "delta tuple arity " + std::to_string(t.size()) +
              " does not match relation '" + rd.relation + "' arity " +
              std::to_string(arity));
        }
      }
    }
    AppliedRelationDelta applied;
    applied.relation = rd.relation;
    // A tuple both removed and re-added is a net no-op when present (and
    // a plain insert when absent) — never route it through EraseBatch.
    // Both sets compare like the relation does (kind and raw bits), so a
    // NaN tuple matches itself here too.
    std::unordered_set<Tuple, TupleHash, TupleBitEq> add_set(
        rd.adds.begin(), rd.adds.end());
    std::unordered_set<Tuple, TupleHash, TupleBitEq> seen;
    for (const Tuple& t : rd.removes) {
      if (add_set.count(t) > 0 || !rel->Contains(t)) continue;
      if (!seen.insert(t).second) continue;
      applied.removed.push_back(t);
    }
    size_t erased;
    RAQLET_ASSIGN_OR_RETURN(erased, rel->EraseBatch(applied.removed));
    (void)erased;
    for (const Tuple& t : rd.adds) {
      bool fresh;
      RAQLET_ASSIGN_OR_RETURN(fresh, rel->Insert(t));
      if (fresh) applied.added.push_back(t);
    }
    out.total_added += applied.added.size();
    out.total_removed += applied.removed.size();
    if (!applied.added.empty() || !applied.removed.empty()) {
      out.relations.push_back(std::move(applied));
    }
  }
  return out;
}

}  // namespace raqlet
