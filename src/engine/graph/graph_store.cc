#include "engine/graph/graph_store.h"

namespace raqlet::engine {

namespace {
const std::vector<GraphStore::Neighbor>& EmptyNeighbors() {
  static const std::vector<GraphStore::Neighbor>& empty =
      *new std::vector<GraphStore::Neighbor>();
  return empty;
}
const std::vector<int64_t>& EmptyNodes() {
  static const std::vector<int64_t>& empty = *new std::vector<int64_t>();
  return empty;
}
}  // namespace

Result<GraphStore> GraphStore::Build(const schema::DlSchema& dl,
                                     const Database& db) {
  GraphStore store;
  for (const auto& [label, info] : dl.nodes_by_label) {
    RAQLET_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(info.relation));
    LabelData data;
    data.info = &info;
    data.relation = rel;
    data.node_ids.reserve(rel->size());
    Relation::ColumnView ids = rel->Column(0);
    for (uint32_t i = 0; i < rel->size(); ++i) {
      int64_t id = ids.at(i).AsNumber();
      data.node_ids.push_back(id);
      if (!data.row_of.emplace(id, i).second) {
        std::vector<int64_t>& copies = data.repeated[id];
        if (copies.empty()) copies.push_back(id);  // the first row's copy
        copies.push_back(id);
      }
    }
    store.total_nodes_ += rel->size();
    store.labels_.emplace(label, std::move(data));
  }
  for (const auto& [edge_label, info] : dl.edges_by_label) {
    RAQLET_ASSIGN_OR_RETURN(const Relation* rel, db.GetRelation(info.relation));
    EdgeData data;
    data.info = &info;
    data.relation = rel;
    Relation::ColumnView srcs = rel->Column(0);
    Relation::ColumnView dsts = rel->Column(1);
    for (uint32_t i = 0; i < rel->size(); ++i) {
      int64_t src = srcs.at(i).AsNumber();
      int64_t dst = dsts.at(i).AsNumber();
      data.forward[src].push_back(Neighbor{dst, i});
      data.backward[dst].push_back(Neighbor{src, i});
    }
    store.total_edges_ += rel->size();
    store.edges_.emplace(edge_label, std::move(data));
  }
  return store;
}

const std::vector<GraphStore::Neighbor>& GraphStore::OutNeighbors(
    const std::string& edge_label, int64_t node) const {
  auto it = edges_.find(edge_label);
  if (it == edges_.end()) return EmptyNeighbors();
  auto n = it->second.forward.find(node);
  return n == it->second.forward.end() ? EmptyNeighbors() : n->second;
}

const std::vector<GraphStore::Neighbor>& GraphStore::InNeighbors(
    const std::string& edge_label, int64_t node) const {
  auto it = edges_.find(edge_label);
  if (it == edges_.end()) return EmptyNeighbors();
  auto n = it->second.backward.find(node);
  return n == it->second.backward.end() ? EmptyNeighbors() : n->second;
}

const std::vector<int64_t>& GraphStore::NodesWithLabel(
    const std::string& label) const {
  auto it = labels_.find(label);
  return it == labels_.end() ? EmptyNodes() : it->second.node_ids;
}

std::span<const int64_t> GraphStore::NodesWithId(const std::string& label,
                                                 int64_t id) const {
  auto it = labels_.find(label);
  if (it == labels_.end()) return {};
  const LabelData& data = it->second;
  auto row = data.row_of.find(id);
  if (row == data.row_of.end()) return {};
  auto copies = data.repeated.find(id);
  if (copies != data.repeated.end()) return copies->second;
  return {&data.node_ids[row->second], 1};
}

bool GraphStore::HasLabel(const std::string& label, int64_t node) const {
  auto it = labels_.find(label);
  return it != labels_.end() && it->second.row_of.count(node) > 0;
}

Result<Value> GraphStore::NodeProperty(const std::string& label, int64_t node,
                                       const std::string& property) const {
  auto it = labels_.find(label);
  if (it == labels_.end()) {
    return Status::NotFound("no node label '" + label + "'");
  }
  const LabelData& data = it->second;
  auto row = data.row_of.find(node);
  if (row == data.row_of.end()) {
    return Status::NotFound("no node " + std::to_string(node) + " with label " +
                            label);
  }
  int col = data.info->PropertyColumn(property);
  if (col < 0) {
    return Status::NotFound("label '" + label + "' has no property '" +
                            property + "'");
  }
  return data.relation->ValueAt(row->second, static_cast<size_t>(col));
}

Result<Value> GraphStore::EdgeProperty(const std::string& edge_label,
                                       uint32_t edge_row,
                                       const std::string& property) const {
  auto it = edges_.find(schema::ToUpperSnake(edge_label));
  if (it == edges_.end()) {
    return Status::NotFound("no edge label '" + edge_label + "'");
  }
  int col = it->second.info->PropertyColumn(property);
  if (col < 0) {
    return Status::NotFound("edge '" + edge_label + "' has no property '" +
                            property + "'");
  }
  return it->second.relation->ValueAt(edge_row, static_cast<size_t>(col));
}

Result<Relation::ColumnView> GraphStore::EdgeColumn(
    const std::string& edge_label, int col) const {
  auto it = edges_.find(schema::ToUpperSnake(edge_label));
  if (it == edges_.end()) {
    return Status::NotFound("no edge label '" + edge_label + "'");
  }
  return it->second.relation->Column(static_cast<size_t>(col));
}

}  // namespace raqlet::engine
