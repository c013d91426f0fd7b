#include "storage/csv.h"

#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace raqlet {

namespace {

Result<Value> ParseField(Database* db, const std::string& field,
                         ValueType type) {
  switch (type) {
    case ValueType::kNumber: {
      RAQLET_ASSIGN_OR_RETURN(int64_t v, ParseInt(field));
      return Value::Number(v);
    }
    case ValueType::kFloat: {
      RAQLET_ASSIGN_OR_RETURN(double v, ParseFloat(field));
      return Value::Float(v);
    }
    case ValueType::kSymbol:
      return db->Str(field);
    case ValueType::kBool:
      return Value::Bool(field == "true" || field == "1");
    case ValueType::kNull:
      return Value::Null();
  }
  return Status::Internal("unhandled value type");
}

}  // namespace

Status LoadDelimitedText(Database* db, Relation* relation,
                         const std::string& text, char delimiter) {
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  // Parse everything first, then hand the whole load to InsertBatch: one
  // reservation and one index fold instead of per-row dedup rehashes.
  std::vector<Tuple> batch;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = Split(line, delimiter);
    if (fields.size() != relation->arity()) {
      return Status::ParseError(
          relation->name() + " line " + std::to_string(line_no) + ": expected " +
          std::to_string(relation->arity()) + " fields, got " +
          std::to_string(fields.size()));
    }
    Tuple row;
    row.reserve(fields.size());
    size_t char_col = 1;  // 1-based character column of the current field
    for (size_t i = 0; i < fields.size(); ++i) {
      Result<Value> v =
          ParseField(db, fields[i], relation->schema().columns[i].type);
      if (!v.ok()) {
        return Status::ParseError(
            relation->name() + " line " + std::to_string(line_no) +
            ", column " + std::to_string(char_col) + " (field " +
            std::to_string(i + 1) + "): " + v.status().message());
      }
      row.push_back(*v);
      char_col += fields[i].size() + 1;  // skip the field and its delimiter
    }
    batch.push_back(std::move(row));
  }
  RAQLET_RETURN_IF_ERROR(relation->InsertBatch(batch).status());
  return Status::OK();
}

Status LoadDelimitedFile(Database* db, Relation* relation,
                         const std::string& path, char delimiter) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open facts file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadDelimitedText(db, relation, buffer.str(), delimiter);
}

std::string DumpDelimitedText(const Database& db, const Relation& relation,
                              char delimiter) {
  std::ostringstream os;
  for (const Tuple& row : relation.MaterializeRows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) os << delimiter;
      const Value& v = row[i];
      if (v.kind() == ValueType::kSymbol) {
        os << db.symbols().Resolve(v.AsSymbol());
      } else {
        os << v.ToString();
      }
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace raqlet
