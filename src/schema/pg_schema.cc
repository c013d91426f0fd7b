#include "schema/pg_schema.h"

#include <cctype>
#include <sstream>

#include "common/lexer.h"
#include "common/str_util.h"

namespace raqlet::schema {

namespace {

int FindProperty(const std::vector<PropertyDef>& props,
                 const std::string& name) {
  for (size_t i = 0; i < props.size(); ++i) {
    if (props[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace

int NodeTypeDef::PropertyIndex(const std::string& property) const {
  return FindProperty(properties, property);
}

int EdgeTypeDef::PropertyIndex(const std::string& property) const {
  return FindProperty(properties, property);
}

const NodeTypeDef* PgSchema::FindNodeByLabel(const std::string& label) const {
  for (const NodeTypeDef& n : nodes) {
    if (n.label == label) return &n;
  }
  return nullptr;
}

const NodeTypeDef* PgSchema::FindNodeByTypeName(
    const std::string& type_name) const {
  for (const NodeTypeDef& n : nodes) {
    if (n.type_name == type_name) return &n;
  }
  return nullptr;
}

const EdgeTypeDef* PgSchema::FindEdgeByLabel(const std::string& label) const {
  for (const EdgeTypeDef& e : edges) {
    if (e.label == label) return &e;
  }
  for (const EdgeTypeDef& e : edges) {
    if (ToUpperSnake(e.label) == ToUpperSnake(label)) return &e;
  }
  return nullptr;
}

std::string PgSchema::ToString() const {
  std::ostringstream os;
  os << "CREATE GRAPH {\n";
  std::vector<std::string> entries;
  auto props_text = [](const std::vector<PropertyDef>& props) {
    std::vector<std::string> parts;
    for (const PropertyDef& p : props) {
      std::string type;
      switch (p.type) {
        case ValueType::kNumber:
          type = "INT";
          break;
        case ValueType::kSymbol:
          type = "STRING";
          break;
        case ValueType::kFloat:
          type = "FLOAT";
          break;
        case ValueType::kBool:
          type = "BOOL";
          break;
        case ValueType::kNull:
          type = "NULL";
          break;
      }
      parts.push_back(p.name + " " + type);
    }
    return parts.empty() ? std::string() : " {" + Join(parts, ", ") + "}";
  };
  for (const NodeTypeDef& n : nodes) {
    entries.push_back("  (" + n.type_name + ": " + n.label +
                      props_text(n.properties) + ")");
  }
  for (const EdgeTypeDef& e : edges) {
    entries.push_back("  (:" + e.src_type + ")-[" + e.type_name + ": " +
                      e.label + props_text(e.properties) + "]->(:" +
                      e.dst_type + ")");
  }
  os << Join(entries, ",\n") << "\n}";
  return os.str();
}

std::string ToUpperSnake(const std::string& name) {
  std::string out;
  for (size_t i = 0; i < name.size(); ++i) {
    char c = name[i];
    if (std::isupper(static_cast<unsigned char>(c)) && i > 0 &&
        name[i - 1] != '_' &&
        !std::isupper(static_cast<unsigned char>(name[i - 1]))) {
      out.push_back('_');
    }
    out.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
  }
  return out;
}

namespace {

class SchemaParser : public TokenCursor {
 public:
  using TokenCursor::TokenCursor;

  Result<PgSchema> Parse() {
    PgSchema schema;
    for (const char* word : {"CREATE", "GRAPH"}) {
      if (!MatchKeyword(word)) {
        return Errorf(std::string("expected keyword ") + word);
      }
    }
    RAQLET_RETURN_IF_ERROR(ExpectPunct("{"));
    while (!PeekPunct("}")) {
      RAQLET_RETURN_IF_ERROR(ParseEntry(&schema));
      if (!MatchPunct(",")) break;
    }
    RAQLET_RETURN_IF_ERROR(ExpectPunct("}"));
    // Well-formedness: node types unique, ids present, edge endpoints
    // resolve.
    for (const NodeTypeDef& n : schema.nodes) {
      if (n.PropertyIndex("id") < 0) {
        return Status::InvalidArgument("node type '" + n.type_name +
                                       "' must declare an 'id' property");
      }
    }
    for (const EdgeTypeDef& e : schema.edges) {
      if (schema.FindNodeByTypeName(e.src_type) == nullptr) {
        return Status::InvalidArgument("edge '" + e.type_name +
                                       "' references unknown node type '" +
                                       e.src_type + "'");
      }
      if (schema.FindNodeByTypeName(e.dst_type) == nullptr) {
        return Status::InvalidArgument("edge '" + e.type_name +
                                       "' references unknown node type '" +
                                       e.dst_type + "'");
      }
    }
    return schema;
  }

 private:
  Result<ValueType> ParseType() {
    RAQLET_ASSIGN_OR_RETURN(std::string name, ExpectIdent());
    std::string upper = ToUpper(name);
    if (upper == "INT" || upper == "INTEGER" || upper == "LONG" ||
        upper == "NUMBER") {
      return ValueType::kNumber;
    }
    if (upper == "STRING" || upper == "TEXT" || upper == "SYMBOL" ||
        upper == "VARCHAR") {
      return ValueType::kSymbol;
    }
    if (upper == "FLOAT" || upper == "DOUBLE") return ValueType::kFloat;
    if (upper == "BOOL" || upper == "BOOLEAN") return ValueType::kBool;
    return Errorf("unknown property type '" + name + "'");
  }

  Result<std::vector<PropertyDef>> ParsePropertyBlock() {
    std::vector<PropertyDef> props;
    if (!MatchPunct("{")) return props;
    while (!PeekPunct("}")) {
      PropertyDef prop;
      RAQLET_ASSIGN_OR_RETURN(prop.name, ExpectIdent());
      RAQLET_ASSIGN_OR_RETURN(prop.type, ParseType());
      props.push_back(std::move(prop));
      if (!MatchPunct(",")) break;
    }
    RAQLET_RETURN_IF_ERROR(ExpectPunct("}"));
    return props;
  }

  Status ParseEntry(PgSchema* schema) {
    RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
    if (MatchPunct(":")) {
      // Edge entry: (:srcType)-[name: Label {props}]->(:dstType)
      EdgeTypeDef edge;
      RAQLET_ASSIGN_OR_RETURN(edge.src_type, ExpectIdent());
      RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
      RAQLET_RETURN_IF_ERROR(ExpectPunct("-"));
      RAQLET_RETURN_IF_ERROR(ExpectPunct("["));
      RAQLET_ASSIGN_OR_RETURN(edge.type_name, ExpectIdent());
      RAQLET_RETURN_IF_ERROR(ExpectPunct(":"));
      RAQLET_ASSIGN_OR_RETURN(edge.label, ExpectIdent());
      RAQLET_ASSIGN_OR_RETURN(edge.properties, ParsePropertyBlock());
      RAQLET_RETURN_IF_ERROR(ExpectPunct("]"));
      RAQLET_RETURN_IF_ERROR(ExpectPunct("->"));
      RAQLET_RETURN_IF_ERROR(ExpectPunct("("));
      RAQLET_RETURN_IF_ERROR(ExpectPunct(":"));
      RAQLET_ASSIGN_OR_RETURN(edge.dst_type, ExpectIdent());
      RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
      schema->edges.push_back(std::move(edge));
      return Status::OK();
    }
    // Node entry: (typeName: Label {props})
    NodeTypeDef node;
    RAQLET_ASSIGN_OR_RETURN(node.type_name, ExpectIdent());
    RAQLET_RETURN_IF_ERROR(ExpectPunct(":"));
    RAQLET_ASSIGN_OR_RETURN(node.label, ExpectIdent());
    RAQLET_ASSIGN_OR_RETURN(node.properties, ParsePropertyBlock());
    RAQLET_RETURN_IF_ERROR(ExpectPunct(")"));
    schema->nodes.push_back(std::move(node));
    return Status::OK();
  }
};

}  // namespace

Result<PgSchema> ParsePgSchema(const std::string& source) {
  LexerConfig config;
  config.multi_char_puncts = {"->"};
  config.single_puncts = "(){}[]:,-";
  RAQLET_ASSIGN_OR_RETURN(std::vector<Token> tokens,
                          Tokenize(source, config));
  SchemaParser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace raqlet::schema
