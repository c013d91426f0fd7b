#include "dlir/fold.h"

#include <cstdint>
#include <limits>

namespace raqlet::dlir {

namespace {

bool IsNumeric(const Constant& c) {
  return c.type == ValueType::kNumber || c.type == ValueType::kFloat;
}

double AsDouble(const Constant& c) {
  return c.type == ValueType::kFloat ? c.fval : static_cast<double>(c.num);
}

std::optional<Constant> FoldArith(ArithOp op, const Constant& lhs,
                                  const Constant& rhs) {
  if (!IsNumeric(lhs) || !IsNumeric(rhs)) return std::nullopt;
  if (lhs.type == ValueType::kFloat || rhs.type == ValueType::kFloat) {
    const double x = AsDouble(lhs);
    const double y = AsDouble(rhs);
    switch (op) {
      case ArithOp::kAdd:
        return Constant::Float(x + y);
      case ArithOp::kSub:
        return Constant::Float(x - y);
      case ArithOp::kMul:
        return Constant::Float(x * y);
      case ArithOp::kDiv:
        if (y == 0.0) return std::nullopt;
        return Constant::Float(x / y);
      case ArithOp::kMod:
        return std::nullopt;
    }
    return std::nullopt;
  }
  const int64_t x = lhs.num;
  const int64_t y = rhs.num;
  int64_t out = 0;
  bool overflow = false;
  switch (op) {
    case ArithOp::kAdd:
      overflow = __builtin_add_overflow(x, y, &out);
      break;
    case ArithOp::kSub:
      overflow = __builtin_sub_overflow(x, y, &out);
      break;
    case ArithOp::kMul:
      overflow = __builtin_mul_overflow(x, y, &out);
      break;
    case ArithOp::kDiv:
    case ArithOp::kMod:
      if (y == 0 || (y == -1 && x == std::numeric_limits<int64_t>::min())) {
        return std::nullopt;
      }
      out = op == ArithOp::kDiv ? x / y : x % y;
      break;
  }
  if (overflow) return std::nullopt;
  return Constant::Number(out);
}

}  // namespace

Term FoldConstants(const Term& term) {
  if (term.kind != TermKind::kBinary) return term;
  Term folded = term;
  folded.children[0] = FoldConstants(term.children[0]);
  folded.children[1] = FoldConstants(term.children[1]);
  const Term& lhs = folded.children[0];
  const Term& rhs = folded.children[1];
  if (!lhs.is_const() || !rhs.is_const()) return folded;
  std::optional<Constant> value = FoldArith(folded.op, lhs.constant,
                                            rhs.constant);
  return value.has_value() ? Term::Const(*std::move(value)) : folded;
}

std::optional<bool> FoldComparison(CmpOp op, const Constant& lhs,
                                   const Constant& rhs) {
  if (op == CmpOp::kEq) return lhs == rhs;
  if (op == CmpOp::kNe) return lhs != rhs;
  int cmp = 0;
  if (lhs.type == ValueType::kNumber && rhs.type == ValueType::kNumber) {
    cmp = lhs.num < rhs.num ? -1 : (lhs.num > rhs.num ? 1 : 0);
  } else if (IsNumeric(lhs) && IsNumeric(rhs)) {
    const double x = AsDouble(lhs);
    const double y = AsDouble(rhs);
    cmp = x < y ? -1 : (x > y ? 1 : 0);
  } else if (lhs.type == ValueType::kSymbol &&
             rhs.type == ValueType::kSymbol) {
    cmp = lhs.str.compare(rhs.str);
    cmp = cmp < 0 ? -1 : (cmp > 0 ? 1 : 0);
  } else {
    return std::nullopt;
  }
  switch (op) {
    case CmpOp::kLt:
      return cmp < 0;
    case CmpOp::kLe:
      return cmp <= 0;
    case CmpOp::kGt:
      return cmp > 0;
    case CmpOp::kGe:
      return cmp >= 0;
    default:
      return std::nullopt;
  }
}

}  // namespace raqlet::dlir
