#ifndef RAQLET_SQIR_SQL_PRINTER_H_
#define RAQLET_SQIR_SQL_PRINTER_H_

// Renders SQIR as executable SQL text (the paper's Fig. 3e backend).
// The dialect is the portable core understood by DuckDB/Postgres/HyPer:
// WITH [RECURSIVE] ... UNION ... and single-quoted string literals.

#include <string>

#include "sqir/sqir.h"

namespace raqlet::sqir {

/// Branches of a CTE combine with UNION (distinct, SQL:1999 recursive
/// semantics).
std::string ToSql(const SqirProgram& program);

}  // namespace raqlet::sqir

#endif  // RAQLET_SQIR_SQL_PRINTER_H_
