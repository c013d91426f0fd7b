#ifndef RAQLET_PGIR_PGIR_TO_DLIR_H_
#define RAQLET_PGIR_PGIR_TO_DLIR_H_

// PGIR -> DLIR translation (§3, Fig. 3b -> Fig. 3c).
//
// Each PGIR clause construct becomes one DLIR rule (Match1, Where1, ...,
// Return), threading the set of visible identifiers through the rule
// heads. Node/edge patterns map to the EDBs of the DL-Schema; node
// identifiers stand for node ids (first EDB column). Variable-length
// patterns expand into recursive auxiliary predicates; shortestPath
// expands into a @min lattice distance predicate (docs/architecture.md).

#include "common/status.h"
#include "dlir/program.h"
#include "pgir/pgir.h"
#include "schema/dl_schema.h"

namespace raqlet::pgir {

/// Translates a PGIR query into a DLIR program over `dl`'s EDBs. The
/// resulting program passes the structural check
/// (analysis::VerifyStructure) and carries one is_output relation,
/// `Return`.
Result<dlir::Program> TranslateToDlir(const PgirQuery& query,
                                      const schema::DlSchema& dl);

}  // namespace raqlet::pgir

#endif  // RAQLET_PGIR_PGIR_TO_DLIR_H_
