#ifndef RAQLET_DLIR_EXPLAIN_H_
#define RAQLET_DLIR_EXPLAIN_H_

// Procedural lowering of DLIR (§5 "Code Generation"): renders the
// bottom-up evaluation of a program as an explicit loop-nest IR in the
// spirit of Soufflé's RAM and the functional-collection IRs the paper
// cites [35, 37] — strata, per-rule join loop nests with index probes,
// and semi-naive delta loops. This is both an EXPLAIN facility and the
// textual form a JIT backend would consume.
//
//   STRATUM 1 (recursive: tc)
//     INIT
//       FOR (x, y) IN edge
//         INSERT (x, y) INTO tc
//     LOOP UNTIL FIXPOINT
//       FOR (x, z) IN DELTA tc
//         FOR (z, y) IN edge INDEX ON (col0 = z)
//           INSERT (x, y) INTO tc

#include <string>

#include "common/status.h"
#include "dlir/program.h"
#include "obs/metrics.h"

namespace raqlet::dlir {

/// Renders the procedural evaluation plan for `program`, with one
/// semi-naive delta variant per recursive body atom. Fails (InvalidArgument)
/// if the program fails the structural check (analysis::VerifyStructure),
/// and (Unsupported) if it is unstratifiable.
Result<std::string> ExplainProgram(const Program& program);

/// EXPLAIN ANALYZE: the same plan annotated with the runtime counters a
/// prior execution recorded into `metrics` — per-stratum fixpoint rounds,
/// rule evaluations, tuples considered/inserted and per-round delta sizes
/// (matched to strata by topological SCC index), followed by the full
/// QueryMetrics report (phases, SQL/graph operator counters, memory).
/// Strata without a recorded slot render unannotated, so the plan of one
/// engine can be shown alongside another engine's metrics.
Result<std::string> ExplainAnalyzeProgram(const Program& program,
                                          const obs::QueryMetrics& metrics);

}  // namespace raqlet::dlir

#endif  // RAQLET_DLIR_EXPLAIN_H_
