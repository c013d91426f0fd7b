#ifndef RAQLET_LDBC_LDBC_H_
#define RAQLET_LDBC_LDBC_H_

// LDBC SNB-like workload substrate (docs/benchmarks.md): the schema the
// paper's running example embeds (§3), a deterministic scale-factor data
// generator standing in for the LDBC SNB datasets, and the benchmark
// queries of Table 1 (short query 1, complex query 2) plus the classic
// recursive queries used by the §2 crossover benchmarks.
//
// Simplifications vs. full LDBC SNB (documented per the substitution
// rule): posts and comments merge into a single Message node type, and
// queries follow the paper's normalization (RETURN DISTINCT, no ORDER
// BY/LIMIT).

#include <string>

#include "common/status.h"
#include "dlir/program.h"
#include "schema/dl_schema.h"
#include "storage/database.h"

namespace raqlet::ldbc {

/// PG-Schema text for the SNB-like social network.
const char* SnbSchema();

struct GeneratorOptions {
  /// Rough analogue of the LDBC scale factor: persons = 1000 * sf
  /// (clamped to >= 50). SF10 in the paper maps to sf = 10.
  double scale_factor = 0.1;
  unsigned seed = 42;

  int persons() const;
};

/// Fills `db` (whose EDB relations must already exist, see
/// Compiler::CreateEdbs) with a deterministic social network:
/// power-law-ish KNOWS degrees, ~8 messages per person, likes, forums,
/// tags, and place hierarchy.
Status GenerateSnbData(const schema::DlSchema& dl, Database* db,
                       const GeneratorOptions& options = {});

/// Returns a person id guaranteed to exist for the given options (used as
/// the $personId benchmark parameter).
int64_t SamplePersonId(const GeneratorOptions& options);

/// A creationDate cutoff that selects roughly half of all messages.
int64_t MidCreationDate();

// ---- Table 1 queries (Cypher, parameterized with $personId/$maxDate) ----

/// LDBC short query 1 (simplified per §3): profile of a person plus their
/// city.
const char* ShortQuery1();

/// LDBC complex query 2 (simplified per §3): recent messages of friends.
const char* ComplexQuery2();

// ---- classic recursive queries (§2 crossover benchmarks) ----

/// All persons transitively reachable over KNOWS from $personId.
const char* ReachabilityQuery();

/// Shortest KNOWS path lengths from $personId to every reachable person.
const char* ShortestPathQuery();

/// Friends-of-friends within 1..3 hops.
const char* FriendsWithinThreeHops();

/// Per-friend message counts (WITH-aggregation pipeline, IC-style).
const char* FriendMessageCounts();

}  // namespace raqlet::ldbc

#endif  // RAQLET_LDBC_LDBC_H_
