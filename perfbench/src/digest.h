// Order-independent fingerprint of a query result, used to check every
// timed result against the reference engine's.
#ifndef PERFBENCH_DIGEST_H_
#define PERFBENCH_DIGEST_H_

#include <cstdint>

#include "core/extended_relation.h"

namespace perfbench {

/// Hashes the schema (names and kinds, in order) and the multiset of rows:
/// key and definite values, every focal element (set words and the exact
/// bits of its mass) and the membership pair. Relations are sets whose
/// row order is implementation-defined, so rows are combined
/// commutatively; evidence masses are compared bit-exactly, which is the
/// engine's contract across thread counts, fusion and open modes.
uint64_t ResultDigest(const evident::ExtendedRelation& relation);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_H_
