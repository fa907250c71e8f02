// A deliberately naive evaluator of the extended relational algebra
// (the paper's §3) — the differential oracle for core/operations.h.
//
// Every operator is a loop over ExtendedRelation::row(i) with the
// interpreted predicate: σ̃ evaluates F_SS per row and revises the
// membership by F_TM, ×̃ is nested loops, ⋈̃ is σ̃ over ×̃ with the
// residual evaluated only on key-matching pairs (probe-major, so the
// first error and the row order are the production hash join's), and
// ∪̃ matches keys by a nested-loop scan. No hashing, morsels, column
// images, partitions or governor. Schema resolution and the evidence
// kernel are shared with the library (MakeProductSchema,
// ResolveProjectionSchema, CheckUnionCompatible, AnalyzeJoinPredicate,
// CombineEvidenceTrusted, CombineMembership): the oracle checks the
// operators, not those helpers. Results must match production bit for
// bit — same schema, same row order, same masses and memberships, same
// first error.
#ifndef EVIDENT_TESTS_REFERENCE_ALGEBRA_H_
#define EVIDENT_TESTS_REFERENCE_ALGEBRA_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/extended_relation.h"
#include "core/operations.h"
#include "core/predicate.h"
#include "core/threshold.h"
#include "integration/entity_identifier.h"
#include "query/plan.h"

namespace evident {
namespace reference {

Result<ExtendedRelation> Select(const ExtendedRelation& input,
                                const PredicatePtr& predicate,
                                const MembershipThreshold& threshold =
                                    MembershipThreshold());

/// Drops rows any conjunct gives sn == 0; conjuncts evaluate in order
/// over every row, so an error is the first failing conjunct's.
Result<ExtendedRelation> FilterPositiveSupport(
    const ExtendedRelation& input, const std::vector<PredicatePtr>& conjuncts);

Result<ExtendedRelation> Project(const ExtendedRelation& input,
                                 const std::vector<std::string>& attributes);

Result<ExtendedRelation> RenameAttribute(const ExtendedRelation& input,
                                         const std::string& from,
                                         const std::string& to);

Result<ExtendedRelation> Product(const ExtendedRelation& left,
                                 const ExtendedRelation& right);

/// `build_side` only decides the row order (pairs grouped by probe row,
/// the probe side being the one not built on), as in production.
Result<ExtendedRelation> Join(const ExtendedRelation& left,
                              const ExtendedRelation& right,
                              const PredicatePtr& predicate,
                              const MembershipThreshold& threshold =
                                  MembershipThreshold(),
                              JoinBuildSide build_side = JoinBuildSide::kAuto);

/// σ̃ over the full n-way product in FROM order, memberships folded left
/// to right; a null predicate returns the product itself.
Result<ExtendedRelation> MultiwayJoin(
    const std::vector<const ExtendedRelation*>& operands,
    const SchemaPtr& product_schema, const PredicatePtr& predicate,
    const MembershipThreshold& threshold);

Result<ExtendedRelation> Union(const ExtendedRelation& left,
                               const ExtendedRelation& right,
                               const UnionOptions& options = UnionOptions());

Result<ExtendedRelation> Intersect(const ExtendedRelation& left,
                                   const ExtendedRelation& right,
                                   const UnionOptions& options =
                                       UnionOptions());

Result<ExtendedRelation> MergeTuples(const ExtendedRelation& left,
                                     const ExtendedRelation& right,
                                     const MatchingInfo& matching,
                                     const UnionOptions& options =
                                         UnionOptions());

/// Executes a logical plan node by node with the operators above (a
/// fused node runs the chain it replaced), then ORDER BY / LIMIT.
Result<ExtendedRelation> ExecutePlan(const eql::LogicalPlan& plan);

}  // namespace reference

/// \brief gtest assertions of the differential suites: same schema, same
/// size, and row by row equal cells (equal focal structures, masses
/// within `eps` — bitwise at 0) and memberships. ExpectRelationsMatch
/// pairs rows by position, ExpectRelationsMatchByKey by key (row order
/// ignored, exact).
void ExpectRelationsMatch(const ExtendedRelation& expected,
                          const ExtendedRelation& got, double eps = 0.0,
                          const std::string& what = "");
void ExpectRelationsMatchByKey(const ExtendedRelation& expected,
                               const ExtendedRelation& got,
                               const std::string& what = "");
/// \brief The same status (code and message), or on success
/// ExpectRelationsMatch at eps 0.
void ExpectSameOutcome(const Result<ExtendedRelation>& expected,
                       const Result<ExtendedRelation>& got,
                       const std::string& what = "");

}  // namespace evident

#endif  // EVIDENT_TESTS_REFERENCE_ALGEBRA_H_
