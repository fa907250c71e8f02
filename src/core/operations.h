#ifndef EVIDENT_CORE_OPERATIONS_H_
#define EVIDENT_CORE_OPERATIONS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "core/bound_predicate.h"
#include "core/column_store.h"
#include "core/extended_relation.h"
#include "core/predicate.h"
#include "core/threshold.h"
#include "ds/combination.h"

namespace evident {

/// \brief One filter stage of FilterRows: a chain filter node compiled
/// against the filtered store's schema.
///
/// A select stage is the paper's extended selection (§3.1) over one
/// predicate, or none for a threshold-only selection (whose support
/// factor is exactly (1,1)): the F_TM revision (membership times
/// support), then the CWA_ER drop of a revised sn of 0, then the
/// threshold Q. A prefilter stage is the optimizer's pushdown prefilter:
/// it drops a row when any of its conjuncts gives sn == 0 and leaves the
/// membership untouched.
struct FilterStage {
  enum class Kind { kSelect, kPrefilter };
  Kind kind = Kind::kSelect;
  /// The select's predicate (none for threshold-only) or the
  /// prefilter's conjuncts, in order.
  std::vector<BoundPredicate> conjuncts;
  MembershipThreshold threshold;  // kSelect only

  /// A select stage; `predicate` may be null (threshold-only).
  static FilterStage Select(const PredicatePtr& predicate,
                            const SchemaPtr& schema,
                            const MembershipThreshold& threshold);
  /// A prefilter stage; no conjunct may be null.
  static FilterStage Prefilter(const std::vector<PredicatePtr>& conjuncts,
                               const SchemaPtr& schema);

  /// True when every conjunct binds completely: the stage cannot fail.
  bool fully_bound() const;
};

/// \brief What FilterRows keeps.
struct FilteredRows {
  std::vector<uint32_t> rows;            // kept rows, ascending
  std::vector<SupportPair> memberships;  // parallel to `rows`
  std::vector<uint64_t> stage_survivors;  // rows leaving each stage
};

/// \brief Per partition of `store` (empty for a monolithic store), 1
/// when zone maps prove that no row of the partition survives `stages`.
/// A stage refutes a partition when it binds completely and one of its
/// conjuncts is refuted by the zone map (BoundPredicate::
/// RefutesPartition): every row's support there is (0, 0), so the row is
/// dropped at that stage. A stage prunes only while no stage below it
/// can fail, so pruning never hides an error. Governed, only stage 0
/// prunes: a row a later stage refutes was counted as an earlier stage's
/// survivor, and the governor's per-stage charges must not change.
/// FilterRows, EXPLAIN's partition counts and the optimizer's
/// cardinality cap all decide pruning here.
std::vector<uint8_t> RefutedPartitions(const ColumnStore& store,
                                       const std::vector<FilterStage>& stages,
                                       bool governed);

/// \brief The one filter kernel: evaluates `stages` in order over the
/// rows of `store`, morsel-parallel.
///
/// Partitions RefutedPartitions rejects (governed when a query context
/// is installed) are neither read nor verified. Stage 0 evaluates
/// column-at-a-time over the unpruned rows; each later stage evaluates
/// only the previous stage's survivors. Inside a stage the conjuncts
/// evaluate in order over all of that stage's input rows. The first
/// error is the one of the lowest (stage, conjunct), and within it the
/// first failing row's. Output is bit-identical for any thread count.
/// Charges nothing: callers charge their logical outputs.
Result<FilteredRows> FilterRows(const ColumnStore& store,
                                const std::vector<FilterStage>& stages);

/// \brief Extended selection σ̃^Q_P (§3.1).
///
/// For each tuple r: computes the predicate support F_SS(r, P), revises
/// the membership via F_TM (component-wise product), and keeps the tuple
/// when the revised membership passes the threshold Q. Original attribute
/// values are retained (the paper's departure from DeMichiel). Tuples
/// whose revised sn is 0 are always dropped, keeping the result a valid
/// extended relation under CWA_ER (the paper's consistency requirement on
/// Q). FilterRows with one select stage: a predicate error is the first
/// failing row's, and an empty input evaluates nothing.
Result<ExtendedRelation> Select(const ExtendedRelation& input,
                                const PredicatePtr& predicate,
                                const MembershipThreshold& threshold =
                                    MembershipThreshold());

/// \brief The query optimizer's pushdown prefilter: drops every tuple
/// for which *any* of `conjuncts` evaluates to a support pair with
/// sn == 0, keeping cells and membership byte-identical (no F_TM
/// revision, no threshold).
///
/// This is the exact-pushdown form of selection below a join/product: a
/// zero-sn conjunct contributes an exactly-zero factor to the revised
/// membership of every pair the tuple appears in, and sn = 0 pairs are
/// always dropped under CWA_ER, so removing the tuple early cannot
/// change the result — while leaving the conjunct in the downstream
/// predicate keeps the surviving pairs' floating-point membership
/// arithmetic bit-identical to the unoptimized plan (support factors
/// multiply in their original order). The output keeps the input's
/// *name* so product-schema qualification downstream is unchanged.
/// FilterRows with one prefilter stage: each conjunct evaluates over
/// every row, so an error is the first failing conjunct's at its first
/// failing row.
Result<ExtendedRelation> FilterPositiveSupport(
    const ExtendedRelation& input, const std::vector<PredicatePtr>& conjuncts);

/// \brief What extended union does when Dempster combination of some
/// attribute (or of the membership) hits total conflict (kappa == 1).
enum class TotalConflictPolicy {
  /// Fail the union, naming the key — "inform the data administrators"
  /// (the paper's suggested action).
  kError,
  /// Drop the conflicting tuple pair from the result.
  kSkipTuple,
  /// Replace the conflicting attribute value by the vacuous evidence set
  /// (total ignorance) and keep the tuple.
  kVacuous,
};

/// \brief What extended union does when two matched tuples disagree on a
/// *definite* (non-evidence) non-key attribute — a conflict the paper
/// assumes preprocessing has eliminated.
enum class DefiniteConflictPolicy {
  kError,
  kPreferLeft,
  kPreferRight,
};

struct UnionOptions {
  /// Rule used to combine both attribute evidence and membership.
  CombinationRule rule = CombinationRule::kDempster;
  TotalConflictPolicy on_total_conflict = TotalConflictPolicy::kError;
  DefiniteConflictPolicy on_definite_conflict = DefiniteConflictPolicy::kError;
};

/// \brief The shared precondition of Union/Intersect (null schemas,
/// union compatibility), exposed so the query planner can report the
/// identical error at plan-build time.
Status CheckUnionCompatible(const ExtendedRelation& left,
                            const ExtendedRelation& right);

/// \brief Extended union R ∪̃_K S (§3.2) — the paper's tuple-merging
/// operation.
///
/// Requires union-compatible schemas. Tuples whose keys appear in only
/// one relation are retained unchanged (the other source is assumed
/// totally ignorant about them, and combining with vacuous evidence is
/// the identity). Tuples with matching keys have every uncertain
/// attribute combined by Dempster's rule and their membership pairs
/// combined on the boolean frame.
Result<ExtendedRelation> Union(const ExtendedRelation& left,
                               const ExtendedRelation& right,
                               const UnionOptions& options = UnionOptions());

/// \brief Extended intersection R ∩̃_K S — an *extension beyond the
/// paper*: like the extended union but keeping only entities present in
/// both sources (inner merge). Useful when the integrator only trusts
/// corroborated entities. Matched tuples are combined exactly as in
/// Union; unmatched tuples are dropped. The kept rows (exactly the
/// union's merged pairs, known from the keys the union pass already
/// encoded and probed) are spliced straight out of the union's column
/// image — no re-encoding.
Result<ExtendedRelation> Intersect(const ExtendedRelation& left,
                                   const ExtendedRelation& right,
                                   const UnionOptions& options =
                                       UnionOptions());

/// \brief Folds the extended union over three or more sources
/// (integration of N component databases). Dempster's rule is
/// associative and commutative, so the result does not depend on the
/// integration order; fails on an empty list.
Result<ExtendedRelation> UnionAll(const std::vector<ExtendedRelation>& sources,
                                  const UnionOptions& options =
                                      UnionOptions());

/// \brief Extended projection π̃_Ã (§3.3). `attributes` must include every
/// key attribute (the paper projects key + membership always); the
/// implicit membership attribute is always carried. The picked columns
/// are spliced as whole column copies; key uniqueness is re-checked over
/// the encoded keys (reusing the input's cached encoded-key arena when
/// the projection keeps the key order).
Result<ExtendedRelation> Project(const ExtendedRelation& input,
                                 const std::vector<std::string>& attributes);

/// \brief Project's precondition checks (known attributes, no
/// duplicates, keys retained) and output schema, shared with the query
/// planner so plan-build-time and execution-time projection errors carry
/// identical messages. `indices` (optional) receives each projected
/// attribute's position in `schema`.
Result<SchemaPtr> ResolveProjectionSchema(
    const RelationSchema& schema, const std::vector<std::string>& attributes,
    std::vector<size_t>* indices = nullptr);

/// \brief The concatenated schema of R ×̃ S: left's attributes then
/// right's, with colliding names qualified as "<relation>.<attribute>".
/// Shared by Product, the hash join and the query engine's join
/// dispatch (which binds the join predicate against this schema without
/// materializing the product).
Result<SchemaPtr> MakeProductSchema(const ExtendedRelation& left,
                                    const ExtendedRelation& right);

/// \brief Extended cartesian product R ×̃ S (§3.4): concatenates tuple
/// pairs and multiplies memberships via F_TM. Attribute name collisions
/// are qualified as "<relation>.<attribute>"; the result's key is the
/// union of both keys. The output's column image is spliced directly
/// from the operands' images, in left-major order.
Result<ExtendedRelation> Product(const ExtendedRelation& left,
                                 const ExtendedRelation& right);

/// \brief Extended join R ⋈̃^Q_P S (§3.5), defined as σ̃^Q_P (R ×̃ S).
///
/// Execution does not materialize the product when it can avoid it: the
/// predicate is split into definite equi-conjuncts (L.a = R.b) and a
/// residual (see AnalyzeJoinPredicate). With at least one equi-conjunct
/// the join hash-partitions — an open-addressing table is built on the
/// smaller operand keyed by the equi-key cell values, the larger operand
/// probes it (tuple ranges sharded across threads), and only matching
/// pairs are materialized and filtered by the residual + threshold.
/// Equality of definite cells contributes exactly (1,1)/(0,0) support,
/// and sn = 0 pairs are always dropped under CWA_ER, so the result is
/// identical (bit-for-bit on masses and memberships) to the definition;
/// predicates without equi-conjuncts fall back to Select-over-Product.
/// The join probes the operands' column stores and splices the matched
/// pairs' column slices straight into the output's column image. The
/// residual is evaluated only on key-matching pairs, so its first error
/// is the first failing matched pair's, in probe order.
/// Relations are sets: the result's *row order* is implementation-
/// defined (the hash path emits rows grouped by probe-side tuple, and
/// the probe side is whichever operand is larger), deterministic for
/// fixed operands and any thread count, but not necessarily the
/// left-major order of the materialized product.
Result<ExtendedRelation> Join(const ExtendedRelation& left,
                              const ExtendedRelation& right,
                              const PredicatePtr& predicate,
                              const MembershipThreshold& threshold =
                                  MembershipThreshold());

/// \brief Which operand the hash equi-join builds its table on. kAuto
/// picks the smaller operand at execution time; the query optimizer
/// overrides it from plan-time cardinality estimates. The choice only
/// affects performance and the (implementation-defined) row order of the
/// result, never its contents.
enum class JoinBuildSide { kAuto, kLeft, kRight };

/// \brief A prefiltered join probe operand that was not materialized:
/// the probe-side argument is the unfiltered (catalog) relation, and
/// `rows` are the ascending rows of it that FilterRows kept for the
/// prefilter below the join. The join probes only those rows, in order,
/// and reads their cells and memberships from the unfiltered relation's
/// column image, so the result is bit-identical to joining against the
/// materialized FilterPositiveSupport output. The caller charges the
/// prefilter's survivors, as the unfused plan would. Requires an
/// explicit build side (the fused side must be the probe side, and
/// kAuto's size heuristic would otherwise see the unfiltered
/// cardinality).
struct FusedJoinProbe {
  std::vector<uint32_t> rows;
};

/// \brief Join for callers that already built the operands' product
/// schema (the query engine binds WHERE against it before joining);
/// `product_schema` must be MakeProductSchema(left, right)'s result.
/// Saves rebuilding the schema once per call — Join(l, r, p, q) is
/// exactly this with a fresh schema. When `fused_probe` is non-null the
/// probe-side operand (the side opposite `build_side`, which must not be
/// kAuto) is restricted to its rows (see FusedJoinProbe); a join without
/// an equi-conjunct splices those rows first and behaves identically.
Result<ExtendedRelation> JoinWithProductSchema(
    const ExtendedRelation& left, const ExtendedRelation& right,
    const PredicatePtr& predicate, const MembershipThreshold& threshold,
    SchemaPtr product_schema, JoinBuildSide build_side = JoinBuildSide::kAuto,
    const FusedJoinProbe* fused_probe = nullptr);

/// \brief The flat concatenated schema of an n-way product
/// R1 ×̃ ... ×̃ Rn: every operand's attributes in operand order, with any
/// attribute name occurring in more than one operand qualified as
/// "<relation>.<attribute>". The n = 2 case matches MakeProductSchema
/// except that qualification is by name multiplicity across the whole
/// list (a name unique to one operand is never qualified).
Result<SchemaPtr> MakeMultiwayProductSchema(
    const std::vector<const ExtendedRelation*>& operands);

/// \brief Extended n-way join σ̃^Q_P (R1 ×̃ ... ×̃ Rn) over an
/// already-built flat product schema; with a null `predicate` it is the
/// pure n-way product (no selection, no threshold).
///
/// The result is definitionally the left-major (FROM-order) product
/// with memberships folded left-to-right via F_TM, then one extended
/// selection with the full predicate — and is bit-identical to that
/// definition for *any* `join_order` (a permutation of 0..n-1; the
/// identity when empty). The executor enumerates the combinations
/// surviving the predicate's definite equi edges (AnalyzeMultiJoinEdges;
/// none when the predicate does not bind, so an interpreted conjunct
/// sees the full product and reports its first error) by pairwise
/// hash joins in `join_order` — building a table on each incoming
/// operand and probing with the current match set, cross-stepping when
/// no edge connects — then restores left-major order, splices the
/// output column image, and runs ordinary Select with the full
/// predicate. Since dropped combinations carry an exact (0,0) equi
/// factor (always removed under CWA_ER) and kept ones re-evaluate the
/// complete predicate, the order only decides intermediate sizes, never
/// the result.
Result<ExtendedRelation> MultiwayJoinProduct(
    const std::vector<const ExtendedRelation*>& operands,
    const SchemaPtr& product_schema, const PredicatePtr& predicate,
    const MembershipThreshold& threshold,
    const std::vector<size_t>& join_order = {});

/// \brief Renames one attribute; useful before Product/Union when names
/// collide or differ across sources. A schema-only change: the output
/// adopts the operand's column image under the renamed schema.
Result<ExtendedRelation> RenameAttribute(const ExtendedRelation& input,
                                         const std::string& from,
                                         const std::string& to);

/// \brief Combines two membership pairs under `rule` on the boolean frame
/// Ψ; exposed for the union implementation, the ablation benches, and
/// tests that cross-check the closed form against the generic engine.
Result<SupportPair> CombineMembership(const SupportPair& a,
                                      const SupportPair& b,
                                      CombinationRule rule);

}  // namespace evident

#endif  // EVIDENT_CORE_OPERATIONS_H_
