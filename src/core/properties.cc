#include "core/properties.h"

#include "common/rng.h"

namespace evident {

Status CheckClosureProperty(const ExtendedRelation& relation) {
  for (size_t i = 0; i < relation.size(); ++i) {
    const SupportPair membership = relation.row(i).membership;
    if (!membership.HasPositiveSupport()) {
      return Status::OutOfRange(
          "closure property violated: tuple #" + std::to_string(i) +
          " of '" + relation.name() + "' has membership " +
          membership.ToString());
    }
  }
  return Status::OK();
}

Result<ExtendedRelation> MakeComplementSample(const ExtendedRelation& relation,
                                              size_t count, uint64_t seed,
                                              const std::string& key_tag) {
  if (relation.schema() == nullptr) {
    return Status::InvalidArgument("complement of a relation without schema");
  }
  Rng rng(seed);
  ExtendedRelation out("~" + relation.name(), relation.schema());
  for (size_t i = 0; i < count; ++i) {
    ExtendedTuple t;
    t.cells.resize(relation.schema()->size());
    for (size_t c = 0; c < relation.schema()->size(); ++c) {
      const AttributeDef& attr = relation.schema()->attribute(c);
      switch (attr.kind) {
        case AttributeKind::kKey:
          // Fresh keys: the "~<tag>#<i>" namespace cannot collide with
          // stored keys, which tests ensure never use it. Integer-keyed
          // schemas would need the same convention; the string form works
          // because keys are free-typed Values.
          t.cells[c] = Value("~" + key_tag + "#" + std::to_string(i));
          break;
        case AttributeKind::kDefinite:
          if (attr.domain != nullptr) {
            t.cells[c] =
                attr.domain->value(rng.Below(attr.domain->size()));
          } else {
            t.cells[c] = Value("hyp-" + std::to_string(rng.Below(1000)));
          }
          break;
        case AttributeKind::kUncertain:
          t.cells[c] = EvidenceSet::Vacuous(attr.domain);
          break;
      }
    }
    // No necessary support; possible support is arbitrary (CWA_ER only
    // pins sn to 0 for absent tuples).
    t.membership = SupportPair{0.0, rng.NextDouble()};
    EVIDENT_RETURN_NOT_OK(out.InsertUnchecked(std::move(t)));
  }
  return out;
}

Result<ExtendedRelation> UnionWithComplement(
    const ExtendedRelation& relation, const ExtendedRelation& complement) {
  if (relation.schema() == nullptr || complement.schema() == nullptr ||
      !relation.schema()->UnionCompatibleWith(*complement.schema())) {
    return Status::Incompatible(
        "complement must share the relation's schema");
  }
  ExtendedRelation out(relation.name() + " u " + complement.name(),
                       relation.schema());
  for (size_t i = 0; i < relation.size(); ++i) {
    EVIDENT_RETURN_NOT_OK(out.InsertUnchecked(relation.row(i)));
  }
  for (size_t i = 0; i < complement.size(); ++i) {
    ExtendedTuple t = complement.row(i);
    if (relation.ContainsKey(complement.KeyOf(t))) {
      return Status::InvalidArgument(
          "complement sample shares a key with the relation");
    }
    EVIDENT_RETURN_NOT_OK(out.InsertUnchecked(std::move(t)));
  }
  return out;
}

Result<ExtendedRelation> PositiveSupportPart(
    const ExtendedRelation& relation) {
  ExtendedRelation out(relation.name() + "+", relation.schema());
  for (size_t i = 0; i < relation.size(); ++i) {
    ExtendedTuple t = relation.row(i);
    if (t.membership.HasPositiveSupport()) {
      EVIDENT_RETURN_NOT_OK(out.Insert(std::move(t)));
    }
  }
  return out;
}

Status CheckBoundednessEquality(const ExtendedRelation& lhs,
                                const ExtendedRelation& rhs, double eps) {
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation lpos, PositiveSupportPart(lhs));
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation rpos, PositiveSupportPart(rhs));
  if (!lpos.ApproxEquals(rpos, eps)) {
    return Status::OutOfRange(
        "boundedness property violated: sn>0 parts differ\n  without "
        "complement: " +
        lpos.ToString() + "  with complement: " + rpos.ToString());
  }
  return Status::OK();
}

}  // namespace evident
