#include "reference_algebra.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "core/join_plan.h"
#include "ds/combination.h"

namespace evident {
namespace reference {

namespace {

std::string KeyToString(const KeyVector& key) {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) out += ",";
    out += key[i].ToString();
  }
  return out;
}

bool CellsEqual(const ExtendedTuple& a, const std::vector<size_t>& a_cells,
                const ExtendedTuple& b, const std::vector<size_t>& b_cells) {
  for (size_t k = 0; k < a_cells.size(); ++k) {
    if (!(std::get<Value>(a.cells[a_cells[k]]) ==
          std::get<Value>(b.cells[b_cells[k]]))) {
      return false;
    }
  }
  return true;
}

std::vector<ExtendedTuple> Rows(const ExtendedRelation& rel) {
  std::vector<ExtendedTuple> rows;
  rows.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) rows.push_back(rel.row(i));
  return rows;
}

/// The row of `rows` whose key (`keys` cells) equals `t`'s, by linear
/// scan; -1 if none.
long FindKey(const std::vector<ExtendedTuple>& rows,
             const std::vector<size_t>& keys, const ExtendedTuple& t) {
  for (size_t j = 0; j < rows.size(); ++j) {
    if (CellsEqual(rows[j], keys, t, keys)) return static_cast<long>(j);
  }
  return -1;
}

ExtendedTuple Concat(const ExtendedTuple& l, const ExtendedTuple& r) {
  ExtendedTuple t;
  t.cells = l.cells;
  t.cells.insert(t.cells.end(), r.cells.begin(), r.cells.end());
  t.membership = l.membership.Multiply(r.membership);  // F_TM
  return t;
}

/// σ̃ of one tuple into `out`: F_SS, F_TM revision, CWA_ER, threshold.
Status SelectInto(const ExtendedTuple& t, const PredicatePtr& predicate,
                  const RelationSchema& schema,
                  const MembershipThreshold& threshold,
                  ExtendedRelation* out) {
  SupportPair support = SupportPair::Certain();
  if (predicate != nullptr) {
    EVIDENT_ASSIGN_OR_RETURN(support, predicate->Evaluate(t, schema));
  }
  const SupportPair revised = t.membership.Multiply(support);
  if (!revised.HasPositiveSupport() || !threshold.Accepts(revised)) {
    return Status::OK();
  }
  return out->InsertTrusted(ExtendedTuple(t.cells, revised));
}

}  // namespace

Result<ExtendedRelation> Select(const ExtendedRelation& input,
                                const PredicatePtr& predicate,
                                const MembershipThreshold& threshold) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("null selection predicate");
  }
  ExtendedRelation out("select(" + input.name() + ")", input.schema());
  for (size_t i = 0; i < input.size(); ++i) {
    EVIDENT_RETURN_NOT_OK(SelectInto(input.row(i), predicate,
                                     *input.schema(), threshold, &out));
  }
  return out;
}

Result<ExtendedRelation> FilterPositiveSupport(
    const ExtendedRelation& input, const std::vector<PredicatePtr>& conjuncts) {
  std::vector<bool> keep(input.size(), true);
  for (const PredicatePtr& conjunct : conjuncts) {
    if (conjunct == nullptr) {
      return Status::InvalidArgument("null prefilter conjunct");
    }
  }
  for (const PredicatePtr& conjunct : conjuncts) {
    for (size_t i = 0; i < input.size(); ++i) {
      EVIDENT_ASSIGN_OR_RETURN(SupportPair support,
                               conjunct->Evaluate(input.row(i),
                                                  *input.schema()));
      if (!support.HasPositiveSupport()) keep[i] = false;
    }
  }
  ExtendedRelation out(input.name(), input.schema());
  for (size_t i = 0; i < input.size(); ++i) {
    if (keep[i]) EVIDENT_RETURN_NOT_OK(out.InsertTrusted(input.row(i)));
  }
  return out;
}

Result<ExtendedRelation> Project(const ExtendedRelation& input,
                                 const std::vector<std::string>& attributes) {
  if (input.schema() == nullptr) {
    return Status::InvalidArgument("projection of a relation without schema");
  }
  std::vector<size_t> indices;
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      ResolveProjectionSchema(*input.schema(), attributes, &indices));
  ExtendedRelation out("project(" + input.name() + ")", schema);
  for (size_t i = 0; i < input.size(); ++i) {
    const ExtendedTuple r = input.row(i);
    ExtendedTuple t;
    for (size_t index : indices) t.cells.push_back(r.cells[index]);
    t.membership = r.membership;
    EVIDENT_RETURN_NOT_OK(out.InsertTrusted(std::move(t)));
  }
  return out;
}

Result<ExtendedRelation> RenameAttribute(const ExtendedRelation& input,
                                         const std::string& from,
                                         const std::string& to) {
  if (input.schema() == nullptr) {
    return Status::InvalidArgument("rename on a relation without schema");
  }
  EVIDENT_ASSIGN_OR_RETURN(size_t index, input.schema()->IndexOf(from));
  if (input.schema()->Has(to)) {
    return Status::AlreadyExists("attribute '" + to + "' already exists");
  }
  std::vector<AttributeDef> defs = input.schema()->attributes();
  defs[index].name = to;
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, RelationSchema::Make(defs));
  ExtendedRelation out(input.name(), schema);
  for (size_t i = 0; i < input.size(); ++i) {
    EVIDENT_RETURN_NOT_OK(out.InsertTrusted(input.row(i)));
  }
  return out;
}

Result<ExtendedRelation> Product(const ExtendedRelation& left,
                                 const ExtendedRelation& right) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeProductSchema(left, right));
  ExtendedRelation out(left.name() + " x " + right.name(), schema);
  const std::vector<ExtendedTuple> lrows = Rows(left);
  const std::vector<ExtendedTuple> rrows = Rows(right);
  for (const ExtendedTuple& l : lrows) {
    for (const ExtendedTuple& r : rrows) {
      EVIDENT_RETURN_NOT_OK(out.InsertTrusted(Concat(l, r)));
    }
  }
  return out;
}

Result<ExtendedRelation> Join(const ExtendedRelation& left,
                              const ExtendedRelation& right,
                              const PredicatePtr& predicate,
                              const MembershipThreshold& threshold,
                              JoinBuildSide build_side) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeProductSchema(left, right));
  if (predicate == nullptr) {
    return Status::InvalidArgument("null selection predicate");
  }
  ExtendedRelation out("select(" + left.name() + " x " + right.name() + ")",
                       schema);
  if (left.empty() || right.empty()) return out;
  EVIDENT_ASSIGN_OR_RETURN(
      JoinPlan plan,
      AnalyzeJoinPredicate(predicate, *schema, left.schema()->size()));
  if (plan.keys.empty()) {
    EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation product,
                             reference::Product(left, right));
    return reference::Select(product, predicate, threshold);
  }
  std::vector<size_t> left_cells, right_cells;
  for (const EquiKey& key : plan.keys) {
    left_cells.push_back(key.left_index);
    right_cells.push_back(key.right_index);
  }
  const bool build_left = build_side == JoinBuildSide::kAuto
                              ? left.size() < right.size()
                              : build_side == JoinBuildSide::kLeft;
  const std::vector<ExtendedTuple> probe = Rows(build_left ? right : left);
  const std::vector<ExtendedTuple> build = Rows(build_left ? left : right);
  for (const ExtendedTuple& p : probe) {
    for (const ExtendedTuple& b : build) {
      const ExtendedTuple& l = build_left ? b : p;
      const ExtendedTuple& r = build_left ? p : b;
      // A failed equi-conjunct contributes (0,0): the pair is dropped
      // before the residual sees it.
      if (!CellsEqual(l, left_cells, r, right_cells)) continue;
      EVIDENT_RETURN_NOT_OK(
          SelectInto(Concat(l, r), plan.residual, *schema, threshold, &out));
    }
  }
  return out;
}

Result<ExtendedRelation> MultiwayJoin(
    const std::vector<const ExtendedRelation*>& operands,
    const SchemaPtr& product_schema, const PredicatePtr& predicate,
    const MembershipThreshold& threshold) {
  std::string name = operands[0]->name();
  for (size_t i = 1; i < operands.size(); ++i) {
    name += " x " + operands[i]->name();
  }
  ExtendedRelation product(name, product_schema);
  std::vector<std::vector<ExtendedTuple>> rows;
  bool empty = false;
  for (const ExtendedRelation* op : operands) {
    rows.push_back(Rows(*op));
    empty = empty || op->empty();
  }
  std::vector<size_t> idx(operands.size(), 0);
  while (!empty) {
    ExtendedTuple t = rows[0][idx[0]];
    for (size_t i = 1; i < operands.size(); ++i) {
      t = Concat(t, rows[i][idx[i]]);
    }
    EVIDENT_RETURN_NOT_OK(product.InsertTrusted(std::move(t)));
    size_t pos = operands.size();
    while (pos > 0 && ++idx[pos - 1] == rows[pos - 1].size()) {
      idx[pos - 1] = 0;
      --pos;
    }
    if (pos == 0) break;
  }
  if (predicate == nullptr) return product;
  return reference::Select(product, predicate, threshold);
}

Result<ExtendedRelation> Union(const ExtendedRelation& left,
                               const ExtendedRelation& right,
                               const UnionOptions& options) {
  EVIDENT_RETURN_NOT_OK(CheckUnionCompatible(left, right));
  const RelationSchema& schema = *left.schema();
  ExtendedRelation out(left.name() + " u " + right.name(), left.schema());
  const std::vector<ExtendedTuple> rrows = Rows(right);
  std::vector<bool> matched_right(right.size(), false);
  for (size_t i = 0; i < left.size(); ++i) {
    const ExtendedTuple r = left.row(i);
    const long found = FindKey(rrows, schema.key_indices(), r);
    if (found < 0) {
      // The other source is totally ignorant about this entity.
      EVIDENT_RETURN_NOT_OK(out.InsertTrusted(r));
      continue;
    }
    matched_right[found] = true;
    const ExtendedTuple& s = rrows[found];
    const std::string key = KeyToString(left.KeyOf(r));
    ExtendedTuple merged = r;
    bool skip = false;
    for (size_t a = 0; a < schema.size() && !skip; ++a) {
      const AttributeDef& attr = schema.attribute(a);
      if (attr.kind == AttributeKind::kDefinite) {
        const Value& lv = std::get<Value>(r.cells[a]);
        const Value& rv = std::get<Value>(s.cells[a]);
        if (lv == rv) continue;
        switch (options.on_definite_conflict) {
          case DefiniteConflictPolicy::kError:
            return Status::Incompatible(
                "definite attribute '" + attr.name + "' conflicts on key (" +
                key + "): " + lv.ToString() + " vs " + rv.ToString() +
                "; attribute preprocessing should have aligned these");
          case DefiniteConflictPolicy::kPreferLeft:
            break;
          case DefiniteConflictPolicy::kPreferRight:
            merged.cells[a] = s.cells[a];
            break;
        }
      } else if (attr.kind == AttributeKind::kUncertain) {
        const EvidenceSet& les = std::get<EvidenceSet>(r.cells[a]);
        const EvidenceSet& res = std::get<EvidenceSet>(s.cells[a]);
        Result<EvidenceSet> combined =
            CombineEvidenceTrusted(les, res, options.rule);
        if (combined.ok()) {
          merged.cells[a] = std::move(combined).value();
          continue;
        }
        if (combined.status().code() != StatusCode::kTotalConflict) {
          return combined.status();
        }
        switch (options.on_total_conflict) {
          case TotalConflictPolicy::kError:
            return Status::TotalConflict(
                "attribute '" + attr.name + "' of key (" + key +
                ") is totally conflicting between the sources: " +
                les.ToString() + " vs " + res.ToString() +
                "; the data administrators must be informed");
          case TotalConflictPolicy::kSkipTuple:
            skip = true;
            break;
          case TotalConflictPolicy::kVacuous:
            merged.cells[a] = EvidenceSet::Vacuous(attr.domain);
            break;
        }
      }
    }
    if (skip) continue;
    Result<SupportPair> membership =
        CombineMembership(r.membership, s.membership, options.rule);
    if (!membership.ok()) {
      if (membership.status().code() != StatusCode::kTotalConflict) {
        return membership.status();
      }
      if (options.on_total_conflict == TotalConflictPolicy::kError) {
        return Status::TotalConflict(
            "membership of key (" + key +
            ") is totally conflicting between the sources");
      }
      if (options.on_total_conflict == TotalConflictPolicy::kSkipTuple) {
        continue;
      }
      membership = SupportPair::Unknown();
    }
    merged.membership = *membership;
    EVIDENT_RETURN_NOT_OK(out.InsertTrusted(std::move(merged)));
  }
  for (size_t j = 0; j < right.size(); ++j) {
    if (!matched_right[j]) EVIDENT_RETURN_NOT_OK(out.InsertTrusted(rrows[j]));
  }
  return out;
}

Result<ExtendedRelation> Intersect(const ExtendedRelation& left,
                                   const ExtendedRelation& right,
                                   const UnionOptions& options) {
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation merged,
                           reference::Union(left, right, options));
  ExtendedRelation out(left.name() + " n " + right.name(), merged.schema());
  const std::vector<ExtendedTuple> lrows = Rows(left);
  const std::vector<ExtendedTuple> rrows = Rows(right);
  const std::vector<size_t>& keys = merged.schema()->key_indices();
  for (size_t i = 0; i < merged.size(); ++i) {
    const ExtendedTuple t = merged.row(i);
    if (FindKey(lrows, keys, t) >= 0 && FindKey(rrows, keys, t) >= 0) {
      EVIDENT_RETURN_NOT_OK(out.InsertTrusted(t));
    }
  }
  return out;
}

Result<ExtendedRelation> MergeTuples(const ExtendedRelation& left,
                                     const ExtendedRelation& right,
                                     const MatchingInfo& matching,
                                     const UnionOptions& options) {
  if (left.schema() == nullptr || right.schema() == nullptr ||
      !left.schema()->UnionCompatibleWith(*right.schema())) {
    return Status::Incompatible(
        "tuple merging requires union-compatible relations");
  }
  // Rewrite each matched right tuple's key to its left partner's, then
  // merge by key.
  const std::vector<size_t>& keys = right.schema()->key_indices();
  const std::vector<ExtendedTuple> lrows = Rows(left);
  ExtendedRelation rekeyed(right.name(), right.schema());
  std::vector<bool> assigned(right.size(), false);
  std::vector<KeyVector> matched_left_keys;
  for (const TupleMatch& m : matching.matches) {
    if (m.left_row >= left.size() || m.right_row >= right.size()) {
      return Status::InvalidArgument("matching references rows out of range");
    }
    if (assigned[m.right_row]) {
      return Status::InvalidArgument("matching assigns right row " +
                                     std::to_string(m.right_row) + " twice");
    }
    assigned[m.right_row] = true;
    ExtendedTuple t = right.row(m.right_row);
    const ExtendedTuple& l = lrows[m.left_row];
    for (size_t k : keys) t.cells[k] = l.cells[k];
    matched_left_keys.push_back(left.KeyOf(l));
    EVIDENT_RETURN_NOT_OK(rekeyed.InsertTrusted(std::move(t)));
  }
  for (size_t j : matching.unmatched_right) {
    if (j >= right.size()) {
      return Status::InvalidArgument("matching references rows out of range");
    }
    if (assigned[j]) {
      return Status::InvalidArgument("row " + std::to_string(j) +
                                     " is both matched and unmatched");
    }
    assigned[j] = true;
    const ExtendedTuple t = right.row(j);
    const KeyVector key = right.KeyOf(t);
    if (FindKey(lrows, keys, t) >= 0 &&
        std::find(matched_left_keys.begin(), matched_left_keys.end(), key) ==
            matched_left_keys.end()) {
      return Status::InvalidArgument(
          "unmatched right tuple shares key with a left tuple; matching "
          "info and keys disagree");
    }
    EVIDENT_RETURN_NOT_OK(rekeyed.InsertTrusted(t));
  }
  for (size_t j = 0; j < right.size(); ++j) {
    if (!assigned[j]) {
      return Status::InvalidArgument("matching info does not cover right row " +
                                     std::to_string(j));
    }
  }
  return reference::Union(left, rekeyed, options);
}

namespace {

Result<ExtendedRelation> ExecuteNode(const eql::PlanNode& node) {
  using Op = eql::PlanNode::Op;
  switch (node.op) {
    case Op::kScan:
      return *node.rel;
    case Op::kSelect: {
      EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation input, ExecuteNode(*node.left));
      // A threshold-only selection has support (1,1) everywhere.
      const PredicatePtr predicate =
          node.predicate != nullptr
              ? node.predicate
              : Theta(ThetaOperand::LitValue(Value(int64_t{0})), ThetaOp::kEq,
                      ThetaOperand::LitValue(Value(int64_t{0})));
      return reference::Select(input, predicate, node.threshold);
    }
    case Op::kPrefilter: {
      EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation input, ExecuteNode(*node.left));
      return reference::FilterPositiveSupport(input, node.conjuncts);
    }
    case Op::kProject: {
      EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation input, ExecuteNode(*node.left));
      EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation out,
                               reference::Project(input, node.attributes));
      if (node.keep_name) out.set_name(input.name());
      return out;
    }
    case Op::kRename: {
      EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation input, ExecuteNode(*node.left));
      return reference::RenameAttribute(input, node.rename_from,
                                        node.rename_to);
    }
    case Op::kFused:
      return ExecuteNode(*node.left);
    case Op::kMultiJoin: {
      std::vector<ExtendedRelation> inputs;
      for (const auto& operand : node.operands) {
        EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation input, ExecuteNode(*operand));
        inputs.push_back(std::move(input));
      }
      std::vector<const ExtendedRelation*> operands;
      for (const ExtendedRelation& input : inputs) operands.push_back(&input);
      return reference::MultiwayJoin(operands, node.schema, node.predicate,
                          node.threshold);
    }
    default:
      break;
  }
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation l, ExecuteNode(*node.left));
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation r, ExecuteNode(*node.right));
  switch (node.op) {
    case Op::kJoin:
      return reference::Join(l, r, node.predicate, node.threshold,
                             node.build_side);
    case Op::kProduct:
      return reference::Product(l, r);
    case Op::kUnion:
      return reference::Union(l, r, node.options);
    case Op::kIntersect:
      return reference::Intersect(l, r, node.options);
    case Op::kMerge:
      return reference::MergeTuples(l, r, node.matching, node.options);
    default:
      return Status::Internal("unreachable plan node op");
  }
}

}  // namespace

Result<ExtendedRelation> ExecutePlan(const eql::LogicalPlan& plan) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("empty logical plan");
  }
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation result, ExecuteNode(*plan.root));
  if (plan.order_by.field == eql::OrderBy::Field::kNone && plan.limit == 0) {
    return result;
  }
  std::vector<ExtendedTuple> rows;
  for (size_t i = 0; i < result.size(); ++i) rows.push_back(result.row(i));
  if (plan.order_by.field != eql::OrderBy::Field::kNone) {
    const bool by_sn = plan.order_by.field == eql::OrderBy::Field::kSn;
    const bool desc = plan.order_by.descending;
    auto support = [&](const ExtendedTuple& t) {
      return by_sn ? t.membership.sn : t.membership.sp;
    };
    std::stable_sort(rows.begin(), rows.end(),
                     [&](const ExtendedTuple& a, const ExtendedTuple& b) {
                       return desc ? support(a) > support(b)
                                   : support(a) < support(b);
                     });
  }
  const size_t keep =
      plan.limit == 0 ? rows.size() : std::min(plan.limit, rows.size());
  ExtendedRelation ranked(result.name(), result.schema());
  for (size_t i = 0; i < keep; ++i) {
    EVIDENT_RETURN_NOT_OK(ranked.InsertUnchecked(std::move(rows[i])));
  }
  return ranked;
}

}  // namespace reference

namespace {

void ExpectTuplesMatch(const ExtendedTuple& x, const ExtendedTuple& y,
                       double eps, const std::string& where) {
  if (eps == 0.0) {
    ASSERT_EQ(x.membership.sn, y.membership.sn) << where;
    ASSERT_EQ(x.membership.sp, y.membership.sp) << where;
  } else {
    ASSERT_TRUE(x.membership.ApproxEquals(y.membership, eps)) << where;
  }
  ASSERT_EQ(x.cells.size(), y.cells.size()) << where;
  for (size_t c = 0; c < x.cells.size(); ++c) {
    ASSERT_TRUE(CellApproxEquals(x.cells[c], y.cells[c], eps))
        << where << " cell " << c;
  }
}

}  // namespace

void ExpectRelationsMatch(const ExtendedRelation& expected,
                          const ExtendedRelation& got, double eps,
                          const std::string& what) {
  ASSERT_TRUE(expected.schema()->Equals(*got.schema())) << what;
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ExpectTuplesMatch(expected.row(i), got.row(i), eps,
                      what + " row " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

void ExpectSameOutcome(const Result<ExtendedRelation>& expected,
                       const Result<ExtendedRelation>& got,
                       const std::string& what) {
  ASSERT_EQ(expected.ok(), got.ok())
      << what << "\nexpected: " << expected.status() << "\ngot: "
      << got.status();
  if (!expected.ok()) {
    EXPECT_EQ(expected.status(), got.status()) << what;
    return;
  }
  ExpectRelationsMatch(*expected, *got, 0.0, what);
}

void ExpectRelationsMatchByKey(const ExtendedRelation& expected,
                               const ExtendedRelation& got,
                               const std::string& what) {
  ASSERT_TRUE(expected.schema()->Equals(*got.schema())) << what;
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    const ExtendedTuple x = expected.row(i);
    auto found = got.FindByKey(expected.KeyOf(x));
    ASSERT_TRUE(found.ok()) << what << " row " << i;
    ExpectTuplesMatch(x, got.row(*found), 0.0,
                      what + " row " + std::to_string(i));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace evident
