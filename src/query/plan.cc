#include "query/plan.h"

#include <algorithm>
#include <deque>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "core/query_context.h"
#include "integration/tuple_merger.h"
#include "text/evidence_literal.h"

namespace evident {
namespace eql {

namespace {

/// Binds a raw θ-operand. Evidence literals need a frame: they borrow the
/// domain of the attribute on the other side of the comparison.
Result<ThetaOperand> BindOperand(const RawOperand& raw,
                                 const RawOperand& other,
                                 const RelationSchema& schema) {
  switch (raw.kind) {
    case RawOperand::Kind::kAttribute: {
      EVIDENT_RETURN_NOT_OK(schema.IndexOf(raw.text).status());
      return ThetaOperand::Attr(raw.text);
    }
    case RawOperand::Kind::kValue:
      return ThetaOperand::LitValue(Value::Parse(raw.text));
    case RawOperand::Kind::kEvidenceLiteral: {
      if (other.kind != RawOperand::Kind::kAttribute) {
        return Status::InvalidArgument(
            "an evidence literal needs an attribute on the other side of "
            "the comparison to determine its domain: " +
            raw.text);
      }
      EVIDENT_ASSIGN_OR_RETURN(size_t index, schema.IndexOf(other.text));
      const AttributeDef& attr = schema.attribute(index);
      if (!attr.is_uncertain()) {
        return Status::InvalidArgument(
            "evidence literal compared against definite attribute '" +
            attr.name + "'");
      }
      EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                               ParseEvidenceLiteral(attr.domain, raw.text));
      return ThetaOperand::Lit(std::move(es));
    }
  }
  return Status::Internal("unreachable operand kind");
}

/// Binds the WHERE conjunction against `schema`; nullptr when empty.
Result<PredicatePtr> BindWhere(const ParsedQuery& query,
                               const RelationSchema& schema) {
  if (query.where.empty()) return PredicatePtr(nullptr);
  std::vector<PredicatePtr> conjuncts;
  for (const Condition& cond : query.where) {
    if (const auto* is_cond = std::get_if<IsCondition>(&cond)) {
      EVIDENT_RETURN_NOT_OK(schema.IndexOf(is_cond->attribute).status());
      std::vector<Value> values;
      values.reserve(is_cond->values.size());
      for (const std::string& text : is_cond->values) {
        values.push_back(Value::Parse(text));
      }
      conjuncts.push_back(Is(is_cond->attribute, std::move(values)));
    } else {
      const auto& theta = std::get<ThetaCondition>(cond);
      EVIDENT_ASSIGN_OR_RETURN(ThetaOperand lhs,
                               BindOperand(theta.lhs, theta.rhs, schema));
      EVIDENT_ASSIGN_OR_RETURN(ThetaOperand rhs,
                               BindOperand(theta.rhs, theta.lhs, schema));
      conjuncts.push_back(Theta(std::move(lhs), theta.op, std::move(rhs)));
    }
  }
  if (conjuncts.size() == 1) return conjuncts.front();
  return And(std::move(conjuncts));
}

/// The FROM list's operand relations resolved against one catalog
/// snapshot, in FROM order; the single home of catalog lookups so every
/// source shape reports missing relations identically. The returned raw
/// pointers live as long as the snapshot — the plan pins it.
Result<std::vector<const ExtendedRelation*>> ResolveOperands(
    const CatalogSnapshot& snapshot, const FromClause& from) {
  std::vector<const ExtendedRelation*> operands;
  operands.reserve(from.relations.size());
  for (const std::string& name : from.relations) {
    EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* rel,
                             snapshot.GetRelation(name));
    operands.push_back(rel);
  }
  return operands;
}

PlanNodePtr MakeScan(const std::string& name, const ExtendedRelation* rel) {
  auto node = std::make_unique<PlanNode>();
  node->op = PlanNode::Op::kScan;
  node->relation = name;
  node->rel = rel;
  node->schema = rel->schema();
  return node;
}

}  // namespace

Result<LogicalPlan> BuildPlan(const ParsedQuery& query, const Catalog* catalog,
                              const UnionOptions& union_options) {
  if (catalog == nullptr) {
    return Status::InvalidArgument("query engine has no catalog");
  }
  // Pin the current catalog version: every scan pointer below resolves
  // against this snapshot, and the plan keeps it alive, so a concurrent
  // RegisterRelation(replace=true) cannot invalidate an in-flight (or
  // cached) plan.
  std::shared_ptr<const CatalogSnapshot> snapshot = catalog->Snapshot();
  EVIDENT_ASSIGN_OR_RETURN(std::vector<const ExtendedRelation*> rels,
                           ResolveOperands(*snapshot, query.from));
  LogicalPlan plan;
  plan.snapshot = std::move(snapshot);
  const bool join_like = query.from.op == SourceOp::kProduct ||
                         query.from.op == SourceOp::kJoin;

  if (join_like && rels.size() >= 3) {
    // n-way FROM list: one flat kMultiJoin node over the FROM-order
    // scans. The executor enumerates it by pairwise hash joins in the
    // node's join_order (identity here; the optimizer may reorder it),
    // with any order producing the identical result.
    EVIDENT_ASSIGN_OR_RETURN(SchemaPtr product_schema,
                             MakeMultiwayProductSchema(rels));
    EVIDENT_ASSIGN_OR_RETURN(PredicatePtr predicate,
                             BindWhere(query, *product_schema));
    auto node = std::make_unique<PlanNode>();
    node->op = PlanNode::Op::kMultiJoin;
    node->schema = product_schema;
    for (size_t i = 0; i < rels.size(); ++i) {
      node->operands.push_back(MakeScan(query.from.relations[i], rels[i]));
      node->operand_attr_counts.push_back(rels[i]->schema()->size());
      node->join_order.push_back(i);
    }
    if (predicate != nullptr) {
      node->predicate = std::move(predicate);
      node->threshold = query.with;
      plan.root = std::move(node);
    } else {
      // Pure n-way product; a WITH clause without WHERE thresholds the
      // (unchanged) membership via a select wrapper, like the binary
      // shapes below.
      plan.root = std::move(node);
      if (!query.with.atoms().empty()) {
        auto select = std::make_unique<PlanNode>();
        select->op = PlanNode::Op::kSelect;
        select->schema = plan.root->schema;
        select->threshold = query.with;
        select->left = std::move(plan.root);
        plan.root = std::move(select);
      }
    }
  } else if (join_like && !query.where.empty()) {
    // Join dispatch: bind WHERE against the product *schema* and plan a
    // join node, which hash-partitions on any definite equi-conjunct
    // instead of materializing |L|·|R| product tuples (falling back to
    // product + selection when there is none). JOIN is product +
    // WHERE-as-join-condition (the paper's ⋈̃ = σ̃∘×̃); the distinction
    // is purely syntactic sugar.
    EVIDENT_ASSIGN_OR_RETURN(
        SchemaPtr product_schema,
        MakeProductSchema(*rels[0], *rels[1]));
    EVIDENT_ASSIGN_OR_RETURN(PredicatePtr predicate,
                             BindWhere(query, *product_schema));
    auto join = std::make_unique<PlanNode>();
    join->op = PlanNode::Op::kJoin;
    join->schema = product_schema;
    join->left = MakeScan(query.from.relations[0], rels[0]);
    join->right = MakeScan(query.from.relations[1], rels[1]);
    join->predicate = std::move(predicate);
    join->threshold = query.with;
    join->left_attr_count = rels[0]->schema()->size();
    plan.root = std::move(join);
  } else {
    switch (query.from.op) {
      case SourceOp::kScan:
        plan.root = MakeScan(query.from.relations[0], rels[0]);
        break;
      case SourceOp::kUnion:
      case SourceOp::kIntersect: {
        EVIDENT_RETURN_NOT_OK(
            CheckUnionCompatible(*rels[0], *rels[1]));
        auto node = std::make_unique<PlanNode>();
        node->op = query.from.op == SourceOp::kUnion
                       ? PlanNode::Op::kUnion
                       : PlanNode::Op::kIntersect;
        node->schema = rels[0]->schema();
        node->left = MakeScan(query.from.relations[0], rels[0]);
        node->right = MakeScan(query.from.relations[1], rels[1]);
        node->options = union_options;
        plan.root = std::move(node);
        break;
      }
      case SourceOp::kProduct:
      case SourceOp::kJoin: {
        EVIDENT_ASSIGN_OR_RETURN(
            SchemaPtr product_schema,
            MakeProductSchema(*rels[0], *rels[1]));
        auto node = std::make_unique<PlanNode>();
        node->op = PlanNode::Op::kProduct;
        node->schema = product_schema;
        node->left = MakeScan(query.from.relations[0], rels[0]);
        node->right = MakeScan(query.from.relations[1], rels[1]);
        plan.root = std::move(node);
        break;
      }
    }
    EVIDENT_ASSIGN_OR_RETURN(PredicatePtr predicate,
                             BindWhere(query, *plan.root->schema));
    if (predicate != nullptr || !query.with.atoms().empty()) {
      // A WITH clause without WHERE still thresholds the (unchanged)
      // membership; the executor models that as selection with an
      // always-true predicate.
      auto select = std::make_unique<PlanNode>();
      select->op = PlanNode::Op::kSelect;
      select->schema = plan.root->schema;
      select->predicate = std::move(predicate);
      select->threshold = query.with;
      select->left = std::move(plan.root);
      plan.root = std::move(select);
    }
  }

  if (!query.select.empty()) {
    // Implicitly retain key attributes (the paper's projection always
    // carries the key + membership).
    std::vector<std::string> attrs;
    for (size_t key_index : plan.root->schema->key_indices()) {
      const std::string& key_name =
          plan.root->schema->attribute(key_index).name;
      bool listed = false;
      for (const std::string& a : query.select) {
        if (a == key_name) listed = true;
      }
      if (!listed) attrs.push_back(key_name);
    }
    attrs.insert(attrs.end(), query.select.begin(), query.select.end());
    EVIDENT_ASSIGN_OR_RETURN(
        SchemaPtr projected,
        ResolveProjectionSchema(*plan.root->schema, attrs));
    auto project = std::make_unique<PlanNode>();
    project->op = PlanNode::Op::kProject;
    project->schema = std::move(projected);
    project->attributes = std::move(attrs);
    project->left = std::move(plan.root);
    plan.root = std::move(project);
  }

  plan.order_by = query.order_by;
  plan.limit = query.limit;
  return plan;
}

namespace {

/// A mapped column image defers its per-partition semantic checks until
/// first read; any operator consuming a scan's rows must drive them
/// first. FilterRows — under select, prefilter, fused pipelines and the
/// fused join probe — verifies only the partitions it keeps; every other
/// consumer gets the full sweep here.
/// Row-mode relations never have checks pending, and columns() is not
/// consulted for them (it would build the image).
Status EnsureScanVerified(const ExtendedRelation& rel) {
  if (!rel.columnar_mode()) return Status::OK();
  const ColumnStore& store = rel.columns();
  if (!store.deferred_verification_pending()) return Status::OK();
  return store.EnsureAllVerified();
}

/// Executes a kFused node: one FilterRows pass over the scan's shared
/// column image, then one splice of the surviving rows' projected
/// columns. Bit-identical to executing the chain it replaced: each
/// stage is the chain node's operator kernel, and the splice visits the
/// survivors in ascending row order like each operator's keep list.
Result<ExtendedRelation> ExecuteFusedPipeline(const PlanNode& node) {
  const ColumnStore& store = node.rel->columns();
  EVIDENT_ASSIGN_OR_RETURN(const FilteredRows kept,
                           FilterRows(store, node.fused_stages));
  if (QueryContext* const ctx = CurrentQueryContext()) {
    // Replay the unfused chain's charge sequence bottom-up (node.left is
    // the topmost chain node): each filter node charges its stage's
    // survivors against its schema, each interleaved projection charges
    // the then-current row count against the projected schema — exactly
    // what executing the chain would charge, so fusing never changes
    // which resource limit trips or the error it reports.
    std::vector<const PlanNode*> chain;
    for (const PlanNode* cur = node.left.get();
         cur != nullptr && cur->op != PlanNode::Op::kScan;
         cur = cur->left.get()) {
      chain.push_back(cur);
    }
    uint64_t current = store.rows();
    size_t stage = 0;
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      const PlanNode* cur = *it;
      if (cur->op != PlanNode::Op::kProject) {
        current = kept.stage_survivors[stage++];
      }
      EVIDENT_RETURN_NOT_OK(ctx->ChargeOutput(*cur->schema, current));
    }
  }
  return ExtendedRelation::AdoptColumns(
      ColumnStore::SpliceRows(store, node.schema, node.relation,
                              node.fused_projection, kept.rows,
                              kept.memberships));
}

/// True when a kFused node is exactly one prefilter over its scan (so
/// its projection is the identity) — the shape the hash join can consume
/// as a FusedJoinProbe (same schema and rows as the catalog scan, rows
/// dropped only), letting the probe read the kept rows from the catalog
/// image instead of a materialized prefilter output.
bool IsFusedPrefilterOverScan(const PlanNode& fused) {
  const PlanNode& chain = *fused.left;
  return chain.op == PlanNode::Op::kPrefilter &&
         chain.left->op == PlanNode::Op::kScan;
}

/// Executes the tree bottom-up. Scan nodes hand out the catalog relation
/// by reference (filtered scans select against the catalog's cached
/// column image in place); every other node's result is owned in a deque
/// for stable addresses.
class PlanExecutor {
 public:
  Result<const ExtendedRelation*> Exec(const PlanNode& node) {
    if (node.op == PlanNode::Op::kScan) {
      EVIDENT_RETURN_NOT_OK(EnsureScanVerified(*node.rel));
      return node.rel;
    }
    EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation result, ExecOwned(node));
    results_.push_back(std::move(result));
    return &results_.back();
  }

  Result<ExtendedRelation> ExecOwned(const PlanNode& node) {
    switch (node.op) {
      case PlanNode::Op::kScan:
        // Only reached when the scan is the whole plan; the result is a
        // copy of the catalog relation (sharing its column image).
        EVIDENT_RETURN_NOT_OK(EnsureScanVerified(*node.rel));
        return *node.rel;
      case PlanNode::Op::kSelect: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* input,
                                 Exec(*node.left));
        PredicatePtr predicate =
            node.predicate != nullptr
                ? node.predicate
                : Theta(ThetaOperand::LitValue(Value(int64_t{0})),
                        ThetaOp::kEq,
                        ThetaOperand::LitValue(Value(int64_t{0})));
        return Select(*input, predicate, node.threshold);
      }
      case PlanNode::Op::kPrefilter: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* input,
                                 Exec(*node.left));
        return FilterPositiveSupport(*input, node.conjuncts);
      }
      case PlanNode::Op::kProject: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* input,
                                 Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation projected,
                                 Project(*input, node.attributes));
        if (node.keep_name) projected.set_name(input->name());
        return projected;
      }
      case PlanNode::Op::kJoin: {
        // A fused prefilter-over-scan probe child is not spliced: its
        // kept rows ride into the hash join as a FusedJoinProbe over the
        // catalog relation — bit-identical to probing the materialized
        // prefilter. The build side must be explicit (the optimizer
        // assigns one to every fully-bound join) so kAuto's run-time
        // size comparison never sees the unfiltered cardinality.
        if (node.build_side != JoinBuildSide::kAuto) {
          const bool probe_is_left = node.build_side == JoinBuildSide::kRight;
          const PlanNode* candidate =
              (probe_is_left ? node.left : node.right).get();
          if (candidate != nullptr &&
              candidate->op == PlanNode::Op::kFused &&
              IsFusedPrefilterOverScan(*candidate)) {
            return ExecFusedProbeJoin(node, *candidate, probe_is_left);
          }
        }
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        // The product schema is rebuilt from the executed operands: the
        // optimizer may have pruned their columns, and name preservation
        // guarantees the qualification (hence the predicate's attribute
        // references) is unchanged.
        EVIDENT_ASSIGN_OR_RETURN(SchemaPtr product_schema,
                                 MakeProductSchema(*l, *r));
        return JoinWithProductSchema(*l, *r, node.predicate, node.threshold,
                                     std::move(product_schema),
                                     node.build_side);
      }
      case PlanNode::Op::kProduct: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        return Product(*l, *r);
      }
      case PlanNode::Op::kUnion: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        return Union(*l, *r, node.options);
      }
      case PlanNode::Op::kIntersect: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        return Intersect(*l, *r, node.options);
      }
      case PlanNode::Op::kRename: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* input,
                                 Exec(*node.left));
        return RenameAttribute(*input, node.rename_from, node.rename_to);
      }
      case PlanNode::Op::kMerge: {
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* l, Exec(*node.left));
        EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r,
                                 Exec(*node.right));
        return MergeTuples(*l, *r, node.matching, node.options);
      }
      case PlanNode::Op::kFused:
        return ExecuteFusedPipeline(node);
      case PlanNode::Op::kMultiJoin: {
        std::vector<const ExtendedRelation*> rels;
        rels.reserve(node.operands.size());
        for (const auto& operand : node.operands) {
          EVIDENT_ASSIGN_OR_RETURN(const ExtendedRelation* r, Exec(*operand));
          rels.push_back(r);
        }
        // Operand rewrites (prefilters, possibly fused) preserve
        // schemas and relation names, so the plan-time product schema
        // the predicate was bound against stays authoritative.
        return MultiwayJoinProduct(rels, node.schema, node.predicate,
                                   node.threshold, node.join_order);
      }
    }
    return Status::Internal("unreachable plan node op");
  }

 private:
  /// A join whose probe operand `fused` is a prefilter over a catalog
  /// scan. The operands execute in plan order and the prefilter's
  /// survivors are charged when FilterPositiveSupport would charge them,
  /// so errors and governor trips match the unfused plan.
  Result<ExtendedRelation> ExecFusedProbeJoin(const PlanNode& node,
                                              const PlanNode& fused,
                                              bool probe_is_left) {
    const ExtendedRelation* probe_rel = fused.rel;
    const ExtendedRelation* other = nullptr;
    if (!probe_is_left) {
      EVIDENT_ASSIGN_OR_RETURN(other, Exec(*node.left));
    }
    EVIDENT_ASSIGN_OR_RETURN(
        FilteredRows kept,
        FilterRows(probe_rel->columns(), fused.fused_stages));
    if (QueryContext* const ctx = CurrentQueryContext()) {
      EVIDENT_RETURN_NOT_OK(
          ctx->ChargeOutput(*probe_rel->schema(), kept.rows.size()));
    }
    if (probe_is_left) {
      EVIDENT_ASSIGN_OR_RETURN(other, Exec(*node.right));
    }
    const FusedJoinProbe probe{std::move(kept.rows)};
    const ExtendedRelation* l = probe_is_left ? probe_rel : other;
    const ExtendedRelation* r = probe_is_left ? other : probe_rel;
    EVIDENT_ASSIGN_OR_RETURN(SchemaPtr product_schema,
                             MakeProductSchema(*l, *r));
    return JoinWithProductSchema(*l, *r, node.predicate, node.threshold,
                                 std::move(product_schema), node.build_side,
                                 &probe);
  }

  std::deque<ExtendedRelation> results_;
};

}  // namespace

Result<ExtendedRelation> ExecutePlan(const LogicalPlan& plan) {
  if (plan.root == nullptr) {
    return Status::InvalidArgument("empty logical plan");
  }
  PlanExecutor executor;
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation projected,
                           executor.ExecOwned(*plan.root));
  if (plan.order_by.field == OrderBy::Field::kNone && plan.limit == 0) {
    return projected;
  }
  // ORDER BY sn/sp ranks the single result set by certainty; LIMIT
  // truncates after ranking (without ORDER BY it keeps input order).
  const ColumnStore& store = projected.columns();
  std::vector<uint32_t> order(projected.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  if (plan.order_by.field != OrderBy::Field::kNone) {
    const ColumnSpan<double>& support =
        plan.order_by.field == OrderBy::Field::kSn ? store.sn() : store.sp();
    const bool desc = plan.order_by.descending;
    std::stable_sort(order.begin(), order.end(),
                     [&](uint32_t a, uint32_t b) {
                       return desc ? support[a] > support[b]
                                   : support[a] < support[b];
                     });
  }
  if (plan.limit != 0 && plan.limit < order.size()) order.resize(plan.limit);
  // The ranked copy is a real materialization; its size is identical in
  // every execution mode, so the charge is too.
  if (QueryContext* const ctx = CurrentQueryContext()) {
    EVIDENT_RETURN_NOT_OK(ctx->ChargeOutput(*projected.schema(), order.size()));
  }
  std::vector<size_t> identity(projected.schema()->size());
  for (size_t a = 0; a < identity.size(); ++a) identity[a] = a;
  std::vector<SupportPair> memberships;
  memberships.reserve(order.size());
  for (uint32_t r : order) memberships.push_back(store.membership(r));
  return ExtendedRelation::AdoptColumns(
      ColumnStore::SpliceRows(store, projected.schema(), projected.name(),
                              identity, order, memberships));
}

namespace {

/// The relation name a multijoin operand subtree reads: the scan's (or
/// fused chain's composed) name under any optimizer-inserted wrappers.
std::string OperandLabel(const PlanNode& node) {
  const PlanNode* cur = &node;
  while (cur->op != PlanNode::Op::kScan && cur->op != PlanNode::Op::kFused &&
         cur->left != nullptr) {
    cur = cur->left.get();
  }
  return cur->relation.empty() ? "?" : cur->relation;
}

void RenderNode(const PlanNode& node, size_t indent, std::ostringstream* os) {
  *os << std::string(indent * 2, ' ');
  switch (node.op) {
    case PlanNode::Op::kScan:
      *os << "scan[" << node.relation;
      if (node.rel != nullptr) {
        *os << ", " << node.rel->size() << " rows";
        // Only a columnar relation can carry partitions (the EVCIMG03
        // loader's product); columns() is free to consult there.
        if (node.rel->columnar_mode()) {
          const size_t parts = node.rel->columns().partitions().size();
          if (parts > 0) *os << ", " << parts << " partition(s)";
        }
      }
      *os << "]";
      break;
    case PlanNode::Op::kSelect:
      *os << "select["
          << (node.predicate != nullptr ? node.predicate->ToString() : "true")
          << "; Q: " << node.threshold.ToString() << "]";
      break;
    case PlanNode::Op::kPrefilter: {
      *os << "prefilter[";
      for (size_t i = 0; i < node.conjuncts.size(); ++i) {
        if (i) *os << " and ";
        *os << node.conjuncts[i]->ToString();
      }
      *os << "]";
      break;
    }
    case PlanNode::Op::kProject: {
      *os << "project[";
      for (size_t i = 0; i < node.attributes.size(); ++i) {
        if (i) *os << ", ";
        *os << node.attributes[i];
      }
      *os << "]";
      break;
    }
    case PlanNode::Op::kJoin:
      *os << "join["
          << (node.predicate != nullptr ? node.predicate->ToString() : "true")
          << "; Q: " << node.threshold.ToString() << "; build=";
      switch (node.build_side) {
        case JoinBuildSide::kAuto:
          *os << "auto";
          break;
        case JoinBuildSide::kLeft:
          *os << "left";
          break;
        case JoinBuildSide::kRight:
          *os << "right";
          break;
      }
      *os << "; ~" << node.estimated_rows << " rows]";
      break;
    case PlanNode::Op::kProduct:
      *os << "product[~" << node.estimated_rows << " rows]";
      break;
    case PlanNode::Op::kUnion:
      *os << "union";
      break;
    case PlanNode::Op::kIntersect:
      *os << "intersect";
      break;
    case PlanNode::Op::kRename:
      *os << "rename[" << node.rename_from << " -> " << node.rename_to
          << "]";
      break;
    case PlanNode::Op::kMerge:
      *os << "merge[" << node.matching.matches.size() << " match(es)]";
      break;
    case PlanNode::Op::kFused:
      // The replaced chain is the node's child, so the generic child
      // recursion below renders what was fused indented beneath it.
      *os << "fused pipeline[" << node.fused_stages.size() << " stage(s), "
          << node.fused_projection.size() << " col(s)";
      // Zone-map verdicts are plan-time facts (the zones ride the
      // catalog image, the stages are bound), so EXPLAIN shows exactly
      // which partitions an ungoverned scan skips.
      if (node.rel != nullptr && node.rel->columnar_mode()) {
        const ColumnStore& store = node.rel->columns();
        if (!store.partitions().empty()) {
          const std::vector<uint8_t> refuted = RefutedPartitions(
              store, node.fused_stages, /*governed=*/false);
          *os << ", partitions="
              << std::count(refuted.begin(), refuted.end(), 1) << "/"
              << refuted.size() << " pruned";
        }
      }
      *os << "]";
      break;
    case PlanNode::Op::kMultiJoin: {
      *os << "multijoin["
          << (node.predicate != nullptr ? node.predicate->ToString() : "true")
          << "; Q: " << node.threshold.ToString() << "; order=";
      for (size_t i = 0; i < node.join_order.size(); ++i) {
        if (i) *os << ", ";
        *os << OperandLabel(*node.operands[node.join_order[i]]);
      }
      *os << "; ~" << node.estimated_rows << " rows]";
      break;
    }
  }
  *os << "\n";
  if (node.left != nullptr) RenderNode(*node.left, indent + 1, os);
  if (node.right != nullptr) RenderNode(*node.right, indent + 1, os);
  for (const auto& operand : node.operands) {
    RenderNode(*operand, indent + 1, os);
  }
}

}  // namespace

std::string RenderPlan(const LogicalPlan& plan) {
  std::ostringstream os;
  size_t indent = 0;
  if (plan.limit > 0) {
    os << "limit[" << plan.limit << "]\n";
    ++indent;
  }
  if (plan.order_by.field != OrderBy::Field::kNone) {
    os << std::string(indent * 2, ' ') << "order["
       << (plan.order_by.field == OrderBy::Field::kSn ? "sn" : "sp")
       << (plan.order_by.descending ? " desc" : " asc") << "]\n";
    ++indent;
  }
  if (plan.root != nullptr) RenderNode(*plan.root, indent, &os);
  std::string out = os.str();
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace eql
}  // namespace evident
