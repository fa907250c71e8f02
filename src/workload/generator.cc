#include "workload/generator.h"

#include <algorithm>

#include "core/column_store.h"
#include "ds/combination.h"

namespace evident {

namespace {

/// Normalized random masses over `count` slots (each at least ~0.05
/// before normalization, so no focal is vanishingly small).
std::vector<double> RandomMasses(Rng* rng, size_t count) {
  std::vector<double> w(count);
  double total = 0.0;
  for (double& x : w) {
    x = 0.05 + rng->NextDouble();
    total += x;
  }
  for (double& x : w) x /= total;
  return w;
}

}  // namespace

Result<SchemaPtr> WorkloadGenerator::MakeSchema(
    const GeneratorOptions& options) {
  std::vector<AttributeDef> defs;
  defs.push_back(AttributeDef::Key("key"));
  for (size_t i = 0; i < options.num_definite; ++i) {
    defs.push_back(AttributeDef::Definite("def" + std::to_string(i)));
  }
  for (size_t i = 0; i < options.num_uncertain; ++i) {
    std::vector<std::string> values;
    values.reserve(options.domain_size);
    for (size_t v = 0; v < options.domain_size; ++v) {
      values.push_back("v" + std::to_string(v));
    }
    EVIDENT_ASSIGN_OR_RETURN(
        DomainPtr domain,
        Domain::MakeSymbolic("dom" + std::to_string(i), values));
    defs.push_back(
        AttributeDef::Uncertain("unc" + std::to_string(i), domain));
  }
  return RelationSchema::Make(std::move(defs));
}

Result<EvidenceSet> WorkloadGenerator::RandomEvidence(
    const DomainPtr& domain, const GeneratorOptions& options) {
  if (rng_.Chance(options.vacuous_fraction)) {
    return EvidenceSet::Vacuous(domain);
  }
  if (rng_.Chance(options.definite_fraction)) {
    return EvidenceSet::Definite(domain,
                                 domain->value(rng_.Below(domain->size())));
  }
  const size_t n_focals =
      1 + rng_.Below(std::max<size_t>(options.max_focals, 1));
  MassFunction m(domain->size());
  m.Reserve(n_focals);
  std::vector<double> masses = RandomMasses(&rng_, n_focals);
  for (size_t f = 0; f < n_focals; ++f) {
    ValueSet set(domain->size());
    // Small focal elements dominate realistic survey data; bias sizes
    // towards 1-2 values.
    const size_t size = 1 + (rng_.Chance(0.3) ? rng_.Below(3) : 0);
    while (set.Count() < size) set.Set(rng_.Below(domain->size()));
    EVIDENT_RETURN_NOT_OK(m.Add(set, masses[f]));
  }
  return EvidenceSet::Make(domain, std::move(m));
}

Result<ExtendedRelation> WorkloadGenerator::MakeRelation(
    const std::string& name, const SchemaPtr& schema,
    const GeneratorOptions& options, size_t key_start) {
  ExtendedRelation out(name, schema);
  for (size_t i = 0; i < options.num_tuples; ++i) {
    ExtendedTuple t;
    t.cells.reserve(schema->size());
    for (size_t c = 0; c < schema->size(); ++c) {
      const AttributeDef& attr = schema->attribute(c);
      switch (attr.kind) {
        case AttributeKind::kKey:
          t.cells.emplace_back(
              Value(options.key_prefix + std::to_string(key_start + i)));
          break;
        case AttributeKind::kDefinite:
          t.cells.emplace_back(
              Value(static_cast<int64_t>(rng_.Below(1000))));
          break;
        case AttributeKind::kUncertain: {
          EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                                   RandomEvidence(attr.domain, options));
          t.cells.emplace_back(std::move(es));
          break;
        }
      }
    }
    if (rng_.Chance(options.uncertain_membership_fraction)) {
      const double sn = 0.05 + 0.95 * rng_.NextDouble();
      const double sp = sn + (1.0 - sn) * rng_.NextDouble();
      t.membership = SupportPair{sn, sp};
    } else {
      t.membership = SupportPair::Certain();
    }
    EVIDENT_RETURN_NOT_OK(out.Insert(std::move(t)));
  }
  return out;
}

Result<std::pair<ExtendedRelation, ExtendedRelation>>
WorkloadGenerator::MakeSourcePair(const SourcePairOptions& options) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeSchema(options.base));
  EVIDENT_ASSIGN_OR_RETURN(
      ExtendedRelation a,
      MakeRelation("srcA", schema, options.base, /*key_start=*/0));
  // The second source shares floor(overlap * n) keys with the first and
  // has its own tail of unmatched entities.
  const size_t n = options.base.num_tuples;
  const size_t shared = static_cast<size_t>(options.key_overlap * n);
  ExtendedRelation b("srcB", schema);
  const ColumnStore& a_columns = a.columns();
  Cell a_cell;  // a shared key's cell in source A, read per attribute
  for (size_t i = 0; i < n; ++i) {
    const size_t key_id = i < shared ? i : n + i;
    size_t a_row = 0;
    if (i < shared) {
      EVIDENT_ASSIGN_OR_RETURN(
          a_row,
          a.FindByKey(
              {Value(options.base.key_prefix + std::to_string(key_id))}));
    }
    ExtendedTuple t;
    t.cells.reserve(schema->size());
    const bool conflicting =
        i < shared && rng_.Chance(options.conflict_rate);
    for (size_t c = 0; c < schema->size(); ++c) {
      const AttributeDef& attr = schema->attribute(c);
      switch (attr.kind) {
        case AttributeKind::kKey:
          t.cells.emplace_back(
              Value(options.base.key_prefix + std::to_string(key_id)));
          break;
        case AttributeKind::kDefinite: {
          // Shared keys must agree on definite attributes (the paper's
          // preprocessing guarantee), so copy from source A.
          if (i < shared) {
            a_columns.ReadCell(c, a_row, &a_cell);
            t.cells.push_back(a_cell);
          } else {
            t.cells.emplace_back(Value(static_cast<int64_t>(rng_.Below(1000))));
          }
          break;
        }
        case AttributeKind::kUncertain: {
          if (i < shared && !conflicting) {
            // The paper assumes the sources are *consistent*: for shared
            // entities, B's evidence is an independently noisy view of
            // the same underlying truth. Discounting A's evidence keeps
            // some mass on Θ, which intersects everything, so Dempster
            // combination can never totally conflict.
            a_columns.ReadCell(c, a_row, &a_cell);
            const EvidenceSet& aes = std::get<EvidenceSet>(a_cell);
            const double reliability = 0.3 + 0.6 * rng_.NextDouble();
            EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                                     DiscountEvidence(aes, reliability));
            t.cells.emplace_back(std::move(es));
            break;
          }
          if (conflicting && i < shared) {
            // Build evidence disjoint from A's focal union so Dempster
            // conflict is high (often total).
            a_columns.ReadCell(c, a_row, &a_cell);
            const EvidenceSet& aes = std::get<EvidenceSet>(a_cell);
            ValueSet support(attr.domain->size());
            for (const auto& [set, mass] : aes.mass().focals()) {
              support = support.Union(set);
            }
            ValueSet complement = support.Complement();
            if (!complement.IsEmpty()) {
              const auto indices = complement.Indices();
              EVIDENT_ASSIGN_OR_RETURN(
                  EvidenceSet es,
                  EvidenceSet::Definite(
                      attr.domain,
                      attr.domain->value(
                          indices[rng_.Below(indices.size())])));
              t.cells.emplace_back(std::move(es));
              break;
            }
            // A's evidence already spans the frame; fall through to an
            // independent draw (total conflict impossible).
          }
          EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es,
                                   RandomEvidence(attr.domain, options.base));
          t.cells.emplace_back(std::move(es));
          break;
        }
      }
    }
    if (rng_.Chance(options.base.uncertain_membership_fraction)) {
      const double sn = 0.05 + 0.95 * rng_.NextDouble();
      const double sp = sn + (1.0 - sn) * rng_.NextDouble();
      t.membership = SupportPair{sn, sp};
    } else {
      t.membership = SupportPair::Certain();
    }
    EVIDENT_RETURN_NOT_OK(b.Insert(std::move(t)));
  }
  return std::make_pair(std::move(a), std::move(b));
}

Result<GroundTruthWorkload> WorkloadGenerator::MakeGroundTruth(
    const GroundTruthOptions& options) {
  std::vector<std::string> values;
  values.reserve(options.domain_size);
  for (size_t v = 0; v < options.domain_size; ++v) {
    values.push_back("c" + std::to_string(v));
  }
  EVIDENT_ASSIGN_OR_RETURN(DomainPtr domain,
                           Domain::MakeSymbolic("cat-domain", values));
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      RelationSchema::Make({AttributeDef::Key("key"),
                            AttributeDef::Uncertain("cat", domain)}));

  GroundTruthWorkload out;
  out.schema = schema;
  out.source_a = ExtendedRelation("truthA", schema);
  out.source_b = ExtendedRelation("truthB", schema);

  auto observe = [&](size_t true_index) -> Result<EvidenceSet> {
    // One source's noisy view: the reported top category is the truth
    // with probability (1 - noise); the rest of the mass goes to a
    // two-element confusion set containing the truth, and to Θ.
    size_t top = true_index;
    if (rng_.Chance(options.observation_noise)) {
      top = rng_.Below(options.domain_size);
    }
    size_t other = rng_.Below(options.domain_size);
    if (other == true_index) other = (other + 1) % options.domain_size;
    MassFunction m(options.domain_size);
    m.Reserve(3);
    const double rest = 1.0 - options.top_mass;
    EVIDENT_RETURN_NOT_OK(
        m.Add(ValueSet::Singleton(options.domain_size, top),
              options.top_mass));
    EVIDENT_RETURN_NOT_OK(
        m.Add(ValueSet::Of(options.domain_size, {true_index, other}),
              rest * 0.7));
    EVIDENT_RETURN_NOT_OK(
        m.Add(ValueSet::Full(options.domain_size), rest * 0.3));
    return EvidenceSet::Make(domain, std::move(m));
  };

  for (size_t i = 0; i < options.num_entities; ++i) {
    const size_t true_index = rng_.Below(options.domain_size);
    const Value key("e" + std::to_string(i));
    out.truth[{key}] = true_index;
    for (ExtendedRelation* rel : {&out.source_a, &out.source_b}) {
      EVIDENT_ASSIGN_OR_RETURN(EvidenceSet es, observe(true_index));
      ExtendedTuple t;
      t.cells = {key, std::move(es)};
      t.membership = SupportPair::Certain();
      EVIDENT_RETURN_NOT_OK(rel->Insert(std::move(t)));
    }
  }
  return out;
}

}  // namespace evident
