#include "datagen.h"

#include <utility>
#include <vector>

#include "common/domain.h"
#include "common/rng.h"
#include "core/schema.h"
#include "ds/combination.h"
#include "workload/generator.h"

namespace perfbench {

using evident::AttributeDef;
using evident::DomainPtr;
using evident::EvidenceSet;
using evident::ExtendedRelation;
using evident::ExtendedTuple;
using evident::MassFunction;
using evident::Rng;
using evident::SupportPair;
using evident::Value;
using evident::ValueSet;

namespace {

DomainPtr SymbolDomain(const std::string& name, const std::string& prefix,
                       size_t size) {
  std::vector<std::string> symbols;
  for (size_t i = 0; i < size; ++i) {
    symbols.push_back(prefix + std::to_string(i));
  }
  auto domain = evident::Domain::MakeSymbolic(name, symbols);
  Check(domain.status(), "domain " + name);
  return *domain;
}

evident::SchemaPtr Schema(std::vector<AttributeDef> defs) {
  auto schema = evident::RelationSchema::Make(std::move(defs));
  Check(schema.status(), "schema");
  return *schema;
}

/// Survey-like evidence: a definite value, a value with leftover
/// ignorance, a value plus a confusable pair with ignorance, or two
/// competing singletons. Focal sets are distinct by construction and the
/// masses sum to one.
EvidenceSet RandomEvidence(Rng& rng, const DomainPtr& domain) {
  const size_t n = domain->size();
  const size_t a = rng.Below(n);
  size_t b = rng.Below(n - 1);
  if (b >= a) ++b;
  MassFunction m(n);
  const double w = 0.2 + 0.6 * rng.NextDouble();
  switch (rng.Below(4)) {
    case 0:
      m = MassFunction::Definite(n, a);
      break;
    case 1:
      Check(m.Add(ValueSet::Singleton(n, a), w), "mass");
      Check(m.Add(ValueSet::Full(n), 1.0 - w), "mass");
      break;
    case 2: {
      size_t c = rng.Below(n - 1);
      if (c >= b) ++c;
      const double v = (1.0 - w) * rng.NextDouble();
      Check(m.Add(ValueSet::Singleton(n, a), w), "mass");
      Check(m.Add(ValueSet::Of(n, {b, c}), v), "mass");
      Check(m.Add(ValueSet::Full(n), 1.0 - w - v), "mass");
      break;
    }
    default:
      Check(m.Add(ValueSet::Singleton(n, a), w), "mass");
      Check(m.Add(ValueSet::Singleton(n, b), 1.0 - w), "mass");
      break;
  }
  return EvidenceSet::MakeTrusted(domain, std::move(m));
}

SupportPair RandomMembership(Rng& rng) {
  if (rng.Chance(0.7)) return SupportPair::Certain();
  const double sn = 0.3 + 0.7 * rng.NextDouble();
  return SupportPair{sn, sn + (1.0 - sn) * rng.NextDouble()};
}

void Insert(ExtendedRelation* rel, std::vector<evident::Cell> cells,
            SupportPair membership) {
  ExtendedTuple t;
  t.cells = std::move(cells);
  t.membership = membership;
  Check(rel->InsertTrusted(std::move(t)), "insert into " + rel->name());
}

void Register(evident::Catalog* catalog, ExtendedRelation rel) {
  const std::string name = rel.name();
  Check(catalog->RegisterRelation(std::move(rel), /*replace=*/true),
        "register " + name);
}

Value Int(uint64_t v) { return Value(static_cast<int64_t>(v)); }

std::string WideKey(size_t i) {
  std::string key = "w";  // not "w" + ...: GCC 12 warns falsely there
  key += std::to_string(i);
  return key;
}

ExtendedRelation Dimension(Rng& rng, const std::string& name,
                           const std::string& prefix, size_t rows,
                           const DomainPtr& domain) {
  ExtendedRelation rel(name, Schema({AttributeDef::Key(prefix + "k"),
                                     AttributeDef::Definite(prefix + "grp"),
                                     AttributeDef::Uncertain(prefix + "u0",
                                                             domain)}));
  rel.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    Insert(&rel, {Int(i), Int(rng.Below(64)), RandomEvidence(rng, domain)},
           RandomMembership(rng));
  }
  return rel;
}

}  // namespace

evident::Catalog BuildServeCatalog(uint64_t seed, const ServeShape& shape) {
  Rng rng(seed * 0x100000001b3ULL + 11);
  const DomainPtr sdom = SymbolDomain("sdom", "s", 12);
  evident::Catalog catalog;
  Register(&catalog, Dimension(rng, "D", "d", shape.dim_rows, sdom));
  Register(&catalog, Dimension(rng, "D2", "d2", shape.dim_rows, sdom));
  ExtendedRelation fact(
      "F", Schema({AttributeDef::Key("fkey"), AttributeDef::Definite("fk"),
                   AttributeDef::Definite("fk2"),
                   AttributeDef::Definite("fgrp"),
                   AttributeDef::Uncertain("fu0", sdom),
                   AttributeDef::Uncertain("fu1", sdom)}));
  fact.Reserve(shape.fact_rows);
  for (size_t i = 0; i < shape.fact_rows; ++i) {
    const uint64_t fk = i * shape.dim_rows / shape.fact_rows;
    Insert(&fact,
           {Int(i), Int(fk), Int(rng.Below(shape.dim_rows)), Int(rng.Below(64)),
            RandomEvidence(rng, sdom), RandomEvidence(rng, sdom)},
           RandomMembership(rng));
  }
  Register(&catalog, std::move(fact));
  return catalog;
}

evident::Catalog BuildIntegrateCatalog(uint64_t seed,
                                       const IntegrateShape& shape) {
  evident::Catalog catalog;
  evident::WorkloadGenerator generator(seed * 0x100000001b3ULL + 23);
  evident::SourcePairOptions options;
  options.base.num_tuples = shape.source_rows;
  options.base.num_definite = 1;
  options.base.num_uncertain = 3;
  options.base.domain_size = 12;
  options.key_overlap = shape.key_overlap;
  options.conflict_rate = shape.conflict_rate;
  auto pair = generator.MakeSourcePair(options);
  Check(pair.status(), "source pair");
  pair->first.set_name("A");
  pair->second.set_name("B");
  Register(&catalog, std::move(pair->first));
  Register(&catalog, std::move(pair->second));

  Rng rng(seed * 0x100000001b3ULL + 37);
  const DomainPtr wdom = SymbolDomain("wdom", "w", 96);
  const evident::SchemaPtr wschema =
      Schema({AttributeDef::Key("wkey"), AttributeDef::Definite("wdef"),
              AttributeDef::Uncertain("wu", wdom)});
  ExtendedRelation w1("W1", wschema);
  ExtendedRelation w2("W2", wschema);
  const size_t n = shape.wide_rows;
  const size_t shared = static_cast<size_t>(shape.key_overlap * n);
  std::vector<EvidenceSet> w1_evidence;
  std::vector<int64_t> w1_def;
  for (size_t i = 0; i < n; ++i) {
    w1_evidence.push_back(RandomEvidence(rng, wdom));
    w1_def.push_back(static_cast<int64_t>(rng.Below(1000)));
    Insert(&w1, {Value(WideKey(i)), Value(w1_def.back()),
                 w1_evidence.back()},
           RandomMembership(rng));
  }
  for (size_t i = 0; i < n; ++i) {
    // Shared keys agree on the definite attribute (the paper's
    // preprocessing guarantee); the tail of W2 is its own entities.
    const size_t id = i < shared ? i : n + i;
    EvidenceSet evidence = RandomEvidence(rng, wdom);
    int64_t def = static_cast<int64_t>(rng.Below(1000));
    if (i < shared) {
      def = w1_def[i];
      if (!rng.Chance(0.1)) {
        auto discounted = evident::DiscountEvidence(
            w1_evidence[i], 0.3 + 0.6 * rng.NextDouble());
        Check(discounted.status(), "discount");
        evidence = std::move(*discounted);
      }
    }
    Insert(&w2,
           {Value(WideKey(id)), Value(def), std::move(evidence)},
           RandomMembership(rng));
  }
  Register(&catalog, std::move(w1));
  Register(&catalog, std::move(w2));
  return catalog;
}

ExtendedRelation SmallRelation(uint64_t seed, int variant) {
  Rng rng(seed * 0x100000001b3ULL + 53 + static_cast<uint64_t>(variant));
  const DomainPtr sdom = SymbolDomain("sdom", "s", 12);
  ExtendedRelation rel("S", Schema({AttributeDef::Key("sk"),
                                    AttributeDef::Definite("sgrp"),
                                    AttributeDef::Uncertain("su0", sdom)}));
  for (int j = 0; j < 8; ++j) {
    Insert(&rel,
           {Int(static_cast<uint64_t>(8 * variant + j)), Int(rng.Below(64)),
            RandomEvidence(rng, sdom)},
           RandomMembership(rng));
  }
  return rel;
}

evident::Catalog BuildReopenCatalog(uint64_t seed, size_t rows) {
  Rng rng(seed * 0x100000001b3ULL + 41);
  const DomainPtr sdom = SymbolDomain("sdom", "s", 12);
  ExtendedRelation rel(
      "R", Schema({AttributeDef::Key("rkey"), AttributeDef::Definite("rgrp"),
                   AttributeDef::Uncertain("ru0", sdom),
                   AttributeDef::Uncertain("ru1", sdom)}));
  rel.Reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    Insert(&rel,
           {Int(i), Int(rng.Below(64)), RandomEvidence(rng, sdom),
            RandomEvidence(rng, sdom)},
           RandomMembership(rng));
  }
  evident::Catalog catalog;
  Register(&catalog, std::move(rel));
  Register(&catalog, SmallRelation(seed, 0));
  return catalog;
}

size_t TotalRows(const evident::Catalog& catalog) {
  size_t rows = 0;
  const auto snapshot = catalog.Snapshot();
  for (const std::string& name : snapshot->RelationNames()) {
    rows += (*snapshot->GetRelation(name))->size();
  }
  return rows;
}

}  // namespace perfbench
