// Tests for the synthetic workload generator: determinism, schema shape,
// source-pair overlap/consistency guarantees, and ground-truth structure.
#include "workload/generator.h"

#include <gtest/gtest.h>

#include "ds/combination.h"

namespace evident {
namespace {

GeneratorOptions SmallOptions() {
  GeneratorOptions options;
  options.num_tuples = 50;
  options.num_definite = 2;
  options.num_uncertain = 3;
  options.domain_size = 9;
  return options;
}

TEST(GeneratorTest, SchemaShapeMatchesOptions) {
  WorkloadGenerator gen(1);
  auto schema = gen.MakeSchema(SmallOptions()).value();
  EXPECT_EQ(schema->size(), 1u + 2u + 3u);  // key + definite + uncertain
  EXPECT_EQ(schema->key_indices().size(), 1u);
  EXPECT_TRUE(schema->Has("def1"));
  EXPECT_TRUE(schema->Has("unc2"));
  EXPECT_EQ(schema->attribute(schema->IndexOf("unc0").value()).domain->size(),
            9u);
}

TEST(GeneratorTest, RelationIsValidAndSized) {
  WorkloadGenerator gen(2);
  auto options = SmallOptions();
  auto schema = gen.MakeSchema(options).value();
  auto relation = gen.MakeRelation("R", schema, options).value();
  EXPECT_EQ(relation.size(), options.num_tuples);
  EXPECT_TRUE(relation.ValidateInvariants().ok());
}

TEST(GeneratorTest, DeterministicForSameSeed) {
  auto make = [] {
    WorkloadGenerator gen(77);
    auto options = SmallOptions();
    auto schema = gen.MakeSchema(options).value();
    return gen.MakeRelation("R", schema, options).value();
  };
  EXPECT_TRUE(make().ApproxEquals(make(), 0.0));
}

TEST(GeneratorTest, DifferentSeedsProduceDifferentEvidence) {
  auto make = [](uint64_t seed) {
    WorkloadGenerator gen(seed);
    auto options = SmallOptions();
    auto schema = gen.MakeSchema(options).value();
    return gen.MakeRelation("R", schema, options).value();
  };
  EXPECT_FALSE(make(1).ApproxEquals(make(2), 1e-9));
}

TEST(GeneratorTest, KeyStartOffsetsKeys) {
  WorkloadGenerator gen(3);
  auto options = SmallOptions();
  auto schema = gen.MakeSchema(options).value();
  auto relation = gen.MakeRelation("R", schema, options, 100).value();
  EXPECT_TRUE(relation.ContainsKey({Value("k100")}));
  EXPECT_FALSE(relation.ContainsKey({Value("k0")}));
}

TEST(GeneratorTest, SourcePairOverlapIsExact) {
  WorkloadGenerator gen(4);
  SourcePairOptions options;
  options.base = SmallOptions();
  options.base.num_tuples = 40;
  options.key_overlap = 0.25;
  auto [a, b] = gen.MakeSourcePair(options).value();
  size_t shared = 0;
  for (size_t row_index = 0; row_index < b.size(); ++row_index) {
    const ExtendedTuple t = b.row(row_index);
    if (a.ContainsKey(b.KeyOf(t))) ++shared;
  }
  EXPECT_EQ(shared, 10u);  // floor(0.25 * 40)
}

TEST(GeneratorTest, NonConflictingPairsAlwaysCombinable) {
  WorkloadGenerator gen(5);
  SourcePairOptions options;
  options.base = SmallOptions();
  options.key_overlap = 1.0;
  options.conflict_rate = 0.0;
  auto [a, b] = gen.MakeSourcePair(options).value();
  for (size_t row_index = 0; row_index < a.size(); ++row_index) {
    const ExtendedTuple t = a.row(row_index);
    auto row = b.FindByKey(a.KeyOf(t));
    ASSERT_TRUE(row.ok());
    for (size_t c = 0; c < t.cells.size(); ++c) {
      if (CellIsValue(t.cells[c])) continue;
      auto combined =
          CombineEvidence(std::get<EvidenceSet>(t.cells[c]),
                          std::get<EvidenceSet>(b.row(*row).cells[c]));
      EXPECT_TRUE(combined.ok()) << combined.status();
    }
  }
}

TEST(GeneratorTest, SharedKeysAgreeOnDefiniteAttributes) {
  WorkloadGenerator gen(6);
  SourcePairOptions options;
  options.base = SmallOptions();
  options.key_overlap = 0.5;
  auto [a, b] = gen.MakeSourcePair(options).value();
  const auto& schema = *a.schema();
  for (size_t row_index = 0; row_index < b.size(); ++row_index) {
    const ExtendedTuple t = b.row(row_index);
    auto row = a.FindByKey(b.KeyOf(t));
    if (!row.ok()) continue;
    for (size_t c = 0; c < schema.size(); ++c) {
      if (schema.attribute(c).kind == AttributeKind::kDefinite) {
        EXPECT_EQ(std::get<Value>(t.cells[c]),
                  std::get<Value>(a.row(*row).cells[c]));
      }
    }
  }
}

TEST(GeneratorTest, ConflictRateInjectsTotalConflicts) {
  WorkloadGenerator gen(7);
  SourcePairOptions options;
  options.base = SmallOptions();
  options.base.num_tuples = 100;
  options.key_overlap = 1.0;
  options.conflict_rate = 0.5;
  auto [a, b] = gen.MakeSourcePair(options).value();
  size_t conflicts = 0;
  const size_t unc_index = a.schema()->IndexOf("unc0").value();
  for (size_t row_index = 0; row_index < a.size(); ++row_index) {
    const ExtendedTuple t = a.row(row_index);
    auto row = b.FindByKey(a.KeyOf(t));
    ASSERT_TRUE(row.ok());
    auto combined =
        CombineEvidence(std::get<EvidenceSet>(t.cells[unc_index]),
                        std::get<EvidenceSet>(b.row(*row).cells[unc_index]));
    if (!combined.ok()) {
      EXPECT_EQ(combined.status().code(), StatusCode::kTotalConflict);
      ++conflicts;
    }
  }
  // Roughly half the shared keys should totally conflict (generated
  // evidence is disjoint unless source A already spans the frame).
  EXPECT_GT(conflicts, 25u);
  EXPECT_LT(conflicts, 75u);
}

TEST(GeneratorTest, GroundTruthCoversAllEntities) {
  WorkloadGenerator gen(8);
  GroundTruthOptions options;
  options.num_entities = 64;
  options.domain_size = 5;
  auto workload = gen.MakeGroundTruth(options).value();
  EXPECT_EQ(workload.truth.size(), 64u);
  EXPECT_EQ(workload.source_a.size(), 64u);
  EXPECT_EQ(workload.source_b.size(), 64u);
  for (const auto& [key, truth_index] : workload.truth) {
    EXPECT_LT(truth_index, 5u);
    EXPECT_TRUE(workload.source_a.ContainsKey(key));
    EXPECT_TRUE(workload.source_b.ContainsKey(key));
  }
}

TEST(GeneratorTest, GroundTruthEvidenceKeepsTruthPlausible) {
  // The confusion subset always contains the truth, so even a noisy top
  // vote leaves the true category with positive plausibility.
  WorkloadGenerator gen(9);
  GroundTruthOptions options;
  options.num_entities = 80;
  options.observation_noise = 0.5;
  auto workload = gen.MakeGroundTruth(options).value();
  const size_t cat = workload.schema->IndexOf("cat").value();
  for (const auto& [key, truth_index] : workload.truth) {
    const EvidenceSet es = std::get<EvidenceSet>(
        workload.source_a.row(*workload.source_a.FindByKey(key)).cells[cat]);
    EXPECT_GT(es.mass().Plausibility(
                  ValueSet::Singleton(es.domain()->size(), truth_index)),
              0.0);
  }
}

TEST(GeneratorTest, RandomEvidenceRespectsOptions) {
  WorkloadGenerator gen(10);
  auto domain = Domain::MakeSymbolic("d", {"a", "b", "c", "d"}).value();
  GeneratorOptions options;
  options.vacuous_fraction = 1.0;  // force vacuous
  auto es = gen.RandomEvidence(domain, options).value();
  EXPECT_TRUE(es.IsVacuous());
  options.vacuous_fraction = 0.0;
  options.definite_fraction = 1.0;  // force definite
  auto es2 = gen.RandomEvidence(domain, options).value();
  EXPECT_TRUE(es2.IsDefinite());
}

}  // namespace
}  // namespace evident
