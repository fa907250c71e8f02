// Tests for the DS decision criteria, uncertainty measures, Dempster
// conditioning, and the extended intersection operator.
#include <gtest/gtest.h>

#include <cmath>

#include "core/operations.h"
#include "integration/preprocessor.h"
#include "ds/combination.h"
#include "ds/decision.h"
#include "ds/measures.h"
#include "workload/paper_fixtures.h"

namespace evident {
namespace {

DomainPtr Spec() { return paper::SpecialityDomain(); }

EvidenceSet WokEvidence() {
  // [si^0.5, {hu,si}^0.3, Θ^0.2].
  return EvidenceSet::FromPairs(Spec(),
                                {{{Value("si")}, 0.5},
                                 {{Value("hu"), Value("si")}, 0.3},
                                 {{}, 0.2}})
      .value();
}

// --- Decide -------------------------------------------------------------------

TEST(DecisionTest, PignisticPicksSi) {
  auto decision = Decide(WokEvidence(), DecisionCriterion::kPignistic);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->value, Value("si"));
  // BetP(si) = 0.5 + 0.15 + 0.2/7.
  EXPECT_NEAR(decision->score, 0.5 + 0.15 + 0.2 / 7, 1e-12);
}

TEST(DecisionTest, MaxBeliefUsesSingletonBelief) {
  auto decision = Decide(WokEvidence(), DecisionCriterion::kMaxBelief);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->value, Value("si"));
  EXPECT_NEAR(decision->score, 0.5, 1e-12);
}

TEST(DecisionTest, MaxPlausibility) {
  auto decision = Decide(WokEvidence(), DecisionCriterion::kMaxPlausibility);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->value, Value("si"));
  EXPECT_NEAR(decision->score, 1.0, 1e-12);  // 0.5 + 0.3 + 0.2
}

TEST(DecisionTest, VacuousTiesBreakDeterministically) {
  auto decision =
      Decide(EvidenceSet::Vacuous(Spec()), DecisionCriterion::kPignistic);
  ASSERT_TRUE(decision.ok());
  EXPECT_EQ(decision->index, 0u);  // lowest index on ties
}

TEST(DecisionTest, DefiniteValueAlwaysWins) {
  auto es = EvidenceSet::Definite(Spec(), Value("mu")).value();
  for (auto criterion :
       {DecisionCriterion::kPignistic, DecisionCriterion::kMaxBelief,
        DecisionCriterion::kMaxPlausibility}) {
    auto decision = Decide(es, criterion);
    ASSERT_TRUE(decision.ok());
    EXPECT_EQ(decision->value, Value("mu"))
        << DecisionCriterionToString(criterion);
  }
}

TEST(DecisionTest, UndominatedSetContainsAllPlausibleOnVacuous) {
  auto undominated = UndominatedValues(EvidenceSet::Vacuous(Spec()));
  ASSERT_TRUE(undominated.ok());
  EXPECT_EQ(undominated->size(), Spec()->size());
}

TEST(DecisionTest, UndominatedSetShrinksWithSharpEvidence) {
  // si has Bel 0.5; every value outside {hu, si} has Pls <= 0.2 < 0.5 and
  // is dominated.
  auto undominated = UndominatedValues(WokEvidence());
  ASSERT_TRUE(undominated.ok());
  ASSERT_EQ(undominated->size(), 2u);
  EXPECT_EQ((*undominated)[0].value, Value("hu"));
  EXPECT_EQ((*undominated)[1].value, Value("si"));
}

TEST(DecisionTest, UndominatedSingletonForDefinite) {
  auto es = EvidenceSet::Definite(Spec(), Value("it")).value();
  auto undominated = UndominatedValues(es);
  ASSERT_TRUE(undominated.ok());
  ASSERT_EQ(undominated->size(), 1u);
  EXPECT_EQ((*undominated)[0].value, Value("it"));
}

// --- measures ------------------------------------------------------------------

TEST(MeasuresTest, NonspecificityExtremes) {
  const size_t n = Spec()->size();
  EXPECT_NEAR(Nonspecificity(MassFunction::Vacuous(n)).value(),
              std::log2(static_cast<double>(n)), 1e-12);
  EXPECT_NEAR(Nonspecificity(MassFunction::Definite(n, 0)).value(), 0.0,
              1e-12);
}

TEST(MeasuresTest, NonspecificityOfWok) {
  // 0.5·log2(1) + 0.3·log2(2) + 0.2·log2(7).
  EXPECT_NEAR(Nonspecificity(WokEvidence().mass()).value(),
              0.3 + 0.2 * std::log2(7.0), 1e-12);
}

TEST(MeasuresTest, PignisticEntropyExtremes) {
  const size_t n = Spec()->size();
  EXPECT_NEAR(PignisticEntropy(MassFunction::Definite(n, 2)).value(), 0.0,
              1e-12);
  EXPECT_NEAR(PignisticEntropy(MassFunction::Vacuous(n)).value(),
              std::log2(static_cast<double>(n)), 1e-12);
}

TEST(MeasuresTest, SpecificityExtremes) {
  const size_t n = Spec()->size();
  EXPECT_NEAR(Specificity(MassFunction::Definite(n, 1)).value(), 1.0, 1e-12);
  EXPECT_NEAR(Specificity(MassFunction::Vacuous(n)).value(),
              1.0 / static_cast<double>(n), 1e-12);
}

TEST(MeasuresTest, CombinationReducesTotalUncertaintyOnAgreement) {
  // Fusing two agreeing sources must not increase total uncertainty.
  EvidenceSet a = WokEvidence();
  auto combined = CombineEvidence(a, a).value();
  EXPECT_LT(TotalUncertainty(combined.mass()).value(),
            TotalUncertainty(a.mass()).value());
}

TEST(MeasuresTest, RejectInvalidMass) {
  MassFunction bad(4);
  ASSERT_TRUE(bad.Add(ValueSet::Of(4, {0}), 0.4).ok());
  EXPECT_FALSE(Nonspecificity(bad).ok());
  EXPECT_FALSE(Specificity(bad).ok());
}

// --- conditioning ---------------------------------------------------------------

TEST(ConditionTest, ConditioningRestrictsToGivenSet) {
  // Condition wok's evidence on "it's a Chinese restaurant" = {hu,si,ca}.
  auto conditioned = ConditionEvidence(
      WokEvidence(), {Value("hu"), Value("si"), Value("ca")});
  ASSERT_TRUE(conditioned.ok()) << conditioned.status();
  // All focal elements must now be subsets of the given set.
  auto given = conditioned->SetOf({Value("hu"), Value("si"), Value("ca")})
                   .value();
  for (const auto& [set, mass] : conditioned->mass().focals()) {
    EXPECT_TRUE(set.IsSubsetOf(given)) << set.ToString();
  }
  // Θ mass moves onto the given set; si keeps its relative weight.
  EXPECT_NEAR(conditioned->Belief({Value("si")}).value(), 0.5, 1e-12);
}

TEST(ConditionTest, ConditioningOnCertainSubsetIsIdentityLike) {
  auto es = EvidenceSet::Definite(Spec(), Value("si")).value();
  auto conditioned = ConditionEvidence(es, {Value("si"), Value("hu")});
  ASSERT_TRUE(conditioned.ok());
  EXPECT_TRUE(conditioned->IsDefinite());
}

TEST(ConditionTest, ConditioningOnImplausibleSetConflicts) {
  auto es = EvidenceSet::FromPairs(
                Spec(), {{{Value("si")}, 0.6}, {{Value("hu")}, 0.4}})
                .value();
  auto conditioned = ConditionEvidence(es, {Value("it")});
  EXPECT_EQ(conditioned.status().code(), StatusCode::kTotalConflict);
}

TEST(ConditionTest, ConditioningOnEmptySetRejected) {
  EXPECT_FALSE(Condition(WokEvidence().mass(),
                         ValueSet(Spec()->size()))
                   .ok());
}

TEST(ConditionTest, ConditionEqualsDempsterWithCategorical) {
  MassFunction m = WokEvidence().mass();
  ValueSet given = ValueSet::Of(Spec()->size(), {1, 2});
  MassFunction categorical(Spec()->size());
  ASSERT_TRUE(categorical.Add(given, 1.0).ok());
  auto direct = Condition(m, given);
  auto via_combine = CombineDempster(m, categorical);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via_combine.ok());
  EXPECT_TRUE(direct->ApproxEquals(*via_combine, 1e-12));
}

// --- extended intersection --------------------------------------------------------

TEST(IntersectTest, KeepsOnlyCorroboratedEntities) {
  auto ra = paper::TableRA().value();
  auto rb = paper::TableRB().value();
  auto result = Intersect(ra, rb);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 5u);  // ashiana (R_A only) dropped
  EXPECT_FALSE(result->ContainsKey({Value("ashiana")}));
}

TEST(IntersectTest, MatchedTuplesCombineLikeUnion) {
  auto ra = paper::TableRA().value();
  auto rb = paper::TableRB().value();
  auto intersected = Intersect(ra, rb).value();
  auto merged = Union(ra, rb).value();
  const auto& from_intersect = intersected.row(
      intersected.FindByKey({Value("mehl")}).value());
  const auto& from_union =
      merged.row(merged.FindByKey({Value("mehl")}).value());
  EXPECT_TRUE(from_intersect.membership.ApproxEquals(
      from_union.membership, 1e-12));
}

TEST(IntersectTest, DisjointKeysGiveEmptyResult) {
  auto ra = paper::TableRA().value();
  ExtendedRelation empty("E", ra.schema());
  auto result = Intersect(ra, empty);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

// --- linear transform in preprocessing ----------------------------------------

TEST(LinearTransformTest, ConvertsNumericColumns) {
  // Source stores prices in cents; the global schema wants dollars.
  auto schema = RelationSchema::Make({AttributeDef::Key("id"),
                                      AttributeDef::Definite("price")})
                    .value();
  RawTable raw;
  raw.name = "prices";
  raw.columns = {"id", "cents"};
  raw.rows = {{"a", "1250"}, {"b", "400"}};
  AttributeDerivation id{"id", "id", DerivationKind::kCopy, {}, nullptr, {}};
  AttributeDerivation price{"price", "cents", DerivationKind::kCopy,
                            {},      nullptr, LinearTransform::Of(0.01)};
  AttributePreprocessor pre(schema, {id, price});
  auto rel = pre.Run(raw);
  ASSERT_TRUE(rel.ok()) << rel.status();
  EXPECT_DOUBLE_EQ(
      std::get<Value>(rel->row(0).cells[1]).AsDouble(), 12.5);
  EXPECT_DOUBLE_EQ(std::get<Value>(rel->row(1).cells[1]).AsDouble(), 4.0);
}

TEST(LinearTransformTest, PreservesIntegerTypingWhenExact) {
  auto schema = RelationSchema::Make({AttributeDef::Key("id"),
                                      AttributeDef::Definite("floors")})
                    .value();
  RawTable raw;
  raw.name = "t";
  raw.columns = {"id", "floors0"};  // zero-based storey count
  raw.rows = {{"a", "3"}};
  AttributeDerivation id{"id", "id", DerivationKind::kCopy, {}, nullptr, {}};
  AttributeDerivation floors{"floors", "floors0",
                             DerivationKind::kCopy,
                             {},
                             nullptr,
                             LinearTransform::Of(1.0, 1.0)};
  AttributePreprocessor pre(schema, {id, floors});
  auto rel = pre.Run(raw);
  ASSERT_TRUE(rel.ok()) << rel.status();
  const Value v = std::get<Value>(rel->row(0).cells[1]);
  EXPECT_TRUE(v.is_int());
  EXPECT_EQ(v.int_value(), 4);
}

TEST(LinearTransformTest, RejectsNonNumeric) {
  auto schema = RelationSchema::Make({AttributeDef::Key("id"),
                                      AttributeDef::Definite("price")})
                    .value();
  RawTable raw;
  raw.name = "t";
  raw.columns = {"id", "cents"};
  raw.rows = {{"a", "n/a"}};
  AttributeDerivation id{"id", "id", DerivationKind::kCopy, {}, nullptr, {}};
  AttributeDerivation price{"price", "cents", DerivationKind::kCopy,
                            {},      nullptr, LinearTransform::Of(0.01)};
  AttributePreprocessor pre(schema, {id, price});
  EXPECT_FALSE(pre.Run(raw).ok());
}

}  // namespace
}  // namespace evident
