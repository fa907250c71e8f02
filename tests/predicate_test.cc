#include "core/predicate.h"

#include <gtest/gtest.h>

#include "workload/paper_fixtures.h"

namespace evident {
namespace {

class PredicateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ra = paper::TableRA();
    ASSERT_TRUE(ra.ok()) << ra.status();
    ra_ = std::move(ra).value();
  }

  ExtendedTuple TupleOf(const std::string& rname) {
    auto idx = ra_.FindByKey({Value(rname)});
    EXPECT_TRUE(idx.ok());
    return ra_.row(*idx);
  }

  ExtendedRelation ra_;
};

TEST_F(PredicateTest, IsPredicateOnUncertainAttribute) {
  // garden speciality = [si^0.5, hu^0.25, Θ^0.25]; "speciality is {si}"
  // has support (Bel,Pls) = (0.5, 0.75).
  auto support =
      IsSym("speciality", {"si"})->Evaluate(TupleOf("garden"), *ra_.schema());
  ASSERT_TRUE(support.ok()) << support.status();
  EXPECT_NEAR(support->sn, 0.5, 1e-12);
  EXPECT_NEAR(support->sp, 0.75, 1e-12);
}

TEST_F(PredicateTest, IsPredicateDefiniteEvidence) {
  auto support =
      IsSym("speciality", {"si"})->Evaluate(TupleOf("wok"), *ra_.schema());
  ASSERT_TRUE(support.ok());
  EXPECT_DOUBLE_EQ(support->sn, 1.0);
  EXPECT_DOUBLE_EQ(support->sp, 1.0);
}

TEST_F(PredicateTest, IsPredicateNoOverlap) {
  auto support =
      IsSym("speciality", {"si"})->Evaluate(TupleOf("olive"), *ra_.schema());
  ASSERT_TRUE(support.ok());
  EXPECT_DOUBLE_EQ(support->sn, 0.0);
  EXPECT_DOUBLE_EQ(support->sp, 0.0);
}

TEST_F(PredicateTest, IsPredicateMultiValueSet) {
  // garden: Bel({si,hu}) = 0.75, Pls = 1.
  auto support = IsSym("speciality", {"si", "hu"})
                     ->Evaluate(TupleOf("garden"), *ra_.schema());
  ASSERT_TRUE(support.ok());
  EXPECT_NEAR(support->sn, 0.75, 1e-12);
  EXPECT_NEAR(support->sp, 1.0, 1e-12);
}

TEST_F(PredicateTest, IsPredicateOnDefiniteAttribute) {
  auto yes = Is("street", {Value("univ.ave.")})
                 ->Evaluate(TupleOf("garden"), *ra_.schema());
  ASSERT_TRUE(yes.ok());
  EXPECT_DOUBLE_EQ(yes->sn, 1.0);
  auto no = Is("street", {Value("wash.ave.")})
                ->Evaluate(TupleOf("garden"), *ra_.schema());
  ASSERT_TRUE(no.ok());
  EXPECT_DOUBLE_EQ(no->sp, 0.0);
}

TEST_F(PredicateTest, IsPredicateUnknownAttribute) {
  auto support =
      IsSym("nope", {"si"})->Evaluate(TupleOf("garden"), *ra_.schema());
  EXPECT_EQ(support.status().code(), StatusCode::kNotFound);
}

TEST_F(PredicateTest, IsPredicateForeignConstant) {
  auto support =
      IsSym("speciality", {"sushi"})->Evaluate(TupleOf("garden"),
                                               *ra_.schema());
  EXPECT_FALSE(support.ok());
}

TEST_F(PredicateTest, ThetaPredicatePaperExample) {
  // §3.1.1: [{1,4}^0.6, {2,6}^0.4] <= [{2,4}^0.8, 5^0.2] has support
  // (0.6, 1.0).
  auto domain = Domain::MakeIntRange("num", 1, 6).value();
  auto a = EvidenceSet::FromPairs(
               domain, {{{Value(int64_t{1}), Value(int64_t{4})}, 0.6},
                        {{Value(int64_t{2}), Value(int64_t{6})}, 0.4}})
               .value();
  auto b = EvidenceSet::FromPairs(
               domain, {{{Value(int64_t{2}), Value(int64_t{4})}, 0.8},
                        {{Value(int64_t{5})}, 0.2}})
               .value();
  auto pred = Theta(ThetaOperand::Lit(a), ThetaOp::kLe, ThetaOperand::Lit(b));
  // Literal-only predicates need no tuple context; evaluate against any
  // tuple/schema.
  auto support = pred->Evaluate(TupleOf("garden"), *ra_.schema());
  ASSERT_TRUE(support.ok()) << support.status();
  EXPECT_NEAR(support->sn, 0.6, 1e-12);
  EXPECT_NEAR(support->sp, 1.0, 1e-12);

  // Under the strict ∀s∀t reading of the paper's formal definition the
  // same example yields sn = 0.12 (only {1,4} vs {5} is necessary).
  auto strict = Theta(ThetaOperand::Lit(a), ThetaOp::kLe,
                      ThetaOperand::Lit(b), ThetaSemantics::kForallForall);
  auto strict_support = strict->Evaluate(TupleOf("garden"), *ra_.schema());
  ASSERT_TRUE(strict_support.ok());
  EXPECT_NEAR(strict_support->sn, 0.12, 1e-12);
  EXPECT_NEAR(strict_support->sp, 1.0, 1e-12);
}

TEST_F(PredicateTest, ThetaPredicateAttributeVsLiteralValue) {
  // bldg-no of garden is 2011 (definite): 2011 >= 1000 holds certainly.
  auto pred = Theta(ThetaOperand::Attr("bldg-no"), ThetaOp::kGe,
                    ThetaOperand::LitValue(Value(int64_t{1000})));
  auto support = pred->Evaluate(TupleOf("garden"), *ra_.schema());
  ASSERT_TRUE(support.ok());
  EXPECT_DOUBLE_EQ(support->sn, 1.0);
  EXPECT_DOUBLE_EQ(support->sp, 1.0);
}

TEST_F(PredicateTest, ThetaPredicateEqOnEvidence) {
  // speciality = speciality (same attribute) — definitely-true only for
  // focal pairs that are equal singletons.
  auto pred = Theta(ThetaOperand::Attr("speciality"), ThetaOp::kEq,
                    ThetaOperand::Attr("speciality"));
  auto support = pred->Evaluate(TupleOf("wok"), *ra_.schema());
  ASSERT_TRUE(support.ok());
  EXPECT_DOUBLE_EQ(support->sn, 1.0);  // [si^1] = [si^1]
}

TEST_F(PredicateTest, ThetaNonSingletonNeverNecessarilyEqualUnderStrict) {
  // Under ∀s∀t, {d35,d36} = {d35,d36} is only *possibly* equal: not
  // every element pair satisfies "=".
  auto pred = Theta(ThetaOperand::Attr("best-dish"), ThetaOp::kEq,
                    ThetaOperand::Attr("best-dish"),
                    ThetaSemantics::kForallForall);
  auto support = pred->Evaluate(TupleOf("garden"), *ra_.schema());
  ASSERT_TRUE(support.ok());
  // Focal masses: d31^0.5 (singleton, equal pairs contribute sn
  // 0.5*0.5), {d35,d36}^0.5 pairs are possible-only.
  EXPECT_NEAR(support->sn, 0.25, 1e-12);
  EXPECT_NEAR(support->sp, 0.5, 1e-12);
}

TEST_F(PredicateTest, ThetaNonSingletonEqualityUnderDefault) {
  // Under the default ∀s∃t reading, {d35,d36} = {d35,d36} is necessary
  // (each element finds an equal partner), so sn rises to 0.5.
  auto pred = Theta(ThetaOperand::Attr("best-dish"), ThetaOp::kEq,
                    ThetaOperand::Attr("best-dish"));
  auto support = pred->Evaluate(TupleOf("garden"), *ra_.schema());
  ASSERT_TRUE(support.ok());
  EXPECT_NEAR(support->sn, 0.5, 1e-12);
  EXPECT_NEAR(support->sp, 0.5, 1e-12);
}

TEST_F(PredicateTest, CompoundPredicateMultiplies) {
  // Table 3, mehl: (speciality is {mu}) support (0.8,0.8); (rating is
  // {ex}) support (0.8,0.8) → product (0.64,0.64).
  auto pred = And(IsSym("speciality", {"mu"}), IsSym("rating", {"ex"}));
  auto support = pred->Evaluate(TupleOf("mehl"), *ra_.schema());
  ASSERT_TRUE(support.ok());
  EXPECT_NEAR(support->sn, 0.64, 1e-12);
  EXPECT_NEAR(support->sp, 0.64, 1e-12);
}

TEST_F(PredicateTest, CompoundOfThree) {
  auto pred = And({IsSym("speciality", {"mu"}), IsSym("rating", {"ex"}),
                   Is("street", {Value("9th-street")})});
  auto support = pred->Evaluate(TupleOf("mehl"), *ra_.schema());
  ASSERT_TRUE(support.ok());
  EXPECT_NEAR(support->sn, 0.64, 1e-12);
}

TEST_F(PredicateTest, EmptyConjunctionRejected) {
  auto pred = And(std::vector<PredicatePtr>{});
  EXPECT_FALSE(pred->Evaluate(TupleOf("mehl"), *ra_.schema()).ok());
}

TEST_F(PredicateTest, ToStringRenders) {
  EXPECT_EQ(IsSym("speciality", {"si"})->ToString(), "speciality is {si}");
  auto pred = And(IsSym("speciality", {"mu"}), IsSym("rating", {"ex"}));
  EXPECT_EQ(pred->ToString(), "(speciality is {mu}) and (rating is {ex})");
  auto theta = Theta(ThetaOperand::Attr("bldg-no"), ThetaOp::kGe,
                     ThetaOperand::LitValue(Value(int64_t{1000})));
  EXPECT_EQ(theta->ToString(), "bldg-no >= 1000");
}

TEST(ThetaOpTest, ApplyAll) {
  Value a(int64_t{1});
  Value b(int64_t{2});
  EXPECT_TRUE(ApplyThetaOp(a, ThetaOp::kLt, b));
  EXPECT_TRUE(ApplyThetaOp(a, ThetaOp::kLe, b));
  EXPECT_FALSE(ApplyThetaOp(a, ThetaOp::kEq, b));
  EXPECT_FALSE(ApplyThetaOp(a, ThetaOp::kGt, b));
  EXPECT_FALSE(ApplyThetaOp(a, ThetaOp::kGe, b));
  EXPECT_TRUE(ApplyThetaOp(b, ThetaOp::kGe, b));
}

}  // namespace
}  // namespace evident
