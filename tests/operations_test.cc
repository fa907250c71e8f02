#include "core/operations.h"

#include <gtest/gtest.h>

#include "workload/paper_fixtures.h"

namespace evident {
namespace {

using paper::kPaperEps;

class PaperTablesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ra_ = paper::TableRA().value();
    rb_ = paper::TableRB().value();
  }

  ExtendedRelation ra_;
  ExtendedRelation rb_;
};

TEST_F(PaperTablesTest, Table2SelectionSichuan) {
  auto result = Select(ra_, IsSym("speciality", {"si"}),
                       MembershipThreshold::SnGreater(0.0));
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = paper::ExpectedTable2().value();
  EXPECT_TRUE(result->ApproxEquals(expected, kPaperEps))
      << "got:\n"
      << result->ToString(3) << "expected:\n"
      << expected.ToString(3);
}

TEST_F(PaperTablesTest, Table3CompoundSelection) {
  auto result =
      Select(ra_, And(IsSym("speciality", {"mu"}), IsSym("rating", {"ex"})),
             MembershipThreshold::SnGreater(0.0));
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = paper::ExpectedTable3().value();
  EXPECT_TRUE(result->ApproxEquals(expected, kPaperEps))
      << "got:\n"
      << result->ToString(3) << "expected:\n"
      << expected.ToString(3);
}

TEST_F(PaperTablesTest, Table4ExtendedUnion) {
  auto result = Union(ra_, rb_);
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = paper::ExpectedTable4().value();
  EXPECT_TRUE(result->ApproxEquals(expected, kPaperEps))
      << "got:\n"
      << result->ToString(3) << "expected:\n"
      << expected.ToString(3);
}

TEST_F(PaperTablesTest, Table5Projection) {
  auto result =
      Project(ra_, {"rname", "phone", "speciality", "rating"});
  ASSERT_TRUE(result.ok()) << result.status();
  auto expected = paper::ExpectedTable5().value();
  EXPECT_TRUE(result->ApproxEquals(expected, kPaperEps))
      << "got:\n"
      << result->ToString(3) << "expected:\n"
      << expected.ToString(3);
}

TEST_F(PaperTablesTest, UnionIsCommutative) {
  auto ab = Union(ra_, rb_);
  auto ba = Union(rb_, ra_);
  ASSERT_TRUE(ab.ok());
  ASSERT_TRUE(ba.ok());
  EXPECT_TRUE(ab->ApproxEquals(*ba, 1e-9));
}

TEST_F(PaperTablesTest, UnionWithSelfSharpens) {
  // Combining a relation with itself must keep keys identical and not
  // fail (self-evidence never fully conflicts).
  auto rr = Union(ra_, ra_);
  ASSERT_TRUE(rr.ok()) << rr.status();
  EXPECT_EQ(rr->size(), ra_.size());
}

TEST_F(PaperTablesTest, UnionWithEmptyIsIdentity) {
  ExtendedRelation empty("E", ra_.schema());
  auto result = Union(ra_, empty);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(ra_, 1e-12));
}

TEST_F(PaperTablesTest, SelectRetainsOriginalAttributeValues) {
  // The paper keeps original evidence sets in the selection result
  // (footnote: unlike DeMichiel).
  auto result = Select(ra_, IsSym("speciality", {"si"}));
  ASSERT_TRUE(result.ok());
  auto idx = result->FindByKey({Value("garden")});
  ASSERT_TRUE(idx.ok());
  const EvidenceSet es =
      std::get<EvidenceSet>(result->row(*idx).cells[4]);
  EXPECT_NEAR(
      es.mass().MassOf(ValueSet::Of(es.domain()->size(),
                                    {es.domain()->IndexOf(Value("hu")).value()})),
      0.25, 1e-12);
}

TEST_F(PaperTablesTest, SelectThresholdSnEqualsOne) {
  // §3.1.3: (sn = 1) keeps only tuples that definitely satisfy the
  // condition.
  auto result = Select(ra_, IsSym("speciality", {"si"}),
                       MembershipThreshold::SnEquals(1.0));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->ContainsKey({Value("wok")}));
}

TEST_F(PaperTablesTest, SelectThresholdOnSp) {
  auto result = Select(ra_, IsSym("speciality", {"si"}),
                       MembershipThreshold::SpAtLeast(0.9));
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(result->ContainsKey({Value("wok")}));
}

TEST_F(PaperTablesTest, SelectDropsZeroSnEvenWithPermissiveThreshold) {
  // ashiana has Pls > 0 but Bel = 0 for {si}; with threshold "sp > 0"
  // alone it would qualify, but CWA_ER consistency drops sn = 0 tuples.
  auto result = Select(ra_, IsSym("speciality", {"si"}),
                       MembershipThreshold::SpGreater(0.0));
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->ContainsKey({Value("ashiana")}));
  EXPECT_EQ(result->size(), 2u);
}

TEST_F(PaperTablesTest, SelectNullPredicateRejected) {
  EXPECT_FALSE(Select(ra_, nullptr).ok());
}

TEST_F(PaperTablesTest, ProjectRequiresKey) {
  auto result = Project(ra_, {"phone", "speciality"});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(PaperTablesTest, ProjectRejectsDuplicates) {
  EXPECT_FALSE(Project(ra_, {"rname", "rname"}).ok());
}

TEST_F(PaperTablesTest, ProjectRejectsUnknownAttribute) {
  EXPECT_EQ(Project(ra_, {"rname", "nope"}).status().code(),
            StatusCode::kNotFound);
}

TEST_F(PaperTablesTest, UnionRejectsIncompatibleSchemas) {
  auto projected = Project(ra_, {"rname", "phone"}).value();
  EXPECT_EQ(Union(ra_, projected).status().code(), StatusCode::kIncompatible);
}

TEST_F(PaperTablesTest, ProductConcatenatesAndMultipliesMembership) {
  auto small_a = Project(ra_, {"rname", "speciality"}).value();
  auto small_b = Project(rb_, {"rname", "rating"}).value();
  auto renamed = RenameAttribute(small_b, "rname", "rname_b").value();
  auto product = Product(small_a, renamed);
  ASSERT_TRUE(product.ok()) << product.status();
  EXPECT_EQ(product->size(), small_a.size() * renamed.size());
  // mehl(A) sn=0.5 x mehl(B) sn=0.8 -> 0.4.
  bool found = false;
  for (size_t row_index = 0; row_index < product->size(); ++row_index) {
    const ExtendedTuple t = product->row(row_index);
    if (std::get<Value>(t.cells[0]) == Value("mehl") &&
        std::get<Value>(t.cells[2]) == Value("mehl")) {
      EXPECT_NEAR(t.membership.sn, 0.4, 1e-12);
      EXPECT_NEAR(t.membership.sp, 0.5, 1e-12);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(PaperTablesTest, ProductQualifiesCollidingNames) {
  auto product = Product(ra_, rb_);
  ASSERT_TRUE(product.ok()) << product.status();
  EXPECT_TRUE(product->schema()->Has("RA.rname"));
  EXPECT_TRUE(product->schema()->Has("RB.rname"));
  EXPECT_EQ(product->size(), ra_.size() * rb_.size());
}

TEST_F(PaperTablesTest, JoinEquiKey) {
  // Join R_A and R_B on equal rname; every matched pair must pass with
  // sn = product of memberships.
  auto join =
      Join(ra_, rb_,
           Theta(ThetaOperand::Attr("RA.rname"), ThetaOp::kEq,
                 ThetaOperand::Attr("RB.rname")),
           MembershipThreshold::SnGreater(0.0));
  ASSERT_TRUE(join.ok()) << join.status();
  EXPECT_EQ(join->size(), 5u);  // five shared restaurants
}

TEST_F(PaperTablesTest, JoinOnEvidenceCondition) {
  // R_A ⋈ R_B on "RA.rating = RB.rating": evidence-weighted support.
  auto join = Join(ra_, rb_,
                   Theta(ThetaOperand::Attr("RA.rating"), ThetaOp::kEq,
                         ThetaOperand::Attr("RB.rating")),
                   MembershipThreshold::SnGreater(0.3));
  ASSERT_TRUE(join.ok()) << join.status();
  // olive x olive: ratings [gd^.5, avg^.5] vs [gd^.8, avg^.2]:
  // sn = .5*.8 + .5*.2 = 0.5 > 0.3 — must be present.
  bool olive = false;
  for (size_t row_index = 0; row_index < join->size(); ++row_index) {
    const ExtendedTuple t = join->row(row_index);
    if (std::get<Value>(t.cells[0]) == Value("olive") &&
        std::get<Value>(
            t.cells[ra_.schema()->size()]) == Value("olive")) {
      olive = true;
      EXPECT_NEAR(t.membership.sn, 0.5, 1e-12);
    }
  }
  EXPECT_TRUE(olive);
}

TEST_F(PaperTablesTest, RenameAttribute) {
  auto renamed = RenameAttribute(ra_, "phone", "telephone");
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(renamed->schema()->Has("telephone"));
  EXPECT_FALSE(renamed->schema()->Has("phone"));
  EXPECT_EQ(renamed->size(), ra_.size());
}

TEST_F(PaperTablesTest, RenameRejectsExisting) {
  EXPECT_EQ(RenameAttribute(ra_, "phone", "rname").status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(PaperTablesTest, RenameRejectsUnknown) {
  EXPECT_EQ(RenameAttribute(ra_, "nope", "x").status().code(),
            StatusCode::kNotFound);
}

// --- union conflict policies -----------------------------------------------

Result<ExtendedRelation> ConflictingPair(ExtendedRelation* left_out) {
  auto domain = Domain::MakeSymbolic("c", {"x", "y"}).value();
  auto schema = RelationSchema::Make(
                    {AttributeDef::Key("k"),
                     AttributeDef::Uncertain("u", domain)})
                    .value();
  ExtendedRelation left("L", schema);
  ExtendedTuple lt;
  lt.cells = {Value("a"), EvidenceSet::Definite(domain, Value("x")).value()};
  EVIDENT_RETURN_NOT_OK(left.Insert(std::move(lt)));
  ExtendedRelation right("R", schema);
  ExtendedTuple rt;
  rt.cells = {Value("a"), EvidenceSet::Definite(domain, Value("y")).value()};
  EVIDENT_RETURN_NOT_OK(right.Insert(std::move(rt)));
  *left_out = std::move(left);
  return right;
}

TEST(UnionConflictTest, ErrorPolicyReportsTotalConflict) {
  ExtendedRelation left;
  auto right = ConflictingPair(&left).value();
  auto result = Union(left, right);
  EXPECT_EQ(result.status().code(), StatusCode::kTotalConflict);
}

TEST(UnionConflictTest, SkipPolicyDropsTuple) {
  ExtendedRelation left;
  auto right = ConflictingPair(&left).value();
  UnionOptions options;
  options.on_total_conflict = TotalConflictPolicy::kSkipTuple;
  auto result = Union(left, right, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 0u);
}

TEST(UnionConflictTest, VacuousPolicyKeepsTupleWithIgnorance) {
  ExtendedRelation left;
  auto right = ConflictingPair(&left).value();
  UnionOptions options;
  options.on_total_conflict = TotalConflictPolicy::kVacuous;
  auto result = Union(left, right, options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(std::get<EvidenceSet>(result->row(0).cells[1]).IsVacuous());
}

TEST(UnionConflictTest, DefiniteConflictPolicies) {
  auto schema = RelationSchema::Make({AttributeDef::Key("k"),
                                      AttributeDef::Definite("d")})
                    .value();
  ExtendedRelation left("L", schema);
  ExtendedTuple lt;
  lt.cells = {Value("a"), Value("foo")};
  ASSERT_TRUE(left.Insert(std::move(lt)).ok());
  ExtendedRelation right("R", schema);
  ExtendedTuple rt;
  rt.cells = {Value("a"), Value("bar")};
  ASSERT_TRUE(right.Insert(std::move(rt)).ok());

  EXPECT_EQ(Union(left, right).status().code(), StatusCode::kIncompatible);

  UnionOptions prefer_left;
  prefer_left.on_definite_conflict = DefiniteConflictPolicy::kPreferLeft;
  auto l = Union(left, right, prefer_left);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(std::get<Value>(l->row(0).cells[1]), Value("foo"));

  UnionOptions prefer_right;
  prefer_right.on_definite_conflict = DefiniteConflictPolicy::kPreferRight;
  auto r = Union(left, right, prefer_right);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::get<Value>(r->row(0).cells[1]), Value("bar"));
}

TEST(UnionRuleTest, YagerUnionKeepsConflictAsIgnorance) {
  ExtendedRelation left;
  auto right = ConflictingPair(&left).value();
  UnionOptions options;
  options.rule = CombinationRule::kYager;
  auto result = Union(left, right, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  EXPECT_TRUE(std::get<EvidenceSet>(result->row(0).cells[1]).IsVacuous());
}

TEST(UnionRuleTest, MixingUnionAverages) {
  ExtendedRelation left;
  auto right = ConflictingPair(&left).value();
  UnionOptions options;
  options.rule = CombinationRule::kMixing;
  auto result = Union(left, right, options);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 1u);
  const EvidenceSet es = std::get<EvidenceSet>(result->row(0).cells[1]);
  auto bel = es.Belief({Value("x")});
  ASSERT_TRUE(bel.ok());
  EXPECT_NEAR(*bel, 0.5, 1e-12);
}

TEST(CombineMembershipTest, RulesAgreeWhenNoConflict) {
  SupportPair a(0.5, 1.0);
  SupportPair b(0.4, 0.9);
  for (auto rule : {CombinationRule::kDempster, CombinationRule::kTBM,
                    CombinationRule::kYager}) {
    auto combined = CombineMembership(a, b, rule);
    ASSERT_TRUE(combined.ok());
    // No {true}x{false} products are zero here, so rules differ; just
    // check validity and ordering invariants.
    EXPECT_TRUE(combined->Validate().ok())
        << CombinationRuleToString(rule) << " -> "
        << combined->ToString();
  }
}

}  // namespace
}  // namespace evident
