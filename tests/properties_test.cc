// Executable form of the paper's §3.6 closure and boundedness properties
// (Theorem 1), verified over randomized relations for all five extended
// operations.
#include "core/properties.h"

#include <gtest/gtest.h>

#include "core/operations.h"
#include "workload/generator.h"
#include "workload/paper_fixtures.h"

namespace evident {
namespace {

GeneratorOptions SmallOptions() {
  GeneratorOptions options;
  options.num_tuples = 30;
  options.num_definite = 1;
  options.num_uncertain = 2;
  options.domain_size = 6;
  options.max_focals = 3;
  options.uncertain_membership_fraction = 0.5;
  return options;
}

class TheoremOneTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    WorkloadGenerator gen(GetParam());
    SourcePairOptions options;
    options.base = SmallOptions();
    options.key_overlap = 0.5;
    options.conflict_rate = 0.0;  // keep unions total-conflict free
    auto pair = gen.MakeSourcePair(options);
    ASSERT_TRUE(pair.ok()) << pair.status();
    r_ = std::move(pair->first);
    s_ = std::move(pair->second);
    WorkloadGenerator cgen(GetParam() + 1000);
    (void)cgen;
    auto rc = MakeComplementSample(r_, 10, GetParam() * 3 + 1, "R");
    auto sc = MakeComplementSample(s_, 10, GetParam() * 5 + 2, "S");
    ASSERT_TRUE(rc.ok());
    ASSERT_TRUE(sc.ok());
    r_full_ = UnionWithComplement(r_, *rc).value();
    s_full_ = UnionWithComplement(s_, *sc).value();
  }

  PredicatePtr SomePredicate() const {
    return IsSym("unc0", {"v0", "v1", "v2"});
  }

  ExtendedRelation r_, s_, r_full_, s_full_;
};

TEST_P(TheoremOneTest, SelectSatisfiesClosure) {
  auto result = Select(r_, SomePredicate());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(CheckClosureProperty(*result).ok());
}

TEST_P(TheoremOneTest, SelectSatisfiesBoundedness) {
  auto without = Select(r_, SomePredicate());
  auto with = Select(r_full_, SomePredicate());
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE(CheckBoundednessEquality(*without, *with).ok());
}

TEST_P(TheoremOneTest, UnionSatisfiesClosure) {
  auto result = Union(r_, s_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(CheckClosureProperty(*result).ok());
}

TEST_P(TheoremOneTest, UnionSatisfiesBoundedness) {
  auto without = Union(r_, s_);
  auto with = Union(r_full_, s_full_);
  ASSERT_TRUE(without.ok()) << without.status();
  ASSERT_TRUE(with.ok()) << with.status();
  EXPECT_TRUE(CheckBoundednessEquality(*without, *with).ok());
}

TEST_P(TheoremOneTest, ProjectSatisfiesClosureAndBoundedness) {
  const std::vector<std::string> attrs{"key", "unc0"};
  auto without = Project(r_, attrs);
  auto with = Project(r_full_, attrs);
  ASSERT_TRUE(without.ok());
  ASSERT_TRUE(with.ok());
  EXPECT_TRUE(CheckClosureProperty(*without).ok());
  EXPECT_TRUE(CheckBoundednessEquality(*without, *with).ok());
}

TEST_P(TheoremOneTest, ProductSatisfiesClosureAndBoundedness) {
  // Shrink to keep the cross product small.
  auto rs = Select(r_, IsSym("unc0", {"v0", "v1"}),
                   MembershipThreshold::SnGreater(0.01))
                .value();
  auto ss = Select(s_, IsSym("unc1", {"v0", "v1"}),
                   MembershipThreshold::SnGreater(0.01))
                .value();
  rs.set_name("RS");
  ss.set_name("SS");
  auto rsc = MakeComplementSample(rs, 5, GetParam() * 7 + 3, "RS").value();
  auto ssc = MakeComplementSample(ss, 5, GetParam() * 11 + 4, "SS").value();
  auto rs_full = UnionWithComplement(rs, rsc).value();
  auto ss_full = UnionWithComplement(ss, ssc).value();
  // Keep relation names identical so Product qualifies colliding
  // attribute names the same way on both paths.
  rs_full.set_name("RS");
  ss_full.set_name("SS");

  auto without = Product(rs, ss);
  auto with = Product(rs_full, ss_full);
  ASSERT_TRUE(without.ok()) << without.status();
  ASSERT_TRUE(with.ok()) << with.status();
  EXPECT_TRUE(CheckClosureProperty(*without).ok());
  EXPECT_TRUE(CheckBoundednessEquality(*without, *with).ok());
}

TEST_P(TheoremOneTest, JoinSatisfiesClosureAndBoundedness) {
  auto rs = Select(r_, IsSym("unc0", {"v0", "v1"}),
                   MembershipThreshold::SnGreater(0.01))
                .value();
  auto ss = Select(s_, IsSym("unc1", {"v0", "v1"}),
                   MembershipThreshold::SnGreater(0.01))
                .value();
  rs.set_name("RS");
  ss.set_name("SS");
  auto rsc = MakeComplementSample(rs, 5, GetParam() * 13 + 5, "RS").value();
  auto ssc = MakeComplementSample(ss, 5, GetParam() * 17 + 6, "SS").value();
  auto rs_full = UnionWithComplement(rs, rsc).value();
  auto ss_full = UnionWithComplement(ss, ssc).value();
  rs_full.set_name("RS");
  ss_full.set_name("SS");

  auto pred = Theta(ThetaOperand::Attr("RS.unc0"), ThetaOp::kEq,
                    ThetaOperand::Attr("SS.unc0"));
  auto without = Join(rs, ss, pred);
  auto with = Join(rs_full, ss_full, pred);
  ASSERT_TRUE(without.ok()) << without.status();
  ASSERT_TRUE(with.ok()) << with.status();
  EXPECT_TRUE(CheckClosureProperty(*without).ok());
  EXPECT_TRUE(CheckBoundednessEquality(*without, *with).ok());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremOneTest,
                         ::testing::Range(uint64_t{1}, uint64_t{16}));

TEST(PropertiesTest, ClosureCheckFlagsZeroSn) {
  auto ra = paper::TableRA().value();
  auto complement = MakeComplementSample(ra, 3, 42, "RA").value();
  EXPECT_TRUE(CheckClosureProperty(ra).ok());
  EXPECT_FALSE(CheckClosureProperty(complement).ok());
}

TEST(PropertiesTest, ComplementSampleHasFreshKeysAndZeroSn) {
  auto ra = paper::TableRA().value();
  auto complement = MakeComplementSample(ra, 8, 7, "RA").value();
  EXPECT_EQ(complement.size(), 8u);
  for (size_t row_index = 0; row_index < complement.size(); ++row_index) {
    const ExtendedTuple t = complement.row(row_index);
    EXPECT_DOUBLE_EQ(t.membership.sn, 0.0);
    EXPECT_FALSE(ra.ContainsKey(complement.KeyOf(t)));
  }
}

TEST(PropertiesTest, UnionWithComplementRejectsKeyClash) {
  auto ra = paper::TableRA().value();
  // A "complement" that reuses RA itself must be rejected.
  EXPECT_FALSE(UnionWithComplement(ra, ra).ok());
}

TEST(PropertiesTest, PositiveSupportPartDropsHypotheticals) {
  auto ra = paper::TableRA().value();
  auto complement = MakeComplementSample(ra, 4, 3, "RA").value();
  auto full = UnionWithComplement(ra, complement).value();
  auto positive = PositiveSupportPart(full).value();
  EXPECT_TRUE(positive.ApproxEquals(ra));
}

TEST(PropertiesTest, BoundednessCheckDetectsDifference) {
  auto ra = paper::TableRA().value();
  auto rb = paper::TableRB().value();
  EXPECT_FALSE(CheckBoundednessEquality(ra, rb).ok());
}

}  // namespace
}  // namespace evident
