// The reference evaluator (tests/reference_algebra.h) is the oracle the
// differential suites compare the operators against, so it is checked on
// its own here: it must reproduce the paper's Tables 2-5, and it must
// agree with the operators where the fuzz harness looks least often —
// frames wider than the inline word, whose predicates are interpreted
// per decoded row, errors, and empty operands.
#include "reference_algebra.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "workload/paper_fixtures.h"

namespace evident {
namespace {

TEST(ReferenceAlgebraTest, ReproducesPaperTables) {
  const ExtendedRelation ra = paper::TableRA().value();
  const ExtendedRelation rb = paper::TableRB().value();
  const MembershipThreshold positive = MembershipThreshold::SnGreater(0.0);
  auto t2 = reference::Select(ra, IsSym("speciality", {"si"}), positive);
  auto t3 = reference::Select(
      ra, And(IsSym("speciality", {"mu"}), IsSym("rating", {"ex"})),
      positive);
  auto t4 = reference::Union(ra, rb);
  auto t5 =
      reference::Project(ra, {"rname", "phone", "speciality", "rating"});
  ASSERT_TRUE(t2.ok() && t3.ok() && t4.ok() && t5.ok());
  EXPECT_TRUE(t2->ApproxEquals(paper::ExpectedTable2().value(),
                               paper::kPaperEps));
  EXPECT_TRUE(t3->ApproxEquals(paper::ExpectedTable3().value(),
                               paper::kPaperEps));
  EXPECT_TRUE(t4->ApproxEquals(paper::ExpectedTable4().value(),
                               paper::kPaperEps));
  EXPECT_TRUE(t5->ApproxEquals(paper::ExpectedTable5().value(),
                               paper::kPaperEps));
}

TEST(ReferenceAlgebraTest, AgreesOnInterpretedWideFramePredicates) {
  std::vector<std::string> symbols;
  for (int i = 0; i < 96; ++i) symbols.push_back("w" + std::to_string(i));
  DomainPtr dom = Domain::MakeSymbolic("wide", symbols).value();
  auto make = [&](const std::string& name, int64_t rows) {
    SchemaPtr schema =
        RelationSchema::Make({AttributeDef::Key(name + "k"),
                              AttributeDef::Uncertain(name + "u", dom)})
            .value();
    ExtendedRelation rel(name, schema);
    for (int64_t i = 0; i < rows; ++i) {
      MassFunction m(96);
      EXPECT_TRUE(m.Add(ValueSet::Singleton(96, i % 96), 0.75).ok());
      EXPECT_TRUE(m.Add(ValueSet::Singleton(96, (i * 7) % 96), 0.25).ok());
      ExtendedTuple t({Value(i), EvidenceSet::MakeTrusted(dom, std::move(m))},
                      SupportPair{0.5 + 0.5 * (i % 2), 1.0});
      EXPECT_TRUE(rel.Insert(std::move(t)).ok());
    }
    return rel;
  };
  const ExtendedRelation w = make("W", 300);
  const ExtendedRelation v = make("V", 120);
  const ExtendedRelation empty = make("E", 0);
  const std::vector<PredicatePtr> predicates = {
      IsSym("Wu", {"w1", "w7", "w49"}),
      And(IsSym("Wu", {"w3"}), IsSym("Wu", {"w3", "w21"})),
      IsSym("Wu", {"w2", "not_in_frame"}),  // a per-row error
      And(std::vector<PredicatePtr>{}),     // the empty conjunction
  };
  for (size_t p = 0; p < predicates.size(); ++p) {
    const std::string what = "predicate " + std::to_string(p);
    ExpectSameOutcome(reference::Select(w, predicates[p]),
                      Select(w, predicates[p]), what);
    // No row, no evaluation, no error.
    ExpectSameOutcome(reference::Select(empty, predicates[p]),
                      Select(empty, predicates[p]), what + " (empty)");
    // The residual is evaluated on key-matching pairs only.
    const PredicatePtr join = And(
        Theta(ThetaOperand::Attr("Wk"), ThetaOp::kEq, ThetaOperand::Attr("Vk")),
        predicates[p]);
    ExpectSameOutcome(reference::Join(w, v, join), Join(w, v, join),
                      what + " (join)");
  }
}

}  // namespace
}  // namespace evident
