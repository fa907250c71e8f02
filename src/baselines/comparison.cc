#include "baselines/comparison.h"

#include <sstream>

#include "baselines/partial_value.h"
#include "baselines/probabilistic_value.h"
#include "common/str_util.h"
#include "ds/combination.h"

namespace evident {

const char* MergeApproachToString(MergeApproach approach) {
  switch (approach) {
    case MergeApproach::kEvidential:
      return "evidential (this paper)";
    case MergeApproach::kPartialValues:
      return "partial values (DeMichiel)";
    case MergeApproach::kProbabilisticMixture:
      return "probabilistic (Tseng et al.)";
  }
  return "?";
}

Result<ComparisonMetrics> RunComparison(const GroundTruthWorkload& workload,
                                        MergeApproach approach) {
  ComparisonMetrics metrics;
  metrics.approach = approach;
  const size_t cat_index = workload.schema->IndexOf("cat").value();
  double total_candidates = 0.0;

  for (const auto& [key, truth_index] : workload.truth) {
    auto row_a = workload.source_a.FindByKey(key);
    auto row_b = workload.source_b.FindByKey(key);
    if (!row_a.ok() || !row_b.ok()) continue;
    const EvidenceSet ea =
        std::get<EvidenceSet>(workload.source_a.row(*row_a).cells[cat_index]);
    const EvidenceSet eb =
        std::get<EvidenceSet>(workload.source_b.row(*row_b).cells[cat_index]);
    ++metrics.entities;

    switch (approach) {
      case MergeApproach::kEvidential: {
        auto combined = CombineEvidence(ea, eb);
        if (!combined.ok()) {
          if (combined.status().code() != StatusCode::kTotalConflict) {
            return combined.status();
          }
          ++metrics.conflicts;
          continue;
        }
        EVIDENT_ASSIGN_OR_RETURN(std::vector<double> pignistic,
                                 PignisticTransform(combined->mass()));
        size_t best = 0;
        size_t candidates = 0;
        for (size_t i = 0; i < pignistic.size(); ++i) {
          if (pignistic[i] > pignistic[best]) best = i;
          if (pignistic[i] > 1e-12) ++candidates;
        }
        total_candidates += static_cast<double>(candidates);
        ++metrics.decided;
        if (best == truth_index) ++metrics.correct_decisions;
        if (pignistic[truth_index] > 1e-12) ++metrics.truth_retained;
        break;
      }
      case MergeApproach::kPartialValues: {
        EVIDENT_ASSIGN_OR_RETURN(PartialValue pa,
                                 PartialValue::FromEvidence(ea));
        EVIDENT_ASSIGN_OR_RETURN(PartialValue pb,
                                 PartialValue::FromEvidence(eb));
        auto combined = pa.Combine(pb);
        if (!combined.ok()) {
          if (combined.status().code() != StatusCode::kTotalConflict) {
            return combined.status();
          }
          ++metrics.conflicts;
          continue;
        }
        total_candidates += static_cast<double>(combined->Cardinality());
        if (combined->set().Test(truth_index)) ++metrics.truth_retained;
        if (combined->IsDefinite()) {
          ++metrics.decided;
          if (combined->set().Test(truth_index)) ++metrics.correct_decisions;
        }
        break;
      }
      case MergeApproach::kProbabilisticMixture: {
        EVIDENT_ASSIGN_OR_RETURN(ProbabilisticValue pa,
                                 ProbabilisticValue::FromEvidence(ea));
        EVIDENT_ASSIGN_OR_RETURN(ProbabilisticValue pb,
                                 ProbabilisticValue::FromEvidence(eb));
        EVIDENT_ASSIGN_OR_RETURN(ProbabilisticValue combined,
                                 pa.CombineMixture(pb));
        size_t candidates = 0;
        for (const auto& [i, p] : combined.probs()) {
          if (p > 1e-12) ++candidates;
        }
        total_candidates += static_cast<double>(candidates);
        ++metrics.decided;
        const size_t best = combined.ArgMax();
        if (best == truth_index) ++metrics.correct_decisions;
        if (combined.ProbOfIndex(truth_index) > 1e-12) {
          ++metrics.truth_retained;
        }
        break;
      }
    }
  }
  const size_t merged = metrics.entities - metrics.conflicts;
  metrics.mean_candidates =
      merged == 0 ? 0.0 : total_candidates / static_cast<double>(merged);
  return metrics;
}

Result<std::string> RenderComparisonTable(
    const GroundTruthWorkload& workload) {
  std::ostringstream os;
  os << "approach                        | accuracy | decided | truth-kept | "
        "conflicts | mean-candidates\n";
  os << "--------------------------------+----------+---------+------------+-"
        "----------+----------------\n";
  for (MergeApproach approach :
       {MergeApproach::kEvidential, MergeApproach::kPartialValues,
        MergeApproach::kProbabilisticMixture}) {
    EVIDENT_ASSIGN_OR_RETURN(ComparisonMetrics m,
                             RunComparison(workload, approach));
    os << MergeApproachToString(approach);
    for (size_t pad = std::string(MergeApproachToString(approach)).size();
         pad < 32; ++pad) {
      os << ' ';
    }
    os << "| " << FormatMass(m.DecisionAccuracy(), 3) << "    | "
       << m.decided << "     | " << FormatMass(m.TruthRetention(), 3)
       << "      | " << m.conflicts << "         | "
       << FormatMass(m.mean_candidates, 2) << "\n";
  }
  return os.str();
}

}  // namespace evident
