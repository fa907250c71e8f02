// A1: combination-rule ablation. Sweeps the source conflict rate and
// reports, per rule, how tuple merging behaves: merged tuples, total
// conflicts hit, mean belief mass on the top value (sharpness) and mean
// ignorance mass (m(Θ)). Shows why the paper's normalized Dempster rule
// sharpens agreeing evidence, where Yager parks conflict as ignorance,
// and how mixing dilutes.
#include <cstdio>

#include "bench_util.h"
#include "core/operations.h"
#include "ds/measures.h"
#include "workload/generator.h"

namespace evident {
namespace {

struct RuleStats {
  size_t merged = 0;
  size_t conflicts = 0;
  double top_belief_sum = 0;
  double theta_mass_sum = 0;
  double nonspecificity_sum = 0;
  double total_uncertainty_sum = 0;
};

RuleStats MeasureRule(const ExtendedRelation& a, const ExtendedRelation& b,
                      CombinationRule rule) {
  RuleStats stats;
  UnionOptions options;
  options.rule = rule;
  options.on_total_conflict = TotalConflictPolicy::kSkipTuple;
  const size_t unc_index = a.schema()->IndexOf("unc0").value();
  for (size_t row_index = 0; row_index < a.size(); ++row_index) {
    const ExtendedTuple t = a.row(row_index);
    auto row_b = b.FindByKey(a.KeyOf(t));
    if (!row_b.ok()) continue;
    const auto& ea = std::get<EvidenceSet>(t.cells[unc_index]);
    const EvidenceSet eb =
        std::get<EvidenceSet>(b.row(*row_b).cells[unc_index]);
    auto combined = CombineEvidence(ea, eb, rule);
    if (!combined.ok()) {
      ++stats.conflicts;
      continue;
    }
    ++stats.merged;
    // Sharpness: belief of the best singleton.
    double best = 0;
    for (size_t i = 0; i < combined->domain()->size(); ++i) {
      best = std::max(
          best, combined->mass().Belief(
                    ValueSet::Singleton(combined->domain()->size(), i)));
    }
    stats.top_belief_sum += best;
    stats.theta_mass_sum += combined->mass().MassOf(
        ValueSet::Full(combined->domain()->size()));
    stats.nonspecificity_sum +=
        Nonspecificity(combined->mass()).value_or(0.0);
    stats.total_uncertainty_sum +=
        TotalUncertainty(combined->mass()).value_or(0.0);
  }
  return stats;
}

int Run() {
  bench::Checker checker;
  std::printf("A1: combination-rule ablation over conflict-rate sweep\n");
  std::printf("%-10s %-10s %8s %10s %12s %12s %10s %10s\n", "conflict",
              "rule", "merged", "conflicts", "top-belief", "m(Theta)",
              "nonspec", "total-U");

  for (int conflict_pct : {0, 10, 25, 50}) {
    WorkloadGenerator gen(900 + conflict_pct);
    SourcePairOptions options;
    options.base.num_tuples = 2000;
    options.base.num_uncertain = 1;
    options.base.domain_size = 10;
    options.key_overlap = 1.0;
    options.conflict_rate = conflict_pct / 100.0;
    auto pair = gen.MakeSourcePair(options).value();

    double dempster_top = 0;
    double mixing_top = 0;
    double yager_theta = 0;
    double dempster_theta = 0;
    for (CombinationRule rule :
         {CombinationRule::kDempster, CombinationRule::kYager,
          CombinationRule::kMixing}) {
      RuleStats stats = MeasureRule(pair.first, pair.second, rule);
      const double mean_top =
          stats.merged ? stats.top_belief_sum / stats.merged : 0;
      const double mean_theta =
          stats.merged ? stats.theta_mass_sum / stats.merged : 0;
      std::printf("%-10d %-10s %8zu %10zu %12.4f %12.4f %10.4f %10.4f\n",
                  conflict_pct, CombinationRuleToString(rule), stats.merged,
                  stats.conflicts, mean_top, mean_theta,
                  stats.merged ? stats.nonspecificity_sum / stats.merged : 0,
                  stats.merged ? stats.total_uncertainty_sum / stats.merged
                               : 0);
      if (rule == CombinationRule::kDempster) {
        dempster_top = mean_top;
        dempster_theta = mean_theta;
      }
      if (rule == CombinationRule::kMixing) mixing_top = mean_top;
      if (rule == CombinationRule::kYager) yager_theta = mean_theta;
    }
    // Qualitative expectations of the ablation:
    checker.CheckTrue(
        "conflict=" + std::to_string(conflict_pct) +
            "%: Dempster sharpens more than mixing",
        dempster_top > mixing_top);
    checker.CheckTrue(
        "conflict=" + std::to_string(conflict_pct) +
            "%: Yager keeps at least as much ignorance as Dempster",
        yager_theta >= dempster_theta - 1e-9);
  }
  std::printf(
      "\nReading: Dempster renormalizes conflict away (sharp, but total\n"
      "conflict must be surfaced); Yager converts conflict to ignorance\n"
      "(never fails, duller results); mixing never conflicts but dilutes\n"
      "agreement. The paper's choice (Dempster + notify-the-integrator)\n"
      "maximizes sharpness while making disagreement auditable.\n");
  return checker.Finish("bench_ablation_rules");
}

}  // namespace
}  // namespace evident

int main() { return evident::Run(); }
