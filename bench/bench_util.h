#ifndef EVIDENT_BENCH_BENCH_UTIL_H_
#define EVIDENT_BENCH_BENCH_UTIL_H_

#include <cmath>
#include <cstdio>
#include <string>

#include "core/extended_relation.h"

namespace evident {
namespace bench {

/// Shared scaffolding for the table-reproduction benches: each bench
/// prints the regenerated artifact and *asserts* the paper's published
/// values, exiting non-zero on mismatch so the bench run doubles as a
/// verification pass.
class Checker {
 public:
  /// \brief Asserts |got - want| <= eps, logging pass/fail.
  void CheckNear(const std::string& label, double got, double want,
                 double eps) {
    const bool ok = std::fabs(got - want) <= eps;
    std::printf("  %-58s %-10s got=%.6g paper=%.6g\n", label.c_str(),
                ok ? "[ok]" : "[MISMATCH]", got, want);
    if (!ok) ++failures_;
  }

  /// \brief Asserts a boolean condition.
  void CheckTrue(const std::string& label, bool ok) {
    std::printf("  %-58s %s\n", label.c_str(), ok ? "[ok]" : "[MISMATCH]");
    if (!ok) ++failures_;
  }

  /// \brief Final verdict; returns the process exit code.
  int Finish(const std::string& bench_name) const {
    if (failures_ == 0) {
      std::printf("%s: all checks passed\n", bench_name.c_str());
      return 0;
    }
    std::printf("%s: %zu check(s) FAILED\n", bench_name.c_str(), failures_);
    return 1;
  }

 private:
  size_t failures_ = 0;
};

/// \brief Per-tuple comparison of a regenerated table against the
/// paper's published values (tolerance covers the paper's 2-3-digit
/// rounding).
inline void CheckRelation(Checker* checker, const ExtendedRelation& got,
                          const ExtendedRelation& want, double eps) {
  checker->CheckTrue("tuple count " + std::to_string(got.size()) + " == " +
                         std::to_string(want.size()),
                     got.size() == want.size());
  for (size_t row_index = 0; row_index < want.size(); ++row_index) {
    const ExtendedTuple expected = want.row(row_index);
    const KeyVector key = want.KeyOf(expected);
    std::string key_text;
    for (const Value& v : key) key_text += v.ToString();
    auto row = got.FindByKey(key);
    if (!row.ok()) {
      checker->CheckTrue("tuple '" + key_text + "' present", false);
      continue;
    }
    const ExtendedTuple& actual = got.row(*row);
    bool cells_ok = true;
    for (size_t c = 0; c < expected.cells.size(); ++c) {
      if (!CellApproxEquals(actual.cells[c], expected.cells[c], eps)) {
        cells_ok = false;
      }
    }
    checker->CheckTrue("tuple '" + key_text + "' attribute values", cells_ok);
    checker->CheckTrue(
        "tuple '" + key_text + "' membership " +
            actual.membership.ToString(3) + " ~ " +
            expected.membership.ToString(3),
        actual.membership.ApproxEquals(expected.membership, eps));
  }
}

}  // namespace bench
}  // namespace evident

#endif  // EVIDENT_BENCH_BENCH_UTIL_H_
