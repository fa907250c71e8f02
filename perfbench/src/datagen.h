// Seeded generators of the benchmark's catalogs. The same seed always
// gives the same relations; nothing here is timed except as part of
// setup.
#ifndef PERFBENCH_DATAGEN_H_
#define PERFBENCH_DATAGEN_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/status.h"
#include "core/extended_relation.h"
#include "storage/catalog.h"

namespace perfbench {

/// Fails the run: generation and setup errors are benchmark bugs, not
/// measured failures.
inline void Check(const evident::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

/// serve: fact F (fkey, fk, fk2, fgrp, fu0, fu1) and dimensions
/// D (dk, dgrp, du0) and D2 (d2k, d2grp, d2u0). Uncertain attributes use
/// one 12-value frame s0..s11. F.fk = fkey * dim_rows / fact_rows rises
/// with the key, so key-range partitions also carry tight fk zones;
/// F.fk2 is uniform over D2's keys.
struct ServeShape {
  size_t fact_rows = 0;
  size_t dim_rows = 0;
};
evident::Catalog BuildServeCatalog(uint64_t seed, const ServeShape& shape);

/// integrate: sources A and B from the library's WorkloadGenerator
/// (string keys, one definite and three uncertain attributes on
/// 12-value frames v0..v11, the given key overlap and conflict rate),
/// and the wide pair W1/W2 (wkey, wdef, wu on a 96-value frame w0..w95:
/// boxed evidence). Shared W keys carry discounted copies of W1's
/// evidence, except for a tenth drawn independently (possible total
/// conflict).
struct IntegrateShape {
  size_t source_rows = 0;
  size_t wide_rows = 0;
  double key_overlap = 0.6;
  double conflict_rate = 0.1;
};
evident::Catalog BuildIntegrateCatalog(uint64_t seed,
                                       const IntegrateShape& shape);

/// reopen: R (rkey, rgrp, ru0, ru1) with `rows` rows and the small
/// relation S from SmallRelation(seed, 0).
evident::Catalog BuildReopenCatalog(uint64_t seed, size_t rows);

/// The republished relation S (sk, sgrp, su0): 8 rows whose keys
/// 8*variant .. 8*variant+7 select which eighth of R (rgrp) joins.
evident::ExtendedRelation SmallRelation(uint64_t seed, int variant);

/// Rows of each relation in the catalog, summed.
size_t TotalRows(const evident::Catalog& catalog);

}  // namespace perfbench

#endif  // PERFBENCH_DATAGEN_H_
