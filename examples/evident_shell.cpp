// evident_shell — a minimal interactive EQL shell over .erel catalogs.
//
// Usage:
//   ./build/examples/evident_shell [catalog.erel ...]
//
// With no arguments it loads the paper's restaurant tables (R_A, R_B,
// M_A, M_B, RM_A, RM_B). Commands (one per line on stdin):
//   \tables                 list relations
//   \show <relation>        print a relation
//   \explain <eql>          show the query plan
//   \load <path>            load an .erel file (reports mapped/copied)
//   \save <path> [hash|range <P>]
//                           save the catalog as a v3 column image:
//                           monolithic, or with a scheme and partition
//                           count, partitioned
//   \deadline <ms>          per-query deadline in milliseconds (0 = off)
//   \budget <bytes>         per-query memory budget (0 = unlimited)
//   \rowcap <rows>          per-query output row cap (0 = unlimited)
//   \limits                 show the governor's limits and last-query usage
//   \quit                   exit
// anything else is executed as an EQL query, e.g.
//   SELECT rname FROM RA UNION RB WHERE rating IS {ex} WITH sn >= 0.8
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/str_util.h"
#include "core/query_context.h"
#include "core/scan_stats.h"
#include "query/engine.h"
#include "storage/erel_format.h"
#include "text/table_renderer.h"
#include "workload/paper_fixtures.h"

using namespace evident;  // NOLINT — example brevity

namespace {

Catalog DefaultCatalog() {
  Catalog catalog;
  (void)catalog.RegisterRelation(paper::TableRA().value());
  (void)catalog.RegisterRelation(paper::TableRB().value());
  (void)catalog.RegisterRelation(paper::TableMA().value());
  (void)catalog.RegisterRelation(paper::TableMB().value());
  (void)catalog.RegisterRelation(paper::TableRMA().value());
  (void)catalog.RegisterRelation(paper::TableRMB().value());
  return catalog;
}

/// Parses the non-negative integer argument of a governor command;
/// returns false (with a message) on malformed input. Digits only:
/// strtoull on its own would silently *accept* "-5" (it negates in
/// unsigned arithmetic, yielding a huge limit) and "5x"-style suffixes
/// would disarm limits via the 0 default upstream — both must be errors,
/// never a quietly weakened governor.
bool ParseLimit(const std::string& arg, uint64_t* out) {
  bool digits_only = !arg.empty();
  for (const char c : arg) {
    if (c < '0' || c > '9') {
      digits_only = false;
      break;
    }
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(arg.c_str(), &end, 10);
  if (!digits_only || errno != 0 || end != arg.c_str() + arg.size()) {
    std::printf("expected a non-negative integer, got '%s'\n", arg.c_str());
    return false;
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

/// Loads an .erel file into `catalog` (replacing same-named relations)
/// and reports how the open went: mapped vs copied, the on-disk format,
/// and how many relations / partitions the image carries. The shell is
/// the one caller that narrates opens, so the report lives here rather
/// than in the storage layer.
bool LoadIntoCatalog(Catalog& catalog, const std::string& path) {
  LoadInfo info;
  auto loaded = LoadErelFile(path, LoadOptions{}, &info);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error loading %s: %s\n", path.c_str(),
                 loaded.status().ToString().c_str());
    return false;
  }
  for (const std::string& name : loaded->RelationNames()) {
    (void)catalog.RegisterRelation(**loaded->GetRelation(name),
                                   /*replace=*/true);
  }
  std::printf("loaded %s: %zu relation(s), %zu partition(s), %s (%s)\n",
              path.c_str(), info.relations, info.partitions,
              info.mapped ? "mapped" : "copied", info.format.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Catalog catalog;
  if (argc > 1) {
    for (int i = 1; i < argc; ++i) {
      if (!LoadIntoCatalog(catalog, argv[i])) return 1;
    }
  } else {
    catalog = DefaultCatalog();
    std::printf("loaded the paper's example catalog (RA, RB, MA, MB, RMA, "
                "RMB)\n");
  }

  QueryEngine engine(&catalog);
  RenderOptions render;
  render.mass_decimals = 3;

  // The shell's resource governor: one context for the session, attached
  // to the engine only while at least one limit is set (the engine calls
  // BeginQuery per statement, so counters reset and the deadline re-arms
  // on every query).
  QueryContext governor;
  const auto sync_governor = [&] {
    const bool governed = governor.has_deadline() ||
                          governor.memory_budget() > 0 ||
                          governor.row_cap() > 0;
    engine.set_query_context(governed ? &governor : nullptr);
  };

  std::printf("evident shell — type \\tables, \\show <rel>, \\explain "
              "<eql>, \\load <path>, \\save <path>, \\deadline <ms>, "
              "\\budget <bytes>, \\rowcap <rows>, \\limits, \\quit, or an "
              "EQL query\n");
  std::string line;
  while (true) {
    std::printf("eql> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    const std::string input = Trim(line);
    if (input.empty()) continue;
    if (input == "\\quit" || input == "\\q") break;
    if (input == "\\tables") {
      // One snapshot for the whole listing: names, schemas and sizes all
      // describe the same catalog version.
      const auto snapshot = catalog.Snapshot();
      std::printf("catalog version %llu\n",
                  static_cast<unsigned long long>(snapshot->version()));
      for (const auto& [name, rel] : snapshot->relations()) {
        std::printf("  %-12s %s  [%zu tuples]\n", name.c_str(),
                    rel->schema()->ToString().c_str(), rel->size());
      }
      continue;
    }
    if (StartsWith(input, "\\show ")) {
      auto rel = catalog.GetRelation(Trim(input.substr(6)));
      if (!rel.ok()) {
        std::printf("%s\n", rel.status().ToString().c_str());
        continue;
      }
      render.title = (*rel)->name();
      std::printf("%s", RenderTable(**rel, render).c_str());
      continue;
    }
    if (StartsWith(input, "\\explain ")) {
      auto plan = engine.Explain(input.substr(9));
      std::printf("%s\n", plan.ok() ? plan->c_str()
                                    : plan.status().ToString().c_str());
      continue;
    }
    if (StartsWith(input, "\\load ")) {
      (void)LoadIntoCatalog(catalog, Trim(input.substr(6)));
      continue;
    }
    if (StartsWith(input, "\\save ")) {
      // "\save <path>" or "\save <path> hash|range <P>".
      const std::string rest = Trim(input.substr(6));
      const size_t space = rest.find(' ');
      const std::string path = rest.substr(0, space);
      PartitionSpec spec;
      if (space != std::string::npos) {
        const std::string spec_text = Trim(rest.substr(space + 1));
        const size_t spec_space = spec_text.find(' ');
        uint64_t parts = 0;
        if (spec_space == std::string::npos ||
            !ParseLimit(Trim(spec_text.substr(spec_space + 1)), &parts) ||
            parts == 0) {
          std::printf("usage: \\save <path> [hash|range <partitions>]\n");
          continue;
        }
        const std::string scheme = spec_text.substr(0, spec_space);
        if (scheme == "hash") {
          spec.scheme = PartitionSpec::Scheme::kHash;
        } else if (scheme == "range") {
          spec.scheme = PartitionSpec::Scheme::kKeyRange;
        } else {
          std::printf("unknown partition scheme '%s' (want hash or range)\n",
                      scheme.c_str());
          continue;
        }
        spec.partitions = static_cast<uint32_t>(parts);
      }
      const Status st = SaveErelFile(catalog, path, spec);
      std::printf("%s\n", st.ToString().c_str());
      continue;
    }
    if (StartsWith(input, "\\deadline ")) {
      uint64_t ms = 0;
      if (!ParseLimit(Trim(input.substr(10)), &ms)) continue;
      if (ms == 0) {
        governor.clear_deadline();
      } else {
        governor.set_deadline(std::chrono::milliseconds(ms));
      }
      sync_governor();
      std::printf("deadline: %s\n", ms == 0 ? "off"
                                            : (std::to_string(ms) + " ms").c_str());
      continue;
    }
    if (StartsWith(input, "\\budget ")) {
      uint64_t bytes = 0;
      if (!ParseLimit(Trim(input.substr(8)), &bytes)) continue;
      governor.set_memory_budget(bytes);
      sync_governor();
      std::printf("memory budget: %s\n",
                  bytes == 0 ? "unlimited"
                             : (std::to_string(bytes) + " bytes").c_str());
      continue;
    }
    if (StartsWith(input, "\\rowcap ")) {
      uint64_t rows = 0;
      if (!ParseLimit(Trim(input.substr(8)), &rows)) continue;
      governor.set_row_cap(rows);
      sync_governor();
      std::printf("row cap: %s\n", rows == 0 ? "unlimited"
                                             : std::to_string(rows).c_str());
      continue;
    }
    if (input == "\\limits") {
      if (governor.has_deadline()) {
        std::printf("  deadline:      %lld ms\n",
                    static_cast<long long>(
                        std::chrono::duration_cast<std::chrono::milliseconds>(
                            governor.deadline_duration())
                            .count()));
      } else {
        std::printf("  deadline:      off\n");
      }
      if (governor.memory_budget() > 0) {
        std::printf("  memory budget: %llu bytes\n",
                    static_cast<unsigned long long>(governor.memory_budget()));
      } else {
        std::printf("  memory budget: unlimited\n");
      }
      if (governor.row_cap() > 0) {
        std::printf("  row cap:       %llu rows\n",
                    static_cast<unsigned long long>(governor.row_cap()));
      } else {
        std::printf("  row cap:       unlimited\n");
      }
      std::printf("  last query:    %llu rows, %llu bytes charged, "
                  "%llu morsels\n",
                  static_cast<unsigned long long>(governor.rows_charged()),
                  static_cast<unsigned long long>(governor.bytes_charged()),
                  static_cast<unsigned long long>(governor.morsels_completed()));
      continue;
    }
    ResetScanStats();
    auto result = engine.Execute(input);
    if (!result.ok()) {
      std::printf("%s\n", result.status().ToString().c_str());
      continue;
    }
    render.title = "result (" + std::to_string(result->size()) + " tuples)";
    std::printf("%s", RenderTable(*result, render).c_str());
    const PartitionScanStats scan = CurrentScanStats();
    if (scan.partitions_considered > 0) {
      std::printf("scanned %llu partition(s), pruned %llu by zone maps\n",
                  static_cast<unsigned long long>(scan.partitions_considered),
                  static_cast<unsigned long long>(scan.partitions_pruned));
    }
  }
  return 0;
}
