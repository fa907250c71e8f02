#include "core/operations.h"

#include <algorithm>
#include <optional>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/math_util.h"
#include "core/bound_predicate.h"
#include "core/column_store.h"
#include "core/join_plan.h"
#include "core/parallel.h"
#include "core/query_context.h"

namespace evident {

namespace {

std::string KeyToString(const KeyVector& key) {
  std::string out;
  for (size_t i = 0; i < key.size(); ++i) {
    if (i) out += ",";
    out += key[i].ToString();
  }
  return out;
}

/// Minimum tuples per shard before the executor spawns a thread for it: a
/// per-tuple merge/probe is ~1-10 µs, so anything below this is cheaper
/// run inline than handed to a thread.
constexpr size_t kParallelGrain = 256;

/// Cap on up-front row reservations in operators whose output cardinality
/// is a *bound*, not a count (Product, Join): |L|·|R| can overflow size_t
/// or demand multi-GB buffers for inputs that are themselves modest.
/// Reserve at most this many rows and let the columns grow
/// geometrically past it.
constexpr size_t kMaxReserveRows = size_t{1} << 20;

/// min(l·r, kMaxReserveRows) without evaluating the overflowing product.
size_t CappedProductReserve(size_t l, size_t r) {
  if (l == 0 || r == 0) return 0;
  if (r > kMaxReserveRows / l) return kMaxReserveRows;
  return l * r;
}

/// Serial governed loops (product tiling, multiway enumeration, the
/// union verdict pass) poll the query context every this many
/// iterations — frequent enough that a 1 ms deadline lands mid-loop,
/// rare enough to stay invisible in profiles.
constexpr uint64_t kGovernorTick = 1024;

/// The operator-completion charge: output rows against the row cap, then
/// rows × FootprintPerRow(schema) against the memory budget. Charges
/// depend only on the logical output, so governed charge sequences — and
/// therefore budget/cap errors — are identical for any thread count or
/// fusion choice. Free when ungoverned.
Status GovernorChargeOutput(const RelationSchema& schema, uint64_t rows) {
  QueryContext* const ctx = CurrentQueryContext();
  if (ctx == nullptr) return Status::OK();
  return ctx->ChargeOutput(schema, rows);
}

/// After a parallel pass of a governed query: workers stop claiming
/// morsels once a limit trips, leaving later slots benignly empty —
/// surface the sticky first error instead of assembling a truncated
/// result.
Status GovernorAfterPass() {
  QueryContext* const ctx = CurrentQueryContext();
  if (ctx != nullptr && ctx->failed()) return ctx->first_error();
  return Status::OK();
}

/// The key of row `row` as Values, for error messages.
KeyVector KeyOfStoreRow(const ColumnStore& store, size_t row) {
  KeyVector key;
  for (size_t a : store.schema()->key_indices()) {
    key.push_back(store.value_column(a).values[row]);
  }
  return key;
}

/// Splices the rows listed in `keep` (ascending) out of `store` into a
/// fresh column image carrying `memberships` (parallel to `keep`) under
/// the same schema: ColumnStore::SpliceRows with the identity attribute
/// map. The shared row-subset primitive of the columnar operators
/// (Select's keep list, the pushdown prefilter, a fused probe's kept
/// rows, Intersect's merged rows).
ColumnStore SpliceKeptRows(const ColumnStore& store, std::string name,
                           const std::vector<uint32_t>& keep,
                           const std::vector<SupportPair>& memberships) {
  std::vector<size_t> identity(store.schema()->size());
  for (size_t a = 0; a < identity.size(); ++a) identity[a] = a;
  return ColumnStore::SpliceRows(store, store.schema(), std::move(name),
                                 identity, keep, memberships);
}

}  // namespace

FilterStage FilterStage::Select(const PredicatePtr& predicate,
                                const SchemaPtr& schema,
                                const MembershipThreshold& threshold) {
  FilterStage stage;
  stage.kind = Kind::kSelect;
  if (predicate != nullptr) {
    stage.conjuncts.push_back(BoundPredicate::Bind(predicate, schema));
  }
  stage.threshold = threshold;
  return stage;
}

FilterStage FilterStage::Prefilter(const std::vector<PredicatePtr>& conjuncts,
                                   const SchemaPtr& schema) {
  FilterStage stage;
  stage.kind = Kind::kPrefilter;
  stage.conjuncts.reserve(conjuncts.size());
  for (const PredicatePtr& conjunct : conjuncts) {
    stage.conjuncts.push_back(BoundPredicate::Bind(conjunct, schema));
  }
  return stage;
}

bool FilterStage::fully_bound() const {
  for (const BoundPredicate& conjunct : conjuncts) {
    if (!conjunct.fully_bound()) return false;
  }
  return true;
}

std::vector<uint8_t> RefutedPartitions(const ColumnStore& store,
                                       const std::vector<FilterStage>& stages,
                                       bool governed) {
  const std::vector<ColumnStore::PartitionZone>& parts = store.partitions();
  std::vector<uint8_t> refuted(parts.size(), 0);
  for (size_t s = 0; s < stages.size() && (s == 0 || !governed); ++s) {
    // A stage that could fail must see every row, and so must the ones
    // above it (they only see its survivors).
    if (!stages[s].fully_bound()) break;
    for (size_t p = 0; p < parts.size(); ++p) {
      for (const BoundPredicate& conjunct : stages[s].conjuncts) {
        if (refuted[p]) break;
        refuted[p] = conjunct.RefutesPartition(parts[p]);
      }
    }
  }
  return refuted;
}

Result<FilteredRows> FilterRows(const ColumnStore& store,
                                const std::vector<FilterStage>& stages) {
  QueryContext* const ctx = CurrentQueryContext();
  EVIDENT_ASSIGN_OR_RETURN(
      const std::vector<uint8_t> row_pruned,
      PruneAndVerifyPartitions(
          store, RefutedPartitions(store, stages, ctx != nullptr)));
  // The morsel domain is the compacted unpruned row set, so a
  // mostly-pruned scan costs O(surviving rows) per pass, not O(rows).
  const std::vector<std::pair<size_t, size_t>> runs =
      UnprunedRowRuns(store, row_pruned);
  size_t live = 0;
  for (const auto& run : runs) live += run.second - run.first;

  // Each morsel keeps its survivors (ascending); `memberships` is
  // parallel to `rows` once a select stage revised them (a prefilter
  // leaves the store's untouched). `failed_conjunct` numbers the failing
  // conjunct across all stages, so the lowest (stage, conjunct) is the
  // smallest number.
  struct MorselRows {
    std::vector<uint32_t> rows;
    std::vector<SupportPair> memberships;
    bool revised = false;
    std::vector<uint64_t> survivors;
    size_t failed_conjunct = 0;
    Status status;
  };
  std::vector<MorselRows> morsels(ParallelMorselCount(live, kParallelGrain));
  // Absolute-indexed (EvaluateColumns writes supports[row]); morsels
  // write disjoint rows.
  std::vector<SupportPair> supports(store.rows());
  ParallelForMorsels(live, kParallelGrain, [&](size_t morsel,
                                               size_t compact_begin,
                                               size_t compact_end) {
    MorselRows& out = morsels[morsel];
    std::vector<std::pair<size_t, size_t>> slices;
    ForEachRunSlice(runs, compact_begin, compact_end,
                    [&](size_t b, size_t e) { slices.emplace_back(b, e); });
    std::vector<uint32_t>& rows = out.rows;
    rows.reserve(compact_end - compact_begin);
    for (const auto& [slice_begin, slice_end] : slices) {
      for (size_t r = slice_begin; r < slice_end; ++r) {
        rows.push_back(static_cast<uint32_t>(r));
      }
    }
    out.survivors.reserve(stages.size());
    std::vector<uint8_t> dropped;
    size_t conjunct_number = 0;
    for (size_t s = 0; s < stages.size(); ++s) {
      const FilterStage& stage = stages[s];
      const bool select = stage.kind == FilterStage::Kind::kSelect;
      if (!select) dropped.assign(rows.size(), 0);
      for (const BoundPredicate& conjunct : stage.conjuncts) {
        // Stage 0 sweeps the morsel's slices contiguously; later stages
        // evaluate their survivors one row at a time, which is
        // arithmetic-identical (see EvaluateColumns).
        const size_t calls = s == 0 ? slices.size() : rows.size();
        for (size_t c = 0; c < calls; ++c) {
          const size_t begin = s == 0 ? slices[c].first : rows[c];
          const size_t end = s == 0 ? slices[c].second : rows[c] + 1;
          Status status =
              conjunct.EvaluateColumns(store, begin, end, supports.data());
          if (!status.ok()) {
            out.failed_conjunct = conjunct_number;
            out.status = std::move(status);
            return;
          }
        }
        ++conjunct_number;
        if (select) continue;
        for (size_t i = 0; i < rows.size(); ++i) {
          if (!supports[rows[i]].HasPositiveSupport()) dropped[i] = 1;
        }
      }
      if (select && !out.revised) {
        out.memberships.reserve(rows.size());
        for (uint32_t r : rows) out.memberships.push_back(store.membership(r));
        out.revised = true;
      }
      size_t kept = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        if (select) {
          // F_TM: predicate satisfaction and original membership are
          // treated as independent events (Figure 3); then CWA_ER
          // consistency and the threshold.
          const SupportPair revised = out.memberships[i].Multiply(
              stage.conjuncts.empty() ? SupportPair::Certain()
                                      : supports[rows[i]]);
          if (!revised.HasPositiveSupport() ||
              !stage.threshold.Accepts(revised)) {
            continue;
          }
          out.memberships[kept] = revised;
        } else if (dropped[i]) {
          continue;
        } else if (out.revised) {
          out.memberships[kept] = out.memberships[i];
        }
        rows[kept++] = rows[i];
      }
      rows.resize(kept);
      if (out.revised) out.memberships.resize(kept);
      out.survivors.push_back(kept);
    }
  });
  EVIDENT_RETURN_NOT_OK(GovernorAfterPass());
  const MorselRows* first_failure = nullptr;
  for (const MorselRows& morsel : morsels) {
    if (!morsel.status.ok() &&
        (first_failure == nullptr ||
         morsel.failed_conjunct < first_failure->failed_conjunct)) {
      first_failure = &morsel;
    }
  }
  if (first_failure != nullptr) return first_failure->status;

  FilteredRows filtered;
  size_t total = 0;
  for (const MorselRows& morsel : morsels) total += morsel.rows.size();
  filtered.rows.reserve(total);
  filtered.memberships.reserve(total);
  filtered.stage_survivors.assign(stages.size(), 0);
  for (const MorselRows& morsel : morsels) {
    filtered.rows.insert(filtered.rows.end(), morsel.rows.begin(),
                         morsel.rows.end());
    if (morsel.revised) {
      filtered.memberships.insert(filtered.memberships.end(),
                                  morsel.memberships.begin(),
                                  morsel.memberships.end());
    } else {
      for (uint32_t r : morsel.rows) {
        filtered.memberships.push_back(store.membership(r));
      }
    }
    for (size_t s = 0; s < stages.size(); ++s) {
      filtered.stage_survivors[s] += morsel.survivors[s];
    }
  }
  return filtered;
}

Result<ExtendedRelation> Select(const ExtendedRelation& input,
                                const PredicatePtr& predicate,
                                const MembershipThreshold& threshold) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("null selection predicate");
  }
  const ColumnStore& store = input.columns();
  EVIDENT_ASSIGN_OR_RETURN(
      const FilteredRows kept,
      FilterRows(store, {FilterStage::Select(predicate, input.schema(),
                                             threshold)}));
  EVIDENT_RETURN_NOT_OK(
      GovernorChargeOutput(*input.schema(), kept.rows.size()));
  return ExtendedRelation::AdoptColumns(
      SpliceKeptRows(store, "select(" + input.name() + ")", kept.rows,
                     kept.memberships));
}

Result<ExtendedRelation> FilterPositiveSupport(
    const ExtendedRelation& input,
    const std::vector<PredicatePtr>& conjuncts) {
  for (const PredicatePtr& conjunct : conjuncts) {
    if (conjunct == nullptr) {
      return Status::InvalidArgument("null prefilter conjunct");
    }
  }
  const ColumnStore& store = input.columns();
  EVIDENT_ASSIGN_OR_RETURN(
      const FilteredRows kept,
      FilterRows(store, {FilterStage::Prefilter(conjuncts, input.schema())}));
  EVIDENT_RETURN_NOT_OK(
      GovernorChargeOutput(*input.schema(), kept.rows.size()));
  return ExtendedRelation::AdoptColumns(
      SpliceKeptRows(store, input.name(), kept.rows, kept.memberships));
}

Result<SupportPair> CombineMembership(const SupportPair& a,
                                      const SupportPair& b,
                                      CombinationRule rule) {
  // All four rules have closed forms on the boolean frame Ψ =
  // {true, false}; no mass function is ever materialized. Cross-checked
  // against the generic ds/combination engine by the operations tests.
  const double t1 = a.TrueMass(), f1 = a.FalseMass(), u1 = a.UnknownMass();
  const double t2 = b.TrueMass(), f2 = b.FalseMass(), u2 = b.UnknownMass();
  switch (rule) {
    case CombinationRule::kDempster:
      return a.CombineDempster(b);
    case CombinationRule::kTBM: {
      // The caller-facing support pair cannot carry empty-set mass, so
      // the conjunctive result is renormalized — which is exactly
      // Dempster's rule, including the total-conflict failure.
      return a.CombineDempster(b);
    }
    case CombinationRule::kYager: {
      // Conflict becomes ignorance: m(Ψ) = u1·u2 + kappa.
      const double t = t1 * t2 + t1 * u2 + u1 * t2;
      const double f = f1 * f2 + f1 * u2 + u1 * f2;
      return SupportPair{ClampUnit(t), ClampUnit(1.0 - f)};
    }
    case CombinationRule::kMixing: {
      const double t = 0.5 * (t1 + t2);
      const double f = 0.5 * (f1 + f2);
      return SupportPair{ClampUnit(t), ClampUnit(1.0 - f)};
    }
  }
  return Status::InvalidArgument("unknown combination rule");
}

namespace {

/// Extended union. Four phases over the operands' ColumnStore images:
///
///  1. Probe — every left row's key is encoded off the contiguous key
///     value columns into a reused buffer and looked up in the right
///     relation's flat encoded-key index (no per-row key
///     materialization), sharded across threads.
///  2. Batch combine — for each packed uncertain attribute, the matched
///     row pairs go through CombineColumnBatch over the contiguous focal
///     spans, sharded over the pair range (each shard handles all
///     attributes of its pair slice for locality). Wide (> 64 value)
///     domains keep the row-store kernel and are combined in the verdict
///     pass.
///  3. Verdict — a serial pass in left-row order applies the conflict
///     policies in schema-attribute order (the first left row's first
///     conflicting attribute decides the error) and combines memberships
///     via the closed forms, deciding for each output row where its
///     cells come from.
///  4. Build — the output's column image is assembled column-at-a-time
///     by splicing value/span slices from the operand stores and the
///     batch results, and adopted as a relation: no row objects, no
///     index inserts.
///
/// Fixed morsel boundaries and the serial verdict make the result
/// bit-identical for any thread count.
///
/// When `merged_tags` is non-null it receives one byte per output row —
/// 1 for a merged pair (the entity exists in both sources), 0 for a row
/// retained from a single source. Intersect consumes this instead of
/// re-encoding and re-probing the keys this pass already resolved.
Result<ExtendedRelation> MergeByKey(const ExtendedRelation& left,
                                    const ExtendedRelation& right,
                                    const UnionOptions& options,
                                    std::vector<uint8_t>* merged_tags) {
  const SchemaPtr& schema = left.schema();
  const size_t n = left.size();
  const ColumnStore& left_store = left.columns();
  const ColumnStore& right_store = right.columns();
  const EncodedKeyIndex& right_index = right.key_index();

  // Phase 1: probe off the left store's cached encoded-key arena — for a
  // catalog relation the arena persists across queries, so repeated
  // scans skip re-encoding entirely. (The raw index probe, not
  // FindByKey: a miss per unmatched left row must not build a NotFound
  // Status string.)
  static_assert(EncodedKeyIndex::kNoRow ==
                std::numeric_limits<uint32_t>::max());
  constexpr uint32_t kNoMatch = EncodedKeyIndex::kNoRow;
  const ColumnStore::EncodedKeys& left_keys = left_store.encoded_keys();
  std::vector<uint32_t> match(n, kNoMatch);
  ParallelForMorsels(n, kParallelGrain,
                     [&](size_t, size_t begin, size_t end) {
                       for (size_t i = begin; i < end; ++i) {
                         match[i] = right_index.Find(left_keys.key(i));
                       }
                     });
  EVIDENT_RETURN_NOT_OK(GovernorAfterPass());

  std::vector<uint32_t> pair_left, pair_right;
  for (size_t i = 0; i < n; ++i) {
    if (match[i] != kNoMatch) {
      pair_left.push_back(static_cast<uint32_t>(i));
      pair_right.push_back(match[i]);
    }
  }
  const size_t pairs = pair_left.size();

  // Phase 2: batch combine per packed uncertain attribute.
  struct AttrBatch {
    size_t attr = 0;
    const ColumnStore::EvidenceColumn* left_col = nullptr;
    const ColumnStore::EvidenceColumn* right_col = nullptr;
    std::vector<BatchCombineResult> morsels;
  };
  std::vector<AttrBatch> batches;
  std::vector<int> batch_of_attr(schema->size(), -1);
  std::vector<int> boxed_slot_of_attr(schema->size(), -1);
  std::vector<std::vector<std::optional<EvidenceSet>>> boxed_results;
  for (size_t a = 0; a < schema->size(); ++a) {
    if (schema->attribute(a).kind != AttributeKind::kUncertain) continue;
    if (left_store.kind(a) == ColumnStore::ColumnKind::kEvidence) {
      batch_of_attr[a] = static_cast<int>(batches.size());
      AttrBatch batch;
      batch.attr = a;
      batch.left_col = &left_store.evidence_column(a);
      batch.right_col = &right_store.evidence_column(a);
      batches.push_back(std::move(batch));
    } else {
      boxed_slot_of_attr[a] = static_cast<int>(boxed_results.size());
      boxed_results.emplace_back(pairs);  // slots filled by the verdict pass
    }
  }
  // Combine over morsels of the pair range, pulled from the shared
  // morsel queue: a hot key that funnels many pairs into one region no
  // longer straggles a static shard — fast workers just claim more
  // morsels. Fixed boundaries (pair p lives in morsel p / grain at slot
  // p % grain) let the verdict and build passes address results without
  // any cursor bookkeeping.
  const size_t morsel_count = ParallelMorselCount(pairs, kParallelGrain);
  if (pairs > 0) {
    // Size every per-morsel output before the workers start: each morsel
    // writes only its own slot.
    for (AttrBatch& batch : batches) batch.morsels.resize(morsel_count);
    ParallelForMorsels(
        pairs, kParallelGrain, [&](size_t morsel, size_t begin, size_t end) {
          for (AttrBatch& batch : batches) {
            CombineColumnBatch(batch.left_col->universe, options.rule,
                               batch.left_col->Spans(),
                               pair_left.data() + begin,
                               batch.right_col->Spans(),
                               pair_right.data() + begin, end - begin,
                               &batch.morsels[morsel]);
          }
        });
    EVIDENT_RETURN_NOT_OK(GovernorAfterPass());
  }

  // Phase 3: verdict, in left-row order.
  enum class RowSource : uint8_t { kLeft, kMerged, kRight };
  struct OutRow {
    RowSource source;
    uint32_t src;   // left row (kLeft, kMerged) or right row (kRight)
    uint32_t pair;  // kMerged: index into the pair lists
  };
  std::vector<OutRow> out_rows;
  out_rows.reserve(n + right.size() - pairs);
  std::vector<SupportPair> pair_membership(pairs);
  size_t pair_index = 0;
  QueryContext* const ctx = CurrentQueryContext();
  for (size_t i = 0; i < n; ++i) {
    if (ctx != nullptr && (i + 1) % kGovernorTick == 0) {
      EVIDENT_RETURN_NOT_OK(ctx->PollTick());
    }
    if (match[i] == kNoMatch) {
      out_rows.push_back({RowSource::kLeft, static_cast<uint32_t>(i), 0});
      continue;
    }
    const size_t local = pair_index % kParallelGrain;
    const size_t right_row = match[i];
    bool skip = false;
    for (size_t a = 0; a < schema->size() && !skip; ++a) {
      const AttributeDef& attr = schema->attribute(a);
      switch (attr.kind) {
        case AttributeKind::kKey:
          break;
        case AttributeKind::kDefinite: {
          const Value& lv = left_store.value_column(a).values[i];
          const Value& rv = right_store.value_column(a).values[right_row];
          if (lv == rv) break;
          if (options.on_definite_conflict == DefiniteConflictPolicy::kError) {
            return Status::Incompatible(
                "definite attribute '" + attr.name + "' conflicts on key (" +
                KeyToString(KeyOfStoreRow(left_store, i)) + "): " +
                lv.ToString() + " vs " + rv.ToString() +
                "; attribute preprocessing should have aligned these");
          }
          // kPreferLeft/kPreferRight: the build pass picks the side.
          break;
        }
        case AttributeKind::kUncertain: {
          bool conflict;
          const int boxed_slot = boxed_slot_of_attr[a];
          if (boxed_slot < 0) {
            conflict = batches[batch_of_attr[a]]
                           .morsels[pair_index / kParallelGrain]
                           .total_conflict[local] != 0;
          } else {
            // Wide domain: row-store kernel, combined here (serially) so
            // the error/skip precedence stays in attribute order.
            Result<EvidenceSet> combined = CombineEvidenceTrusted(
                left_store.boxed_column(a).sets[i],
                right_store.boxed_column(a).sets[right_row], options.rule);
            if (combined.ok()) {
              boxed_results[boxed_slot][pair_index] =
                  std::move(combined).value();
              break;
            }
            if (combined.status().code() != StatusCode::kTotalConflict) {
              return combined.status();
            }
            conflict = true;
          }
          if (!conflict) break;
          switch (options.on_total_conflict) {
            case TotalConflictPolicy::kError:
              return Status::TotalConflict(
                  "attribute '" + attr.name + "' of key (" +
                  KeyToString(KeyOfStoreRow(left_store, i)) +
                  ") is totally conflicting between the sources: " +
                  left_store.MaterializeEvidence(a, i).ToString() + " vs " +
                  right_store.MaterializeEvidence(a, right_row).ToString() +
                  "; the data administrators must be informed");
            case TotalConflictPolicy::kSkipTuple:
              skip = true;
              break;
            case TotalConflictPolicy::kVacuous:
              // The build pass substitutes the vacuous span (packed) or
              // evidence set (boxed).
              if (boxed_slot >= 0) {
                boxed_results[boxed_slot][pair_index] =
                    EvidenceSet::Vacuous(attr.domain);
              }
              break;
          }
          break;
        }
      }
    }
    if (skip) {
      ++pair_index;
      continue;
    }

    Result<SupportPair> membership = CombineMembership(
        left_store.membership(i), right_store.membership(right_row),
        options.rule);
    if (!membership.ok()) {
      if (membership.status().code() != StatusCode::kTotalConflict) {
        return membership.status();
      }
      switch (options.on_total_conflict) {
        case TotalConflictPolicy::kError:
          return Status::TotalConflict(
              "membership of key (" +
              KeyToString(KeyOfStoreRow(left_store, i)) +
              ") is totally conflicting between the sources");
        case TotalConflictPolicy::kSkipTuple:
          ++pair_index;
          skip = true;
          break;
        case TotalConflictPolicy::kVacuous:
          membership = SupportPair::Unknown();
          break;
      }
      if (skip) continue;
    }
    pair_membership[pair_index] = *membership;
    out_rows.push_back({RowSource::kMerged, static_cast<uint32_t>(i),
                        static_cast<uint32_t>(pair_index)});
    ++pair_index;
  }
  {
    std::vector<uint8_t> matched_right(right.size(), 0);
    for (uint32_t j : pair_right) matched_right[j] = 1;
    for (size_t j = 0; j < right.size(); ++j) {
      if (!matched_right[j]) {
        out_rows.push_back({RowSource::kRight, static_cast<uint32_t>(j), 0});
      }
    }
  }
  if (merged_tags != nullptr) {
    merged_tags->clear();
    merged_tags->reserve(out_rows.size());
    for (const OutRow& row : out_rows) {
      merged_tags->push_back(row.source == RowSource::kMerged ? 1 : 0);
    }
  }

  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*schema, out_rows.size()));

  // Phase 4: build the output's column image.
  ColumnStore out = ColumnStore::EmptyLike(
      schema, left.name() + " u " + right.name());
  out.ReserveRows(out_rows.size());
  for (size_t a = 0; a < schema->size(); ++a) {
    const AttributeDef& attr = schema->attribute(a);
    switch (left_store.kind(a)) {
      case ColumnStore::ColumnKind::kValue: {
        const std::vector<Value>& lvals = left_store.value_column(a).values;
        const std::vector<Value>& rvals = right_store.value_column(a).values;
        // Merged definite cells take the left value unless the policy
        // prefers the right side *and* the cells actually conflict — on
        // equality the left cell is kept, which matters for
        // cross-kind-equal values (int 1 vs real 1.0).
        const bool prefer_right =
            attr.kind == AttributeKind::kDefinite &&
            options.on_definite_conflict == DefiniteConflictPolicy::kPreferRight;
        std::vector<Value>& dst = out.value_column_mut(a).values;
        dst.reserve(out_rows.size());
        for (const OutRow& row : out_rows) {
          switch (row.source) {
            case RowSource::kLeft:
              dst.push_back(lvals[row.src]);
              break;
            case RowSource::kMerged: {
              const Value& lv = lvals[row.src];
              if (prefer_right) {
                const Value& rv = rvals[pair_right[row.pair]];
                dst.push_back(lv == rv ? lv : rv);
              } else {
                dst.push_back(lv);
              }
              break;
            }
            case RowSource::kRight:
              dst.push_back(rvals[row.src]);
              break;
          }
        }
        break;
      }
      case ColumnStore::ColumnKind::kEvidence: {
        const ColumnStore::EvidenceColumn& lcol =
            left_store.evidence_column(a);
        const ColumnStore::EvidenceColumn& rcol =
            right_store.evidence_column(a);
        const AttrBatch& batch = batches[batch_of_attr[a]];
        const uint64_t full = lcol.universe >= 64
                                  ? ~uint64_t{0}
                                  : (uint64_t{1} << lcol.universe) - 1;
        ColumnStore::EvidenceColumn& dst = out.evidence_column_mut(a);
        dst.words.reserve(lcol.words.size() + rcol.words.size());
        dst.masses.reserve(lcol.words.size() + rcol.words.size());
        dst.offsets.reserve(out_rows.size() + 1);
        for (const OutRow& row : out_rows) {
          switch (row.source) {
            case RowSource::kLeft:
              dst.AppendRowFrom(lcol, row.src);
              break;
            case RowSource::kRight:
              dst.AppendRowFrom(rcol, row.src);
              break;
            case RowSource::kMerged: {
              const size_t local = row.pair % kParallelGrain;
              const BatchCombineResult& result =
                  batch.morsels[row.pair / kParallelGrain];
              if (result.total_conflict[local]) {
                // Policy kVacuous (kError/kSkipTuple rows never reach the
                // build pass): total ignorance, all mass on the frame.
                dst.words.push_back(full);
                dst.masses.push_back(1.0);
                dst.offsets.push_back(
                    static_cast<uint32_t>(dst.words.size()));
              } else {
                const uint32_t first = result.offsets[local];
                const uint32_t last = result.offsets[local + 1];
                dst.words.insert(dst.words.end(),
                                 result.words.begin() + first,
                                 result.words.begin() + last);
                dst.masses.insert(dst.masses.end(),
                                  result.masses.begin() + first,
                                  result.masses.begin() + last);
                dst.offsets.push_back(
                    static_cast<uint32_t>(dst.words.size()));
              }
              break;
            }
          }
        }
        break;
      }
      case ColumnStore::ColumnKind::kBoxed: {
        const std::vector<EvidenceSet>& lsets =
            left_store.boxed_column(a).sets;
        const std::vector<EvidenceSet>& rsets =
            right_store.boxed_column(a).sets;
        std::vector<EvidenceSet>& dst = out.boxed_column_mut(a).sets;
        dst.reserve(out_rows.size());
        std::vector<std::optional<EvidenceSet>>& combined =
            boxed_results[boxed_slot_of_attr[a]];
        for (const OutRow& row : out_rows) {
          switch (row.source) {
            case RowSource::kLeft:
              dst.push_back(lsets[row.src]);
              break;
            case RowSource::kMerged:
              dst.push_back(std::move(*combined[row.pair]));
              break;
            case RowSource::kRight:
              dst.push_back(rsets[row.src]);
              break;
          }
        }
        break;
      }
    }
  }
  for (const OutRow& row : out_rows) {
    switch (row.source) {
      case RowSource::kLeft:
        out.AppendMembership(left_store.membership(row.src));
        break;
      case RowSource::kMerged:
        out.AppendMembership(pair_membership[row.pair]);
        break;
      case RowSource::kRight:
        out.AppendMembership(right_store.membership(row.src));
        break;
    }
  }
  return ExtendedRelation::AdoptColumns(std::move(out));
}

}  // namespace

Status CheckUnionCompatible(const ExtendedRelation& left,
                            const ExtendedRelation& right) {
  if (left.schema() == nullptr || right.schema() == nullptr) {
    return Status::InvalidArgument("union of relations without schemas");
  }
  if (!left.schema()->UnionCompatibleWith(*right.schema())) {
    return Status::Incompatible(
        "relations are not union-compatible: " + left.schema()->ToString() +
        " vs " + right.schema()->ToString());
  }
  return Status::OK();
}

Result<ExtendedRelation> Union(const ExtendedRelation& left,
                               const ExtendedRelation& right,
                               const UnionOptions& options) {
  EVIDENT_RETURN_NOT_OK(CheckUnionCompatible(left, right));
  return MergeByKey(left, right, options, /*merged_tags=*/nullptr);
}

Result<ExtendedRelation> Intersect(const ExtendedRelation& left,
                                   const ExtendedRelation& right,
                                   const UnionOptions& options) {
  EVIDENT_RETURN_NOT_OK(CheckUnionCompatible(left, right));
  // The union's probe pass already resolved which rows are merged pairs,
  // and "key in both sources" holds exactly for those: a left-retained
  // row's key missed the right index and a right-retained row's key was
  // never matched. Splice them out of the union's column image — no
  // re-encoding, no re-probing.
  std::vector<uint8_t> merged_tags;
  EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation merged,
                           MergeByKey(left, right, options, &merged_tags));
  const ColumnStore& store = merged.columns();
  std::vector<uint32_t> keep;
  std::vector<SupportPair> memberships;
  for (size_t i = 0; i < merged_tags.size(); ++i) {
    if (!merged_tags[i]) continue;
    keep.push_back(static_cast<uint32_t>(i));
    memberships.push_back(store.membership(i));
  }
  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*merged.schema(), keep.size()));
  return ExtendedRelation::AdoptColumns(SpliceKeptRows(
      store, left.name() + " n " + right.name(), keep, memberships));
}

Result<ExtendedRelation> UnionAll(const std::vector<ExtendedRelation>& sources,
                                  const UnionOptions& options) {
  if (sources.empty()) {
    return Status::InvalidArgument("UnionAll over an empty source list");
  }
  ExtendedRelation acc = sources.front();
  for (size_t i = 1; i < sources.size(); ++i) {
    EVIDENT_ASSIGN_OR_RETURN(acc, Union(acc, sources[i], options));
  }
  return acc;
}

namespace {

/// Extended projection: each picked column is spliced as one
/// whole-column copy (no combination, no per-row objects), dropped
/// columns are never touched. Key uniqueness is re-checked over encoded
/// keys — reusing the input's cached encoded-key arena whenever the
/// projection keeps the key attributes in schema order (it always does
/// for engine-built projections, which prepend the keys), re-encoding
/// off the projected key columns otherwise.
Result<ExtendedRelation> ProjectColumns(const ExtendedRelation& input,
                                         const std::vector<size_t>& indices,
                                         const SchemaPtr& schema) {
  const ColumnStore& store = input.columns();
  const size_t n = store.rows();
  ColumnStore out =
      ColumnStore::EmptyLike(schema, "project(" + input.name() + ")");
  out.ReserveRows(n);
  for (size_t a = 0; a < schema->size(); ++a) {
    const size_t src_attr = indices[a];
    switch (store.kind(src_attr)) {
      case ColumnStore::ColumnKind::kValue:
        out.value_column_mut(a).values = store.value_column(src_attr).values;
        break;
      case ColumnStore::ColumnKind::kEvidence: {
        const ColumnStore::EvidenceColumn& src =
            store.evidence_column(src_attr);
        ColumnStore::EvidenceColumn& dst = out.evidence_column_mut(a);
        dst.words = src.words;
        dst.masses = src.masses;
        dst.offsets = src.offsets;
        break;
      }
      case ColumnStore::ColumnKind::kBoxed:
        out.boxed_column_mut(a).sets = store.boxed_column(src_attr).sets;
        break;
    }
  }
  for (size_t r = 0; r < n; ++r) out.AppendMembership(store.membership(r));

  // Key-uniqueness check with the insert-time duplicate-key message.
  // Projections retain every key attribute, so this can only fire on an
  // input whose own keys were corrupted.
  const bool same_key_order = [&] {
    const std::vector<size_t>& in_keys = input.schema()->key_indices();
    const std::vector<size_t>& out_keys = schema->key_indices();
    if (in_keys.size() != out_keys.size()) return false;
    for (size_t k = 0; k < out_keys.size(); ++k) {
      if (indices[out_keys[k]] != in_keys[k]) return false;
    }
    return true;
  }();
  EncodedKeyIndex unique;
  unique.Reserve(n);
  std::string scratch;
  for (size_t r = 0; r < n; ++r) {
    std::string_view key;
    if (same_key_order) {
      key = store.encoded_keys().key(r);
    } else {
      out.EncodeKeyOfRow(r, &scratch);
      key = scratch;
    }
    if (unique.Insert(key) != EncodedKeyIndex::kNoRow) {
      return MakeDuplicateKeyError(KeyOfStoreRow(out, r), out.name());
    }
  }
  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*schema, n));
  return ExtendedRelation::AdoptColumns(std::move(out));
}

}  // namespace

Result<SchemaPtr> ResolveProjectionSchema(
    const RelationSchema& schema, const std::vector<std::string>& attributes,
    std::vector<size_t>* indices) {
  if (attributes.empty()) {
    return Status::InvalidArgument("projection list must be non-empty");
  }
  std::vector<AttributeDef> defs;
  std::unordered_set<std::string> chosen;
  for (const std::string& name : attributes) {
    EVIDENT_ASSIGN_OR_RETURN(size_t index, schema.IndexOf(name));
    if (!chosen.insert(name).second) {
      return Status::InvalidArgument("attribute '" + name +
                                     "' appears twice in projection");
    }
    if (indices != nullptr) indices->push_back(index);
    defs.push_back(schema.attribute(index));
  }
  // The paper's projection keeps the key attributes (and always the
  // membership attribute), which also guarantees the projection needs no
  // duplicate elimination.
  for (size_t key_index : schema.key_indices()) {
    if (chosen.count(schema.attribute(key_index).name) == 0) {
      return Status::InvalidArgument(
          "projection must retain key attribute '" +
          schema.attribute(key_index).name + "'");
    }
  }
  return RelationSchema::Make(std::move(defs));
}

Result<ExtendedRelation> Project(const ExtendedRelation& input,
                                 const std::vector<std::string>& attributes) {
  if (input.schema() == nullptr) {
    return Status::InvalidArgument("projection of a relation without schema");
  }
  std::vector<size_t> indices;
  EVIDENT_ASSIGN_OR_RETURN(
      SchemaPtr schema,
      ResolveProjectionSchema(*input.schema(), attributes, &indices));
  return ProjectColumns(input, indices, schema);
}

Result<SchemaPtr> MakeProductSchema(const ExtendedRelation& left,
                                    const ExtendedRelation& right) {
  if (left.schema() == nullptr || right.schema() == nullptr) {
    return Status::InvalidArgument("product of relations without schemas");
  }
  // Concatenate the attribute lists, qualifying colliding names.
  std::unordered_set<std::string> left_names;
  for (const AttributeDef& a : left.schema()->attributes()) {
    left_names.insert(a.name);
  }
  std::vector<AttributeDef> defs;
  defs.reserve(left.schema()->size() + right.schema()->size());
  for (const AttributeDef& a : left.schema()->attributes()) {
    AttributeDef d = a;
    if (right.schema()->Has(a.name)) {
      if (left.name().empty() || left.name() == right.name()) {
        return Status::InvalidArgument(
            "attribute '" + a.name +
            "' appears in both operands and the relation names cannot "
            "disambiguate; rename it first");
      }
      d.name = left.name() + "." + a.name;
    }
    defs.push_back(std::move(d));
  }
  for (const AttributeDef& a : right.schema()->attributes()) {
    AttributeDef d = a;
    if (left_names.count(a.name) > 0) {
      if (right.name().empty() || left.name() == right.name()) {
        return Status::InvalidArgument(
            "attribute '" + a.name +
            "' appears in both operands and the relation names cannot "
            "disambiguate; rename it first");
      }
      d.name = right.name() + "." + a.name;
    }
    defs.push_back(std::move(d));
  }
  return RelationSchema::Make(std::move(defs));
}

namespace {

/// The focal-span arena reservation bound for the columnar splice paths:
/// the same 2^20 cap CappedProductReserve applies to row reservations.
/// Join/Product output arenas are sized from a *bound* (pairs x average
/// span), and a pathological high-match-rate join can push that bound
/// into the billions while the operands stay modest — reserve at most
/// this many entries and let the arena grow geometrically past it.
size_t CappedArenaReserve(size_t rows, size_t avg_span) {
  if (rows == 0) return 0;
  if (avg_span == 0) avg_span = 1;
  if (avg_span > kMaxReserveRows / rows) return kMaxReserveRows;
  return rows * avg_span;
}

/// Splices the output column image of a concatenated-tuple operator
/// (Join, Product, the n-way join): output row t takes operand i's cells
/// from `stores[i]` row rows[i][t]; `memberships` supplies the revised
/// membership per output row. Key/definite columns are copied
/// value-by-value, packed uncertain columns have their (word, mass)
/// focal spans repacked with rebased offsets
/// (EvidenceColumn::AppendRowFrom), boxed sets are shared — no row
/// objects exist at any point.
ColumnStore SpliceTupleColumns(
    const SchemaPtr& schema, std::string name,
    const std::vector<const ColumnStore*>& stores,
    const std::vector<const std::vector<uint32_t>*>& rows,
    const std::vector<SupportPair>& memberships) {
  const size_t n = memberships.size();
  ColumnStore out = ColumnStore::EmptyLike(schema, std::move(name));
  out.ReserveRows(n);
  size_t a = 0;  // output attribute
  for (size_t i = 0; i < stores.size(); ++i) {
    const ColumnStore& src_store = *stores[i];
    const std::vector<uint32_t>& src_rows = *rows[i];
    // The product schema qualifies colliding names but keeps kinds and
    // domains, so the output's column kinds equal the source's.
    for (size_t src_attr = 0; src_attr < src_store.schema()->size();
         ++src_attr, ++a) {
      switch (src_store.kind(src_attr)) {
        case ColumnStore::ColumnKind::kValue: {
          const std::vector<Value>& src =
              src_store.value_column(src_attr).values;
          std::vector<Value>& dst = out.value_column_mut(a).values;
          dst.reserve(n);
          for (uint32_t r : src_rows) dst.push_back(src[r]);
          break;
        }
        case ColumnStore::ColumnKind::kEvidence: {
          const ColumnStore::EvidenceColumn& src =
              src_store.evidence_column(src_attr);
          ColumnStore::EvidenceColumn& dst = out.evidence_column_mut(a);
          const size_t avg =
              src.words.size() / std::max<size_t>(src_store.rows(), 1);
          dst.words.reserve(CappedArenaReserve(n, avg + 1));
          dst.masses.reserve(CappedArenaReserve(n, avg + 1));
          dst.offsets.reserve(n + 1);
          for (uint32_t r : src_rows) dst.AppendRowFrom(src, r);
          break;
        }
        case ColumnStore::ColumnKind::kBoxed: {
          const std::vector<EvidenceSet>& src =
              src_store.boxed_column(src_attr).sets;
          std::vector<EvidenceSet>& dst = out.boxed_column_mut(a).sets;
          dst.reserve(n);
          for (uint32_t r : src_rows) dst.push_back(src[r]);
          break;
        }
      }
    }
  }
  for (const SupportPair& m : memberships) out.AppendMembership(m);
  return out;
}

/// Hash of the definite cells at `indices` of store row `row` (Value::Hash
/// makes 1 and 1.0 agree, matching operator==, so equal keys hash
/// equally across operands).
uint64_t StoreKeyHash(const ColumnStore& store, size_t row,
                      const std::vector<size_t>& indices) {
  uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (size_t i : indices) {
    h ^= static_cast<uint64_t>(store.value_column(i).values[row].Hash()) +
         0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

bool StoreKeysEqual(const ColumnStore& a, size_t a_row,
                    const std::vector<size_t>& a_indices,
                    const ColumnStore& b, size_t b_row,
                    const std::vector<size_t>& b_indices) {
  for (size_t k = 0; k < a_indices.size(); ++k) {
    if (!(a.value_column(a_indices[k]).values[a_row] ==
          b.value_column(b_indices[k]).values[b_row])) {
      return false;
    }
  }
  return true;
}

/// The hash equi-join. Three phases over the operands' column stores:
///
///  1. Build — an open-addressing table on the build operand's equi-key
///     cells, hashed straight off the contiguous key/definite value
///     columns (slots hold the first row of each distinct key;
///     duplicate-key rows chain in ascending row order).
///  2. Probe — probe rows in morsels across threads; each matched
///     (left, right) pair evaluates the bound residual over the packed
///     spans (EvaluatePairColumns; the equi-conjuncts contribute exactly
///     (1,1) on a match, so only key-matching pairs are evaluated),
///     computes the revised membership, and survives CWA_ER + threshold
///     filtering before anything is allocated for it. A morsel stops at
///     its first residual error; the first failing morsel in order holds
///     the first failing pair.
///  3. Splice — the surviving pairs' column slices are copied by span
///     into a fresh column image (SpliceTupleColumns).
///
/// Pairs are emitted grouped by probe row (probe rows ascending, build
/// chains ascending, morsels concatenated in order), so the result is
/// deterministic for any thread count.
///
/// `probe_rows` (may be null) restricts the probe to those ascending
/// rows (a FusedJoinProbe): morsels are cut over the list exactly as
/// over a materialized probe operand holding only those rows, so pairs,
/// order and charges are identical to probing that operand.
Result<ExtendedRelation> HashEquiJoin(const ExtendedRelation& left,
                                      const ExtendedRelation& right,
                                      const JoinPlan& plan,
                                      const SchemaPtr& schema,
                                      const MembershipThreshold& threshold,
                                      const BoundPredicate* residual,
                                      const std::vector<uint32_t>* probe_rows,
                                      bool build_left, std::string name) {
  const ColumnStore& lstore = left.columns();
  const ColumnStore& rstore = right.columns();
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  const ColumnStore& build = build_left ? lstore : rstore;
  const ColumnStore& probe = build_left ? rstore : lstore;
  // The build pass hashes every build row, so the build image must be
  // fully verified. Probe rows from FilterRows lie in partitions it
  // already verified; the pruned ones are never touched.
  EVIDENT_RETURN_NOT_OK(build.EnsureAllVerified());
  if (probe_rows == nullptr) {
    EVIDENT_RETURN_NOT_OK(probe.EnsureAllVerified());
  }
  std::vector<size_t> build_indices, probe_indices;
  build_indices.reserve(plan.keys.size());
  probe_indices.reserve(plan.keys.size());
  for (const EquiKey& key : plan.keys) {
    build_indices.push_back(build_left ? key.left_index : key.right_index);
    probe_indices.push_back(build_left ? key.right_index : key.left_index);
  }

  const size_t build_size = build.rows();
  size_t capacity = 16;
  while (capacity < 2 * build_size) capacity <<= 1;
  const uint64_t mask = capacity - 1;
  std::vector<uint32_t> slot_row(capacity, kEmpty);  // first row of the key
  std::vector<uint32_t> chain(build_size, kEmpty);   // same-key successors
  std::vector<uint64_t> row_hash(build_size);
  for (size_t i = 0; i < build_size; ++i) {
    row_hash[i] = StoreKeyHash(build, i, build_indices);
  }
  // Insert rows in reverse: each insertion prepends to its key's chain,
  // so chains end up in ascending row order for deterministic probing.
  for (size_t i = build_size; i-- > 0;) {
    size_t s = row_hash[i] & mask;
    while (slot_row[s] != kEmpty &&
           !(row_hash[slot_row[s]] == row_hash[i] &&
             StoreKeysEqual(build, slot_row[s], build_indices, build, i,
                            build_indices))) {
      s = (s + 1) & mask;
    }
    if (slot_row[s] != kEmpty) chain[i] = slot_row[s];
    slot_row[s] = static_cast<uint32_t>(i);
  }

  struct MorselPairs {
    std::vector<uint32_t> pair_left, pair_right;
    std::vector<SupportPair> memberships;
  };
  const size_t probe_count =
      probe_rows != nullptr ? probe_rows->size() : probe.rows();
  const size_t morsel_count = ParallelMorselCount(probe_count, kParallelGrain);
  std::vector<MorselPairs> morsels(morsel_count);
  // residual_status[m] is the first residual error in morsel m.
  std::vector<Status> residual_status(morsel_count);
  ParallelForMorsels(
      probe_count, kParallelGrain,
      [&](size_t morsel, size_t begin, size_t end) {
        MorselPairs& out = morsels[morsel];
        for (size_t i = begin; i < end; ++i) {
          const size_t p = probe_rows != nullptr ? (*probe_rows)[i] : i;
          const uint64_t h = StoreKeyHash(probe, p, probe_indices);
          size_t s = h & mask;
          uint32_t head = kEmpty;
          while (slot_row[s] != kEmpty) {
            const uint32_t candidate = slot_row[s];
            if (row_hash[candidate] == h &&
                StoreKeysEqual(build, candidate, build_indices, probe, p,
                               probe_indices)) {
              head = candidate;
              break;
            }
            s = (s + 1) & mask;
          }
          for (uint32_t b = head; b != kEmpty; b = chain[b]) {
            const uint32_t l =
                build_left ? b : static_cast<uint32_t>(p);
            const uint32_t r =
                build_left ? static_cast<uint32_t>(p) : b;
            // The equi-conjuncts contribute exactly (1,1) on a match, so
            // the full predicate's support reduces to the residual's.
            SupportPair support = SupportPair::Certain();
            if (residual != nullptr) {
              Status& status = residual_status[morsel];
              status =
                  residual->EvaluatePairColumns(lstore, l, rstore, r, &support);
              if (!status.ok()) return;
            }
            const SupportPair revised = lstore.membership(l)
                                            .Multiply(rstore.membership(r))
                                            .Multiply(support);
            if (!revised.HasPositiveSupport()) continue;  // CWA_ER.
            if (!threshold.Accepts(revised)) continue;
            out.pair_left.push_back(l);
            out.pair_right.push_back(r);
            out.memberships.push_back(revised);
          }
        }
        // Incremental row-cap charge per morsel: the pair counts are
        // thread-count invariant, so the cap trips (count-free message)
        // identically. Errors are sticky; the post-pass check surfaces
        // them.
        if (QueryContext* const ctx = CurrentQueryContext()) {
          (void)ctx->ChargeRows(out.pair_left.size());
        }
      });
  EVIDENT_RETURN_NOT_OK(GovernorAfterPass());
  // Morsels are ascending probe ranges and each stops at its first
  // failing pair, so the first failing morsel holds the first failing
  // pair — at any thread count.
  for (const Status& status : residual_status) EVIDENT_RETURN_NOT_OK(status);
  size_t total = 0;
  for (const MorselPairs& morsel : morsels) total += morsel.pair_left.size();
  if (QueryContext* const ctx = CurrentQueryContext()) {
    EVIDENT_RETURN_NOT_OK(ctx->ChargeMemory(*schema, total));
  }
  std::vector<uint32_t> pair_left, pair_right;
  std::vector<SupportPair> memberships;
  pair_left.reserve(total);
  pair_right.reserve(total);
  memberships.reserve(total);
  for (const MorselPairs& morsel : morsels) {
    pair_left.insert(pair_left.end(), morsel.pair_left.begin(),
                     morsel.pair_left.end());
    pair_right.insert(pair_right.end(), morsel.pair_right.begin(),
                      morsel.pair_right.end());
    memberships.insert(memberships.end(), morsel.memberships.begin(),
                       morsel.memberships.end());
  }
  return ExtendedRelation::AdoptColumns(
      SpliceTupleColumns(schema, std::move(name), {&lstore, &rstore},
                         {&pair_left, &pair_right}, memberships));
}

/// The cartesian product over an already-built product schema, shared by
/// Product and the join's no-equi-conjunct path: left columns repeat
/// each row |R| times, right columns tile |L| times, memberships are the
/// F_TM products — in left-major order, spliced straight into the
/// output's column image.
Result<ExtendedRelation> ProductWithSchema(const ExtendedRelation& left,
                                           const ExtendedRelation& right,
                                           const SchemaPtr& schema) {
  const ColumnStore& lstore = left.columns();
  const ColumnStore& rstore = right.columns();
  const size_t ln = lstore.rows();
  const size_t rn = rstore.rows();
  const size_t reserve = CappedProductReserve(ln, rn);
  std::vector<uint32_t> pair_left, pair_right;
  std::vector<SupportPair> memberships;
  pair_left.reserve(reserve);
  pair_right.reserve(reserve);
  memberships.reserve(reserve);
  // The governed tiling loop charges the row cap in kGovernorTick-sized
  // batches and polls the deadline with them: |L|·|R| can dwarf the
  // operand sizes, so a runaway product must trip mid-loop, not after
  // materializing everything.
  QueryContext* const ctx = CurrentQueryContext();
  uint64_t pending = 0;
  for (size_t i = 0; i < ln; ++i) {
    const SupportPair lm = lstore.membership(i);
    for (size_t j = 0; j < rn; ++j) {
      if (ctx != nullptr && ++pending == kGovernorTick) {
        EVIDENT_RETURN_NOT_OK(ctx->ChargeRows(pending));
        pending = 0;
        EVIDENT_RETURN_NOT_OK(ctx->PollTick());
      }
      pair_left.push_back(static_cast<uint32_t>(i));
      pair_right.push_back(static_cast<uint32_t>(j));
      memberships.push_back(lm.Multiply(rstore.membership(j)));  // F_TM
    }
  }
  if (ctx != nullptr) {
    EVIDENT_RETURN_NOT_OK(ctx->ChargeRows(pending));
    EVIDENT_RETURN_NOT_OK(
        ctx->ChargeMemory(*schema, static_cast<uint64_t>(ln) * rn));
  }
  return ExtendedRelation::AdoptColumns(SpliceTupleColumns(
      schema, left.name() + " x " + right.name(), {&lstore, &rstore},
      {&pair_left, &pair_right}, memberships));
}

}  // namespace

Result<ExtendedRelation> Product(const ExtendedRelation& left,
                                 const ExtendedRelation& right) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeProductSchema(left, right));
  return ProductWithSchema(left, right, schema);
}

Result<ExtendedRelation> Join(const ExtendedRelation& left,
                              const ExtendedRelation& right,
                              const PredicatePtr& predicate,
                              const MembershipThreshold& threshold) {
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, MakeProductSchema(left, right));
  return JoinWithProductSchema(left, right, predicate, threshold,
                               std::move(schema));
}

Result<ExtendedRelation> JoinWithProductSchema(
    const ExtendedRelation& left, const ExtendedRelation& right,
    const PredicatePtr& predicate, const MembershipThreshold& threshold,
    SchemaPtr schema, JoinBuildSide build_side,
    const FusedJoinProbe* fused_probe) {
  if (predicate == nullptr) {
    return Status::InvalidArgument("null selection predicate");
  }
  if (fused_probe != nullptr && build_side == JoinBuildSide::kAuto) {
    return Status::InvalidArgument(
        "a fused join probe requires an explicit build side");
  }
  const bool probe_is_left = build_side == JoinBuildSide::kRight;
  const bool left_empty = fused_probe != nullptr && probe_is_left
                              ? fused_probe->rows.empty()
                              : left.empty();
  const bool right_empty = fused_probe != nullptr && !probe_is_left
                               ? fused_probe->rows.empty()
                               : right.empty();
  ExtendedRelation out("select(" + left.name() + " x " + right.name() + ")",
                       schema);
  if (left_empty || right_empty) {
    // The product is empty; selection over it never evaluates the
    // predicate, and neither do we.
    return out;
  }
  EVIDENT_ASSIGN_OR_RETURN(
      JoinPlan plan,
      AnalyzeJoinPredicate(predicate, *schema, left.schema()->size()));
  const bool build_left = build_side == JoinBuildSide::kAuto
                              ? left.size() < right.size()
                              : build_side == JoinBuildSide::kLeft;
  // The hash table stores row indices (and its empty-slot sentinel) in
  // uint32_t; a build operand at or beyond that bound — unreachable for
  // in-memory relations today — takes the product path rather than
  // silently aliasing rows.
  const bool table_fits =
      (build_left ? left.size() : right.size()) <
      static_cast<size_t>(std::numeric_limits<uint32_t>::max());
  if (plan.keys.empty() || !table_fits) {
    if (fused_probe != nullptr) {
      // Materialize the probe side's kept rows, then join without
      // fusion — the unfused plan by construction.
      const ExtendedRelation& probe = probe_is_left ? left : right;
      const ColumnStore& store = probe.columns();
      std::vector<SupportPair> memberships;
      memberships.reserve(fused_probe->rows.size());
      for (uint32_t r : fused_probe->rows) {
        memberships.push_back(store.membership(r));
      }
      const ExtendedRelation filtered = ExtendedRelation::AdoptColumns(
          SpliceKeptRows(store, probe.name(), fused_probe->rows, memberships));
      return JoinWithProductSchema(probe_is_left ? filtered : left,
                                   probe_is_left ? right : filtered,
                                   predicate, threshold, std::move(schema),
                                   build_side);
    }
    // No definite equi-conjunct to partition on: the paper's definition,
    // σ̃ over the materialized product.
    EVIDENT_ASSIGN_OR_RETURN(ExtendedRelation product,
                             ProductWithSchema(left, right, schema));
    return Select(product, predicate, threshold);
  }
  BoundPredicate bound_residual;
  if (plan.residual != nullptr) {
    bound_residual =
        BoundPredicate::BindPair(plan.residual, schema, left.schema()->size());
  }
  return HashEquiJoin(left, right, plan, schema, threshold,
                      plan.residual != nullptr ? &bound_residual : nullptr,
                      fused_probe != nullptr ? &fused_probe->rows : nullptr,
                      build_left, out.name());
}

Result<SchemaPtr> MakeMultiwayProductSchema(
    const std::vector<const ExtendedRelation*>& operands) {
  std::unordered_map<std::string, size_t> name_count;
  size_t total_attrs = 0;
  for (const ExtendedRelation* op : operands) {
    if (op->schema() == nullptr) {
      return Status::InvalidArgument("product of relations without schemas");
    }
    total_attrs += op->schema()->size();
    for (const AttributeDef& a : op->schema()->attributes()) {
      ++name_count[a.name];
    }
  }
  auto ambiguous = [](const std::string& name) {
    return Status::InvalidArgument(
        "attribute '" + name +
        "' appears in multiple operands and the relation names cannot "
        "disambiguate; rename it first");
  };
  std::unordered_set<std::string> used;
  used.reserve(total_attrs);
  std::vector<AttributeDef> defs;
  defs.reserve(total_attrs);
  for (const ExtendedRelation* op : operands) {
    for (const AttributeDef& a : op->schema()->attributes()) {
      AttributeDef d = a;
      if (name_count[a.name] > 1) {
        if (op->name().empty()) return ambiguous(a.name);
        d.name = op->name() + "." + a.name;
      }
      if (!used.insert(d.name).second) return ambiguous(a.name);
      defs.push_back(std::move(d));
    }
  }
  return RelationSchema::Make(std::move(defs));
}

Result<ExtendedRelation> MultiwayJoinProduct(
    const std::vector<const ExtendedRelation*>& operands,
    const SchemaPtr& product_schema, const PredicatePtr& predicate,
    const MembershipThreshold& threshold,
    const std::vector<size_t>& join_order) {
  const size_t n_ops = operands.size();
  if (n_ops < 2) {
    return Status::InvalidArgument(
        "multiway join needs at least two operands");
  }
  std::vector<size_t> order = join_order;
  if (order.empty()) {
    order.resize(n_ops);
    for (size_t i = 0; i < n_ops; ++i) order[i] = i;
  }
  {
    std::vector<bool> seen(n_ops, false);
    bool valid = order.size() == n_ops;
    for (size_t i : order) {
      if (!valid || i >= n_ops || seen[i]) {
        valid = false;
        break;
      }
      seen[i] = true;
    }
    if (!valid) {
      return Status::InvalidArgument(
          "join order is not a permutation of the operands");
    }
  }

  std::string product_name = operands[0]->name();
  for (size_t i = 1; i < n_ops; ++i) {
    product_name += " x " + operands[i]->name();
  }
  for (const ExtendedRelation* op : operands) {
    if (op->empty()) {
      // The product is empty; selection over it never evaluates the
      // predicate, and neither do we.
      return ExtendedRelation(predicate != nullptr
                                  ? "select(" + product_name + ")"
                                  : product_name,
                              product_schema);
    }
  }

  // Match-set row ids are uint32; an operand at or beyond that bound is
  // unreachable for in-memory relations today.
  for (const ExtendedRelation* op : operands) {
    if (op->size() >=
        static_cast<size_t>(std::numeric_limits<uint32_t>::max())) {
      return Status::OutOfRange("multiway join operand '" + op->name() +
                                "' exceeds 2^32 - 1 rows");
    }
  }

  std::vector<const ColumnStore*> stores;
  std::vector<size_t> attr_counts;
  stores.reserve(n_ops);
  attr_counts.reserve(n_ops);
  for (const ExtendedRelation* op : operands) {
    stores.push_back(&op->columns());
    attr_counts.push_back(op->schema()->size());
  }
  // Dropping a combination before the predicate sees it is legal only
  // when evaluation cannot fail; a predicate with an interpreted conjunct
  // prunes nothing, so it sees the full product in FROM order and its
  // first error is the definition's.
  const std::vector<MultiJoinEdge> edges =
      predicate != nullptr &&
              BoundPredicate::Bind(predicate, product_schema).fully_bound()
          ? AnalyzeMultiJoinEdges(predicate, *product_schema, attr_counts)
          : std::vector<MultiJoinEdge>{};

  // The match set: cols[k][t] is the row of operand order[k] in the t-th
  // surviving combination. Tuples stay sorted join_order-major because
  // every step visits them (and, within an equi step, each ascending
  // hash chain) in ascending order.
  constexpr uint32_t kEmptySlot = std::numeric_limits<uint32_t>::max();
  std::vector<std::vector<uint32_t>> cols(1);
  std::vector<size_t> pos_of_op(n_ops, 0);
  std::vector<bool> placed(n_ops, false);
  {
    const size_t first = order[0];
    cols[0].resize(stores[first]->rows());
    for (size_t r = 0; r < cols[0].size(); ++r) {
      cols[0][r] = static_cast<uint32_t>(r);
    }
    pos_of_op[first] = 0;
    placed[first] = true;
  }

  // Enumeration is serial and can visit far more combinations than it
  // keeps; poll the governed deadline every ~kGovernorTick visited
  // tuples. The intermediate match set is deliberately uncharged (its
  // size depends on join_order; only the final output is charged), so
  // only the polls bound a hostile shape.
  QueryContext* const query_ctx = CurrentQueryContext();
  uint64_t tick = 0;

  for (size_t k = 1; k < n_ops; ++k) {
    const size_t opj = order[k];
    const ColumnStore& bstore = *stores[opj];
    const size_t count = cols[0].size();
    // Edges connecting the incoming operand to the placed set: the
    // incoming side becomes the hash-build key, the placed side the
    // probe key (read through the match set's columns).
    std::vector<size_t> build_attrs;
    struct ProbeRef {
      const ColumnStore* store;
      size_t attr;
      size_t col;
    };
    std::vector<ProbeRef> probe_refs;
    for (const MultiJoinEdge& e : edges) {
      size_t local, other, other_attr;
      if (e.left_operand == opj && placed[e.right_operand]) {
        local = e.left_index;
        other = e.right_operand;
        other_attr = e.right_index;
      } else if (e.right_operand == opj && placed[e.left_operand]) {
        local = e.right_index;
        other = e.left_operand;
        other_attr = e.left_index;
      } else {
        continue;
      }
      build_attrs.push_back(local);
      probe_refs.push_back(ProbeRef{stores[other], other_attr,
                                    pos_of_op[other]});
    }

    std::vector<std::vector<uint32_t>> next(k + 1);
    const size_t bn = bstore.rows();
    if (build_attrs.empty()) {
      // No connecting edge: cross step.
      const size_t reserve = CappedProductReserve(count, bn);
      for (auto& col : next) col.reserve(reserve);
      for (size_t t = 0; t < count; ++t) {
        for (size_t r = 0; r < bn; ++r) {
          if (query_ctx != nullptr && ++tick % kGovernorTick == 0) {
            EVIDENT_RETURN_NOT_OK(query_ctx->PollTick());
          }
          for (size_t kk = 0; kk < k; ++kk) next[kk].push_back(cols[kk][t]);
          next[k].push_back(static_cast<uint32_t>(r));
        }
      }
    } else {
      // Hash the incoming operand on its edge attributes (chains kept
      // ascending by reverse insertion), probe with each match tuple.
      size_t capacity = 1;
      while (capacity < bn * 2) capacity <<= 1;
      const uint64_t mask = capacity - 1;
      std::vector<uint32_t> heads(capacity, kEmptySlot);
      std::vector<uint32_t> chain(bn, kEmptySlot);
      for (size_t r = bn; r-- > 0;) {
        const uint64_t h = StoreKeyHash(bstore, r, build_attrs);
        const size_t bucket = static_cast<size_t>(h & mask);
        chain[r] = heads[bucket];
        heads[bucket] = static_cast<uint32_t>(r);
      }
      for (size_t t = 0; t < count; ++t) {
        if (query_ctx != nullptr && ++tick % kGovernorTick == 0) {
          EVIDENT_RETURN_NOT_OK(query_ctx->PollTick());
        }
        // Probe hash mixed in build_attrs order, exactly like
        // StoreKeyHash, so equal keys land in the same bucket.
        uint64_t h = 0x9e3779b97f4a7c15ULL;
        for (const ProbeRef& ref : probe_refs) {
          h ^= static_cast<uint64_t>(
                   ref.store->value_column(ref.attr)
                       .values[cols[ref.col][t]]
                       .Hash()) +
               0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
        }
        for (uint32_t r = heads[static_cast<size_t>(h & mask)];
             r != kEmptySlot; r = chain[r]) {
          bool match = true;
          for (size_t kk = 0; kk < build_attrs.size(); ++kk) {
            const ProbeRef& ref = probe_refs[kk];
            if (!(bstore.value_column(build_attrs[kk]).values[r] ==
                  ref.store->value_column(ref.attr)
                      .values[cols[ref.col][t]])) {
              match = false;
              break;
            }
          }
          if (!match) continue;
          for (size_t kk = 0; kk < k; ++kk) next[kk].push_back(cols[kk][t]);
          next[k].push_back(r);
        }
      }
    }
    cols = std::move(next);
    pos_of_op[opj] = k;
    placed[opj] = true;
  }

  // Restore left-major (FROM) order: the definition's row order, which
  // any join_order must reproduce.
  const size_t count = cols[0].size();
  std::vector<const std::vector<uint32_t>*> by_from(n_ops);
  for (size_t i = 0; i < n_ops; ++i) by_from[i] = &cols[pos_of_op[i]];
  std::vector<size_t> perm(count);
  for (size_t t = 0; t < count; ++t) perm[t] = t;
  std::sort(perm.begin(), perm.end(), [&](size_t a, size_t b) {
    for (size_t i = 0; i < n_ops; ++i) {
      const uint32_t va = (*by_from[i])[a];
      const uint32_t vb = (*by_from[i])[b];
      if (va != vb) return va < vb;
    }
    return false;
  });

  std::vector<std::vector<uint32_t>> sorted(n_ops,
                                            std::vector<uint32_t>(count));
  std::vector<SupportPair> memberships(count);
  for (size_t k = 0; k < count; ++k) {
    if (query_ctx != nullptr && ++tick % kGovernorTick == 0) {
      EVIDENT_RETURN_NOT_OK(query_ctx->PollTick());
    }
    for (size_t i = 0; i < n_ops; ++i) {
      sorted[i][k] = (*by_from[i])[perm[k]];
      const SupportPair m = stores[i]->membership(sorted[i][k]);
      memberships[k] = i == 0 ? m : memberships[k].Multiply(m);  // F_TM
    }
  }
  std::vector<const std::vector<uint32_t>*> rows_of(n_ops);
  for (size_t i = 0; i < n_ops; ++i) rows_of[i] = &sorted[i];
  ExtendedRelation product = ExtendedRelation::AdoptColumns(SpliceTupleColumns(
      product_schema, product_name, stores, rows_of, memberships));
  if (predicate == nullptr) {
    // Pure product: the full cross is the operator output; with a
    // predicate the Select below charges the final output instead.
    EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*product_schema, count));
    return product;
  }
  return Select(product, predicate, threshold);
}

Result<ExtendedRelation> RenameAttribute(const ExtendedRelation& input,
                                         const std::string& from,
                                         const std::string& to) {
  if (input.schema() == nullptr) {
    return Status::InvalidArgument("rename on a relation without schema");
  }
  EVIDENT_ASSIGN_OR_RETURN(size_t index, input.schema()->IndexOf(from));
  if (input.schema()->Has(to)) {
    return Status::AlreadyExists("attribute '" + to + "' already exists");
  }
  std::vector<AttributeDef> defs = input.schema()->attributes();
  defs[index].name = to;
  EVIDENT_ASSIGN_OR_RETURN(SchemaPtr schema, RelationSchema::Make(defs));
  // The logical charge model bills the renamed output even though the
  // image is adopted zero-copy: charges depend on the logical plan, not
  // the storage layout.
  EVIDENT_RETURN_NOT_OK(GovernorChargeOutput(*schema, input.size()));
  // A rename changes no cell: adopt the operand's column image under the
  // renamed schema (same attribute kinds and domains, so the column
  // layout is identical).
  return ExtendedRelation::AdoptColumns(
      ColumnStore::WithSchema(input.columns(), schema, input.name()));
}

}  // namespace evident
