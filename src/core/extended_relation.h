#ifndef EVIDENT_CORE_EXTENDED_RELATION_H_
#define EVIDENT_CORE_EXTENDED_RELATION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "core/key_index.h"
#include "core/lazy_value.h"
#include "core/schema.h"
#include "core/tuple.h"

namespace evident {

class ColumnStore;

/// \brief The duplicate-key rejection every insert path reports —
/// shared by ExtendedRelation::InsertTrusted and the operators that
/// replay the duplicate check over encoded keys (Project's uniqueness
/// pass, MergeTuples' rekey pass), so the messages are byte-identical.
Status MakeDuplicateKeyError(const KeyVector& key,
                             const std::string& relation_name);

/// \brief Transparent hash over encoded keys for callers that keep their
/// own key sets (e.g. MergeTuples' matched-key bookkeeping); pairs with
/// std::equal_to<> so string_view probes allocate nothing.
struct EncodedKeyHash {
  using is_transparent = void;
  size_t operator()(std::string_view key) const {
    return std::hash<std::string_view>()(key);
  }
};

/// \brief An extended relation (the paper's §2.3): tuples with definite
/// keys, evidence-set non-key attributes, and a per-tuple membership
/// support pair, stored under the generalized closed world assumption
/// CWA_ER.
///
/// CWA_ER: every *stored* tuple has sn > 0; a tuple not stored is
/// interpreted as having sn = 0 (no necessary support for its existence)
/// with unconstrained sp. Insert enforces this; InsertUnchecked exists so
/// tests and the boundedness property checker can materialize complement
/// relations whose hypothetical tuples have sn = 0.
///
/// A relation is a view over one ColumnStore: its column image is the
/// only row container. The relational operators build their outputs as
/// a ColumnStore (AdoptColumns) and execute over column images; Insert
/// and its variants append to the image through ColumnStore::AppendRow.
/// Copies share the store, and an append first takes a private copy of
/// a shared store, so appending never changes another relation. row(i)
/// is an inspection view that decodes one tuple and caches nothing. The
/// key index is built at most once through LazyValue and then
/// maintained by appends, so every const member is safe to call from
/// any number of threads (catalog relations, pinned snapshots and
/// returned results are read concurrently); like any non-const call, an
/// insert needs exclusive access to the relation.
class ExtendedRelation {
 public:
  ExtendedRelation();
  ExtendedRelation(std::string name, SchemaPtr schema);

  /// \brief Wraps a column image as a relation. The
  /// store's row keys must be unique — the operators' outputs guarantee
  /// this by construction (a relation's keys are unique and the
  /// operators only ever narrow or disjointly combine key sets); the
  /// lazily-built index does not re-check.
  static ExtendedRelation AdoptColumns(ColumnStore store);

  /// \brief AdoptColumns plus a fully built key index (the EVCIMG03
  /// loader's path, restoring the persisted index image so a loaded
  /// catalog probes without re-hashing every key). The index's rows must
  /// be the store's rows in order.
  static ExtendedRelation AdoptColumnsWithIndex(ColumnStore store,
                                                EncodedKeyIndex index);

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  const SchemaPtr& schema() const { return schema_; }

  size_t size() const;
  bool empty() const { return size() == 0; }
  /// \brief Tuple `i` by value, decoded from the column image (nothing
  /// is cached). Loops over many rows should read columns() instead.
  ExtendedTuple row(size_t i) const;

  /// \brief Pre-sizes the column image and key index for `n` more
  /// inserts.
  void Reserve(size_t n);

  /// \brief Validates the tuple against the schema and CWA_ER (sn > 0)
  /// and appends it. Fails with AlreadyExists on a duplicate key, and
  /// with the load error of a mapped image whose deferred checks fail.
  Status Insert(ExtendedTuple tuple);

  /// \brief Like Insert but skips the sn > 0 check (still validates
  /// shape, domains and 0 ≤ sn ≤ sp ≤ 1). For complements and tests.
  Status InsertUnchecked(ExtendedTuple tuple);

  /// \brief Appends a tuple already known to satisfy this relation's
  /// schema — cells taken (or combined) from relations validated against
  /// a union-compatible schema. Skips per-cell validation entirely; the
  /// duplicate-key check and key index are still maintained. For
  /// builders whose cells are valid by construction: per-tuple
  /// revalidation of unchanged evidence sets dominates their cost.
  Status InsertTrusted(ExtendedTuple tuple);

  /// \brief The key of `tuple` under this relation's schema.
  KeyVector KeyOf(const ExtendedTuple& tuple) const;

  /// \brief Writes the canonical byte encoding of `tuple`'s key cells to
  /// `out` (cleared first) — the index's storage form.
  void EncodeKeyOf(const ExtendedTuple& tuple, std::string* out) const;

  /// \brief Index of the row with key `key`, or NotFound.
  Result<size_t> FindByKey(const KeyVector& key) const;
  bool ContainsKey(const KeyVector& key) const;

  /// \brief The key index over encoded keys (see EncodeKeyOf) — the
  /// allocation-free probe the operators use: Find returns the row or
  /// EncodedKeyIndex::kNoRow. Built on first use (once, thread-safely)
  /// from the store's encoded keys, then maintained by inserts.
  const EncodedKeyIndex& key_index() const;

  /// \brief The column-major image holding this relation's tuples.
  const ColumnStore& columns() const { return *columns_; }

  /// \brief Checks every stored tuple against the schema and the CWA_ER
  /// invariant; used by property tests and after deserialization.
  Status ValidateInvariants() const;

  /// \brief Structural near-equality (same schema, same keys mapping to
  /// tuples whose cells and membership agree within eps); row order is
  /// ignored, matching set semantics of relations.
  bool ApproxEquals(const ExtendedRelation& other, double eps = 1e-9) const;

  /// \brief Multi-line debug rendering (one tuple per line).
  std::string ToString(int mass_decimals = 6) const;

 private:
  Status ValidateTuple(const ExtendedTuple& tuple, bool require_positive_sn)
      const;
  /// The store for an append: drives any deferred checks of a mapped
  /// image first (returning the load error they report), then takes a
  /// private copy of a store other relations share.
  Result<ColumnStore*> WritableColumns();

  std::string name_;
  SchemaPtr schema_;
  std::shared_ptr<ColumnStore> columns_;  // never null; shared by copies
  LazyValue<EncodedKeyIndex> key_index_;
};

}  // namespace evident

#endif  // EVIDENT_CORE_EXTENDED_RELATION_H_
