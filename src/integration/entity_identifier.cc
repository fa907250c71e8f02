#include "integration/entity_identifier.h"

#include <algorithm>
#include <unordered_set>

#include "common/str_util.h"
#include "core/column_store.h"

namespace evident {

Result<MatchingInfo> MatchByKey(const ExtendedRelation& left,
                                const ExtendedRelation& right) {
  if (left.schema() == nullptr || right.schema() == nullptr ||
      !left.schema()->UnionCompatibleWith(*right.schema())) {
    return Status::Incompatible(
        "key-based matching requires union-compatible relations");
  }
  MatchingInfo info;
  std::unordered_set<size_t> matched_right;
  const ColumnStore::EncodedKeys& left_keys = left.columns().encoded_keys();
  for (size_t i = 0; i < left.size(); ++i) {
    const uint32_t found = right.key_index().Find(left_keys.key(i));
    if (found != EncodedKeyIndex::kNoRow) {
      info.matches.push_back(TupleMatch{i, found, 1.0});
      matched_right.insert(found);
    } else {
      info.unmatched_left.push_back(i);
    }
  }
  for (size_t j = 0; j < right.size(); ++j) {
    if (matched_right.count(j) == 0) info.unmatched_right.push_back(j);
  }
  return info;
}

Result<MatchingInfo> MatchBySimilarity(const ExtendedRelation& left,
                                       const ExtendedRelation& right,
                                       const SimilarityMatchOptions& options) {
  if (left.schema() == nullptr || right.schema() == nullptr) {
    return Status::InvalidArgument("relations must have schemas");
  }
  // Resolve the attribute set: indices valid in both schemas, definite.
  std::vector<std::pair<size_t, size_t>> columns;
  if (options.compare_attributes.empty()) {
    for (const AttributeDef& attr : left.schema()->attributes()) {
      if (attr.is_uncertain()) continue;
      if (!right.schema()->Has(attr.name)) continue;
      columns.emplace_back(left.schema()->IndexOf(attr.name).value(),
                           right.schema()->IndexOf(attr.name).value());
    }
  } else {
    for (const std::string& name : options.compare_attributes) {
      EVIDENT_ASSIGN_OR_RETURN(size_t li, left.schema()->IndexOf(name));
      EVIDENT_ASSIGN_OR_RETURN(size_t ri, right.schema()->IndexOf(name));
      if (left.schema()->attribute(li).is_uncertain() ||
          right.schema()->attribute(ri).is_uncertain()) {
        return Status::InvalidArgument(
            "similarity matching compares definite attributes; '" + name +
            "' is uncertain");
      }
      columns.emplace_back(li, ri);
    }
  }
  if (columns.empty()) {
    return Status::InvalidArgument("no comparable definite attributes");
  }

  struct Candidate {
    size_t left_row;
    size_t right_row;
    double score;
  };
  std::vector<Candidate> candidates;
  const ColumnStore& left_store = left.columns();
  const ColumnStore& right_store = right.columns();
  for (size_t i = 0; i < left.size(); ++i) {
    for (size_t j = 0; j < right.size(); ++j) {
      double total = 0.0;
      for (const auto& [li, ri] : columns) {
        const Value& lv = left_store.value_column(li).values[i];
        const Value& rv = right_store.value_column(ri).values[j];
        total += StringSimilarity(lv.ToString(), rv.ToString());
      }
      const double score = total / static_cast<double>(columns.size());
      if (score >= options.threshold) {
        candidates.push_back(Candidate{i, j, score});
      }
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.left_row != b.left_row) return a.left_row < b.left_row;
              return a.right_row < b.right_row;
            });

  MatchingInfo info;
  std::unordered_set<size_t> used_left;
  std::unordered_set<size_t> used_right;
  for (const Candidate& c : candidates) {
    if (used_left.count(c.left_row) || used_right.count(c.right_row)) {
      continue;
    }
    used_left.insert(c.left_row);
    used_right.insert(c.right_row);
    info.matches.push_back(TupleMatch{c.left_row, c.right_row, c.score});
  }
  for (size_t i = 0; i < left.size(); ++i) {
    if (used_left.count(i) == 0) info.unmatched_left.push_back(i);
  }
  for (size_t j = 0; j < right.size(); ++j) {
    if (used_right.count(j) == 0) info.unmatched_right.push_back(j);
  }
  return info;
}

}  // namespace evident
