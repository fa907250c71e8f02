#include "digest.h"

#include <cstring>
#include <string>
#include <variant>

namespace perfbench {

namespace {

uint64_t Mix(uint64_t h, uint64_t v) {
  // splitmix64 finalizer over the running state.
  uint64_t z = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Bits(double d) {
  uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

uint64_t HashString(uint64_t h, const std::string& s) {
  h = Mix(h, s.size());
  for (unsigned char c : s) h = Mix(h, c);
  return h;
}

uint64_t HashValue(uint64_t h, const evident::Value& v) {
  using Kind = evident::Value::Kind;
  h = Mix(h, static_cast<uint64_t>(v.kind()));
  switch (v.kind()) {
    case Kind::kInt:
      return Mix(h, static_cast<uint64_t>(v.int_value()));
    case Kind::kReal:
      return Mix(h, Bits(v.real_value()));
    case Kind::kString:
      return HashString(h, v.string_value());
  }
  return h;
}

uint64_t HashEvidence(uint64_t h, const evident::EvidenceSet& es) {
  const auto& focals = es.mass().focals();
  h = Mix(h, focals.size());
  for (const auto& [set, mass] : focals) {
    if (set.IsInline()) {
      h = Mix(h, set.InlineWord());
    } else {
      for (size_t index : set.Indices()) h = Mix(h, index);
    }
    h = Mix(h, Bits(mass));
  }
  return h;
}

}  // namespace

uint64_t ResultDigest(const evident::ExtendedRelation& relation) {
  uint64_t h = Mix(0, relation.size());
  const auto& schema = *relation.schema();
  for (size_t c = 0; c < schema.size(); ++c) {
    h = HashString(h, schema.attribute(c).name);
    h = Mix(h, static_cast<uint64_t>(schema.attribute(c).kind));
  }
  uint64_t rows = 0;
  for (size_t i = 0; i < relation.size(); ++i) {
    const evident::ExtendedTuple& t = relation.row(i);
    uint64_t r = 0x5eed;
    for (const evident::Cell& cell : t.cells) {
      if (const auto* v = std::get_if<evident::Value>(&cell)) {
        r = HashValue(r, *v);
      } else {
        r = HashEvidence(r, std::get<evident::EvidenceSet>(cell));
      }
    }
    r = Mix(r, Bits(t.membership.sn));
    r = Mix(r, Bits(t.membership.sp));
    rows += r;  // commutative: row order is not part of the result
  }
  return Mix(h, rows);
}

}  // namespace perfbench
