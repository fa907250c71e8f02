#include <gtest/gtest.h>

#include <cstdio>

#include "core/column_store.h"
#include "core/extended_relation.h"
#include "core/operations.h"
#include "core/schema.h"
#include "query/engine.h"
#include "storage/erel_format.h"
#include "storage/mmap_file.h"
#include "workload/paper_fixtures.h"

namespace evident {
namespace {

Result<SchemaPtr> SimpleSchema() {
  return RelationSchema::Make({
      AttributeDef::Key("id"),
      AttributeDef::Definite("label"),
      AttributeDef::Uncertain("colour",
                              Domain::MakeSymbolic("colour",
                                                   {"red", "green", "blue"})
                                  .value()),
  });
}

TEST(SchemaTest, MakeValidSchema) {
  auto schema = SimpleSchema();
  ASSERT_TRUE(schema.ok()) << schema.status();
  EXPECT_EQ((*schema)->size(), 3u);
  EXPECT_EQ((*schema)->key_indices(), (std::vector<size_t>{0}));
  EXPECT_EQ((*schema)->nonkey_indices(), (std::vector<size_t>{1, 2}));
}

TEST(SchemaTest, RejectsEmpty) {
  EXPECT_FALSE(RelationSchema::Make({}).ok());
}

TEST(SchemaTest, RejectsDuplicateNames) {
  auto schema = RelationSchema::Make(
      {AttributeDef::Key("a"), AttributeDef::Definite("a")});
  EXPECT_EQ(schema.status().code(), StatusCode::kAlreadyExists);
}

TEST(SchemaTest, RejectsNoKey) {
  EXPECT_FALSE(RelationSchema::Make({AttributeDef::Definite("a")}).ok());
}

TEST(SchemaTest, RejectsUncertainWithoutDomain) {
  EXPECT_FALSE(RelationSchema::Make(
                   {AttributeDef::Key("k"),
                    AttributeDef{"u", AttributeKind::kUncertain, nullptr}})
                   .ok());
}

TEST(SchemaTest, IndexOfAndHas) {
  auto schema = SimpleSchema().value();
  EXPECT_EQ(schema->IndexOf("colour").value(), 2u);
  EXPECT_TRUE(schema->Has("id"));
  EXPECT_FALSE(schema->Has("nope"));
  EXPECT_EQ(schema->IndexOf("nope").status().code(), StatusCode::kNotFound);
}

TEST(SchemaTest, UnionCompatibility) {
  auto a = SimpleSchema().value();
  auto b = SimpleSchema().value();
  EXPECT_TRUE(a->UnionCompatibleWith(*b));
  auto c = RelationSchema::Make({AttributeDef::Key("id")}).value();
  EXPECT_FALSE(a->UnionCompatibleWith(*c));
}

TEST(SchemaTest, ToStringMarksKeysAndUncertain) {
  auto schema = SimpleSchema().value();
  EXPECT_EQ(schema->ToString(), "(id*, label, †colour)");
}

// ---------------------------------------------------------------------------

ExtendedTuple MakeTuple(const SchemaPtr& schema, const std::string& id,
                        const std::string& label, const char* colour,
                        SupportPair membership) {
  ExtendedTuple t;
  t.cells = {Value(id), Value(label),
             EvidenceSet::Definite(schema->attribute(2).domain, Value(colour))
                 .value()};
  t.membership = membership;
  return t;
}

TEST(ExtendedRelationTest, InsertAndLookup) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ASSERT_TRUE(
      r.Insert(MakeTuple(schema, "x", "one", "red", SupportPair::Certain()))
          .ok());
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.ContainsKey({Value("x")}));
  EXPECT_FALSE(r.ContainsKey({Value("y")}));
  EXPECT_EQ(r.FindByKey({Value("x")}).value(), 0u);
}

TEST(ExtendedRelationTest, InsertRejectsDuplicateKey) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ASSERT_TRUE(
      r.Insert(MakeTuple(schema, "x", "one", "red", SupportPair::Certain()))
          .ok());
  EXPECT_EQ(r.Insert(MakeTuple(schema, "x", "two", "blue",
                               SupportPair::Certain()))
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(ExtendedRelationTest, InsertRejectsWrongArity) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {Value("x")};
  EXPECT_EQ(r.Insert(std::move(t)).code(), StatusCode::kInvalidArgument);
}

TEST(ExtendedRelationTest, InsertRejectsEvidenceInKey) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {EvidenceSet::Vacuous(schema->attribute(2).domain), Value("l"),
             EvidenceSet::Vacuous(schema->attribute(2).domain)};
  EXPECT_EQ(r.Insert(std::move(t)).code(), StatusCode::kInvalidArgument);
}

TEST(ExtendedRelationTest, InsertRejectsValueInUncertainSlot) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {Value("x"), Value("l"), Value("red")};
  EXPECT_EQ(r.Insert(std::move(t)).code(), StatusCode::kInvalidArgument);
}

TEST(ExtendedRelationTest, InsertRejectsWrongEvidenceDomain) {
  auto schema = SimpleSchema().value();
  auto other = Domain::MakeSymbolic("size", {"s", "m", "l"}).value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {Value("x"), Value("l"), EvidenceSet::Vacuous(other)};
  EXPECT_EQ(r.Insert(std::move(t)).code(), StatusCode::kIncompatible);
}

TEST(ExtendedRelationTest, InsertEnforcesCWAER) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  EXPECT_FALSE(
      r.Insert(MakeTuple(schema, "x", "one", "red", SupportPair::Unknown()))
          .ok());
  EXPECT_TRUE(r.InsertUnchecked(
                   MakeTuple(schema, "x", "one", "red", SupportPair::Unknown()))
                  .ok());
}

TEST(ExtendedRelationTest, InsertRejectsInvalidMembership) {
  auto schema = SimpleSchema().value();
  ExtendedRelation r("R", schema);
  EXPECT_FALSE(
      r.Insert(MakeTuple(schema, "x", "one", "red", SupportPair(0.9, 0.1)))
          .ok());
}

TEST(ExtendedRelationTest, ValidateInvariantsOnPaperTables) {
  auto ra = paper::TableRA();
  auto rb = paper::TableRB();
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_TRUE(ra->ValidateInvariants().ok());
  EXPECT_TRUE(rb->ValidateInvariants().ok());
  EXPECT_EQ(ra->size(), 6u);
  EXPECT_EQ(rb->size(), 5u);
}

TEST(ExtendedRelationTest, ApproxEqualsIgnoresRowOrder) {
  auto schema = SimpleSchema().value();
  ExtendedRelation a("A", schema);
  ExtendedRelation b("B", schema);
  ASSERT_TRUE(
      a.Insert(MakeTuple(schema, "x", "1", "red", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      a.Insert(MakeTuple(schema, "y", "2", "blue", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      b.Insert(MakeTuple(schema, "y", "2", "blue", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      b.Insert(MakeTuple(schema, "x", "1", "red", SupportPair::Certain()))
          .ok());
  EXPECT_TRUE(a.ApproxEquals(b));
}

TEST(ExtendedRelationTest, ApproxEqualsDetectsCellDifference) {
  auto schema = SimpleSchema().value();
  ExtendedRelation a("A", schema);
  ExtendedRelation b("B", schema);
  ASSERT_TRUE(
      a.Insert(MakeTuple(schema, "x", "1", "red", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      b.Insert(MakeTuple(schema, "x", "1", "blue", SupportPair::Certain()))
          .ok());
  EXPECT_FALSE(a.ApproxEquals(b));
}

TEST(ExtendedRelationTest, ApproxEqualsDetectsMembershipDifference) {
  auto schema = SimpleSchema().value();
  ExtendedRelation a("A", schema);
  ExtendedRelation b("B", schema);
  ASSERT_TRUE(
      a.Insert(MakeTuple(schema, "x", "1", "red", SupportPair::Certain()))
          .ok());
  ASSERT_TRUE(
      b.Insert(MakeTuple(schema, "x", "1", "red", SupportPair(0.5, 1.0)))
          .ok());
  EXPECT_FALSE(a.ApproxEquals(b));
}

TEST(ExtendedRelationTest, CompositeKey) {
  auto schema =
      RelationSchema::Make({AttributeDef::Key("a"), AttributeDef::Key("b"),
                            AttributeDef::Definite("v")})
          .value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t1;
  t1.cells = {Value(int64_t{1}), Value(int64_t{2}), Value("x")};
  ExtendedTuple t2;
  t2.cells = {Value(int64_t{2}), Value(int64_t{1}), Value("y")};
  ASSERT_TRUE(r.Insert(std::move(t1)).ok());
  ASSERT_TRUE(r.Insert(std::move(t2)).ok());  // reversed key is distinct
  EXPECT_EQ(r.size(), 2u);
  EXPECT_TRUE(r.ContainsKey({Value(int64_t{1}), Value(int64_t{2})}));
}


// ---------------------------------------------------------------------------
// Appending: every insert goes through ColumnStore::AppendRow, whatever
// produced the store it lands in.

/// The appended tuple is the relation's last row, and every derived
/// structure — key index, encoded-key arena, statistics — includes it.
void ExpectAppended(const ExtendedRelation& rel, const ExtendedTuple& tuple,
                    size_t rows) {
  ASSERT_EQ(rel.size(), rows);
  const size_t last = rows - 1;
  const ExtendedTuple got = rel.row(last);
  EXPECT_TRUE(got.membership.ApproxEquals(tuple.membership, 0.0));
  ASSERT_EQ(got.cells.size(), tuple.cells.size());
  for (size_t c = 0; c < tuple.cells.size(); ++c) {
    EXPECT_TRUE(CellApproxEquals(got.cells[c], tuple.cells[c], 0.0)) << c;
  }
  std::string encoded;
  rel.EncodeKeyOf(tuple, &encoded);
  EXPECT_EQ(rel.key_index().Find(encoded), last);
  EXPECT_EQ(rel.columns().encoded_keys().key(last), encoded);
  EXPECT_EQ(rel.columns().statistics().row_count, rows);
  EXPECT_EQ(rel.FindByKey(rel.KeyOf(tuple)).value(), last);
}

/// Re-inserting a key already in the store fails with the shared
/// duplicate-key text and leaves the relation as it was.
void ExpectDuplicateRejected(ExtendedRelation* rel, size_t row) {
  const size_t rows = rel->size();
  const ExtendedTuple existing = rel->row(row);
  const Status status = rel->Insert(existing);
  EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(status.message(),
            MakeDuplicateKeyError(rel->KeyOf(existing), rel->name())
                .message());
  EXPECT_EQ(rel->size(), rows);
}

TEST(AppendTest, InsertOntoSelectOutput) {
  auto schema = SimpleSchema().value();
  ExtendedRelation base("R", schema);
  for (const char* colour : {"red", "green", "blue"}) {
    ASSERT_TRUE(base.Insert(MakeTuple(schema, colour, "l", colour,
                                      SupportPair::Certain()))
                    .ok());
  }
  auto selected = Select(base, IsSym("colour", {"red", "green"}));
  ASSERT_TRUE(selected.ok()) << selected.status();
  ASSERT_EQ(selected->size(), 2u);
  // Build the caches the append must reset.
  (void)selected->columns().statistics();
  (void)selected->key_index();
  const ExtendedTuple added =
      MakeTuple(schema, "violet", "v", "blue", SupportPair(0.4, 0.9));
  ASSERT_TRUE(selected->Insert(added).ok());
  ExpectAppended(*selected, added, 3);
  ExpectDuplicateRejected(&*selected, 0);
  EXPECT_EQ(base.size(), 3u);
}

TEST(AppendTest, InsertOntoCopyLeavesTheSharedStoreAlone) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  const ExtendedRelation* original = catalog.GetRelation("RA").value();
  const ColumnStore* shared = &original->columns();
  ExtendedRelation copy = *original;
  EXPECT_EQ(&copy.columns(), shared);

  ExtendedTuple added = original->row(0);
  const size_t key = original->schema()->key_indices()[0];
  added.cells[key] = Value("new place");
  ASSERT_TRUE(copy.Insert(added).ok());
  ExpectAppended(copy, added, 7);
  ExpectDuplicateRejected(&copy, 2);
  EXPECT_NE(&copy.columns(), shared);

  EXPECT_EQ(&original->columns(), shared);
  EXPECT_EQ(original->size(), 6u);
  EXPECT_EQ(shared->rows(), 6u);
  EXPECT_EQ(shared->statistics().row_count, 6u);
  EXPECT_FALSE(original->ContainsKey({Value("new place")}));
  EXPECT_TRUE(original->ApproxEquals(paper::TableRA().value(), 0.0));
}

TEST(AppendTest, InsertOntoMappedRelations) {
  const std::string path = "/tmp/evident_test_append_mapped.erel";
  SchemaPtr schema = RelationSchema::Make({AttributeDef::Key("k"),
                                           AttributeDef::Definite("d")})
                         .value();
  auto tuple = [](int64_t k) {
    ExtendedTuple t;
    t.cells = {Value(k), Value(k % 7)};
    t.membership = SupportPair::Certain();
    return t;
  };
  Catalog catalog;
  {
    ExtendedRelation rel("P", schema);
    for (int64_t k = 0; k < 64; ++k) ASSERT_TRUE(rel.Insert(tuple(k)).ok());
    ASSERT_TRUE(catalog.RegisterRelation(std::move(rel)).ok());
  }
  PartitionSpec ranged;
  ranged.scheme = PartitionSpec::Scheme::kKeyRange;
  ranged.partitions = 4;
  // A monolithic image borrows its numeric arrays from the mapping; a
  // key-range image carries one zone map per partition.
  for (const PartitionSpec& spec : {PartitionSpec{}, ranged}) {
    const size_t parts = spec.partitions;
    ASSERT_TRUE(SaveErelFile(catalog, path, spec).ok());
    LoadOptions options;
    options.map = LoadOptions::Map::kAlways;
    auto mapped = LoadErelFile(path, options, nullptr);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    const ExtendedRelation* original = mapped->GetRelation("P").value();
    ASSERT_EQ(original->columns().partitions().size(), parts);
    EXPECT_EQ(original->columns().sn().borrowed(), parts == 1);
    ExtendedRelation copy = *original;
    ASSERT_TRUE(copy.Insert(tuple(1000)).ok()) << parts;
    ExpectAppended(copy, tuple(1000), 65);
    ExpectDuplicateRejected(&copy, 5);
    // The old zone maps do not cover the new row, so they are gone, and
    // the appended arrays are the copy's own.
    EXPECT_TRUE(copy.columns().partitions().empty());
    EXPECT_FALSE(copy.columns().sn().borrowed());
    EXPECT_EQ(original->size(), 64u);
    EXPECT_EQ(original->columns().partitions().size(), parts);
    EXPECT_EQ(original->columns().sn().borrowed(), parts == 1);

    // k > 500 refutes every old partition's zone, yet finds the new row.
    auto selected =
        Select(copy, Theta(ThetaOperand::Attr("k"), ThetaOp::kGt,
                           ThetaOperand::LitValue(Value(int64_t{500}))));
    ASSERT_TRUE(selected.ok()) << selected.status();
    ASSERT_EQ(selected->size(), 1u);
    EXPECT_TRUE(selected->ContainsKey({Value(int64_t{1000})}));

    Catalog appended;
    ASSERT_TRUE(appended.RegisterRelation(copy).ok());
    QueryEngine engine(&appended);
    const std::string query = "SELECT * FROM P WHERE k > 500";
    auto result = engine.Execute(query);
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->size(), 1u);
    auto explain = engine.Explain(query);
    ASSERT_TRUE(explain.ok()) << explain.status();
    EXPECT_EQ(explain->find("partition"), std::string::npos) << *explain;
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace evident
