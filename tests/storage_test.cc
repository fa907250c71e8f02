#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "core/column_store.h"
#include "core/operations.h"
#include "core/scan_stats.h"
#include "query/engine.h"
#include "reference_algebra.h"
#include "storage/csv.h"
#include "storage/erel_format.h"
#include "storage/mmap_file.h"
#include "workload/generator.h"
#include "workload/paper_fixtures.h"

namespace evident {
namespace {

TEST(CatalogTest, RegisterAndGetRelation) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  EXPECT_TRUE(catalog.HasRelation("RA"));
  auto rel = catalog.GetRelation("RA");
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ((*rel)->size(), 6u);
  EXPECT_FALSE(catalog.GetRelation("nope").ok());
}

TEST(CatalogTest, RegisterRelationRegistersDomains) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  EXPECT_TRUE(catalog.HasDomain("speciality"));
  EXPECT_TRUE(catalog.HasDomain("dish"));
  EXPECT_TRUE(catalog.HasDomain("rating"));
}

TEST(CatalogTest, DuplicateRelationRejectedUnlessReplace) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  EXPECT_EQ(catalog.RegisterRelation(paper::TableRA().value()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(
      catalog.RegisterRelation(paper::TableRA().value(), /*replace=*/true)
          .ok());
}

TEST(CatalogTest, ConflictingDomainRejected) {
  Catalog catalog;
  ASSERT_TRUE(
      catalog.RegisterDomain(
          Domain::MakeSymbolic("d", {"a", "b"}).value())
          .ok());
  // Re-registering an equal domain is fine.
  ASSERT_TRUE(
      catalog.RegisterDomain(
          Domain::MakeSymbolic("d", {"a", "b"}).value())
          .ok());
  EXPECT_EQ(catalog
                .RegisterDomain(
                    Domain::MakeSymbolic("d", {"a", "c"}).value())
                .code(),
            StatusCode::kAlreadyExists);
}

TEST(ErelTextFormatTest, RoundTripsPaperTables) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRB().value()).ok());
  const std::string text = WriteErel(catalog);
  auto loaded = ReadErel(text);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  auto ra = loaded->GetRelation("RA");
  auto rb = loaded->GetRelation("RB");
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE((*ra)->ApproxEquals(paper::TableRA().value(), 1e-8));
  EXPECT_TRUE((*rb)->ApproxEquals(paper::TableRB().value(), 1e-8));
}

TEST(ErelTextFormatTest, RoundTripsGeneratedWorkload) {
  WorkloadGenerator gen(11);
  GeneratorOptions options;
  options.num_tuples = 40;
  auto schema = gen.MakeSchema(options).value();
  auto relation = gen.MakeRelation("W", schema, options).value();
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(relation).ok());
  auto loaded = ReadErel(WriteErel(catalog));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE((*loaded->GetRelation("W"))->ApproxEquals(relation, 1e-8));
}

TEST(ErelTextFormatTest, QuotedNumericStringsRoundTrip) {
  auto schema = RelationSchema::Make({AttributeDef::Key("k"),
                                      AttributeDef::Definite("d")})
                    .value();
  ExtendedRelation r("R", schema);
  ExtendedTuple t;
  t.cells = {Value("001"), Value("42")};  // strings that look numeric
  ASSERT_TRUE(r.Insert(std::move(t)).ok());
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(r).ok());
  auto loaded = ReadErel(WriteErel(catalog));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const ExtendedRelation* rel = loaded->GetRelation("R").value();
  EXPECT_TRUE(std::get<Value>(rel->row(0).cells[0]).is_string());
  EXPECT_TRUE(std::get<Value>(rel->row(0).cells[1]).is_string());
}

TEST(ErelTextFormatTest, ParseErrors) {
  EXPECT_FALSE(ReadErel("garbage line").ok());
  EXPECT_FALSE(ReadErel("relation R\nattr k key\nrow a | (1,1)\n").ok());
  EXPECT_FALSE(ReadErel("relation R\nattr k key\n").ok());  // no end
  EXPECT_FALSE(
      ReadErel("relation R\nattr u uncertain missing\nend\n").ok());
  EXPECT_FALSE(ReadErel("end\n").ok());
  // Row with too few fields.
  EXPECT_FALSE(
      ReadErel("relation R\nattr k key\nattr d definite\nrow a | (1,1)\nend\n")
          .ok());
}

TEST(ErelTextFormatTest, FileRoundTrip) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  const std::string path = "/tmp/evident_test_catalog.erel";
  ASSERT_TRUE(SaveErelFile(catalog, path).ok());
  auto loaded = LoadErelFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(
      (*loaded->GetRelation("RA"))->ApproxEquals(paper::TableRA().value(),
                                                 1e-8));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Column images (EVCIMG03)

Catalog GeneratedCatalog(uint64_t seed, size_t tuples) {
  WorkloadGenerator gen(seed);
  GeneratorOptions options;
  options.num_tuples = tuples;
  options.num_definite = 2;
  options.num_uncertain = 2;
  options.domain_size = 9;
  auto schema = gen.MakeSchema(options).value();
  Catalog catalog;
  EXPECT_TRUE(
      catalog.RegisterRelation(gen.MakeRelation("W", schema, options).value())
          .ok());
  return catalog;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// The first error a load of `path` reports: at open for a copied load,
/// at open or while driving every deferred check for a mapped one. On
/// success `*catalog` (when given) receives the verified catalog.
Status FirstLoadError(const std::string& path, LoadOptions::Map map,
                      Catalog* catalog = nullptr) {
  LoadOptions options;
  options.map = map;
  auto loaded = LoadErelFile(path, options, nullptr);
  if (!loaded.ok()) return loaded.status();
  for (const std::string& name : loaded->RelationNames()) {
    const Status verified =
        loaded->GetRelation(name).value()->columns().EnsureAllVerified();
    if (!verified.ok()) return verified;
  }
  if (catalog != nullptr) *catalog = std::move(loaded).value();
  return Status::OK();
}

/// Same domains (names and ordered values), same relation names and
/// schemas, and bit-identical rows and statistics.
void ExpectSameCatalog(const Catalog& expected, const Catalog& got,
                       const std::string& what) {
  ASSERT_EQ(expected.DomainNames(), got.DomainNames()) << what;
  for (const std::string& name : expected.DomainNames()) {
    EXPECT_TRUE(expected.GetDomain(name).value()->Equals(
        *got.GetDomain(name).value()))
        << what << ": domain " << name;
  }
  ASSERT_EQ(expected.RelationNames(), got.RelationNames()) << what;
  for (const std::string& name : expected.RelationNames()) {
    const ExtendedRelation* want = expected.GetRelation(name).value();
    const ExtendedRelation* have = got.GetRelation(name).value();
    EXPECT_EQ(want->name(), have->name()) << what;
    EXPECT_TRUE(want->schema()->Equals(*have->schema()))
        << what << ": schema of " << name;
    ExpectRelationsMatch(*want, *have, /*eps=*/0.0, what + " " + name);
    const TableStatistics& a = want->columns().statistics();
    const TableStatistics& b = have->columns().statistics();
    EXPECT_EQ(a.row_count, b.row_count) << what;
    ASSERT_EQ(a.attributes.size(), b.attributes.size()) << what;
    for (size_t i = 0; i < a.attributes.size(); ++i) {
      EXPECT_EQ(a.attributes[i].distinct, b.attributes[i].distinct) << what;
      EXPECT_EQ(a.attributes[i].exact, b.attributes[i].exact) << what;
    }
    EXPECT_EQ(a.sn_histogram, b.sn_histogram) << what;
    EXPECT_EQ(a.sp_histogram, b.sp_histogram) << what;
  }
}

TEST(ColumnImageFormatTest, RoundTripsBitExactlyAndStaysColumnar) {
  Catalog catalog = GeneratedCatalog(17, 60);
  const std::string blob = WriteErelColumnImageV3(catalog);
  auto loaded = ReadErel(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const ExtendedRelation* rel = loaded->GetRelation("W").value();
  ExpectRelationsMatch(*catalog.GetRelation("W").value(), *rel);
  // The loader adopts the column image as is, so re-saving the loaded
  // catalog reproduces the image byte for byte.
  EXPECT_EQ(WriteErelColumnImageV3(*loaded), blob);
}

TEST(ColumnImageFormatTest, RoundTripsColumnarOperatorOutput) {
  // A Select result (an adopted column image) serializes from its
  // columns and round-trips exactly.
  Catalog catalog = GeneratedCatalog(23, 80);
  auto selected = Select(*catalog.GetRelation("W").value(),
                         IsSym("unc0", {"v0", "v1", "v2", "v3"}));
  ASSERT_TRUE(selected.ok()) << selected.status().ToString();
  ExtendedRelation copy = *selected;
  copy.set_name("S");
  Catalog outputs;
  ASSERT_TRUE(outputs.RegisterRelation(std::move(copy)).ok());
  const std::string blob = WriteErelColumnImageV3(outputs);
  auto loaded = ReadErel(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ExpectRelationsMatch(*selected, *loaded->GetRelation("S").value());
}

TEST(ColumnImageFormatTest, RoundTripsEmptyAndInsertBuiltRelations) {
  auto schema = RelationSchema::Make({AttributeDef::Key("k")}).value();
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(ExtendedRelation("E", schema)).ok());
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  auto loaded = ReadErel(WriteErelColumnImageV3(catalog));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded->GetRelation("E"))->size(), 0u);
  ExpectRelationsMatch(*catalog.GetRelation("RA").value(),
                       *loaded->GetRelation("RA").value());
}

TEST(ColumnImageFormatTest, SaveErelFileWritesV3ForEveryCatalog) {
  const std::string path = "/tmp/evident_test_format_pick.erel";
  auto first_bytes = [&path]() {
    std::ifstream in(path, std::ios::binary);
    std::string head(8, '\0');
    in.read(head.data(), 8);
    return head;
  };
  // Insert-built relations only: a monolithic column image (v1 text
  // comes only from WriteErel).
  Catalog inserted = GeneratedCatalog(5, 10);
  ASSERT_TRUE(SaveErelFile(inserted, path).ok());
  EXPECT_EQ(first_bytes(), "EVCIMG03");
  // With an operator output beside them: the same.
  Catalog mixed = GeneratedCatalog(6, 10);
  auto selected = Select(*mixed.GetRelation("W").value(),
                         IsSym("unc0", {"v0", "v1"}));
  ASSERT_TRUE(selected.ok());
  selected->set_name("S");
  ASSERT_TRUE(mixed.RegisterRelation(*selected).ok());
  ASSERT_TRUE(SaveErelFile(mixed, path).ok());
  EXPECT_EQ(first_bytes(), "EVCIMG03");
  LoadInfo info;
  auto loaded = LoadErelFile(path, LoadOptions{}, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(info.format, "column-image-v3");
  EXPECT_EQ(info.partitions, 2u);
  for (const std::string& name : {"S", "W"}) {
    ASSERT_TRUE(
        loaded->GetRelation(name).value()->columns().EnsureAllVerified().ok());
    ExpectRelationsMatch(*mixed.GetRelation(name).value(),
                         *loaded->GetRelation(name).value());
  }
  std::remove(path.c_str());
}

TEST(ColumnImageFormatTest, RejectsUnsupportedVersion) {
  // Any version but 03 — including the retired 02 layout — is a clean
  // ParseError naming the source, from the in-memory reader and from
  // both open modes alike.
  const std::string path = "/tmp/evident_test_version.erel";
  const std::string blob = WriteErelColumnImageV3(GeneratedCatalog(7, 4));
  for (const char* version : {"99", "02"}) {
    std::string bad = blob;
    bad.replace(6, 2, version);
    auto loaded = ReadErel(bad, "version.erel");
    ASSERT_FALSE(loaded.ok()) << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("version.erel"),
              std::string::npos)
        << loaded.status();
    EXPECT_NE(loaded.status().message().find("unsupported"),
              std::string::npos)
        << loaded.status();
    EXPECT_NE(loaded.status().message().find("version"), std::string::npos)
        << loaded.status();
    WriteFile(path, bad);
    const Status copied = FirstLoadError(path, LoadOptions::Map::kNever);
    const Status mapped = FirstLoadError(path, LoadOptions::Map::kAlways);
    EXPECT_EQ(copied.code(), StatusCode::kParseError) << copied;
    EXPECT_NE(copied.message().find(path), std::string::npos) << copied;
    EXPECT_EQ(copied.message(), mapped.message());
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

/// An EVCIMG03 image in the layout written before the header and
/// metadata checksums were added, with the since-removed index and
/// statistics flag bytes: relation "L" with one key attribute and one
/// row, k = 7.
std::string PreChecksumImage() {
  auto unhex = [](std::string_view hex) {
    std::string bytes;
    for (size_t i = 0; i + 1 < hex.size(); i += 2) {
      bytes.push_back(static_cast<char>(
          std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
    }
    return bytes;
  };
  const std::string zero_bins =
      std::string(120, '\0') + unhex("01") + std::string(127, '\0');
  return unhex(
             "455643494d4730330000000001000000010000004c01000000010000006b00"
             "ffffffff0100000000000000000100000001") +
         std::string(15, '\0') +
         unhex("4001000000000000d5539e2b000000000000f03f000000000000f03f0000"
               "00000000f03f000000000000f03f01000700000000000000000700000000"
               "00000000010000000000000007") +
         std::string(13, '\0') +
         unhex("f03f000000000000f03f5354415453303031010000000000000001000000"
               "010000000000000001") +
         zero_bins +
         unhex("01000000000000000000000900000000000000010000000000001c4000"
               "0000000900000001100000000000000090530090dc84a75200000000") +
         std::string(60, '\xff') +
         unhex("015354415453303031010000000000000001000000010000000000000001") +
         zero_bins + unhex("0100000000000000");
}

TEST(ColumnImageFormatTest, PreChecksumLayoutIsACleanParseError) {
  const std::string path = "/tmp/evident_test_pre_checksum.erel";
  const std::string legacy = PreChecksumImage();
  ASSERT_EQ(legacy.size(), 840u);
  WriteFile(path, legacy);
  const Status copied = FirstLoadError(path, LoadOptions::Map::kNever);
  const Status mapped = FirstLoadError(path, LoadOptions::Map::kAlways);
  EXPECT_EQ(copied.code(), StatusCode::kParseError) << copied;
  EXPECT_NE(copied.message().find(path), std::string::npos) << copied;
  EXPECT_EQ(copied.message(), mapped.message());
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageFormatTest, StatisticsFooterRoundTrips) {
  // The relation statistics record restores the optimizer's profile
  // exactly, monolithic or partitioned.
  Catalog catalog = GeneratedCatalog(19, 70);
  const TableStatistics& built =
      catalog.GetRelation("W").value()->columns().statistics();
  PartitionSpec hashed;
  hashed.scheme = PartitionSpec::Scheme::kHash;
  hashed.partitions = 3;
  for (const PartitionSpec& spec : {PartitionSpec{}, hashed}) {
    auto loaded = ReadErel(WriteErelColumnImageV3(catalog, spec));
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const ExtendedRelation* rel = loaded->GetRelation("W").value();
    const TableStatistics& restored = rel->columns().statistics();
    ASSERT_EQ(restored.row_count, built.row_count);
    ASSERT_EQ(restored.attributes.size(), built.attributes.size());
    for (size_t a = 0; a < built.attributes.size(); ++a) {
      EXPECT_EQ(restored.attributes[a].distinct, built.attributes[a].distinct)
          << "attr " << a;
      EXPECT_EQ(restored.attributes[a].exact, built.attributes[a].exact)
          << "attr " << a;
    }
    EXPECT_EQ(restored.sn_histogram, built.sn_histogram);
    EXPECT_EQ(restored.sp_histogram, built.sp_histogram);
    ExpectRelationsMatchByKey(*catalog.GetRelation("W").value(), *rel);
  }
}

TEST(ColumnImageFormatTest, ByteFlipsNeverCrashTheReader) {
  // Single-byte corruption anywhere in the blob must either fail with a
  // clean Status or produce a catalog that passed every load-time
  // validation — never UB (this test is the ASan/UBSan target).
  Catalog catalog = GeneratedCatalog(13, 5);
  const std::string blob = WriteErelColumnImageV3(catalog);
  std::string corrupt = blob;
  for (size_t pos = 0; pos < blob.size(); ++pos) {
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0xFF);
    auto loaded = ReadErel(corrupt);
    if (loaded.ok()) {
      // A flip that survived validation must still yield a usable
      // catalog: materializing rows and re-validating must not crash.
      for (const std::string& name : loaded->RelationNames()) {
        (void)loaded->GetRelation(name).value()->ValidateInvariants();
      }
    }
    corrupt[pos] = blob[pos];
  }
}

/// Builds a single-relation catalog around a hand-built (and possibly
/// invalid) column store: the trusted in-memory building APIs skip
/// validation, so the *loader* must be the one to reject the bytes.
std::string BlobOf(ColumnStore store) {
  Catalog catalog;
  EXPECT_TRUE(
      catalog.RegisterRelation(ExtendedRelation::AdoptColumns(std::move(store)))
          .ok());
  return WriteErelColumnImageV3(catalog);
}

TEST(ColumnImageFormatTest, CorruptColumnsReportCleanStatuses) {
  auto dom = Domain::MakeSymbolic("d4", {"a", "b", "c", "d"}).value();
  auto schema = RelationSchema::Make({AttributeDef::Key("k"),
                                      AttributeDef::Uncertain("u", dom)})
                    .value();
  auto base_store = [&](ColumnStore* out) {
    *out = ColumnStore::EmptyLike(schema, "Bad");
    out->value_column_mut(0).values = {Value(int64_t{1}), Value(int64_t{2})};
    out->AppendMembership(SupportPair::Certain());
    out->AppendMembership(SupportPair::Certain());
  };
  // Copied and mapped loads must both fail, with the same message.
  const std::string path = "/tmp/evident_test_corrupt_columns.erel";
  auto expect_parse_error = [&path](const std::string& blob,
                                    const std::string& needle) {
    auto loaded = ReadErel(blob);
    ASSERT_FALSE(loaded.ok()) << "expected failure mentioning " << needle;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find(needle), std::string::npos)
        << loaded.status().message();
    WriteFile(path, blob);
    const Status copied = FirstLoadError(path, LoadOptions::Map::kNever);
    const Status mapped = FirstLoadError(path, LoadOptions::Map::kAlways);
    EXPECT_EQ(copied.code(), StatusCode::kParseError) << copied;
    EXPECT_NE(copied.message().find(needle), std::string::npos) << copied;
    EXPECT_EQ(copied.message(), mapped.message());
  };

  {  // Focal masses that do not sum to 1 within tolerance.
    ColumnStore store;
    base_store(&store);
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1, 0x2, 0x3};
    col.masses = {0.6, 0.1, 1.0};  // row 0 sums to 0.7
    col.offsets = {0, 2, 3};
    expect_parse_error(BlobOf(std::move(store)), "sum");
  }
  {  // Corrupt (non-monotone) offset array.
    ColumnStore store;
    base_store(&store);
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1};
    col.masses = {1.0};
    col.offsets = {0, 2, 1};
    expect_parse_error(BlobOf(std::move(store)), "monotone");
  }
  {  // Focal word outside the 4-value frame.
    ColumnStore store;
    base_store(&store);
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1, 0x10};
    col.masses = {1.0, 1.0};
    col.offsets = {0, 1, 2};
    expect_parse_error(BlobOf(std::move(store)), "outside frame");
  }
  {  // Mass on the empty set.
    ColumnStore store;
    base_store(&store);
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1, 0x0};
    col.masses = {1.0, 1.0};
    col.offsets = {0, 1, 2};
    expect_parse_error(BlobOf(std::move(store)), "empty set");
  }
  {  // Duplicate keys.
    ColumnStore store;
    base_store(&store);
    store.value_column_mut(0).values = {Value(int64_t{1}), Value(int64_t{1})};
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1, 0x2};
    col.masses = {1.0, 1.0};
    col.offsets = {0, 1, 2};
    expect_parse_error(BlobOf(std::move(store)), "duplicate key");
  }
  {  // CWA_ER violation: stored row with sn = 0.
    ColumnStore store = ColumnStore::EmptyLike(schema, "Bad");
    store.value_column_mut(0).values = {Value(int64_t{1})};
    auto& col = store.evidence_column_mut(1);
    col.words = {0x1};
    col.masses = {1.0};
    col.offsets = {0, 1};
    store.AppendMembership(SupportPair::Unknown());  // (0, 1)
    expect_parse_error(BlobOf(std::move(store)), "sn > 0");
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, MonolithicRoundTripsBitExactly) {
  Catalog catalog = GeneratedCatalog(31, 60);
  const std::string blob = WriteErelColumnImageV3(catalog);
  ASSERT_EQ(blob.compare(0, 8, "EVCIMG03"), 0);
  auto loaded = ReadErel(blob);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  const ExtendedRelation* rel = loaded->GetRelation("W").value();
  // A monolithic image is one partition covering every row.
  ASSERT_EQ(rel->columns().partitions().size(), 1u);
  EXPECT_EQ(rel->columns().partitions()[0].end_row, rel->size());
  // The owned loader verified eagerly: nothing deferred escapes.
  EXPECT_FALSE(rel->columns().deferred_verification_pending());
  ExpectRelationsMatch(*catalog.GetRelation("W").value(), *rel);
}

TEST(ColumnImageV3Test, PartitionedRoundTripsKeyMatched) {
  Catalog catalog = GeneratedCatalog(37, 90);
  for (const PartitionSpec::Scheme scheme :
       {PartitionSpec::Scheme::kHash, PartitionSpec::Scheme::kKeyRange}) {
    PartitionSpec spec;
    spec.scheme = scheme;
    spec.partitions = 7;
    const std::string blob = WriteErelColumnImageV3(catalog, spec);
    auto loaded = ReadErel(blob);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    const ExtendedRelation* rel = loaded->GetRelation("W").value();
    const auto& parts = rel->columns().partitions();
    ASSERT_EQ(parts.size(), 7u);
    size_t covered = 0;
    for (const auto& zone : parts) {
      ASSERT_EQ(zone.begin_row, covered);
      covered = zone.end_row;
      // Key-range partitions of value columns carry zones.
      if (scheme == PartitionSpec::Scheme::kKeyRange &&
          zone.end_row > zone.begin_row) {
        EXPECT_TRUE(zone.values[0].has);
        EXPECT_FALSE(zone.values[0].max < zone.values[0].min);
      }
    }
    ASSERT_EQ(covered, rel->size());
    ExpectRelationsMatchByKey(*catalog.GetRelation("W").value(), *rel);
  }
}

TEST(ColumnImageV3Test, MappedLoadBorrowsAndMatches) {
  const std::string path = "/tmp/evident_test_v3_mapped.erel";
  Catalog catalog = GeneratedCatalog(41, 50);
  ASSERT_TRUE(SaveErelFile(catalog, path, PartitionSpec{}).ok());
  {
    LoadOptions options;
    options.map = LoadOptions::Map::kAlways;
    LoadInfo info;
    auto loaded = LoadErelFile(path, options, &info);
    ASSERT_TRUE(loaded.ok()) << loaded.status();
    EXPECT_TRUE(info.mapped);
    EXPECT_EQ(info.format, "column-image-v3");
    EXPECT_EQ(info.relations, 1u);
    EXPECT_EQ(info.partitions, 1u);
    EXPECT_EQ(MappedFile::live_mappings(), 1u);
    const ExtendedRelation* rel = loaded->GetRelation("W").value();
    // Single-partition mapped image: the numeric arrays are borrowed
    // straight out of the mapping, and verification is lazy.
    EXPECT_TRUE(rel->columns().sn().borrowed());
    EXPECT_TRUE(rel->columns().deferred_verification_pending());
    ASSERT_TRUE(rel->columns().EnsureAllVerified().ok());
    ExpectRelationsMatch(*catalog.GetRelation("W").value(), *rel);
  }
  // Dropping the catalog releases the mapping: no fd or mapping leaks.
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, MappedPartitionedLoadStitchesAndMatches) {
  const std::string path = "/tmp/evident_test_v3_mapped_parts.erel";
  Catalog catalog = GeneratedCatalog(43, 64);
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 5;
  ASSERT_TRUE(SaveErelFile(catalog, path, spec).ok());
  LoadOptions options;
  options.map = LoadOptions::Map::kAlways;
  LoadInfo info;
  auto loaded = LoadErelFile(path, options, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_TRUE(info.mapped);
  EXPECT_EQ(info.partitions, 5u);
  const ExtendedRelation* rel = loaded->GetRelation("W").value();
  // Multi-partition images stitch into owned arrays but still verify
  // partition-at-a-time.
  EXPECT_FALSE(rel->columns().sn().borrowed());
  EXPECT_TRUE(rel->columns().deferred_verification_pending());
  ASSERT_TRUE(rel->columns().EnsureAllVerified().ok());
  ExpectRelationsMatchByKey(*catalog.GetRelation("W").value(), *rel);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, EveryTruncationIsACleanParseError) {
  Catalog catalog = GeneratedCatalog(47, 8);
  PartitionSpec hashed;
  hashed.scheme = PartitionSpec::Scheme::kHash;
  hashed.partitions = 3;
  for (const PartitionSpec& spec : {PartitionSpec{}, hashed}) {
    // Every proper prefix cuts the header, a manifest field, a chunk, or
    // the trailer short somewhere: the reader must fail cleanly, never
    // read past the end, and — once the column-image magic prefix is
    // there — name the file and offset region in the message. Shorter
    // prefixes fall into the text parser, which rejects them too.
    const std::string blob = WriteErelColumnImageV3(catalog, spec);
    for (size_t len = 1; len < blob.size(); ++len) {
      auto loaded = ReadErel(blob.substr(0, len), "trunc.erel");
      ASSERT_FALSE(loaded.ok()) << "prefix of " << len << " bytes parsed";
      ASSERT_EQ(loaded.status().code(), StatusCode::kParseError)
          << "prefix of " << len << " bytes";
      if (len < 6) continue;
      ASSERT_NE(loaded.status().message().find("trunc.erel"),
                std::string::npos)
          << loaded.status();
    }
  }
}

TEST(ColumnImageV3Test, MappedAndCopiedLoadsAgreeOnEveryByteFlip) {
  // Single-byte corruption anywhere — domain table, names, manifest
  // fields, zone maps, chunk bodies, the key trailer, the statistics —
  // must fail identically (same first error) whether the file is copied
  // in (eager verification) or mapped (deferred verification driven to
  // completion), and must never leak a mapping. A flip that loads at all
  // must load exactly the original catalog: every byte is covered by a
  // checksum or a load check.
  const std::string path = "/tmp/evident_test_v3_flips.erel";
  Catalog catalog = GeneratedCatalog(53, 12);
  ASSERT_TRUE(catalog.RegisterRelation(paper::TableRA().value()).ok());
  PartitionSpec ranged;
  ranged.scheme = PartitionSpec::Scheme::kKeyRange;
  ranged.partitions = 4;
  for (const PartitionSpec& spec : {PartitionSpec{}, ranged}) {
    const std::string blob = WriteErelColumnImageV3(catalog, spec);
    const std::string what =
        spec.partitions == 1 ? "monolithic" : "partitioned";
    WriteFile(path, blob);
    Catalog original;
    ASSERT_TRUE(FirstLoadError(path, LoadOptions::Map::kNever, &original).ok());
    std::string corrupt = blob;
    for (size_t pos = 8; pos < blob.size(); ++pos) {
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
      WriteFile(path, corrupt);
      Catalog eager_catalog;
      Catalog lazy_catalog;
      const Status eager =
          FirstLoadError(path, LoadOptions::Map::kNever, &eager_catalog);
      const Status lazy =
          FirstLoadError(path, LoadOptions::Map::kAlways, &lazy_catalog);
      // Structural damage fails both loads identically; semantic damage
      // loads lazily and surfaces the same error on verification.
      ASSERT_EQ(eager.message(), lazy.message())
          << what << " byte " << pos;
      if (eager.ok()) {
        const std::string at = what + " byte " + std::to_string(pos);
        ExpectSameCatalog(original, eager_catalog, at + " copied");
        ExpectSameCatalog(original, lazy_catalog, at + " mapped");
      }
      corrupt[pos] = blob[pos];
    }
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, EmptyRelationAndAutoFallback) {
  // An empty relation is always one empty partition; kAuto maps column
  // images and falls back to the copied path for v1 text.
  auto schema = RelationSchema::Make({AttributeDef::Key("k")}).value();
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(ExtendedRelation("E", schema)).ok());
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kHash;
  spec.partitions = 6;
  auto loaded = ReadErel(WriteErelColumnImageV3(catalog, spec));
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ((*loaded->GetRelation("E"))->size(), 0u);
  EXPECT_EQ((*loaded->GetRelation("E"))->columns().partitions().size(), 1u);

  const std::string path = "/tmp/evident_test_v3_fallback.erel";
  WriteFile(path, WriteErel(GeneratedCatalog(59, 10)));
  LoadInfo info;
  auto fallback = LoadErelFile(path, LoadOptions{}, &info);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_FALSE(info.mapped);
  EXPECT_EQ(info.format, "text");
  EXPECT_EQ(info.partitions, 1u);
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

/// 96 rows keyed 0..95 (d = k / 10, u a definite singleton) — except
/// the top key, whose evidence splits 0.5/0.5. Under key-range
/// partitioning the doubles 0.5 occur in the file only inside the last
/// partition's chunk, giving the corruption test below a byte it can
/// flip in a known-prunable partition without parsing the manifest.
Catalog PruningCatalog() {
  DomainPtr dom =
      Domain::MakeSymbolic("pz_dom", {"z0", "z1", "z2", "z3"}).value();
  SchemaPtr schema = RelationSchema::Make({AttributeDef::Key("k"),
                                           AttributeDef::Definite("d"),
                                           AttributeDef::Uncertain("u", dom)})
                         .value();
  ExtendedRelation rel("P", schema);
  for (int64_t i = 0; i < 96; ++i) {
    MassFunction m =
        i == 95 ? MassFunction::FromUnmerged(
                      4, {{ValueSet::Singleton(4, 0), 0.5},
                          {ValueSet::Singleton(4, 1), 0.5}})
                : MassFunction::Definite(4, static_cast<size_t>(i) % 4);
    ExtendedTuple t;
    t.cells = {Value(i), Value(i / 10),
               EvidenceSet::MakeTrusted(dom, std::move(m))};
    t.membership = SupportPair::Certain();
    EXPECT_TRUE(rel.Insert(std::move(t)).ok());
  }
  Catalog catalog;
  EXPECT_TRUE(catalog.RegisterRelation(std::move(rel)).ok());
  return catalog;
}

TEST(ColumnImageV3Test, ZoneMapPruningMatchesMonolithicAndShowsInExplain) {
  const std::string parts_path = "/tmp/evident_test_v3_prune_parts.erel";
  const std::string mono_path = "/tmp/evident_test_v3_prune_mono.erel";
  Catalog catalog = PruningCatalog();
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 8;
  ASSERT_TRUE(SaveErelFile(catalog, parts_path, spec).ok());
  ASSERT_TRUE(SaveErelFile(catalog, mono_path, PartitionSpec{}).ok());
  auto partitioned = LoadErelFile(parts_path);
  auto monolithic = LoadErelFile(mono_path);
  ASSERT_TRUE(partitioned.ok()) << partitioned.status();
  ASSERT_TRUE(monolithic.ok()) << monolithic.status();

  // Keys 0..95 key-range split 8 ways: k < 12 is exactly partition 0,
  // so the other seven are refuted by their key zones.
  const std::string query = "SELECT * FROM P WHERE k < 12";
  QueryEngine part_engine(&*partitioned);
  QueryEngine mono_engine(&*monolithic);
  ResetScanStats();
  auto pruned_result = part_engine.Execute(query);
  ASSERT_TRUE(pruned_result.ok()) << pruned_result.status();
  const PartitionScanStats stats = CurrentScanStats();
  EXPECT_EQ(stats.partitions_considered, 8u);
  EXPECT_EQ(stats.partitions_pruned, 7u);
  auto full_result = mono_engine.Execute(query);
  ASSERT_TRUE(full_result.ok()) << full_result.status();
  EXPECT_EQ(pruned_result->size(), 12u);
  ExpectRelationsMatchByKey(*full_result, *pruned_result);

  auto explain = part_engine.Explain(query);
  ASSERT_TRUE(explain.ok()) << explain.status();
  EXPECT_NE(explain->find("partitions=7/8 pruned"), std::string::npos)
      << *explain;
  EXPECT_NE(explain->find("8 partition(s)"), std::string::npos) << *explain;

  // The operator API prunes too: a direct columnar Select over the
  // partitioned relation matches and records the skips.
  const ExtendedRelation* prel = partitioned->GetRelation("P").value();
  ResetScanStats();
  auto selected =
      Select(*prel, Theta(ThetaOperand::Attr("k"), ThetaOp::kLt,
                          ThetaOperand::LitValue(Value(int64_t{12}))));
  ASSERT_TRUE(selected.ok()) << selected.status();
  EXPECT_EQ(CurrentScanStats().partitions_pruned, 7u);
  EXPECT_EQ(selected->size(), 12u);
  std::remove(parts_path.c_str());
  std::remove(mono_path.c_str());
}

TEST(ColumnImageV3Test, PrunedPartitionsAreNeverVerified) {
  const std::string path = "/tmp/evident_test_v3_prune_corrupt.erel";
  Catalog catalog = PruningCatalog();
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kKeyRange;
  spec.partitions = 8;
  const std::string blob = WriteErelColumnImageV3(catalog, spec);
  // Flip a mantissa bit of a focal mass of the top-key row: the only
  // 0.5 doubles in the file live in the last partition's chunk.
  const double half = 0.5;
  std::string pattern(reinterpret_cast<const char*>(&half), sizeof(half));
  const size_t pos = blob.rfind(pattern);
  ASSERT_NE(pos, std::string::npos);
  std::string corrupt = blob;
  corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x01);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << corrupt;
  }

  // The eager (copied) load sees the corruption immediately...
  LoadOptions copied;
  copied.map = LoadOptions::Map::kNever;
  auto eager = LoadErelFile(path, copied, nullptr);
  ASSERT_FALSE(eager.ok());
  EXPECT_NE(eager.status().message().find("checksum"), std::string::npos)
      << eager.status();

  {
    // ...but a mapped load defers, and a query whose zone maps refute
    // the corrupt partition never reads — or verifies — its bytes.
    LoadOptions options;
    options.map = LoadOptions::Map::kAlways;
    auto mapped = LoadErelFile(path, options, nullptr);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    QueryEngine engine(&*mapped);
    ResetScanStats();
    auto result = engine.Execute("SELECT * FROM P WHERE k < 12");
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->size(), 12u);
    EXPECT_EQ(CurrentScanStats().partitions_pruned, 7u);
    // Touching everything surfaces exactly the eager load's first error.
    const ExtendedRelation* rel = mapped->GetRelation("P").value();
    const Status all = rel->columns().EnsureAllVerified();
    ASSERT_FALSE(all.ok());
    EXPECT_EQ(all.message(), eager.status().message());
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
}

TEST(ColumnImageV3Test, InsertIntoCopyOfCorruptMappedImageFails) {
  // Appending to a copy of a mapped relation rewrites every column, so
  // the image's deferred checks must run first: a corrupt image fails
  // the insert with the owned load's error instead of being copied out
  // (and later saved) as if it were data.
  const std::string path = "/tmp/evident_test_v3_insert_corrupt.erel";
  SchemaPtr schema = RelationSchema::Make({AttributeDef::Key("k"),
                                           AttributeDef::Definite("d")})
                         .value();
  auto tuple = [](int64_t k, int64_t d) {
    ExtendedTuple t;
    t.cells = {Value(k), Value(d)};
    t.membership = SupportPair::Certain();
    return t;
  };
  ExtendedRelation rel("R", schema);
  for (int64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(rel.Insert(tuple(i, 1000000007 * (i + 1))).ok());
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterRelation(std::move(rel)).ok());
  PartitionSpec spec;
  spec.scheme = PartitionSpec::Scheme::kHash;
  spec.partitions = 2;
  const std::string blob = WriteErelColumnImageV3(catalog, spec);

  // A d value of partition 0 that is neither its zone's min nor max
  // occurs in the file once: in partition 0's chunk.
  auto owned = ReadErel(blob);
  ASSERT_TRUE(owned.ok()) << owned.status();
  const ColumnStore& store = owned->GetRelation("R").value()->columns();
  ASSERT_EQ(store.partitions().size(), 2u);
  const ColumnStore::PartitionZone& zone = store.partitions()[0];
  size_t pos = std::string::npos;
  for (size_t r = zone.begin_row; r < zone.end_row; ++r) {
    const Value& v = store.value_column(1).values[r];
    if (v == zone.values[1].min || v == zone.values[1].max) continue;
    const int64_t d = v.int_value();
    const std::string pattern(reinterpret_cast<const char*>(&d), sizeof(d));
    pos = blob.find(pattern);
    ASSERT_EQ(pos, blob.rfind(pattern));
    break;
  }
  ASSERT_NE(pos, std::string::npos);
  std::string corrupt = blob;
  corrupt[pos + 1] = static_cast<char>(corrupt[pos + 1] ^ 0x01);
  WriteFile(path, corrupt);
  const Status eager = FirstLoadError(path, LoadOptions::Map::kNever);
  ASSERT_FALSE(eager.ok());
  EXPECT_NE(eager.message().find(
                "relation 'R' partition 0: chunk checksum mismatch"),
            std::string::npos)
      << eager;

  {
    LoadOptions options;
    options.map = LoadOptions::Map::kAlways;
    auto mapped = LoadErelFile(path, options, nullptr);
    ASSERT_TRUE(mapped.ok()) << mapped.status();
    ExtendedRelation copy = *mapped->GetRelation("R").value();
    const Status inserted = copy.Insert(tuple(1000, 1));
    EXPECT_EQ(inserted.message(), eager.message());
    EXPECT_EQ(copy.size(), 16u);
    // Nor can the relation be saved.
    Catalog resaved;
    ASSERT_TRUE(resaved.RegisterRelation(copy).ok());
    EXPECT_EQ(SaveErelFile(resaved, path + ".out").message(),
              eager.message());
  }
  EXPECT_EQ(MappedFile::live_mappings(), 0u);
  std::remove(path.c_str());
  std::remove((path + ".out").c_str());
}

TEST(CsvTest, ParsesHeaderAndRows) {
  auto table = ParseCsv("t", "a,b,c\n1,2,3\nx,y,z\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->columns, (std::vector<std::string>{"a", "b", "c"}));
  ASSERT_EQ(table->rows.size(), 2u);
  EXPECT_EQ(table->rows[1][2], "z");
}

TEST(CsvTest, HandlesQuotesAndEscapes) {
  auto table = ParseCsv("t", "a,b\n\"x,y\",\"he said \"\"hi\"\"\"\n");
  ASSERT_TRUE(table.ok()) << table.status();
  EXPECT_EQ(table->rows[0][0], "x,y");
  EXPECT_EQ(table->rows[0][1], "he said \"hi\"");
}

TEST(CsvTest, HandlesCrLf) {
  auto table = ParseCsv("t", "a,b\r\n1,2\r\n");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows[0][0], "1");
}

TEST(CsvTest, Errors) {
  EXPECT_FALSE(ParseCsv("t", "").ok());
  EXPECT_FALSE(ParseCsv("t", "a,b\n1\n").ok());
  EXPECT_FALSE(ParseCsv("t", "a,b\n\"unterminated,2\n").ok());
}

TEST(CsvTest, WriteRoundTrip) {
  RawTable t;
  t.name = "t";
  t.columns = {"a", "b"};
  t.rows = {{"plain", "with,comma"}, {"q\"uote", "x"}};
  auto reparsed = ParseCsv("t", WriteCsv(t));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->rows, t.rows);
}

}  // namespace
}  // namespace evident
