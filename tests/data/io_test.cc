#include "data/io.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/corpus_fixtures.h"

namespace veritas {
namespace {

uint64_t Bits(double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

void ExpectSameFeatures(const std::vector<double>& a,
                        const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(Bits(a[i]), Bits(b[i])) << "feature " << i;
  }
}

/// Every field of two databases, features compared bit for bit.
void ExpectSameDatabase(const FactDatabase& a, const FactDatabase& b) {
  ASSERT_EQ(a.num_sources(), b.num_sources());
  ASSERT_EQ(a.num_documents(), b.num_documents());
  ASSERT_EQ(a.num_claims(), b.num_claims());
  ASSERT_EQ(a.num_cliques(), b.num_cliques());
  for (SourceId s = 0; s < a.num_sources(); ++s) {
    EXPECT_EQ(a.source(s).name, b.source(s).name);
    ExpectSameFeatures(a.source(s).features, b.source(s).features);
  }
  for (DocumentId d = 0; d < a.num_documents(); ++d) {
    EXPECT_EQ(a.document(d).source, b.document(d).source);
    ExpectSameFeatures(a.document(d).features, b.document(d).features);
  }
  for (ClaimId c = 0; c < a.num_claims(); ++c) {
    EXPECT_EQ(a.claim(c).text, b.claim(c).text);
    EXPECT_EQ(a.has_ground_truth(c), b.has_ground_truth(c));
    EXPECT_EQ(a.ground_truth(c), b.ground_truth(c));
  }
  for (size_t i = 0; i < a.num_cliques(); ++i) {
    EXPECT_EQ(a.clique(i).claim, b.clique(i).claim);
    EXPECT_EQ(a.clique(i).document, b.clique(i).document);
    EXPECT_EQ(a.clique(i).source, b.clique(i).source);
    EXPECT_EQ(a.clique(i).stance, b.clique(i).stance);
  }
}

/// Write -> read; the reader must consume the record exactly, and writing
/// the result again must reproduce the bytes.
FactDatabase RoundTrip(const FactDatabase& original) {
  BinaryWriter writer;
  WriteFactDatabase(original, &writer);
  BinaryReader reader(writer.buffer());
  auto loaded = ReadFactDatabase(&reader);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  if (!loaded.ok()) return FactDatabase();
  EXPECT_TRUE(reader.AtEnd());
  BinaryWriter again;
  WriteFactDatabase(loaded.value(), &again);
  EXPECT_EQ(again.buffer(), writer.buffer());
  return std::move(loaded).value();
}

TEST(IoTest, RoundTripPreservesStructure) {
  const FactDatabase original = testing::MakeHandDatabase();
  const FactDatabase db = RoundTrip(original);
  EXPECT_EQ(db.num_sources(), original.num_sources());
  EXPECT_EQ(db.num_documents(), original.num_documents());
  EXPECT_EQ(db.num_claims(), original.num_claims());
  EXPECT_EQ(db.num_cliques(), original.num_cliques());
  EXPECT_TRUE(db.Validate().ok());
  ExpectSameDatabase(db, original);
}

TEST(IoTest, RoundTripPreservesFeatures) {
  const FactDatabase original = testing::MakeHandDatabase();
  const FactDatabase loaded = RoundTrip(original);
  for (SourceId s = 0; s < original.num_sources(); ++s) {
    ExpectSameFeatures(original.source(s).features, loaded.source(s).features);
  }
  for (DocumentId d = 0; d < original.num_documents(); ++d) {
    ExpectSameFeatures(original.document(d).features,
                       loaded.document(d).features);
  }
}

TEST(IoTest, RoundTripPreservesGroundTruthAndStance) {
  const FactDatabase original = testing::MakeHandDatabase();
  const FactDatabase loaded = RoundTrip(original);
  for (ClaimId id = 0; id < original.num_claims(); ++id) {
    EXPECT_EQ(loaded.has_ground_truth(id), original.has_ground_truth(id));
    if (original.has_ground_truth(id)) {
      EXPECT_EQ(loaded.ground_truth(id), original.ground_truth(id));
    }
  }
  for (size_t i = 0; i < original.num_cliques(); ++i) {
    EXPECT_EQ(loaded.clique(i).stance, original.clique(i).stance);
  }
}

TEST(IoTest, UnknownGroundTruthRoundTrips) {
  FactDatabase db;
  db.AddSource({"s", {0.5}});
  db.AddDocument({0, {0.5}});
  db.AddClaim({"no-truth"});
  ASSERT_TRUE(db.AddMention(0, 0, Stance::kSupport).ok());
  EXPECT_FALSE(RoundTrip(db).has_ground_truth(0));
}

TEST(IoTest, LoadMissingDirectoryFails) {
  auto loaded = ReadFileBytes(::testing::TempDir() +
                              "/veritas_io_does_not_exist/session.bin");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(IoTest, FeatureRoundTripIsValueExact) {
  FactDatabase db;
  db.AddSource({"s", {1.0 / 3.0, 0.1234567890123456789, 1e-17, -0.0}});
  db.AddDocument({0, {2.0 / 7.0, 0.30000000000000004, 1e-300,
                      std::numeric_limits<double>::denorm_min()}});
  db.AddClaim({"c"});
  ASSERT_TRUE(db.AddMention(0, 0, Stance::kSupport).ok());
  const FactDatabase loaded = RoundTrip(db);
  const auto& source = loaded.source(0).features;
  const auto& document = loaded.document(0).features;
  ASSERT_EQ(source.size(), 4u);
  ASSERT_EQ(document.size(), 4u);
  // Bit-exact: checkpoint restore rebuilds inference inputs from these.
  EXPECT_EQ(Bits(source[0]), Bits(1.0 / 3.0));
  EXPECT_EQ(Bits(source[1]), Bits(0.1234567890123456789));
  EXPECT_EQ(Bits(source[2]), Bits(1e-17));
  EXPECT_EQ(Bits(source[3]), Bits(-0.0));
  EXPECT_EQ(Bits(document[0]), Bits(2.0 / 7.0));
  EXPECT_EQ(Bits(document[1]), Bits(0.30000000000000004));
  EXPECT_EQ(Bits(document[2]), Bits(1e-300));
  EXPECT_EQ(Bits(document[3]),
            Bits(std::numeric_limits<double>::denorm_min()));
}

TEST(IoTest, EmptyDatabaseRoundTrips) {
  const FactDatabase loaded = RoundTrip(FactDatabase());
  EXPECT_EQ(loaded.num_sources(), 0u);
  EXPECT_EQ(loaded.num_documents(), 0u);
  EXPECT_EQ(loaded.num_claims(), 0u);
  EXPECT_EQ(loaded.num_cliques(), 0u);
}

TEST(IoTest, UnknownTruthMarkerIsByteTwo) {
  FactDatabase db;
  db.AddClaim({"known-true"});
  db.AddClaim({"unknown"});
  db.AddClaim({"known-false"});
  db.SetGroundTruth(0, true);
  db.SetGroundTruth(2, false);
  BinaryWriter writer;
  WriteFactDatabase(db, &writer);
  // Each claim is its text then the truth byte.
  const std::string& bytes = writer.buffer();
  const auto truth_after = [&](const std::string& text) {
    return bytes[bytes.find(text) + text.size()];
  };
  EXPECT_EQ(truth_after("known-true"), 1);
  EXPECT_EQ(truth_after("unknown"), 2);
  EXPECT_EQ(truth_after("known-false"), 0);
  const FactDatabase loaded = RoundTrip(db);
  EXPECT_TRUE(loaded.has_ground_truth(0));
  EXPECT_TRUE(loaded.ground_truth(0));
  EXPECT_FALSE(loaded.has_ground_truth(1));
  EXPECT_TRUE(loaded.has_ground_truth(2));
  EXPECT_FALSE(loaded.ground_truth(2));
}

TEST(IoTest, ClaimTextWithSeparatorsRoundTrips) {
  FactDatabase db;
  db.AddSource({"tabby\tsource\nsecond line", {0.5}});
  db.AddDocument({0, {0.5}});
  db.AddClaim({"line one\nline two\twith\ttabs\r\nand \\backslash\\"});
  db.AddClaim({""});  // empty text must survive too
  db.AddClaim({std::string("control \x01 and \x1f and ") + '\0' + " nul"});
  ASSERT_TRUE(db.AddMention(0, 0, Stance::kSupport).ok());
  ASSERT_TRUE(db.AddMention(0, 1, Stance::kSupport).ok());
  ASSERT_TRUE(db.AddMention(0, 2, Stance::kRefute).ok());
  const FactDatabase loaded = RoundTrip(db);
  EXPECT_EQ(loaded.source(0).name, db.source(0).name);
  EXPECT_EQ(loaded.claim(0).text, db.claim(0).text);
  EXPECT_EQ(loaded.claim(1).text, db.claim(1).text);
  EXPECT_EQ(loaded.claim(2).text, db.claim(2).text);
}

/// One source, one document, one claim and one mention, each field
/// settable: every malformed case below differs from a valid record in one
/// field.
struct RecordFields {
  uint32_t document_source = 0;
  uint8_t truth = 1;
  uint32_t mention_document = 0;
  uint32_t mention_claim = 0;
  uint8_t stance = 0;
};

std::string Record(const RecordFields& f) {
  BinaryWriter w;
  w.U64(1);
  w.Str("s");
  w.VecF64({0.5});
  w.U64(1);
  w.U32(f.document_source);
  w.VecF64({0.25});
  w.U64(1);
  w.Str("c");
  w.U8(f.truth);
  w.U64(1);
  w.U32(f.mention_document);
  w.U32(f.mention_claim);
  w.U8(f.stance);
  return w.buffer();
}

Status Read(const std::string& bytes) {
  BinaryReader reader(bytes);
  return ReadFactDatabase(&reader).status();
}

TEST(IoTest, MalformedRecordsAreRejected) {
  // The hand layout matches the writer's.
  const std::string valid = Record({});
  ASSERT_TRUE(Read(valid).ok());
  FactDatabase db;
  db.AddSource({"s", {0.5}});
  db.AddDocument({0, {0.25}});
  db.AddClaim({"c"});
  db.SetGroundTruth(0, true);
  ASSERT_TRUE(db.AddMention(0, 0, Stance::kSupport).ok());
  BinaryWriter writer;
  WriteFactDatabase(db, &writer);
  ASSERT_EQ(writer.buffer(), valid);

  RecordFields bad_claim;
  bad_claim.mention_claim = 1;
  EXPECT_EQ(Read(Record(bad_claim)).code(), StatusCode::kOutOfRange);
  RecordFields bad_document;
  bad_document.mention_document = 1;
  EXPECT_EQ(Read(Record(bad_document)).code(), StatusCode::kOutOfRange);
  RecordFields missing_source;
  missing_source.document_source = 1;
  EXPECT_FALSE(Read(Record(missing_source)).ok());
  RecordFields bad_stance;
  bad_stance.stance = 2;
  EXPECT_EQ(Read(Record(bad_stance)).code(), StatusCode::kInvalidArgument);
  RecordFields bad_truth;
  bad_truth.truth = 3;
  EXPECT_EQ(Read(Record(bad_truth)).code(), StatusCode::kInvalidArgument);

  // A count larger than the bytes left fails before anything is allocated.
  BinaryWriter huge;
  huge.U64(uint64_t{1} << 60);
  EXPECT_EQ(Read(huge.buffer()).code(), StatusCode::kOutOfRange);
  // So does every strict prefix of the valid record.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    EXPECT_FALSE(Read(valid.substr(0, cut)).ok()) << "prefix " << cut;
  }
}

TEST(BinaryIoTest, ScalarAndVectorRoundTripIsBitExact) {
  BinaryWriter writer;
  writer.U8(0xab);
  writer.U32(0xdeadbeefu);
  writer.U64(0x0123456789abcdefull);
  writer.F64(-0.1234567890123456789);
  writer.Str("checkpoint \xff bytes\n");
  writer.VecF64({0.5, -1e-300, 1e300, 0.1 + 0.2});
  writer.VecU32({3, 1, 4, 1, 5});
  writer.VecU8({0, 1, 1, 0});

  BinaryReader reader(writer.buffer());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  double f64 = 0.0;
  std::string str;
  std::vector<double> vf;
  std::vector<uint32_t> vu32;
  std::vector<uint8_t> vu8;
  ASSERT_TRUE(reader.U8(&u8).ok());
  ASSERT_TRUE(reader.U32(&u32).ok());
  ASSERT_TRUE(reader.U64(&u64).ok());
  ASSERT_TRUE(reader.F64(&f64).ok());
  ASSERT_TRUE(reader.Str(&str).ok());
  ASSERT_TRUE(reader.VecF64(&vf).ok());
  ASSERT_TRUE(reader.VecU32(&vu32).ok());
  ASSERT_TRUE(reader.VecU8(&vu8).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  uint64_t want_bits = 0, got_bits = 0;
  const double want = -0.1234567890123456789;
  std::memcpy(&want_bits, &want, 8);
  std::memcpy(&got_bits, &f64, 8);
  EXPECT_EQ(got_bits, want_bits);
  EXPECT_EQ(str, "checkpoint \xff bytes\n");
  EXPECT_EQ(vf, (std::vector<double>{0.5, -1e-300, 1e300, 0.1 + 0.2}));
  EXPECT_EQ(vu32, (std::vector<uint32_t>{3, 1, 4, 1, 5}));
  EXPECT_EQ(vu8, (std::vector<uint8_t>{0, 1, 1, 0}));
  EXPECT_TRUE(reader.AtEnd());
}

TEST(BinaryIoTest, TruncatedBufferIsRejected) {
  BinaryWriter writer;
  writer.VecF64({1.0, 2.0, 3.0});
  const std::string& full = writer.buffer();
  BinaryReader reader(full.substr(0, full.size() - 1));
  std::vector<double> out;
  EXPECT_EQ(reader.VecF64(&out).code(), StatusCode::kOutOfRange);
  // A length prefix pointing past the buffer must be caught, not crash.
  BinaryWriter huge;
  huge.U64(static_cast<uint64_t>(1) << 62);
  BinaryReader huge_reader(huge.buffer());
  EXPECT_EQ(huge_reader.VecF64(&out).code(), StatusCode::kOutOfRange);
}

TEST(IoTest, EmulatedCorpusRoundTrips) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(17);
  ExpectSameDatabase(RoundTrip(corpus.db), corpus.db);
}

}  // namespace
}  // namespace veritas
