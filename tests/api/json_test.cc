#include "api/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace veritas {
namespace {

/// Reads `text` as one whole document of any shape.
Status Validate(const std::string& text) {
  JsonReader reader(text);
  VERITAS_RETURN_IF_ERROR(reader.Skip());
  return reader.ExpectEnd();
}

/// Reads `text` as one whole document holding one value of type T.
template <typename T, typename Read>
Result<T> ReadWhole(const std::string& text, Read read) {
  JsonReader reader(text);
  T value{};
  VERITAS_RETURN_IF_ERROR((reader.*read)(&value));
  VERITAS_RETURN_IF_ERROR(reader.ExpectEnd());
  return value;
}

Result<std::string> ReadString(const std::string& text) {
  return ReadWhole<std::string>(text, &JsonReader::ReadString);
}
Result<uint64_t> ReadU64(const std::string& text) {
  return ReadWhole<uint64_t>(text, &JsonReader::ReadU64);
}
Result<int64_t> ReadI64(const std::string& text) {
  return ReadWhole<int64_t>(text, &JsonReader::ReadI64);
}
Result<double> ReadDouble(const std::string& text) {
  return ReadWhole<double>(text, &JsonReader::ReadDouble);
}

TEST(JsonWriterTest, ObjectArrayNesting) {
  JsonWriter w;
  w.BeginObject();
  w.Key("name").String("veritas");
  w.Key("count").UInt(3);
  w.Key("items").BeginArray();
  w.UInt(1);
  w.UInt(2);
  w.BeginObject();
  w.Key("nested").Bool(true);
  w.EndObject();
  w.EndArray();
  w.Key("none").Null();
  w.EndObject();
  auto text = w.Take();
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_EQ(text.value(),
            "{\"name\":\"veritas\",\"count\":3,\"items\":[1,2,"
            "{\"nested\":true}],\"none\":null}");
}

TEST(JsonWriterTest, MisuseLatchesError) {
  {
    JsonWriter w;
    w.BeginObject();
    w.String("value without a key");
    EXPECT_FALSE(w.status().ok());
    EXPECT_FALSE(w.Take().ok());
  }
  {
    JsonWriter w;
    w.Key("key outside object");
    EXPECT_FALSE(w.status().ok());
  }
  {
    JsonWriter w;
    w.BeginObject();
    EXPECT_FALSE(w.Take().ok());  // unterminated container
  }
  {
    JsonWriter w;
    w.BeginArray();
    w.EndObject();  // wrong closer
    EXPECT_FALSE(w.status().ok());
  }
}

TEST(JsonWriterTest, NonFiniteDoublesRejected) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    JsonWriter w;
    w.BeginArray();
    w.Double(bad);
    w.EndArray();
    EXPECT_FALSE(w.Take().ok()) << bad;
  }
}

TEST(JsonEscapingTest, ControlQuoteBackslashRoundTrip) {
  // The edge cases the wire protocol must survive: claim texts and error
  // messages with tabs, quotes, newlines, backslashes and raw controls.
  const std::string cases[] = {
      "plain",
      "tab\there",
      "quote\"inside",
      "back\\slash",
      "new\nline and \r return",
      std::string("nul\0byte", 8),
      "\x01\x02\x1f control soup",
      "unicode \xc3\xa9\xe2\x82\xac bytes",  // UTF-8 passes through verbatim
      "",
  };
  for (const std::string& raw : cases) {
    JsonWriter w;
    w.String(raw);
    auto text = w.Take();
    ASSERT_TRUE(text.ok());
    auto decoded = ReadString(text.value());
    ASSERT_TRUE(decoded.ok()) << decoded.status() << " for " << text.value();
    EXPECT_EQ(decoded.value(), raw);
  }
}

TEST(JsonEscapingTest, UnicodeEscapesDecode) {
  auto decoded = ReadString("\"a\\u0041 \\u00e9 \\u20ac \\ud83d\\ude00\"");
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  // A, e-acute, euro sign, emoji via surrogate pair - all as UTF-8.
  EXPECT_EQ(decoded.value(), "aA \xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80");
}

TEST(JsonEscapingTest, BadEscapesRejected) {
  for (const char* bad :
       {"\"\\q\"", "\"\\u12\"", "\"\\ud800 unpaired\"", "\"\\udc00\"",
        "\"unterminated", "\"raw\tcontrol\""}) {
    EXPECT_FALSE(Validate(bad).ok()) << bad;
    EXPECT_FALSE(ReadString(bad).ok()) << bad;
  }
}

TEST(JsonNumberTest, U64ExactRoundTrip) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const uint64_t value = rng.NextU64();
    JsonWriter w;
    w.UInt(value);
    auto back = ReadU64(w.Take().value());
    ASSERT_TRUE(back.ok()) << back.status();
    // Exact for the full 64-bit range - the reason numbers keep their raw
    // literal instead of passing through double.
    EXPECT_EQ(back.value(), value);
  }
  JsonWriter w;
  w.UInt(UINT64_MAX);
  EXPECT_EQ(ReadU64(w.Take().value()).value(), UINT64_MAX);
}

TEST(JsonNumberTest, DoubleBitExactRoundTrip) {
  Rng rng(13);
  std::vector<double> values = {0.0,
                                -0.0,
                                1.0 / 3.0,
                                1e-308,
                                5e-324,  // smallest denormal
                                1.7976931348623157e308,
                                -123456.789e-12};
  for (int i = 0; i < 500; ++i) {
    values.push_back(rng.Normal(0.0, 1e6));
    values.push_back(rng.Uniform(-1.0, 1.0));
  }
  for (const double value : values) {
    JsonWriter w;
    w.Double(value);
    auto text = w.Take();
    ASSERT_TRUE(text.ok());
    // The writer's bytes are those of %.17g.
    char expected[32];
    std::snprintf(expected, sizeof(expected), "%.17g", value);
    EXPECT_EQ(text.value(), expected);
    auto back = ReadDouble(text.value());
    ASSERT_TRUE(back.ok()) << back.status();
    const double decoded = back.value();
    EXPECT_EQ(std::memcmp(&decoded, &value, sizeof(double)), 0)
        << "double " << value << " did not round-trip bit-for-bit";
  }
}

TEST(JsonNumberTest, TypedAccessorsAreStrict) {
  EXPECT_FALSE(ReadU64("1.5").ok());
  EXPECT_FALSE(ReadU64("-3").ok());
  EXPECT_FALSE(ReadU64("1e3").ok());
  EXPECT_FALSE(ReadI64("1.5").ok());
  EXPECT_EQ(ReadI64("-3").value(), -3);
  EXPECT_EQ(ReadU64("18446744073709551616").status().code(),
            StatusCode::kOutOfRange);
  EXPECT_FALSE(ReadU64("\"7\"").ok());
  EXPECT_FALSE(ReadDouble("true").ok());
  // 1e999 overflows double -> error instead of a silent infinity.
  EXPECT_EQ(ReadDouble("1e999").status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(ReadDouble("-1e999").status().code(), StatusCode::kOutOfRange);
  // An underflow reads as a zero of the literal's sign, as strtod reads it.
  auto tiny = ReadDouble("1e-400");
  ASSERT_TRUE(tiny.ok()) << tiny.status();
  EXPECT_EQ(tiny.value(), 0.0);
  EXPECT_FALSE(std::signbit(tiny.value()));
  auto negative_tiny = ReadDouble("-1e-400");
  ASSERT_TRUE(negative_tiny.ok()) << negative_tiny.status();
  EXPECT_EQ(negative_tiny.value(), 0.0);
  EXPECT_TRUE(std::signbit(negative_tiny.value()));
  // NaN/Infinity are not JSON.
  EXPECT_FALSE(Validate("NaN").ok());
  EXPECT_FALSE(Validate("Infinity").ok());
  EXPECT_FALSE(Validate("-Infinity").ok());
}

TEST(JsonParserTest, MalformedDocumentsRejected) {
  const char* cases[] = {
      "",
      "{",
      "}",
      "{\"a\":}",
      "{\"a\":1,}",
      "{\"a\" 1}",
      "[1,]",
      "[1 2]",
      "{\"a\":1}trailing",
      "tru",
      "01",          // leading zero
      "+1",
      "1.",
      "1e",
      "{\"a\":1} {\"b\":2}",
  };
  for (const char* bad : cases) {
    EXPECT_FALSE(Validate(bad).ok()) << "accepted: " << bad;
  }
  // Syntax errors carry the byte offset.
  const Status status = Validate("[1 2]");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("at offset 3"), std::string::npos) << status;
}

TEST(JsonParserTest, DepthLimitBoundsRecursion) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(Validate(deep).ok());
  std::string shallow = "[[[[[[[[1]]]]]]]]";
  EXPECT_TRUE(Validate(shallow).ok());
}

TEST(JsonReaderTest, UnknownMembersOfAnyShapeAreSkipped) {
  const std::string text =
      "{\"unknown\":{\"x\":[true,null,{\"y\":\"\\u00e9\"}]},\"known\":1,"
      "\"list\":[[],{}],\"text\":\"a\\\"b\",\"number\":-1.5e-3,"
      "\"flag\":false,\"nothing\":null}";
  JsonReader reader(text);
  uint64_t known = 0;
  std::vector<std::string> keys;
  const Status status = reader.ReadObject([&](std::string_view key) {
    keys.emplace_back(key);
    if (key == "known") return reader.ReadU64(&known);
    return reader.Skip();
  });
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(reader.ExpectEnd().ok());
  EXPECT_EQ(known, 1u);
  EXPECT_EQ(keys, (std::vector<std::string>{"unknown", "known", "list", "text",
                                            "number", "flag", "nothing"}));
}

TEST(JsonReaderTest, DuplicateMembersRejectedWithKeyPath) {
  for (const char* text :
       {"{\"a\":{\"b\":1,\"c\":2,\"b\":1}}",
        // The same name spelled with an escape is the same name.
        "{\"a\":{\"b\":1,\"\\u0062\":2}}"}) {
    const Status status = Validate(text);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << text;
    EXPECT_NE(status.message().find("a: json: duplicate member \"b\""),
              std::string::npos)
        << status;
  }
  // Equal names in different objects are not duplicates.
  EXPECT_TRUE(Validate("{\"a\":{\"b\":1},\"c\":{\"b\":1},\"b\":[{\"b\":2}]}")
                  .ok());
}

TEST(JsonReaderTest, SkipReportsTheValueSpan) {
  JsonReader reader(" { \"k\" : [1, {\"x\":\"}\"}] , \"n\":7 } ");
  std::string_view span;
  const Status status = reader.ReadObject([&](std::string_view key) {
    if (key == "k") return reader.Skip(&span);
    return reader.Skip();
  });
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(span, "[1, {\"x\":\"}\"}]");
  EXPECT_TRUE(reader.ExpectEnd().ok());
}

}  // namespace
}  // namespace veritas
