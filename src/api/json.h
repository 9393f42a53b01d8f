/// \file
/// Hand-rolled JSON writer and pull reader for the wire-level guidance API
/// (DESIGN.md §10). No third-party dependencies, mirroring the data/io
/// philosophy: explicit escaping rules, lossless numeric round trips, and
/// bounds-checked reading that surfaces malformed input as Status errors
/// instead of undefined behavior.
///
/// There is no document tree: JsonReader reads one value at a time straight
/// from the text, so a decoder assigns each member as it passes and a frame
/// is read in one pass.
///
/// Numeric fidelity: integers are emitted as exact decimals and read back
/// as uint64/int64, so 64-bit seeds and SIZE_MAX budgets survive untouched
/// (a double-typed reader would silently round above 2^53). Doubles are
/// emitted by std::to_chars at 17 significant digits (the bytes of %.17g)
/// and read by std::from_chars, which round-trips them bit-for-bit; and
/// non-finite values are REJECTED on write, since JSON has no NaN/Infinity
/// literal and lossy substitutes would break the codec's lossless-round-trip
/// guarantee.

#ifndef VERITAS_API_JSON_H_
#define VERITAS_API_JSON_H_

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace veritas {

/// Streaming JSON writer with automatic comma/nesting management. Misuse
/// (a key outside an object, a bare value where a key is required) and
/// non-finite doubles latch a non-OK status(); the accumulated text is then
/// meaningless and the codec discards it.
class JsonWriter {
 public:
  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();

  /// Emits the key of the next object member.
  JsonWriter& Key(const std::string& key);

  JsonWriter& String(const std::string& value);
  JsonWriter& Bool(bool value);
  JsonWriter& UInt(uint64_t value);
  JsonWriter& Int(int64_t value);
  /// Rejects NaN and infinities (latches kInvalidArgument).
  JsonWriter& Double(double value);
  JsonWriter& Null();

  const Status& status() const { return status_; }

  /// The document text. Valid only when status() is OK and every container
  /// has been closed.
  Result<std::string> Take();

 private:
  /// Comma/key bookkeeping before a value or key is emitted.
  void BeforeValue();
  void Fail(const std::string& message);

  enum class Scope : uint8_t { kObject, kArray };
  struct Frame {
    Scope scope;
    bool has_members = false;
  };

  std::string out_;
  std::vector<Frame> stack_;
  bool key_pending_ = false;
  bool root_written_ = false;
  Status status_;
};

/// Pull reader over one JSON document: each call reads the next value, and
/// nothing is built but what the caller keeps. Strict JSON — no leading
/// zeros, digits after '.' and 'e', escapes checked with paired surrogates,
/// no raw control characters, no trailing garbage (ExpectEnd) — with
/// nesting bounded at 64 levels and the byte offset in every syntax error.
/// A member named twice in one object is refused, so every reader of a
/// document sees the same value for a key. A typed read of another kind of
/// value fails; after any error, discard the reader. `text` must outlive
/// the reader and the keys it hands out.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// Reads an object: `member(std::string_view key)` is called per member,
  /// in document order, and must consume its value (a read or Skip) or
  /// return an error, which ends the read.
  template <typename Member>
  Status ReadObject(Member&& member) {
    VERITAS_RETURN_IF_ERROR(Open('{', "expected an object"));
    const size_t first_key = keys_.size();
    bool more = false;
    for (bool first = true;; first = false) {
      VERITAS_RETURN_IF_ERROR(Next('}', first, &more));
      if (!more) return CloseObject(first_key);
      std::string_view key;
      VERITAS_RETURN_IF_ERROR(ReadKey(&key));
      VERITAS_RETURN_IF_ERROR(member(key));
    }
  }

  /// Reads an array: `item()` is called per element and must consume it.
  template <typename Item>
  Status ReadArray(Item&& item) {
    VERITAS_RETURN_IF_ERROR(Open('[', "expected an array"));
    bool more = false;
    for (bool first = true;; first = false) {
      VERITAS_RETURN_IF_ERROR(Next(']', first, &more));
      if (!more) break;
      VERITAS_RETURN_IF_ERROR(item());
    }
    path_.pop_back();
    return Status::OK();
  }

  Status ReadBool(bool* out);
  Status ReadString(std::string* out);
  /// Strict non-negative integer (rejects sign, fraction and exponent).
  Status ReadU64(uint64_t* out);
  Status ReadI64(int64_t* out);
  /// Any JSON number; an overflow to +-inf is refused (kOutOfRange), an
  /// underflow reads as a zero of the literal's sign.
  Status ReadDouble(double* out);
  /// Consumes one value of any shape, validating it; `span` (optional)
  /// receives its bytes.
  Status Skip(std::string_view* span = nullptr);

  /// Succeeds when only whitespace remains.
  Status ExpectEnd();

 private:
  Status Error(const std::string& message) const;
  void SkipWhitespace();
  bool Consume(char expected);
  /// Nesting depth, whitespace, end of input: what every value checks.
  Status StartValue();
  /// Reads a number's literal, refusing another kind of value.
  Status ReadNumber(std::string_view* literal);
  /// Enters the container opening with `open`, or fails with `mismatch`.
  Status Open(char open, const char* mismatch);
  /// Steps to the next element of the innermost container (past its ','):
  /// `*more` is false once `close` is consumed.
  Status Next(char close, bool first, bool* more);
  /// Reads a member's key and its ':'.
  Status ReadKey(std::string_view* key);
  /// Leaves the innermost object, refusing a key that repeats among
  /// `keys_[first_key...]`.
  Status CloseObject(size_t first_key);
  Status ScanNumber(std::string_view* literal);
  /// Reads a string literal into `out` (null: validate only).
  Status ScanString(std::string* out);
  Status ScanHex4(uint32_t* out);
  /// Reads `true`, `false` or `null`.
  Status ScanLiteral(std::string_view* literal);

  std::string_view text_;
  size_t pos_ = 0;
  /// Per open container, outermost first: the key being read (empty in
  /// arrays). Its size is the nesting depth.
  std::vector<std::string_view> path_;
  /// Keys of the open objects, innermost last.
  std::vector<std::string_view> keys_;
  /// Keys that held escapes, unescaped (stable addresses).
  std::list<std::string> unescaped_keys_;
};

}  // namespace veritas

#endif  // VERITAS_API_JSON_H_
