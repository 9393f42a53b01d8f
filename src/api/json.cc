#include "api/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <type_traits>

namespace veritas {

namespace {

constexpr size_t kMaxParseDepth = 64;

const char* kHex = "0123456789abcdef";

/// Escapes a string for a JSON string literal: quote, backslash and control
/// characters become their escape sequences (\" \\ \n \t \r \b \f, \u00XX
/// for the rest). Bytes >= 0x20 pass through untouched, so UTF-8 payloads
/// survive verbatim.
std::string EscapeJson(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  for (const char c : raw) {
    const unsigned char u = static_cast<unsigned char>(c);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      default:
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[(u >> 4) & 0xf];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// ---- writer ----------------------------------------------------------------

void JsonWriter::Fail(const std::string& message) {
  if (status_.ok()) status_ = Status::InvalidArgument("JsonWriter: " + message);
}

void JsonWriter::BeforeValue() {
  if (!status_.ok()) return;
  if (stack_.empty()) {
    if (root_written_) Fail("multiple root values");
    root_written_ = true;
    return;
  }
  Frame& top = stack_.back();
  if (top.scope == Scope::kObject) {
    if (!key_pending_) {
      Fail("value in object without a key");
      return;
    }
    key_pending_ = false;
  } else {
    if (top.has_members) out_ += ',';
  }
  top.has_members = true;
}

JsonWriter& JsonWriter::Key(const std::string& key) {
  if (!status_.ok()) return *this;
  if (stack_.empty() || stack_.back().scope != Scope::kObject) {
    Fail("key outside an object");
    return *this;
  }
  if (key_pending_) {
    Fail("two keys in a row");
    return *this;
  }
  if (stack_.back().has_members) out_ += ',';
  out_ += '"';
  out_ += EscapeJson(key);
  out_ += "\":";
  key_pending_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginObject() {
  BeforeValue();
  if (status_.ok()) {
    out_ += '{';
    stack_.push_back({Scope::kObject, false});
  }
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  if (!status_.ok()) return *this;
  if (stack_.empty() || stack_.back().scope != Scope::kObject || key_pending_) {
    Fail("mismatched EndObject");
    return *this;
  }
  out_ += '}';
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  BeforeValue();
  if (status_.ok()) {
    out_ += '[';
    stack_.push_back({Scope::kArray, false});
  }
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  if (!status_.ok()) return *this;
  if (stack_.empty() || stack_.back().scope != Scope::kArray) {
    Fail("mismatched EndArray");
    return *this;
  }
  out_ += ']';
  stack_.pop_back();
  return *this;
}

JsonWriter& JsonWriter::String(const std::string& value) {
  BeforeValue();
  if (status_.ok()) {
    out_ += '"';
    out_ += EscapeJson(value);
    out_ += '"';
  }
  return *this;
}

JsonWriter& JsonWriter::Bool(bool value) {
  BeforeValue();
  if (status_.ok()) out_ += value ? "true" : "false";
  return *this;
}

JsonWriter& JsonWriter::UInt(uint64_t value) {
  BeforeValue();
  if (status_.ok()) out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t value) {
  BeforeValue();
  if (status_.ok()) out_ += std::to_string(value);
  return *this;
}

JsonWriter& JsonWriter::Double(double value) {
  if (!std::isfinite(value)) {
    Fail("non-finite double has no JSON representation");
    return *this;
  }
  BeforeValue();
  if (status_.ok()) {
    // max_digits10 precision (the bytes of %.17g): from_chars recovers the
    // exact bit pattern.
    char buffer[32];
    const auto written = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                       std::chars_format::general, 17);
    out_.append(buffer, written.ptr);
  }
  return *this;
}

JsonWriter& JsonWriter::Null() {
  BeforeValue();
  if (status_.ok()) out_ += "null";
  return *this;
}

Result<std::string> JsonWriter::Take() {
  if (!status_.ok()) return status_;
  if (!stack_.empty()) {
    return Status::InvalidArgument("JsonWriter: unterminated container");
  }
  if (!root_written_) {
    return Status::InvalidArgument("JsonWriter: empty document");
  }
  return std::move(out_);
}

// ---- reader ----------------------------------------------------------------

namespace {

/// Appends the UTF-8 encoding of a code point (BMP + supplementary).
void AppendUtf8(uint32_t cp, std::string* out) {
  if (cp < 0x80) {
    out->push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else if (cp < 0x10000) {
    out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  } else {
    out->push_back(static_cast<char>(0xf0 | (cp >> 18)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
    out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
  }
}

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

bool IsWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

/// `literal` (a valid JSON number) as an integer of type T, refusing a
/// fraction or an exponent (and a sign, for unsigned T) and an overflow.
template <typename T>
Status ToInteger(std::string_view literal, T* out) {
  constexpr bool kUnsigned = std::is_unsigned_v<T>;
  if (literal.find_first_of(kUnsigned ? ".eE-" : ".eE") !=
      std::string_view::npos) {
    return Status::InvalidArgument(
        std::string("json: expected an ") + (kUnsigned ? "unsigned " : "") +
        "integer, got " + std::string(literal));
  }
  const char* end = literal.data() + literal.size();
  if (std::from_chars(literal.data(), end, *out).ec != std::errc()) {
    return Status::OutOfRange(std::string("json: integer out of ") +
                              (kUnsigned ? "uint64" : "int64") +
                              " range: " + std::string(literal));
  }
  return Status::OK();
}

}  // namespace

Status JsonReader::Error(const std::string& message) const {
  return Status::InvalidArgument("json: " + message + " at offset " +
                                 std::to_string(pos_));
}

void JsonReader::SkipWhitespace() {
  while (pos_ < text_.size() && IsWhitespace(text_[pos_])) ++pos_;
}

bool JsonReader::Consume(char expected) {
  if (pos_ < text_.size() && text_[pos_] == expected) {
    ++pos_;
    return true;
  }
  return false;
}

Status JsonReader::ExpectEnd() {
  SkipWhitespace();
  if (pos_ != text_.size()) {
    return Error("trailing characters after the document");
  }
  return Status::OK();
}

Status JsonReader::StartValue() {
  if (path_.size() > kMaxParseDepth) return Error("nesting too deep");
  SkipWhitespace();
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  return Status::OK();
}

Status JsonReader::ReadNumber(std::string_view* literal) {
  VERITAS_RETURN_IF_ERROR(StartValue());
  // Every other kind of value starts with a byte of its own.
  constexpr std::string_view kOtherKinds = "{[\"tfn";
  if (kOtherKinds.find(text_[pos_]) != std::string_view::npos) {
    return Status::InvalidArgument("json: expected a number");
  }
  return ScanNumber(literal);
}

Status JsonReader::Open(char open, const char* mismatch) {
  VERITAS_RETURN_IF_ERROR(StartValue());
  if (text_[pos_] != open) return Status::InvalidArgument(mismatch);
  ++pos_;
  path_.emplace_back();
  return Status::OK();
}

Status JsonReader::Next(char close, bool first, bool* more) {
  SkipWhitespace();
  *more = !Consume(close);
  if (first || !*more || Consume(',')) return Status::OK();
  return Error(std::string("expected ',' or '") + close + "' in " +
               (close == '}' ? "object" : "array"));
}

Status JsonReader::ReadKey(std::string_view* key) {
  SkipWhitespace();
  if (pos_ >= text_.size() || text_[pos_] != '"') {
    return Error("expected a member key");
  }
  const size_t quote = pos_;
  VERITAS_RETURN_IF_ERROR(ScanString(nullptr));
  *key = text_.substr(quote + 1, pos_ - quote - 2);
  if (key->find('\\') != std::string_view::npos) {
    // Escaped: decode it once more, into storage that outlives the object.
    const size_t end = pos_;
    pos_ = quote;
    VERITAS_RETURN_IF_ERROR(ScanString(&unescaped_keys_.emplace_back()));
    pos_ = end;
    *key = unescaped_keys_.back();
  }
  keys_.push_back(*key);
  path_.back() = *key;
  SkipWhitespace();
  if (!Consume(':')) return Error("expected ':' after key");
  return Status::OK();
}

Status JsonReader::CloseObject(size_t first_key) {
  // Sorting makes a repeat adjacent: O(n log n) however hostile the object.
  const auto begin = keys_.begin() + static_cast<std::ptrdiff_t>(first_key);
  std::sort(begin, keys_.end());
  const auto repeat = std::adjacent_find(begin, keys_.end());
  if (repeat != keys_.end()) {
    std::string where;
    for (size_t i = 0; i + 1 < path_.size(); ++i) {
      if (!path_[i].empty()) where.append(path_[i]).append(": ");
    }
    return Status::InvalidArgument(where + "json: duplicate member \"" +
                                   std::string(*repeat) + "\" in the object "
                                   "ending at offset " + std::to_string(pos_));
  }
  keys_.erase(begin, keys_.end());
  path_.pop_back();
  return Status::OK();
}

Status JsonReader::Skip(std::string_view* span) {
  VERITAS_RETURN_IF_ERROR(StartValue());
  const size_t start = pos_;
  std::string_view scalar;
  switch (text_[pos_]) {
    case '{':
      VERITAS_RETURN_IF_ERROR(
          ReadObject([this](std::string_view) { return Skip(); }));
      break;
    case '[':
      VERITAS_RETURN_IF_ERROR(ReadArray([this] { return Skip(); }));
      break;
    case '"':
      VERITAS_RETURN_IF_ERROR(ScanString(nullptr));
      break;
    case 't':
    case 'f':
    case 'n':
      VERITAS_RETURN_IF_ERROR(ScanLiteral(&scalar));
      break;
    default:
      VERITAS_RETURN_IF_ERROR(ScanNumber(&scalar));
  }
  if (span != nullptr) *span = text_.substr(start, pos_ - start);
  return Status::OK();
}

Status JsonReader::ReadBool(bool* out) {
  VERITAS_RETURN_IF_ERROR(StartValue());
  if (text_[pos_] != 't' && text_[pos_] != 'f') {
    return Status::InvalidArgument("json: expected a boolean");
  }
  std::string_view literal;
  VERITAS_RETURN_IF_ERROR(ScanLiteral(&literal));
  *out = literal == "true";
  return Status::OK();
}

Status JsonReader::ReadString(std::string* out) {
  VERITAS_RETURN_IF_ERROR(StartValue());
  if (text_[pos_] != '"') {
    return Status::InvalidArgument("json: expected a string");
  }
  return ScanString(out);
}

Status JsonReader::ReadU64(uint64_t* out) {
  std::string_view literal;
  VERITAS_RETURN_IF_ERROR(ReadNumber(&literal));
  return ToInteger(literal, out);
}

Status JsonReader::ReadI64(int64_t* out) {
  std::string_view literal;
  VERITAS_RETURN_IF_ERROR(ReadNumber(&literal));
  return ToInteger(literal, out);
}

Status JsonReader::ReadDouble(double* out) {
  std::string_view literal;
  VERITAS_RETURN_IF_ERROR(ReadNumber(&literal));
  double value = 0.0;
  const char* end = literal.data() + literal.size();
  if (std::from_chars(literal.data(), end, value).ec != std::errc()) {
    // Out of range, and from_chars reports an overflow and an underflow
    // alike: refuse the overflow, and give the underflow strtod's value, a
    // zero of the literal's sign.
    value = std::strtod(std::string(literal).c_str(), nullptr);
    if (!std::isfinite(value)) {
      return Status::OutOfRange("json: number overflows double: " +
                                std::string(literal));
    }
  }
  *out = value;
  return Status::OK();
}

Status JsonReader::ScanLiteral(std::string_view* literal) {
  for (const std::string_view candidate : {"true", "false", "null"}) {
    if (text_.compare(pos_, candidate.size(), candidate) == 0) {
      pos_ += candidate.size();
      *literal = candidate;
      return Status::OK();
    }
  }
  return Error("unrecognized literal");
}

Status JsonReader::ScanNumber(std::string_view* literal) {
  const size_t start = pos_;
  Consume('-');
  if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
    return Error("malformed number");
  }
  if (text_[pos_] == '0') {
    // Strict JSON: no leading zeros ("0" itself is fine, "01" is not).
    ++pos_;
    if (pos_ < text_.size() && IsDigit(text_[pos_])) {
      return Error("leading zero in number");
    }
  } else {
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  }
  if (Consume('.')) {
    if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
      return Error("malformed number fraction");
    }
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ >= text_.size() || !IsDigit(text_[pos_])) {
      return Error("malformed number exponent");
    }
    while (pos_ < text_.size() && IsDigit(text_[pos_])) ++pos_;
  }
  *literal = text_.substr(start, pos_ - start);
  return Status::OK();
}

Status JsonReader::ScanHex4(uint32_t* out) {
  if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
  uint32_t value = 0;
  for (size_t i = 0; i < 4; ++i) {
    const char c = text_[pos_ + i];
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') value |= static_cast<uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') value |= static_cast<uint32_t>(c - 'A' + 10);
    else return Error("bad \\u escape digit");
  }
  pos_ += 4;
  *out = value;
  return Status::OK();
}

Status JsonReader::ScanString(std::string* out) {
  ++pos_;  // opening quote
  if (out != nullptr) out->clear();
  for (;;) {
    // The run of bytes that need no decoding, copied in one append.
    size_t run = pos_;
    while (run < text_.size() && text_[run] != '"' && text_[run] != '\\' &&
           static_cast<unsigned char>(text_[run]) >= 0x20) {
      ++run;
    }
    if (out != nullptr) out->append(text_.data() + pos_, run - pos_);
    pos_ = run;
    if (pos_ >= text_.size()) return Error("unterminated string");
    const char c = text_[pos_];
    if (c == '"') {
      ++pos_;
      return Status::OK();
    }
    if (c != '\\') return Error("raw control character in string");
    ++pos_;
    if (pos_ >= text_.size()) return Error("truncated escape");
    const char e = text_[pos_++];
    char decoded = 0;
    switch (e) {
      case '"': decoded = '"'; break;
      case '\\': decoded = '\\'; break;
      case '/': decoded = '/'; break;
      case 'n': decoded = '\n'; break;
      case 't': decoded = '\t'; break;
      case 'r': decoded = '\r'; break;
      case 'b': decoded = '\b'; break;
      case 'f': decoded = '\f'; break;
      case 'u': {
        uint32_t cp = 0;
        VERITAS_RETURN_IF_ERROR(ScanHex4(&cp));
        if (cp >= 0xd800 && cp <= 0xdbff) {
          // High surrogate: a low surrogate must follow.
          if (!(Consume('\\') && Consume('u'))) {
            return Error("unpaired high surrogate");
          }
          uint32_t low = 0;
          VERITAS_RETURN_IF_ERROR(ScanHex4(&low));
          if (low < 0xdc00 || low > 0xdfff) {
            return Error("invalid low surrogate");
          }
          cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
          return Error("unpaired low surrogate");
        }
        if (out != nullptr) AppendUtf8(cp, out);
        continue;
      }
      default: return Error("unrecognized escape");
    }
    if (out != nullptr) out->push_back(decoded);
  }
}

}  // namespace veritas
