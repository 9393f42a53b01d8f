#include "lint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

namespace veritas {
namespace lint {

namespace fs = std::filesystem;

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

/// Collects `lint: tag1 tag2` tags out of one comment's text.
void HarvestTags(const std::string& comment, std::set<std::string>* tags) {
  size_t pos = 0;
  while ((pos = comment.find("lint:", pos)) != std::string::npos) {
    size_t i = pos + 5;
    for (;;) {
      while (i < comment.size() &&
             (comment[i] == ' ' || comment[i] == ',' || comment[i] == '\t')) {
        ++i;
      }
      size_t start = i;
      while (i < comment.size() &&
             (std::islower(static_cast<unsigned char>(comment[i])) ||
              std::isdigit(static_cast<unsigned char>(comment[i])) ||
              comment[i] == '-')) {
        ++i;
      }
      if (i == start) break;
      tags->insert(comment.substr(start, i - start));
      // One tag per `lint:` marker keeps prose after the tag from being
      // swallowed; multiple tags need multiple markers.
      break;
    }
    pos = i;
  }
}

/// Advances past a string or character literal starting at text[i] (which
/// is the opening quote); returns the index one past the closing quote.
size_t SkipLiteral(const std::string& text, size_t i) {
  const char quote = text[i];
  ++i;
  while (i < text.size()) {
    if (text[i] == '\\') {
      i += 2;
      continue;
    }
    if (text[i] == quote) return i + 1;
    ++i;
  }
  return i;
}

/// Index one past the bracket that closes the one at text[open]; quote- and
/// nesting-aware. Returns text.size() when unbalanced.
size_t MatchBracket(const std::string& text, size_t open, char lhs, char rhs) {
  size_t depth = 0;
  for (size_t i = open; i < text.size();) {
    const char c = text[i];
    if (c == '"' || c == '\'') {
      i = SkipLiteral(text, i);
      continue;
    }
    if (c == lhs) ++depth;
    if (c == rhs) {
      if (--depth == 0) return i + 1;
    }
    ++i;
  }
  return text.size();
}

bool IsControlKeyword(const std::string& ident) {
  static const std::set<std::string> kKeywords = {
      "if",     "for",    "while",  "switch",        "catch",
      "return", "sizeof", "throw",  "static_assert", "alignof",
      "new",    "delete", "assert", "defined",       "decltype"};
  return kKeywords.count(ident) != 0;
}

}  // namespace

bool SourceFile::Tagged(size_t line, const std::string& tag) const {
  const auto has = [&](size_t l) {
    return l >= 1 && l <= tags.size() && tags[l - 1].count(tag) != 0;
  };
  return has(line) || (line > 1 && has(line - 1));
}

bool LoadSource(const std::string& path, SourceFile* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string content = buffer.str();

  out->path = path;
  out->raw.clear();
  out->code.clear();
  out->tags.clear();

  std::string line;
  std::istringstream lines(content);
  while (std::getline(lines, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    out->raw.push_back(line);
  }
  out->code.resize(out->raw.size());
  out->tags.resize(out->raw.size());

  enum class State { kCode, kString, kChar, kBlock };
  State state = State::kCode;
  for (size_t ln = 0; ln < out->raw.size(); ++ln) {
    const std::string& src = out->raw[ln];
    std::string& dst = out->code[ln];
    dst.reserve(src.size());
    std::string comment;  // block-comment text accumulated on this line
    size_t i = 0;
    while (i < src.size()) {
      const char c = src[i];
      switch (state) {
        case State::kCode:
          if (c == '"') {
            state = State::kString;
            dst += c;
            ++i;
          } else if (c == '\'') {
            state = State::kChar;
            dst += c;
            ++i;
          } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
            HarvestTags(src.substr(i + 2), &out->tags[ln]);
            dst.append(src.size() - i, ' ');
            i = src.size();
          } else if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
            state = State::kBlock;
            dst.append(2, ' ');
            i += 2;
          } else {
            dst += c;
            ++i;
          }
          break;
        case State::kString:
        case State::kChar:
          dst += c;
          if (c == '\\' && i + 1 < src.size()) {
            dst += src[i + 1];
            i += 2;
            break;
          }
          if ((state == State::kString && c == '"') ||
              (state == State::kChar && c == '\'')) {
            state = State::kCode;
          }
          ++i;
          break;
        case State::kBlock:
          if (c == '*' && i + 1 < src.size() && src[i + 1] == '/') {
            state = State::kCode;
            dst.append(2, ' ');
            i += 2;
          } else {
            comment += c;
            dst += ' ';
            ++i;
          }
          break;
      }
    }
    if (!comment.empty()) HarvestTags(comment, &out->tags[ln]);
    // Unterminated string literals do not span lines in well-formed code.
    if (state == State::kString || state == State::kChar) state = State::kCode;
  }
  return true;
}

FlatText Flatten(const SourceFile& file) {
  FlatText flat;
  size_t total = 0;
  for (const std::string& l : file.code) total += l.size() + 1;
  flat.text.reserve(total);
  flat.line.reserve(total);
  for (size_t ln = 0; ln < file.code.size(); ++ln) {
    for (const char c : file.code[ln]) {
      flat.text += c;
      flat.line.push_back(ln + 1);
    }
    flat.text += '\n';
    flat.line.push_back(ln + 1);
  }
  return flat;
}

namespace {

/// True when flat.text[pos] starts the whole word `word`.
bool WordAt(const FlatText& flat, size_t pos, const std::string& word) {
  if (flat.text.compare(pos, word.size(), word) != 0) return false;
  if (pos > 0 && IsIdentChar(flat.text[pos - 1])) return false;
  const size_t end = pos + word.size();
  return end >= flat.text.size() || !IsIdentChar(flat.text[end]);
}

size_t SkipSpaces(const std::string& text, size_t i) {
  while (i < text.size() &&
         std::isspace(static_cast<unsigned char>(text[i]))) {
    ++i;
  }
  return i;
}

/// Splits a member statement at its top-level commas, so
/// `double eta0 = 1e-4, eta1 = 0.25;` yields one piece per declarator.
/// Angle brackets nest only outside initializers, where `<` may compare.
std::vector<std::string> SplitDeclarators(const std::string& statement) {
  std::vector<std::string> pieces(1);
  int depth = 0;
  bool initializer = false;
  for (const char c : statement) {
    if (c == '(' || c == '[' || c == '{' || (!initializer && c == '<')) {
      ++depth;
    } else if (c == ')' || c == ']' || c == '}' ||
               (!initializer && c == '>')) {
      --depth;
    } else if (c == '=' && depth == 0) {
      initializer = true;
    } else if (c == ',' && depth == 0) {
      pieces.emplace_back();
      initializer = false;
      continue;
    }
    pieces.back() += c;
  }
  return pieces;
}

/// Parses one member statement collected at struct depth. Returns false
/// for non-member statements (methods, using/static/friend declarations).
bool MemberName(std::string statement, std::string* name) {
  statement = Trim(statement);
  for (const char* spec : {"public:", "private:", "protected:"}) {
    if (statement.rfind(spec, 0) == 0) {
      statement = Trim(statement.substr(std::string(spec).size()));
    }
  }
  if (statement.empty()) return false;
  size_t end = 0;
  while (end < statement.size() && IsIdentChar(statement[end])) ++end;
  const std::string first = statement.substr(0, end);
  static const std::set<std::string> kSkip = {
      "using", "static", "friend",   "typedef", "template",
      "enum",  "struct", "class",    "union",   "explicit",
      "virtual"};
  if (kSkip.count(first) != 0) return false;
  if (statement.find("operator") != std::string::npos) return false;
  const size_t paren = statement.find('(');
  const size_t equals = statement.find('=');
  if (paren != std::string::npos &&
      (equals == std::string::npos || paren < equals)) {
    return false;  // method / constructor declaration
  }
  size_t cut = statement.size();
  for (const char stop : {'=', '{'}) {
    const size_t at = statement.find(stop);
    if (at != std::string::npos) cut = std::min(cut, at);
  }
  const std::string head = statement.substr(0, cut);
  std::string last;
  for (size_t i = 0; i < head.size();) {
    if (IsIdentStart(head[i])) {
      size_t j = i;
      while (j < head.size() && IsIdentChar(head[j])) ++j;
      last = head.substr(i, j - i);
      i = j;
    } else {
      ++i;
    }
  }
  if (last.empty() || !IsIdentStart(last[0])) return false;
  *name = last;
  return true;
}

}  // namespace

std::vector<StructDecl> ParseStructs(const SourceFile& file) {
  std::vector<StructDecl> structs;
  const FlatText flat = Flatten(file);
  const std::string& text = flat.text;
  for (size_t i = 0; i < text.size();) {
    if (text[i] == '"' || text[i] == '\'') {
      i = SkipLiteral(text, i);
      continue;
    }
    if (!WordAt(flat, i, "struct")) {
      ++i;
      continue;
    }
    const size_t keyword_line = flat.LineAt(i);
    size_t j = SkipSpaces(text, i + 6);
    size_t name_end = j;
    while (name_end < text.size() && IsIdentChar(text[name_end])) ++name_end;
    std::string name = text.substr(j, name_end - j);
    j = SkipSpaces(text, name_end);
    if (text.compare(j, 5, "final") == 0) j = SkipSpaces(text, j + 5);
    // Definition only: scan to '{' unless a ';' or '(' intervenes (forward
    // declaration, function parameter, template argument).
    while (j < text.size() && text[j] != '{' && text[j] != ';' &&
           text[j] != '(' && text[j] != '>') {
      ++j;
    }
    if (j >= text.size() || text[j] != '{' || name.empty()) {
      i = j + 1;
      continue;
    }

    StructDecl decl;
    decl.name = name;
    decl.line = keyword_line;

    std::string buffer;
    size_t buffer_line = 0;
    size_t k = j + 1;
    while (k < text.size()) {
      const char c = text[k];
      if (c == '"' || c == '\'') {
        const size_t next = SkipLiteral(text, k);
        buffer.append(text, k, next - k);
        k = next;
        continue;
      }
      if (c == '{') {
        const std::string pre = Trim(buffer);
        const size_t close = MatchBracket(text, k, '{', '}');
        static const char* kNested[] = {"enum", "struct", "class", "union"};
        bool nested = pre.empty() || pre.find('(') != std::string::npos;
        for (const char* kw : kNested) {
          if (pre.rfind(kw, 0) == 0) nested = true;
        }
        buffer = nested ? std::string() : pre + "{}";
        k = close;
        continue;
      }
      if (c == '}') {
        ++k;
        break;  // end of struct
      }
      if (c == ';') {
        const std::vector<std::string> declarators = SplitDeclarators(buffer);
        std::string member_name;
        if (MemberName(declarators.front(), &member_name)) {
          StructMember member;
          member.line = buffer_line == 0 ? flat.LineAt(k) : buffer_line;
          for (size_t d = 0; d < declarators.size(); ++d) {
            // Later declarators are `name` or `name = init`.
            const std::string piece = Trim(declarators[d]);
            size_t end = 0;
            while (end < piece.size() && IsIdentChar(piece[end])) ++end;
            member.name = d == 0 ? member_name : piece.substr(0, end);
            if (!member.name.empty()) decl.members.push_back(member);
          }
        }
        buffer.clear();
        buffer_line = 0;
        ++k;
        continue;
      }
      if (!std::isspace(static_cast<unsigned char>(c)) && buffer.empty()) {
        buffer_line = flat.LineAt(k);
      }
      buffer += c;
      ++k;
    }
    structs.push_back(std::move(decl));
    i = k;
  }
  return structs;
}

std::vector<FunctionDef> ParseFunctions(const FlatText& flat) {
  std::vector<FunctionDef> functions;
  const std::string& text = flat.text;
  for (size_t i = 0; i < text.size();) {
    const char c = text[i];
    if (c == '"' || c == '\'') {
      i = SkipLiteral(text, i);
      continue;
    }
    if (!IsIdentStart(c)) {
      ++i;
      continue;
    }
    size_t end = i;
    while (end < text.size() && IsIdentChar(text[end])) ++end;
    const std::string ident = text.substr(i, end - i);
    size_t j = SkipSpaces(text, end);
    if (j >= text.size() || text[j] != '(' || IsControlKeyword(ident)) {
      i = end;
      continue;
    }
    const size_t after_args = MatchBracket(text, j, '(', ')');
    size_t k = SkipSpaces(text, after_args);
    // Skip trailing qualifiers of a definition header.
    for (;;) {
      bool advanced = false;
      for (const char* q : {"const", "noexcept", "override"}) {
        const size_t len = std::string(q).size();
        if (text.compare(k, len, q) == 0 &&
            (k + len >= text.size() || !IsIdentChar(text[k + len]))) {
          k = SkipSpaces(text, k + len);
          advanced = true;
        }
      }
      if (!advanced) break;
    }
    if (k < text.size() && text[k] == '{') {
      FunctionDef fn;
      fn.name = ident;
      fn.line = flat.LineAt(i);
      fn.body_begin = k + 1;
      fn.body_end = MatchBracket(text, k, '{', '}') - 1;
      functions.push_back(fn);
      i = fn.body_end + 1;
      continue;
    }
    i = end;
  }
  return functions;
}

bool ContainsToken(const std::string& text, const std::string& word) {
  if (word.empty()) return false;
  size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !IsIdentChar(text[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !IsIdentChar(text[end]);
    if (left_ok && right_ok) return true;
    pos += 1;
  }
  return false;
}

namespace {

std::string JoinPath(const std::string& root, const std::string& rel) {
  if (!rel.empty() && rel.front() == '/') return rel;
  return (fs::path(root) / rel).string();
}

std::string Relative(const std::string& path, const std::string& root) {
  std::error_code ec;
  const fs::path rel = fs::proximate(path, root, ec);
  if (ec || rel.empty()) return path;
  const std::string s = rel.string();
  return s.rfind("..", 0) == 0 ? path : s;
}

/// Concatenated bodies of every function whose name contains one of the
/// given fragments.
std::string AggregateBodies(const FlatText& flat,
                            const std::vector<FunctionDef>& functions,
                            const std::vector<std::string>& fragments) {
  std::string out;
  for (const FunctionDef& fn : functions) {
    for (const std::string& fragment : fragments) {
      if (fn.name.find(fragment) != std::string::npos) {
        out.append(flat.text, fn.body_begin, fn.body_end - fn.body_begin);
        out += '\n';
        break;
      }
    }
  }
  return out;
}

bool FileInDirs(const fs::path& file, const std::vector<std::string>& dirs,
                const std::string& root) {
  const std::string canonical = fs::weakly_canonical(file).string();
  for (const std::string& dir : dirs) {
    const std::string base =
        fs::weakly_canonical(JoinPath(root, dir)).string() + "/";
    if (canonical.rfind(base, 0) == 0) return true;
  }
  return false;
}

std::vector<std::string> SourceFilesUnder(const Config& config,
                                          const std::vector<std::string>& dirs) {
  std::set<std::string> files;
  // compile_commands.json names the translation units; headers (and any
  // .cc the build forgot) come from the walk, so nothing hides by being
  // left out of the build.
  for (const std::string& file : config.compile_files) {
    if (FileInDirs(file, dirs, config.repo)) {
      files.insert(fs::weakly_canonical(file).string());
    }
  }
  for (const std::string& dir : dirs) {
    const fs::path base = JoinPath(config.repo, dir);
    std::error_code ec;
    for (fs::recursive_directory_iterator it(base, ec), end; it != end;
         it.increment(ec)) {
      if (ec) break;
      if (!it->is_regular_file()) continue;
      const std::string ext = it->path().extension().string();
      if (ext == ".h" || ext == ".cc") {
        files.insert(fs::weakly_canonical(it->path()).string());
      }
    }
  }
  return {files.begin(), files.end()};
}

/// Variable (or member) names declared with an unordered container type.
std::set<std::string> UnorderedNames(const FlatText& flat) {
  std::set<std::string> names;
  const std::string& text = flat.text;
  for (const char* container : {"unordered_map", "unordered_set"}) {
    size_t pos = 0;
    const std::string word = container;
    while ((pos = text.find(word, pos)) != std::string::npos) {
      const size_t after = pos + word.size();
      if ((pos > 0 && IsIdentChar(text[pos - 1])) ||
          (after < text.size() && IsIdentChar(text[after]))) {
        pos = after;
        continue;
      }
      size_t i = SkipSpaces(text, after);
      if (i >= text.size() || text[i] != '<') {
        pos = after;
        continue;
      }
      // Match the template argument list; '>' nesting only (no shift
      // expressions appear in type positions).
      size_t depth = 0;
      while (i < text.size()) {
        if (text[i] == '<') ++depth;
        if (text[i] == '>' && --depth == 0) {
          ++i;
          break;
        }
        ++i;
      }
      i = SkipSpaces(text, i);
      while (i < text.size() && (text[i] == '&' || text[i] == '*')) {
        i = SkipSpaces(text, i + 1);
      }
      size_t end = i;
      while (end < text.size() && IsIdentChar(text[end])) ++end;
      if (end > i && IsIdentStart(text[i])) {
        names.insert(text.substr(i, end - i));
      }
      pos = after;
    }
  }
  return names;
}

/// The struct a VisitFields definition visits: the last identifier of the
/// `FieldsOf<Self, T>` return type in front of its name. Empty when the
/// definition does not have that shape.
std::string VisitedStruct(const FlatText& flat, const FunctionDef& fn) {
  const std::string& text = flat.text;
  const size_t name = text.rfind("VisitFields", fn.body_begin);
  if (name == std::string::npos) return "";
  const size_t previous = text.find_last_of(";}", name);
  const size_t head = previous == std::string::npos ? 0 : previous + 1;
  const size_t open = text.find("FieldsOf<", head);
  if (open == std::string::npos || open > name) return "";
  const size_t close = text.find('>', open);
  if (close == std::string::npos || close > name) return "";
  std::string last;
  for (size_t i = open + 9; i < close;) {
    if (IsIdentStart(text[i])) {
      size_t j = i;
      while (j < close && IsIdentChar(text[j])) ++j;
      last = text.substr(i, j - i);
      i = j;
    } else {
      ++i;
    }
  }
  return last;
}

/// True when `body` reads `.member` or `->member` (a member access, not
/// just the key string that names it).
bool ContainsMemberAccess(const std::string& body, const std::string& member) {
  size_t pos = 0;
  while ((pos = body.find(member, pos)) != std::string::npos) {
    const size_t end = pos + member.size();
    const bool right_ok = end >= body.size() || !IsIdentChar(body[end]);
    const bool dot = pos >= 1 && body[pos - 1] == '.';
    const bool arrow = pos >= 2 && body.compare(pos - 2, 2, "->") == 0;
    if (right_ok && (dot || arrow)) return true;
    pos = end;
  }
  return false;
}

}  // namespace

std::vector<Finding> CheckFieldCoverage(const Config& config) {
  std::vector<Finding> findings;
  std::string error;

  // Schema structs: each one's members against its own VisitFields, so a
  // same-named member of another struct cannot mask a drop.
  struct Header {
    std::string rel;
    FlatText flat;
    std::vector<StructDecl> structs;
  };
  std::vector<Header> headers;
  for (const std::string& path : SourceFilesUnder(config, config.schema_dirs)) {
    if (fs::path(path).extension() != ".h") continue;
    SourceFile file;
    if (!LoadSource(path, &file, &error)) {
      findings.push_back({path, 0, "field-coverage", error});
      continue;
    }
    headers.push_back(
        {Relative(path, config.repo), Flatten(file), ParseStructs(file)});
  }
  for (const Header& header : headers) {
    for (const FunctionDef& fn : ParseFunctions(header.flat)) {
      if (fn.name != "VisitFields") continue;
      const std::string target = VisitedStruct(header.flat, fn);
      // The visitor's own header first, then any other schema header.
      const Header* owner = nullptr;
      const StructDecl* decl = nullptr;
      const auto find_in = [&](const Header& h) {
        for (const StructDecl& d : h.structs) {
          if (d.name != target) continue;
          owner = &h;
          decl = &d;
          return true;
        }
        return false;
      };
      if (!find_in(header)) {
        for (const Header& h : headers) {
          if (find_in(h)) break;
        }
      }
      if (decl == nullptr) {
        findings.push_back(
            {header.rel, fn.line, "field-coverage",
             "VisitFields names no struct declared in the schema headers ('" +
                 target + "'); give it a FieldsOf<S, Struct> return type"});
        continue;
      }
      const std::string body = header.flat.text.substr(
          fn.body_begin, fn.body_end - fn.body_begin);
      for (const StructMember& member : decl->members) {
        if (ContainsMemberAccess(body, member.name)) continue;
        findings.push_back(
            {owner->rel, member.line, "field-coverage",
             decl->name + "::" + member.name + " is not visited by its "
             "VisitFields (" + header.rel + ":" + std::to_string(fn.line) +
             "), so the codec encode/decode and checkpoint write/read paths "
             "all skip it"});
      }
    }
  }

  // Wire envelopes: hand-written in the codec, both directions.
  SourceFile codec, wire;
  if (!LoadSource(config.codec, &codec, &error)) {
    findings.push_back({config.codec, 0, "field-coverage", error});
    return findings;
  }
  if (!LoadSource(config.wire_header, &wire, &error)) {
    findings.push_back({config.wire_header, 0, "field-coverage", error});
    return findings;
  }
  const FlatText codec_flat = Flatten(codec);
  const auto codec_functions = ParseFunctions(codec_flat);
  const std::string codec_rel = Relative(config.codec, config.repo);
  const std::string wire_rel = Relative(config.wire_header, config.repo);
  const struct {
    const char* label;
    std::string text;
  } sides[] = {
      {"codec encode path",
       AggregateBodies(codec_flat, codec_functions, {"Encode"})},
      {"codec decode path",
       AggregateBodies(codec_flat, codec_functions, {"Decode"})},
  };
  for (const StructDecl& decl : ParseStructs(wire)) {
    for (const StructMember& member : decl.members) {
      for (const auto& side : sides) {
        if (ContainsToken(side.text, member.name)) continue;
        findings.push_back({wire_rel, member.line, "field-coverage",
                            decl.name + "::" + member.name +
                                " missing from the " + side.label + " (" +
                                codec_rel + ")"});
      }
    }
  }
  return findings;
}

std::vector<Finding> CheckDeterminism(const Config& config) {
  std::vector<Finding> findings;
  for (const std::string& path :
       SourceFilesUnder(config, config.determinism_dirs)) {
    SourceFile file;
    std::string error;
    if (!LoadSource(path, &file, &error)) {
      findings.push_back({path, 0, "determinism", error});
      continue;
    }
    const FlatText flat = Flatten(file);
    const std::string rel = Relative(path, config.repo);

    // Entropy / wall-clock sources. `timing` waives the clock reads used
    // for latency metrics; ambient entropy has no waiver — inference
    // randomness must come from the seeded counter-based RNG (common/rng).
    struct Pattern {
      const char* token;
      bool call_only;    ///< require '(' after the token
      bool timing_waiver;
      const char* message;
    };
    static const Pattern kPatterns[] = {
        {"random_device", false, false,
         "ambient entropy breaks seed-reproducible inference; use the "
         "seeded Rng"},
        {"rand", true, false,
         "rand() is unseeded global state; use the seeded Rng"},
        {"srand", true, false,
         "srand() is unseeded global state; use the seeded Rng"},
        {"time", true, true,
         "wall-clock input breaks replay; annotate '// lint: timing' if "
         "this only feeds metrics"},
        {"clock", true, true,
         "wall-clock input breaks replay; annotate '// lint: timing' if "
         "this only feeds metrics"},
    };
    for (size_t ln = 0; ln < file.code.size(); ++ln) {
      const std::string& line = file.code[ln];
      for (const Pattern& p : kPatterns) {
        size_t pos = 0;
        const std::string token = p.token;
        bool hit = false;
        while ((pos = line.find(token, pos)) != std::string::npos) {
          const bool left = pos == 0 || !IsIdentChar(line[pos - 1]);
          const size_t end = pos + token.size();
          const bool right = end >= line.size() || !IsIdentChar(line[end]);
          if (left && right) {
            if (!p.call_only) {
              hit = true;
              break;
            }
            const size_t next = SkipSpaces(line, end);
            if (next < line.size() && line[next] == '(') {
              hit = true;
              break;
            }
          }
          pos = end;
        }
        if (hit && !(p.timing_waiver && file.Tagged(ln + 1, "timing"))) {
          findings.push_back({rel, ln + 1, "determinism",
                              std::string(p.token) + ": " + p.message});
        }
      }
      if (line.find("_clock::now") != std::string::npos &&
          !file.Tagged(ln + 1, "timing")) {
        findings.push_back(
            {rel, ln + 1, "determinism",
             "clock::now(): wall-clock input breaks replay; annotate "
             "'// lint: timing' if this only feeds metrics"});
      }
    }

    // Range-for over an unordered container: hash order leaks into FP
    // accumulation order and emitted sequences. Include the paired header
    // so member containers are seen from the .cc.
    std::set<std::string> unordered = UnorderedNames(flat);
    const fs::path as_path(path);
    if (as_path.extension() == ".cc") {
      const fs::path header = fs::path(path).replace_extension(".h");
      SourceFile header_file;
      if (fs::exists(header) &&
          LoadSource(header.string(), &header_file, &error)) {
        const auto extra = UnorderedNames(Flatten(header_file));
        unordered.insert(extra.begin(), extra.end());
      }
    }
    if (!unordered.empty()) {
      const std::string& text = flat.text;
      size_t pos = 0;
      while ((pos = text.find("for", pos)) != std::string::npos) {
        if (!WordAt(flat, pos, "for")) {
          pos += 3;
          continue;
        }
        size_t open = SkipSpaces(text, pos + 3);
        if (open >= text.size() || text[open] != '(') {
          pos += 3;
          continue;
        }
        const size_t close = MatchBracket(text, open, '(', ')');
        const std::string head = text.substr(open + 1, close - open - 2);
        pos = close;
        if (head.find(';') != std::string::npos) continue;  // classic for
        const size_t colon = head.rfind(':');
        if (colon == std::string::npos || (colon > 0 && head[colon - 1] == ':'))
          continue;
        std::string range = Trim(head.substr(colon + 1));
        while (!range.empty() && (range.front() == '*' || range.front() == '&'))
          range = Trim(range.substr(1));
        if (unordered.count(range) == 0) continue;
        const size_t line = flat.LineAt(open);
        if (file.Tagged(line, "unordered-ok")) continue;
        findings.push_back(
            {rel, line, "determinism",
             "range-for over unordered container '" + range +
                 "': hash order leaks into downstream data; sort before "
                 "emitting or annotate '// lint: unordered-ok'"});
      }
    }
  }
  return findings;
}

std::vector<Finding> CheckWireCompat(const Config& config) {
  std::vector<Finding> findings;
  std::string error;

  // Enum inventory from the headers: names an enum type so casts from raw
  // integers can be told apart from arithmetic casts.
  std::set<std::string> enums;
  for (const std::string& path : SourceFilesUnder(config, config.enum_dirs)) {
    if (fs::path(path).extension() != ".h") continue;
    SourceFile file;
    if (!LoadSource(path, &file, &error)) continue;
    const FlatText flat = Flatten(file);
    const std::string& text = flat.text;
    size_t pos = 0;
    while ((pos = text.find("enum", pos)) != std::string::npos) {
      if (!WordAt(flat, pos, "enum")) {
        pos += 4;
        continue;
      }
      size_t i = SkipSpaces(text, pos + 4);
      for (const char* kw : {"class", "struct"}) {
        const size_t len = std::string(kw).size();
        if (text.compare(i, len, kw) == 0 && !IsIdentChar(text[i + len])) {
          i = SkipSpaces(text, i + len);
        }
      }
      size_t end = i;
      while (end < text.size() && IsIdentChar(text[end])) ++end;
      if (end > i && IsIdentStart(text[i])) {
        size_t j = SkipSpaces(text, end);
        if (j < text.size() && text[j] == ':') {
          // underlying type: scan to '{' or ';'
          while (j < text.size() && text[j] != '{' && text[j] != ';') ++j;
        }
        if (j < text.size() && text[j] == '{') {
          enums.insert(text.substr(i, end - i));
        }
      }
      pos = end;
    }
  }

  struct Target {
    const std::string* path;
    bool is_codec;
  };
  const Target targets[] = {{&config.codec, true}, {&config.checkpoint, false}};
  for (const Target& target : targets) {
    SourceFile file;
    if (!LoadSource(*target.path, &file, &error)) {
      findings.push_back({*target.path, 0, "wire-compat", error});
      continue;
    }
    const FlatText flat = Flatten(file);
    const std::string& text = flat.text;
    const auto functions = ParseFunctions(flat);
    const std::string rel = Relative(*target.path, config.repo);

    const auto rejects = [&](const FunctionDef& fn) {
      const std::string body =
          text.substr(fn.body_begin, fn.body_end - fn.body_begin);
      return body.find("InvalidArgument") != std::string::npos ||
             body.find("OutOfRange") != std::string::npos ||
             body.find("FailedPrecondition") != std::string::npos;
    };

    // Rule 1 (codec): every enum parser must reject unknown spellings.
    if (target.is_codec) {
      for (const FunctionDef& fn : functions) {
        if (fn.name.rfind("Parse", 0) != 0) continue;
        if (!rejects(fn)) {
          findings.push_back(
              {rel, fn.line, "wire-compat",
               fn.name + " accepts unknown enum spellings; end it with an "
               "explicit unknown-value rejection (return "
               "Status::InvalidArgument)"});
        }
      }

      // Rule 2 (codec): every enum-valued key written as Key("k")
      // .String(XxxName(...)) must decode through GetEnum (missing key ->
      // default, unknown spelling -> rejected by rule 1), unless the site
      // declares hand-rolled validation with '// lint: enum-checked'.
      size_t pos = 0;
      while ((pos = text.find("Key(\"", pos)) != std::string::npos) {
        const size_t key_start = pos + 5;
        const size_t key_end = text.find('"', key_start);
        if (key_end == std::string::npos) break;
        const std::string key = text.substr(key_start, key_end - key_start);
        size_t i = SkipSpaces(text, key_end + 1);
        if (i >= text.size() || text[i] != ')') {
          pos = key_end;
          continue;
        }
        i = SkipSpaces(text, i + 1);
        if (text.compare(i, 8, ".String(") != 0) {
          pos = key_end;
          continue;
        }
        i = SkipSpaces(text, i + 8);
        size_t ident_end = i;
        while (ident_end < text.size() && IsIdentChar(text[ident_end]))
          ++ident_end;
        const std::string callee = text.substr(i, ident_end - i);
        pos = key_end;
        if (callee.size() <= 4 ||
            callee.compare(callee.size() - 4, 4, "Name") != 0 ||
            (ident_end < text.size() && text[ident_end] != '(')) {
          continue;
        }
        const bool paired =
            text.find("\"" + key + "\", Parse") != std::string::npos;
        const size_t line = flat.LineAt(i);
        if (!paired && !file.Tagged(line, "enum-checked")) {
          findings.push_back(
              {rel, line, "wire-compat",
               "enum key \"" + key + "\" is encoded via " + callee +
                   "() but never decoded through GetEnum(...); wire a "
                   "missing-key-default decode or annotate "
                   "'// lint: enum-checked'"});
        }
      }

      // Rule 3 (codec): the GetEnum helper itself must keep the
      // missing-key -> default contract.
      for (const FunctionDef& fn : functions) {
        if (fn.name != "GetEnum") continue;
        const std::string body =
            text.substr(fn.body_begin, fn.body_end - fn.body_begin);
        if (body.find("nullptr") == std::string::npos ||
            body.find("OK()") == std::string::npos) {
          findings.push_back(
              {rel, fn.line, "wire-compat",
               "GetEnum lost its missing-key -> default branch (absent key "
               "must return Status::OK() and leave the default untouched)"});
        }
      }
    }

    // Rule 4 (codec + checkpoint): casting a raw integer to an enum type
    // requires an out-of-range rejection in the same function.
    for (const FunctionDef& fn : functions) {
      size_t pos = fn.body_begin;
      while (pos < fn.body_end) {
        pos = text.find("static_cast<", pos);
        if (pos == std::string::npos || pos >= fn.body_end) break;
        const size_t type_start = pos + 12;
        const size_t type_end = text.find('>', type_start);
        if (type_end == std::string::npos) break;
        std::string type =
            Trim(text.substr(type_start, type_end - type_start));
        const size_t scope = type.rfind("::");
        if (scope != std::string::npos) type = type.substr(scope + 2);
        pos = type_end;
        if (enums.count(type) == 0) continue;
        const size_t line = flat.LineAt(type_start);
        if (!rejects(fn) && !file.Tagged(line, "enum-checked")) {
          findings.push_back(
              {rel, line, "wire-compat",
               fn.name + " decodes enum " + type +
                   " without an out-of-range rejection; validate the raw "
                   "value before the cast"});
        }
      }
    }
  }
  return findings;
}

std::vector<Finding> Run(const Config& config) {
  std::vector<Finding> findings;
  const auto enabled = [&](const char* name) {
    return config.checks.empty() || config.checks.count(name) != 0;
  };
  if (enabled("field-coverage")) {
    auto f = CheckFieldCoverage(config);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  if (enabled("determinism")) {
    auto f = CheckDeterminism(config);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  if (enabled("wire-compat")) {
    auto f = CheckWireCompat(config);
    findings.insert(findings.end(), f.begin(), f.end());
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  return findings;
}

}  // namespace lint
}  // namespace veritas
