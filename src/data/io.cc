#include "data/io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace veritas {

void BinaryWriter::U8(uint8_t value) { buffer_.push_back(static_cast<char>(value)); }

void BinaryWriter::U32(uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    buffer_.push_back(static_cast<char>((value >> shift) & 0xffu));
  }
}

void BinaryWriter::U64(uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    buffer_.push_back(static_cast<char>((value >> shift) & 0xffull));
  }
}

void BinaryWriter::F64(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "IEEE-754 double expected");
  std::memcpy(&bits, &value, sizeof(bits));
  U64(bits);
}

void BinaryWriter::Str(const std::string& value) {
  U64(value.size());
  buffer_.append(value);
}

void BinaryWriter::VecU8(const std::vector<uint8_t>& values) {
  U64(values.size());
  for (const uint8_t v : values) U8(v);
}

void BinaryWriter::VecU32(const std::vector<uint32_t>& values) {
  U64(values.size());
  for (const uint32_t v : values) U32(v);
}

void BinaryWriter::VecF64(const std::vector<double>& values) {
  U64(values.size());
  for (const double v : values) F64(v);
}

Status BinaryWriter::WriteFile(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return Status::Internal("BinaryWriter: cannot open " + tmp);
  const bool written =
      std::fwrite(buffer_.data(), 1, buffer_.size(), file) == buffer_.size() &&
      std::fflush(file) == 0 && ::fdatasync(::fileno(file)) == 0;
  if (std::fclose(file) != 0 || !written) {
    std::remove(tmp.c_str());
    return Status::Internal("BinaryWriter: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("BinaryWriter: cannot rename " + tmp);
  }
  // The rename is durable only once the directory entry is.
  std::string directory = std::filesystem::path(path).parent_path().string();
  if (directory.empty()) directory = ".";
  const int dir_fd = ::open(directory.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) return Status::Internal("BinaryWriter: cannot open " + directory);
  const bool synced = ::fsync(dir_fd) == 0;
  ::close(dir_fd);
  if (!synced) return Status::Internal("BinaryWriter: cannot sync " + directory);
  return Status::OK();
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("ReadFileBytes: cannot open " + path);
  std::ostringstream contents;
  contents << in.rdbuf();
  return std::move(contents).str();
}

Status BinaryReader::Take(size_t n, const char** out) {
  if (bytes_.size() - offset_ < n) {
    return Status::OutOfRange("BinaryReader: truncated buffer");
  }
  *out = bytes_.data() + offset_;
  offset_ += n;
  return Status::OK();
}

Status BinaryReader::U8(uint8_t* out) {
  const char* p = nullptr;
  VERITAS_RETURN_IF_ERROR(Take(1, &p));
  *out = static_cast<uint8_t>(*p);
  return Status::OK();
}

Status BinaryReader::U32(uint32_t* out) {
  const char* p = nullptr;
  VERITAS_RETURN_IF_ERROR(Take(4, &p));
  uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *out = value;
  return Status::OK();
}

Status BinaryReader::U64(uint64_t* out) {
  const char* p = nullptr;
  VERITAS_RETURN_IF_ERROR(Take(8, &p));
  uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  *out = value;
  return Status::OK();
}

Status BinaryReader::F64(double* out) {
  uint64_t bits = 0;
  VERITAS_RETURN_IF_ERROR(U64(&bits));
  std::memcpy(out, &bits, sizeof(bits));
  return Status::OK();
}

Status BinaryReader::Str(std::string* out) {
  uint64_t size = 0;
  VERITAS_RETURN_IF_ERROR(U64(&size));
  if (size > remaining()) {
    return Status::OutOfRange("BinaryReader: truncated string");
  }
  const char* p = nullptr;
  VERITAS_RETURN_IF_ERROR(Take(static_cast<size_t>(size), &p));
  out->assign(p, static_cast<size_t>(size));
  return Status::OK();
}

Status BinaryReader::VecU8(std::vector<uint8_t>* out) {
  uint64_t size = 0;
  VERITAS_RETURN_IF_ERROR(U64(&size));
  if (size > remaining()) return Status::OutOfRange("BinaryReader: truncated vector");
  out->resize(static_cast<size_t>(size));
  for (auto& v : *out) VERITAS_RETURN_IF_ERROR(U8(&v));
  return Status::OK();
}

Status BinaryReader::VecU32(std::vector<uint32_t>* out) {
  uint64_t size = 0;
  VERITAS_RETURN_IF_ERROR(U64(&size));
  if (size > remaining() / 4) {
    return Status::OutOfRange("BinaryReader: truncated vector");
  }
  out->resize(static_cast<size_t>(size));
  for (auto& v : *out) VERITAS_RETURN_IF_ERROR(U32(&v));
  return Status::OK();
}

Status BinaryReader::VecF64(std::vector<double>* out) {
  uint64_t size = 0;
  VERITAS_RETURN_IF_ERROR(U64(&size));
  if (size > remaining() / 8) {
    return Status::OutOfRange("BinaryReader: truncated vector");
  }
  out->resize(static_cast<size_t>(size));
  for (auto& v : *out) VERITAS_RETURN_IF_ERROR(F64(&v));
  return Status::OK();
}

namespace {

/// Reads a list count and bounds it by the bytes left: each item occupies
/// at least `min_item_bytes`, so a corrupt count fails here instead of
/// driving a huge allocation or a long loop.
Status ReadCount(BinaryReader* r, size_t min_item_bytes, uint64_t* count) {
  VERITAS_RETURN_IF_ERROR(r->U64(count));
  if (*count > r->remaining() / min_item_bytes) {
    return Status::OutOfRange("ReadFactDatabase: count exceeds the bytes left");
  }
  return Status::OK();
}

constexpr uint8_t kTruthUnknown = 2;

}  // namespace

void WriteFactDatabase(const FactDatabase& db, BinaryWriter* w) {
  w->U64(db.num_sources());
  for (size_t s = 0; s < db.num_sources(); ++s) {
    const Source& source = db.source(static_cast<SourceId>(s));
    w->Str(source.name);
    w->VecF64(source.features);
  }
  w->U64(db.num_documents());
  for (size_t d = 0; d < db.num_documents(); ++d) {
    const Document& document = db.document(static_cast<DocumentId>(d));
    w->U32(document.source);
    w->VecF64(document.features);
  }
  w->U64(db.num_claims());
  for (size_t c = 0; c < db.num_claims(); ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    w->Str(db.claim(id).text);
    w->U8(!db.has_ground_truth(id) ? kTruthUnknown : db.ground_truth(id) ? 1 : 0);
  }
  w->U64(db.num_cliques());
  for (const Clique& clique : db.cliques()) {
    w->U32(clique.document);
    w->U32(clique.claim);
    w->U8(static_cast<uint8_t>(clique.stance));
  }
}

Result<FactDatabase> ReadFactDatabase(BinaryReader* r) {
  FactDatabase db;
  uint64_t count = 0;
  VERITAS_RETURN_IF_ERROR(ReadCount(r, 16, &count));  // name + features
  for (uint64_t i = 0; i < count; ++i) {
    Source source;
    VERITAS_RETURN_IF_ERROR(r->Str(&source.name));
    VERITAS_RETURN_IF_ERROR(r->VecF64(&source.features));
    db.AddSource(std::move(source));
  }
  VERITAS_RETURN_IF_ERROR(ReadCount(r, 12, &count));  // source + features
  for (uint64_t i = 0; i < count; ++i) {
    Document document;
    VERITAS_RETURN_IF_ERROR(r->U32(&document.source));
    VERITAS_RETURN_IF_ERROR(r->VecF64(&document.features));
    db.AddDocument(std::move(document));
  }
  VERITAS_RETURN_IF_ERROR(ReadCount(r, 9, &count));  // text + truth
  for (uint64_t i = 0; i < count; ++i) {
    Claim claim;
    uint8_t truth = 0;
    VERITAS_RETURN_IF_ERROR(r->Str(&claim.text));
    VERITAS_RETURN_IF_ERROR(r->U8(&truth));
    if (truth > kTruthUnknown) {
      return Status::InvalidArgument("ReadFactDatabase: bad truth byte " +
                                     std::to_string(truth));
    }
    const ClaimId id = db.AddClaim(std::move(claim));
    if (truth != kTruthUnknown) db.SetGroundTruth(id, truth == 1);
  }
  VERITAS_RETURN_IF_ERROR(ReadCount(r, 9, &count));  // document + claim + stance
  for (uint64_t i = 0; i < count; ++i) {
    DocumentId document = 0;
    ClaimId claim = 0;
    uint8_t stance = 0;
    VERITAS_RETURN_IF_ERROR(r->U32(&document));
    VERITAS_RETURN_IF_ERROR(r->U32(&claim));
    VERITAS_RETURN_IF_ERROR(r->U8(&stance));
    if (stance > static_cast<uint8_t>(Stance::kRefute)) {
      return Status::InvalidArgument("ReadFactDatabase: bad stance byte " +
                                     std::to_string(stance));
    }
    VERITAS_RETURN_IF_ERROR(
        db.AddMention(document, claim, static_cast<Stance>(stance)));
  }
  VERITAS_RETURN_IF_ERROR(db.Validate());
  return db;
}

}  // namespace veritas
