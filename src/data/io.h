/// \file
/// Little-endian binary serialization: the BinaryWriter/BinaryReader
/// framing and the fact-database record, both used by the session
/// checkpoint file (service/checkpoint.h, DESIGN.md §9).

#ifndef VERITAS_DATA_IO_H_
#define VERITAS_DATA_IO_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/model.h"

namespace veritas {

/// Little-endian binary serialization for exact state persistence (the
/// session checkpoints of src/service/checkpoint.h). Doubles are written as
/// their IEEE-754 bit pattern: round-trips are bit-for-bit, which the
/// restore-equals-never-checkpointed guarantee of the service rests on.
class BinaryWriter {
 public:
  void U8(uint8_t value);
  void U32(uint32_t value);
  void U64(uint64_t value);
  void F64(double value);
  /// Length-prefixed (u64) byte string.
  void Str(const std::string& value);
  void VecU8(const std::vector<uint8_t>& values);
  void VecU32(const std::vector<uint32_t>& values);
  void VecF64(const std::vector<double>& values);

  const std::string& buffer() const { return buffer_; }

  /// Replaces `path` with the accumulated buffer atomically: the bytes go
  /// to `path`.tmp in the same directory, are fdatasync'ed, renamed over
  /// `path`, and the directory is fsync'ed. A crash at any point leaves
  /// either the old file or the new one, whole. Only one writer per
  /// directory at a time: two concurrent writers would share the temp file.
  Status WriteFile(const std::string& path) const;

 private:
  std::string buffer_;
};

/// The whole content of the file at `path`; kNotFound when it cannot be
/// opened.
Result<std::string> ReadFileBytes(const std::string& path);

/// Reader over a byte buffer produced by BinaryWriter. Every accessor
/// bounds-checks and returns OutOfRange on a truncated buffer, so corrupt
/// checkpoints surface as errors instead of undefined behavior.
class BinaryReader {
 public:
  explicit BinaryReader(std::string bytes) : bytes_(std::move(bytes)) {}

  Status U8(uint8_t* out);
  Status U32(uint32_t* out);
  Status U64(uint64_t* out);
  Status F64(double* out);
  Status Str(std::string* out);
  Status VecU8(std::vector<uint8_t>* out);
  Status VecU32(std::vector<uint32_t>* out);
  Status VecF64(std::vector<double>* out);

  bool AtEnd() const { return offset_ == bytes_.size(); }
  size_t remaining() const { return bytes_.size() - offset_; }

 private:
  Status Take(size_t n, const char** out);

  std::string bytes_;
  size_t offset_ = 0;
};

/// Appends the fact-database record: sources (name, features), documents
/// (source, features), claims (text, truth byte 0 / 1 / 2 = unknown) and
/// mentions (document, claim, stance byte), each list a u64 count then its
/// items; ids are u32, features their IEEE-754 bits.
void WriteFactDatabase(const FactDatabase& db, BinaryWriter* w);

/// Reads a record written by WriteFactDatabase. Counts larger than the
/// bytes left are OutOfRange; truth and stance bytes outside their ranges
/// are InvalidArgument; mentions go through AddMention (ids range-checked)
/// and the result must pass FactDatabase::Validate().
Result<FactDatabase> ReadFactDatabase(BinaryReader* r);

}  // namespace veritas

#endif  // VERITAS_DATA_IO_H_
