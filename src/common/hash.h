#ifndef VERITAS_COMMON_HASH_H_
#define VERITAS_COMMON_HASH_H_

#include <cstdint>
#include <string>

namespace veritas {

/// 64-bit hash of a byte string under `seed`: the splitmix64 finalizer
/// folded over the bytes, then over the length. Every per-byte step is a
/// bijection of the running state, so changing any single byte always
/// changes the result. Checksums checkpoint files (service/checkpoint.h),
/// whose committed fixtures depend on its exact output.
uint64_t HashBytes(const std::string& bytes, uint64_t seed);

}  // namespace veritas

#endif  // VERITAS_COMMON_HASH_H_
