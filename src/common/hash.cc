#include "common/hash.h"

namespace veritas {

namespace {

/// splitmix64 finalizer, folded over the bytes of a string: strong mixing
/// at a few operations per byte, cheap enough to checksum every
/// checkpoint.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t HashBytes(const std::string& bytes, uint64_t seed) {
  uint64_t state = Mix(seed ^ 0x5851f42d4c957f2dull);
  for (unsigned char c : bytes) state = Mix(state ^ c);
  return Mix(state ^ bytes.size());
}

}  // namespace veritas
