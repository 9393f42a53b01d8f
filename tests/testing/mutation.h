// Seeded byte mutation for the decoder fuzz suites (DESIGN.md §10 and §9):
// every choice is drawn from CounterUniform, so a suite mutates the same
// bytes on every host and a crasher reproduces from its seed, stream and
// index alone.

#ifndef VERITAS_TESTS_TESTING_MUTATION_H_
#define VERITAS_TESTS_TESTING_MUTATION_H_

#include <algorithm>
#include <cstdint>
#include <string>

#include "common/rng.h"

namespace veritas {
namespace testing {

/// Draws from one (seed, stream) counter sequence.
class Draws {
 public:
  Draws(uint64_t seed, uint64_t stream) : seed_(seed), stream_(stream) {}
  /// Uniform in [0, n); n > 0.
  size_t Below(size_t n) {
    return static_cast<size_t>(CounterUniform(seed_, stream_, counter_++) *
                               static_cast<double>(n));
  }

 private:
  uint64_t seed_;
  uint64_t stream_;
  uint64_t counter_ = 0;
};

/// `bytes` after one to three edits, each a byte overwrite, a truncation,
/// a duplicated span inserted anywhere, or a deleted span.
inline std::string Mutate(const std::string& bytes, Draws* draws) {
  std::string mutant = bytes;
  const size_t edits = 1 + draws->Below(3);
  for (size_t e = 0; e < edits && !mutant.empty(); ++e) {
    const size_t at = draws->Below(mutant.size());
    const size_t length = 1 + draws->Below(std::min<size_t>(
                                  16, mutant.size() - at));
    switch (draws->Below(4)) {
      case 0:  // byte overwrite
        mutant[at] = static_cast<char>(draws->Below(256));
        break;
      case 1:  // truncation
        mutant.resize(at);
        break;
      case 2:  // duplicated span, inserted anywhere
        mutant.insert(draws->Below(mutant.size() + 1),
                      mutant.substr(at, length));
        break;
      default:  // deleted span
        mutant.erase(at, length);
    }
  }
  return mutant;
}

}  // namespace testing
}  // namespace veritas

#endif  // VERITAS_TESTS_TESTING_MUTATION_H_
