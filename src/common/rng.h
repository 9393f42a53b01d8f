#ifndef VERITAS_COMMON_RNG_H_
#define VERITAS_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/fields.h"

namespace veritas {

/// Snapshot of the full generator state: the four xoshiro256** words plus
/// the Box-Muller cache. Restoring it resumes the stream bit-for-bit, which
/// is what makes session checkpoints (src/service/checkpoint.h) exact.
struct RngState {
  uint64_t s[4] = {0, 0, 0, 0};
  bool has_cached_normal = false;
  double cached_normal = 0.0;
};

template <typename V, typename S>
FieldsOf<S, RngState> VisitFields(V& v, S& r) {
  v("s", r.s);
  v("has_cached_normal", r.has_cached_normal);
  v("cached_normal", r.cached_normal);
}

/// Deterministic, seedable pseudo-random generator (xoshiro256**) with the
/// distribution helpers the framework needs. All stochastic components of the
/// library draw from an explicitly passed Rng so that every experiment is
/// reproducible from a single seed.
class Rng {
 public:
  /// Seeds the state via SplitMix64 expansion of `seed`.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit draw.
  uint64_t NextU64();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Bernoulli draw with success probability p (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Standard normal via Box-Muller (cached second value).
  double Normal();

  /// Normal with the given mean and standard deviation.
  double Normal(double mean, double stddev);

  /// Beta(alpha, beta) via Gamma ratio (Marsaglia-Tsang Gamma sampling).
  double BetaSample(double alpha, double beta);

  /// Gamma(shape, scale=1) via Marsaglia-Tsang; shape > 0.
  double GammaSample(double shape);

  /// Poisson draw; inversion for small lambda, normal approximation above 64.
  int Poisson(double lambda);

  /// Exponential draw with the given rate (> 0).
  double Exponential(double rate);

  /// Draws an index in [0, weights.size()) proportionally to `weights`.
  /// Non-positive total weight falls back to uniform choice.
  size_t Categorical(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* values) {
    if (values->empty()) return;
    for (size_t i = values->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformInt(i + 1));
      std::swap((*values)[i], (*values)[j]);
    }
  }

  /// Samples `k` distinct indices from [0, n) (k capped at n), in random order.
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

  /// Forks an independent generator whose stream is decorrelated from this one.
  Rng Fork();

  /// Captures the complete generator state for checkpointing.
  RngState SaveState() const;
  /// Restores a state captured by SaveState(); the stream continues exactly
  /// where the saved generator left off.
  void RestoreState(const RngState& state);

 private:
  uint64_t state_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

/// Deterministic per-candidate random stream for hypothetical re-inference:
/// splitmix-style mixing of (seed, candidate, branch) yields a generator
/// that depends only on those three values, never on evaluation order or
/// thread scheduling. All hypothetical re-inference sites (guidance,
/// batching, confirmation, cross-validation) derive their chains through
/// this function so results are reproducible from a single seed.
Rng CandidateRng(uint64_t seed, uint64_t candidate, int branch);

/// Stateless counter-based draws for the chromatic parallel Gibbs kernel
/// (DESIGN.md §12). The value depends only on (seed, stream, counter) —
/// SplitMix64 finalizers over the mixed words — so a sweep that assigns
/// `stream` = sweep index and `counter` = claim id produces the exact same
/// draw for a claim no matter which thread updates it, in what order, or
/// how many workers the pool runs: bit-reproducible at any thread count.
uint64_t CounterU64(uint64_t seed, uint64_t stream, uint64_t counter);

/// CounterU64 mapped to a uniform double in [0, 1) with the same 53-bit
/// construction as Rng::Uniform().
double CounterUniform(uint64_t seed, uint64_t stream, uint64_t counter);

}  // namespace veritas

#endif  // VERITAS_COMMON_RNG_H_
