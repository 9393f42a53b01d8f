#include "crf/gibbs.h"

#include <algorithm>
#include <unordered_map>

#include "common/math.h"

namespace veritas {

SampleSet::SampleSet(std::vector<SpinConfig> samples)
    : samples_(std::move(samples)) {}

std::vector<double> SampleSet::Marginals(const BeliefState& state) const {
  const size_t n = num_claims();
  std::vector<double> marginals(n, 0.5);
  if (samples_.empty()) return marginals;
  std::vector<double> counts(n, 0.0);
  for (const SpinConfig& sample : samples_) {
    for (size_t c = 0; c < n; ++c) counts[c] += sample[c];
  }
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (c < state.num_claims() && state.IsLabeled(id)) {
      marginals[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : 0.0;
    } else {
      marginals[c] = counts[c] / static_cast<double>(samples_.size());
    }
  }
  return marginals;
}

namespace {

/// Splitmix-fold of a spin vector: 64 spins are packed per 64-bit word and
/// each word folded through the SplitMix64 finalizer. No intermediate key
/// object — hashing a sample costs zero allocations.
uint64_t SpinConfigHash(const SpinConfig& sample) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ sample.size();
  const size_t n = sample.size();
  size_t i = 0;
  while (i < n) {
    uint64_t word = 0;
    const size_t chunk = std::min<size_t>(64, n - i);
    for (size_t b = 0; b < chunk; ++b) {
      word |= static_cast<uint64_t>(sample[i + b] != 0 ? 1 : 0) << b;
    }
    i += chunk;
    uint64_t z = h ^ (word + 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    h = z ^ (z >> 31);
  }
  return h;
}

}  // namespace

SpinConfig SampleSet::ModeConfiguration() const {
  if (samples_.empty()) return {};
  // Frequency map keyed by the 64-bit fold of each sample. A collision of
  // distinct configurations is detected by comparing against the first
  // sample that claimed the key, and resolved by re-mixing the key — an
  // open chain over the hash space, still allocation-free per sample.
  struct Entry {
    size_t first;  ///< index of the first sample hashed to this key
    size_t count;
  };
  std::unordered_map<uint64_t, Entry> frequency;
  frequency.reserve(samples_.size() * 2);
  const SpinConfig* best = nullptr;
  size_t best_count = 0;
  for (size_t s = 0; s < samples_.size(); ++s) {
    const SpinConfig& sample = samples_[s];
    uint64_t key = SpinConfigHash(sample);
    for (;;) {
      auto [it, inserted] = frequency.try_emplace(key, Entry{s, 0});
      if (inserted || samples_[it->second.first] == sample) {
        const size_t count = ++it->second.count;
        if (count > best_count) {
          best_count = count;
          best = &sample;
        }
        break;
      }
      // True 64-bit collision between distinct configurations: re-mix.
      key = key * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL;
    }
  }
  if (best_count > 1) return *best;
  // All samples distinct: per-claim majority.
  const size_t n = num_claims();
  SpinConfig majority(n, 0);
  std::vector<size_t> counts(n, 0);
  for (const SpinConfig& sample : samples_) {
    for (size_t c = 0; c < n; ++c) counts[c] += sample[c];
  }
  for (size_t c = 0; c < n; ++c) {
    majority[c] = counts[c] * 2 >= samples_.size() ? 1 : 0;
  }
  return majority;
}

void GibbsSweepCsr(const ClaimMrf& mrf, const double* fields,
                   const std::vector<size_t>& sweep_order, SpinConfig* spins,
                   Rng* rng) {
  const size_t* offsets = mrf.offsets.data();
  const ClaimId* neighbors = mrf.neighbors.data();
  const double* couplings = mrf.couplings.data();
  SpinConfig& s = *spins;
  for (const size_t c : sweep_order) {
    double neighbor_term = 0.0;
    const size_t end = offsets[c + 1];
    for (size_t k = offsets[c]; k < end; ++k) {
      neighbor_term += couplings[k] * (s[neighbors[k]] != 0 ? 1.0 : -1.0);
    }
    const double logit = 2.0 * (fields[c] + neighbor_term);
    s[c] = rng->Bernoulli(Sigmoid(logit)) ? 1 : 0;
  }
}

Result<SampleSet> RunGibbs(const ClaimMrf& mrf, const BeliefState& state,
                           const SpinConfig* warm_start,
                           const std::vector<ClaimId>* restrict_claims,
                           const GibbsOptions& options, Rng* rng) {
  const size_t n = mrf.num_claims();
  if (state.num_claims() != n) {
    return Status::InvalidArgument("RunGibbs: state size mismatch");
  }
  if (!mrf.adjacency_built()) {
    return Status::FailedPrecondition("RunGibbs: adjacency not built");
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument("RunGibbs: num_samples must be positive");
  }

  // Initialize spins: labels are authoritative, then warm start, then the
  // decoupled field distribution.
  SpinConfig spins(n, 0);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (state.IsLabeled(id)) {
      spins[c] = state.label(id) == ClaimLabel::kCredible ? 1 : 0;
    } else if (warm_start != nullptr && c < warm_start->size()) {
      spins[c] = (*warm_start)[c] != 0 ? 1 : 0;
    } else {
      spins[c] = rng->Bernoulli(Sigmoid(2.0 * mrf.field[c])) ? 1 : 0;
    }
  }

  // Claims to resample each sweep.
  std::vector<size_t> sweep_order;
  if (restrict_claims != nullptr) {
    sweep_order.reserve(restrict_claims->size());
    for (const ClaimId id : *restrict_claims) {
      if (id < n && !state.IsLabeled(id)) sweep_order.push_back(id);
    }
  } else {
    sweep_order.reserve(n);
    for (size_t c = 0; c < n; ++c) {
      if (!state.IsLabeled(static_cast<ClaimId>(c))) sweep_order.push_back(c);
    }
  }

  auto sweep = [&]() {
    GibbsSweepCsr(mrf, mrf.field.data(), sweep_order, &spins, rng);
  };

  for (size_t b = 0; b < options.burn_in; ++b) sweep();

  std::vector<SpinConfig> samples;
  samples.reserve(options.num_samples);
  const size_t thin = std::max<size_t>(1, options.thin);
  for (size_t s = 0; s < options.num_samples; ++s) {
    for (size_t t = 0; t < thin; ++t) sweep();
    samples.push_back(spins);
  }
  return SampleSet(std::move(samples));
}

}  // namespace veritas
