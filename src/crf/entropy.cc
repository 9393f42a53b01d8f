#include "crf/entropy.h"

#include <cstring>

#include "common/math.h"

namespace veritas {

void MarginalEntropyCache::Refresh(const std::vector<double>& probs,
                                   uint64_t structure_epoch) {
  const size_t n = probs.size();
  if (!filled_ || n != probs_.size() || structure_epoch != epoch_) {
    probs_ = probs;
    values_.resize(n);
    for (size_t i = 0; i < n; ++i) values_[i] = BinaryEntropy(probs_[i]);
    epoch_ = structure_epoch;
    filled_ = true;
    last_refreshed_ = n;
    ++full_refreshes_;
    return;
  }
  size_t refreshed = 0;
  for (size_t i = 0; i < n; ++i) {
    // Bitwise comparison: re-score exactly the entries whose probability
    // changed, including sign-of-zero or NaN-payload differences a value
    // compare would miss.
    uint64_t incoming, cached;
    std::memcpy(&incoming, &probs[i], sizeof(incoming));
    std::memcpy(&cached, &probs_[i], sizeof(cached));
    if (incoming != cached) {
      probs_[i] = probs[i];
      values_[i] = BinaryEntropy(probs_[i]);
      ++refreshed;
    }
  }
  last_refreshed_ = refreshed;
}

double MarginalEntropyCache::Total() const {
  double entropy = 0.0;
  for (const double v : values_) entropy += v;
  return entropy;
}

double MarginalEntropyCache::SubsetSum(const std::vector<ClaimId>& subset) const {
  double entropy = 0.0;
  for (const ClaimId id : subset) {
    if (id < values_.size()) entropy += values_[id];
  }
  return entropy;
}

double ApproxDatabaseEntropy(const std::vector<double>& probs) {
  double entropy = 0.0;
  for (double p : probs) entropy += BinaryEntropy(p);
  return entropy;
}

double ApproxSubsetEntropy(const std::vector<double>& probs,
                           const std::vector<ClaimId>& subset) {
  double entropy = 0.0;
  for (const ClaimId id : subset) {
    if (id < probs.size()) entropy += BinaryEntropy(probs[id]);
  }
  return entropy;
}

std::vector<double> MarginalEntropies(const std::vector<double>& probs) {
  std::vector<double> entropies(probs.size());
  for (size_t i = 0; i < probs.size(); ++i) entropies[i] = BinaryEntropy(probs[i]);
  return entropies;
}

Result<double> ExactComponentEntropy(const ClaimMrf& mrf, const BeliefState& state,
                                     const std::vector<ClaimId>& component,
                                     size_t max_free) {
  const ComponentProblem sub = ExtractComponent(mrf, state, component);
  auto exact = SolveExact(sub.mrf, sub.state, max_free);
  if (!exact.ok()) return exact.status();
  return exact.value().entropy;
}

}  // namespace veritas
