/// \file
/// Database entropy, the quantity guidance minimizes (§4.1): the linear-
/// time approximation of Eq. 13 and its incremental per-claim cache
/// (DESIGN.md §12), and the exact component entropy of Eq. 12, which reads
/// the entropy field of the shared exact solve (crf/mrf.h SolveExact).

#ifndef VERITAS_CRF_ENTROPY_H_
#define VERITAS_CRF_ENTROPY_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "crf/mrf.h"
#include "data/model.h"

namespace veritas {

/// Linear-time approximate database entropy (Eq. 13): the sum of per-claim
/// Bernoulli entropies. Labeled claims (probability 0 or 1) contribute 0.
/// Neglects claim-claim dependencies, which is exactly the trade-off the
/// paper's "scalable" variant makes.
double ApproxDatabaseEntropy(const std::vector<double>& probs);

/// Approximate entropy restricted to a subset of claims (used by the
/// partition optimization: validating a claim can only change the entropy
/// of its own connected neighborhood when weights are held fixed).
double ApproxSubsetEntropy(const std::vector<double>& probs,
                           const std::vector<ClaimId>& subset);

/// Per-claim marginal entropies (for the `uncertainty` baseline strategy).
std::vector<double> MarginalEntropies(const std::vector<double>& probs);

/// Exact joint entropy (Eq. 12) of one connected component of the MRF:
/// ExtractComponent, then SolveExact. Errors when the component is cyclic
/// and has more unlabeled claims than `max_free`; callers
/// then fall back to the approximation (the "exact where tractable" policy
/// of the origin variant, §8.2).
Result<double> ExactComponentEntropy(const ClaimMrf& mrf, const BeliefState& state,
                                     const std::vector<ClaimId>& component,
                                     size_t max_free = 20);

/// Incremental per-claim marginal-entropy cache (DESIGN.md §12). After an
/// answer is ingested only the claims whose probability actually changed —
/// detected bitwise against the last refresh — are re-scored; a size change
/// or a new engine structure epoch forces a full recompute. Because the
/// cached value of claim c is exactly BinaryEntropy(probs[c]) and the sums
/// run in the same order as the one-shot functions, Total() is
/// bit-identical to ApproxDatabaseEntropy(probs) and SubsetSum() to
/// ApproxSubsetEntropy(probs, subset).
///
/// Thread-safety: Refresh() must not race reads; the pipeline refreshes
/// between phases (after inference, before the guidance fan-out) and the
/// fan-out threads then only read.
class MarginalEntropyCache {
 public:
  /// Synchronizes the cache with `probs` under `structure_epoch` (pass the
  /// hypothetical engine's epoch, or 0 when unused).
  void Refresh(const std::vector<double>& probs, uint64_t structure_epoch);

  /// Sum of the cached entropies in index order.
  double Total() const;

  /// Sum over `subset` in the caller's order; out-of-range ids contribute 0.
  double SubsetSum(const std::vector<ClaimId>& subset) const;

  size_t size() const { return values_.size(); }
  double value(size_t i) const { return values_[i]; }

  /// Observability: entries re-scored by the last Refresh(), and the count
  /// of full recomputes (size/epoch invalidations) over the cache lifetime.
  size_t last_refreshed_entries() const { return last_refreshed_; }
  uint64_t full_refreshes() const { return full_refreshes_; }

 private:
  std::vector<double> probs_;   ///< probabilities at the last refresh
  std::vector<double> values_;  ///< BinaryEntropy of each probability
  uint64_t epoch_ = 0;
  bool filled_ = false;
  size_t last_refreshed_ = 0;
  uint64_t full_refreshes_ = 0;
};

}  // namespace veritas

#endif  // VERITAS_CRF_ENTROPY_H_
