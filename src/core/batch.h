/// \file
/// Batched guidance (§6.2), an extension of the guidance stage of the
/// pipeline: instead of one claim per iteration, select k claims that
/// jointly maximize the submodular utility F(B) (Eq. 27) — individual
/// information gain minus source-overlap redundancy (Eq. 26) — by the
/// greedy (1 - 1/e)-approximate algorithm. Batching amortizes the user's
/// per-iteration set-up cost at a bounded precision cost (Figs. 10/11).

#ifndef VERITAS_CORE_BATCH_H_
#define VERITAS_CORE_BATCH_H_

#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/icrf.h"
#include "core/strategy.h"
#include "data/model.h"

namespace veritas {

/// w, the weight of the individual benefit in the utility F(B) (Eq. 27).
inline constexpr double kBatchBenefitWeight = 1.0;

/// Options of batched claim selection (§6.2).
struct BatchOptions {
  size_t batch_size = 5;   ///< k, the claims validated per iteration
  GuidanceConfig guidance;  ///< candidate pool and fan-out knobs
};

/// Sparse source-overlap correlation matrix M(c, c') (Eq. 26): the number of
/// sources connecting both claims, normalized to [0, 1] by the maximum
/// count. Only claim pairs with at least one shared source are materialized.
class ClaimCorrelation {
 public:
  /// Builds the correlation restricted to `claims` (pairs outside the set
  /// are irrelevant for batch selection).
  ClaimCorrelation(const ICrf& icrf, const std::vector<ClaimId>& claims);

  /// M(a, b) in [0, 1]; 0 when the claims share no source.
  double At(ClaimId a, ClaimId b) const;

  /// Neighbors of `c` among the restricted claims with M(c, .) > 0.
  const std::vector<std::pair<ClaimId, double>>& Neighbors(ClaimId c) const;

 private:
  std::unordered_map<uint64_t, double> values_;
  std::unordered_map<ClaimId, std::vector<std::pair<ClaimId, double>>> neighbors_;
  std::vector<std::pair<ClaimId, double>> empty_;
  uint64_t key_stride_;
};

/// Utility F(B) (Eq. 27): weighted individual benefit minus redundancy.
/// Exposed for tests (submodularity / greedy-guarantee checks).
double BatchUtility(const std::vector<ClaimId>& batch,
                    const std::unordered_map<ClaimId, double>& info_gain,
                    const std::unordered_map<ClaimId, double>& importance,
                    const ClaimCorrelation& correlation, double benefit_weight);

/// Result of one batch selection.
struct BatchSelection {
  std::vector<ClaimId> claims;
  double utility = 0.0;
  std::vector<double> info_gains;  ///< IG of each selected claim
};

/// Greedy top-k batch selection (§6.2): computes IG_C over the candidate
/// pool, builds the correlation matrix and importance weights, then greedily
/// maximizes F with the incremental gain update
/// Delta_{i+1}(c) = Delta_i(c) - 2 IG(c*_i) M(c, c*_i) IG(c). The greedy
/// solution is a (1 - 1/e) approximation (Theorem 1 / Nemhauser-Wolsey).
Result<BatchSelection> SelectBatch(const ICrf& icrf, const BeliefState& state,
                                   const BatchOptions& options, ThreadPool* pool);

}  // namespace veritas

#endif  // VERITAS_CORE_BATCH_H_
