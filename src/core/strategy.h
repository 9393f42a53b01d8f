/// \file
/// Guidance stage of the pipeline (grounding -> inference -> guidance ->
/// confirmation -> termination): the claim-selection strategies of §4
/// (random, uncertainty, claim info-gain, source info-gain, hybrid) and
/// the runtime variants of §5.1 that make info-gain scoring tractable
/// (approximate entropy, candidate pool, neighborhood partitioning,
/// parallel evaluation). See DESIGN.md §§2-4 for the variant/policy/knob
/// catalogue.

#ifndef VERITAS_CORE_STRATEGY_H_
#define VERITAS_CORE_STRATEGY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/fields.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/grounding.h"
#include "core/icrf.h"
#include "data/model.h"

namespace veritas {

/// Runtime variants of the guidance computation (§5.1 / Fig. 2):
///   kOrigin           exact entropy where tractable (tree BP or enumeration
///                     per component, Eq. 12), serial candidate evaluation.
///   kScalable         linear-time approximate entropy (Eq. 13), serial.
///   kParallelPartition approximate entropy + neighborhood-partitioned
///                     re-inference, with candidates evaluated on the
///                     process-wide ComputePool() that the step borrows.
enum class GuidanceVariant { kOrigin, kScalable, kParallelPartition };

constexpr Spellings<3> EnumSpellings(GuidanceVariant) {
  return {"origin", "scalable", "parallel_partition"};
}

/// The five selection policies compared in §8.4 / Fig. 6.
enum class StrategyKind { kRandom, kUncertainty, kInfoGain, kSource, kHybrid };

/// Wire spellings; StrategyName below gives the shorter display names.
constexpr Spellings<5> EnumSpellings(StrategyKind) {
  return {"random", "uncertainty", "info_gain", "source", "hybrid"};
}

const char* StrategyName(StrategyKind kind);

/// Fan-out kernel of the sampling-based IG scores (DESIGN.md §12):
///   kPerCandidate  the legacy path — every (candidate, branch) runs an
///                  independent restricted Gibbs chain with its own burn-in
///                  (HypotheticalEngine::EvaluateCandidate).
///   kBatched       the pool shares one base resample; candidates run as
///                  label overlays over a scope-compacted CSR with frozen
///                  out-of-scope terms and Rao-Blackwellized marginals
///                  (FanoutWorker). Same scoring semantics, far fewer and
///                  cheaper sweeps per candidate.
enum class FanoutKernel { kPerCandidate, kBatched };

constexpr Spellings<2> EnumSpellings(FanoutKernel) {
  return {"per_candidate", "batched"};
}

/// Sweeps of the batched fan-out's shared base resample.
inline constexpr size_t kFanoutBaseSweeps = 4;

/// Knobs shared by the guidance strategies.
struct GuidanceConfig {
  GuidanceVariant variant = GuidanceVariant::kParallelPartition;
  /// Candidate pool: the most-uncertain `candidate_pool` unlabeled claims
  /// are scored per iteration (0 = score all unlabeled claims). This is an
  /// engineering knob on top of the paper (see DESIGN.md); the ablation
  /// bench quantifies its effect.
  size_t candidate_pool = 64;
  uint64_t seed = 17;
  /// Hypothetical fan-out kernel for the sampling variants (kOrigin's exact
  /// path is unaffected). kBatched is the default; kPerCandidate remains as
  /// the committed reference the speedup bench measures against.
  FanoutKernel fanout = FanoutKernel::kBatched;
  /// Batched-kernel schedule (ignored under kPerCandidate, which reads
  /// ICrfOptions.hypothetical_gibbs like it always has); the shared base
  /// resample runs kFanoutBaseSweeps sweeps.
  size_t fanout_burn_in = 2;
  size_t fanout_samples = 8;
};

template <typename V, typename S>
FieldsOf<S, GuidanceConfig> VisitFields(V& v, S& g) {
  v("variant", g.variant);
  v("candidate_pool", g.candidate_pool);
  v("seed", g.seed);
  v("fanout", g.fanout);
  v("fanout_burn_in", g.fanout_burn_in);
  v("fanout_samples", g.fanout_samples);
}

/// A claim-selection policy (step 1 of the validation process, §2.3).
class SelectionStrategy {
 public:
  virtual ~SelectionStrategy() = default;

  virtual std::string name() const = 0;

  /// Returns up to `k` unlabeled claims ordered by decreasing preference.
  /// Errors when no unlabeled claim remains.
  virtual Result<std::vector<ClaimId>> Rank(const ICrf& icrf,
                                            const BeliefState& state, size_t k) = 0;

  /// Convenience: the single best claim.
  Result<ClaimId> Select(const ICrf& icrf, const BeliefState& state);

  /// The strategy's internal random stream, when it has one (random and
  /// hybrid policies); null for the deterministic policies. Session
  /// checkpoints (src/service/checkpoint.h) persist it so a restored
  /// session continues the exact selection sequence.
  virtual Rng* mutable_rng() { return nullptr; }
};

/// Creates a strategy. The returned strategy owns its random stream; the
/// info-gain strategies evaluate candidates on `pool` when it is non-null
/// (borrowed, must outlive the strategy) and serially otherwise.
std::unique_ptr<SelectionStrategy> MakeStrategy(StrategyKind kind,
                                                const GuidanceConfig& config,
                                                ThreadPool* pool = nullptr);

/// Information gain IG_C (Eq. 15) of validating each candidate, computed as
/// the expected entropy reduction under hypothetical user input (Q+ / Q-
/// re-inference with frozen weights, restricted to the candidate's coupling
/// neighborhood). Exposed for the batch selector (§6.2) and diagnostics.
/// Candidates run on `pool` when it is non-null, serially otherwise; the
/// scores are identical either way.
Result<std::vector<double>> ComputeClaimInfoGains(
    const ICrf& icrf, const BeliefState& state,
    const std::vector<ClaimId>& candidates, const GuidanceConfig& config,
    ThreadPool* pool);

/// Source-side information gain IG_S (Eq. 20): the expected reduction of
/// source-trustworthiness entropy (Eq. 18) under hypothetical user input.
Result<std::vector<double>> ComputeSourceInfoGains(
    const ICrf& icrf, const BeliefState& state,
    const std::vector<ClaimId>& candidates, const GuidanceConfig& config,
    ThreadPool* pool);

/// The candidate pool: the `pool` most uncertain unlabeled claims (all of
/// them when pool == 0 or fewer are unlabeled).
std::vector<ClaimId> CandidatePool(const BeliefState& state, size_t pool);

/// Hybrid strategy z-score (Eq. 23): z = 1 - exp(-(err (1-h) + r h)) with
/// h the labeled ratio, err the last error rate, r the unreliable-source
/// ratio.
double HybridScore(double error_rate, double unreliable_ratio, double labeled_ratio);

/// The hybrid strategy needs its z-score updated by the validation loop;
/// this interface avoids a dynamic_cast at the call site.
class HybridControl {
 public:
  virtual ~HybridControl() = default;
  virtual void set_z(double z) = 0;
  virtual double z() const = 0;
};

}  // namespace veritas

#endif  // VERITAS_CORE_STRATEGY_H_
