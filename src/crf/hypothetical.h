/// \file
/// HypotheticalEngine: the one shared kernel behind the paper's
/// "scalable + partition + parallel" guidance story (§5.1, Fig. 2) —
/// hypothetically label a claim, re-sample its coupling neighborhood with
/// frozen weights, and hand the resulting probability vector to whichever
/// metric asked (claim info gain, source info gain, batch utility, the
/// leave-one-out confirmation check, cross-validated precision). Before
/// this engine existed each of those five call sites rebuilt neighborhoods
/// and allocated fresh sample buffers per evaluation; the engine owns both
/// optimizations once (DESIGN.md §8):
///
///   * per-claim coupling neighborhoods are cached between EM iterations
///     and invalidated only when the edge structure changes — the
///     view-maintenance principle of DESIGN.md §1 applied to guidance;
///   * the re-sampling kernel runs on pooled scratch buffers (spins,
///     fields, sample counts, marginals), so steady-state candidate
///     evaluation performs zero heap allocation even under the thread-pool
///     fan-out of the kParallelPartition variant.

#ifndef VERITAS_CRF_HYPOTHETICAL_H_
#define VERITAS_CRF_HYPOTHETICAL_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "crf/gibbs.h"
#include "crf/mrf.h"
#include "data/model.h"

namespace veritas {

class FanoutBase;
class FanoutWorker;

/// Coupling-graph neighborhood of every hypothetical re-inference (the
/// partition optimization of §5.1): claims within kNeighborhoodRadius hops
/// of the candidate, at most kNeighborhoodCap of them.
inline constexpr size_t kNeighborhoodRadius = 2;
inline constexpr size_t kNeighborhoodCap = 128;

/// Knobs of one hypothetical evaluation, shared by every call site.
struct HypotheticalOptions {
  /// Base seed of the per-candidate random streams (CandidateRng).
  uint64_t seed = 17;
  /// Offset added to the branch/repetition index when deriving the
  /// candidate rng; metrics that must not share random streams use distinct
  /// offsets (IG_C uses 0, IG_S uses 2).
  int rng_stream = 0;
  /// Drop the carried-over probability prior inside the re-sampled scope
  /// and use the feature evidence alone — required by leave-one-out checks
  /// (§5.2, §6.1), where the prior of the label under scrutiny would anchor
  /// the chain to that very label.
  bool neutral_prior = false;
};

/// Shared hypothetical re-inference engine. One instance is owned by ICrf
/// and re-bound after every Infer(); all guidance/confirmation/termination
/// evaluations route through it.
///
/// Thread-safety: Neighborhood(), EvaluateCandidate(), EvaluateHoldout()
/// and ResampleScoped() may be called concurrently (the kParallelPartition
/// fan-out). Bind() must not race with them —
/// in the pipeline they run between phases, from the inference stage.
class HypotheticalEngine {
 public:
  HypotheticalEngine();  // out-of-line: members hold the opaque Scratch
  ~HypotheticalEngine();

  HypotheticalEngine(const HypotheticalEngine&) = delete;
  HypotheticalEngine& operator=(const HypotheticalEngine&) = delete;

  /// (Re)binds the engine to a model snapshot. `mrf` and `evidence_field`
  /// must outlive the binding (ICrf passes its cached members). Fields may
  /// change freely between binds — neighborhoods depend only on the edge
  /// structure — but `structure_changed` must be true whenever the bound
  /// edge set differs from the previous one; the cache is then dropped.
  /// A claim-count change always invalidates, regardless of the flag.
  void Bind(const ClaimMrf* mrf, const std::vector<double>* evidence_field,
            const GibbsOptions& gibbs, bool structure_changed);

  /// True once Bind() has attached a model.
  bool bound() const { return mrf_ != nullptr; }

  /// Monotone counter bumped by each structural invalidation; lets tests
  /// and diagnostics observe the cache-invalidation contract.
  uint64_t structure_epoch() const { return structure_epoch_; }

  /// Cached bounded-BFS coupling neighborhood of `claim`
  /// (kNeighborhoodRadius hops, capped at kNeighborhoodCap claims, the
  /// center always included). An entry is computed once per structure
  /// epoch: the returned reference stays valid, and its contents stable,
  /// until the next structural invalidation. Returns an empty vector when
  /// unbound or out of range.
  const std::vector<ClaimId>& Neighborhood(ClaimId claim) const;

 private:
  struct Scratch;  // pooled per-evaluation buffers (defined in the .cc)

 public:
  /// Lease on one pooled evaluation result. probs() is the full probability
  /// vector: labels fixed at 0/1, the re-sampled scope at its fresh
  /// marginals, untouched claims at their carried-over estimate. The
  /// buffers return to the pool when the Evaluation is destroyed; it must
  /// not outlive the engine.
  class Evaluation {
   public:
    Evaluation() = default;
    Evaluation(Evaluation&& other) noexcept { Swap(&other); }
    Evaluation& operator=(Evaluation&& other) noexcept {
      if (this != &other) {
        Release();
        Swap(&other);
      }
      return *this;
    }
    Evaluation(const Evaluation&) = delete;
    Evaluation& operator=(const Evaluation&) = delete;
    ~Evaluation() { Release(); }

    const std::vector<double>& probs() const { return *probs_; }

   private:
    friend class HypotheticalEngine;
    Evaluation(const HypotheticalEngine* engine, Scratch* scratch,
               const std::vector<double>* probs)
        : engine_(engine), scratch_(scratch), probs_(probs) {}
    void Release();
    void Swap(Evaluation* other) {
      std::swap(engine_, other->engine_);
      std::swap(scratch_, other->scratch_);
      std::swap(probs_, other->probs_);
    }

    const HypotheticalEngine* engine_ = nullptr;
    Scratch* scratch_ = nullptr;
    const std::vector<double>* probs_ = nullptr;
  };

  /// Hypothetically validates `claim` (branch 0 = credible, 1 = not) and
  /// re-samples its cached coupling neighborhood with frozen weights — the
  /// Q+/Q- primitive of Eq. 14/20. The random stream is derived internally
  /// via CandidateRng(options.seed, claim, branch + options.rng_stream), so
  /// scores are independent of evaluation order and thread scheduling.
  Result<Evaluation> EvaluateCandidate(const BeliefState& state, ClaimId claim,
                                       int branch,
                                       const HypotheticalOptions& options) const;

  /// Leave-one-out re-inference of a *labeled* claim (§5.2, §6.1): the
  /// claim's label is hypothetically removed (probability reset to 0.5)
  /// without copying the belief state, and its neighborhood re-sampled.
  /// `repetition` indexes independent chains (confirmation averages a few);
  /// the stream is CandidateRng(seed, claim, repetition + rng_stream).
  Result<Evaluation> EvaluateHoldout(const BeliefState& state, ClaimId claim,
                                     int repetition,
                                     const HypotheticalOptions& options) const;

  /// General scoped re-sampling under the labels of `state` (all unlabeled
  /// claims when `scope` is null) with a caller-supplied generator — the
  /// k-fold cross-validation path, whose scope is a union of neighborhoods
  /// rather than a single cached one. Duplicate scope entries are
  /// re-sampled once; labeled and out-of-range entries are ignored.
  Result<Evaluation> ResampleScoped(const BeliefState& state,
                                    const std::vector<ClaimId>* scope, Rng* rng,
                                    bool neutral_prior) const;

  /// Observability (tests, benches): scratch buffers ever created — equals
  /// the peak number of concurrent evaluations, not the call count — and
  /// currently cached neighborhoods. Both require external quiescence.
  size_t scratch_buffers_created() const;
  size_t cached_neighborhoods() const;

  /// Builds the shared base resample of one batched guidance step
  /// (DESIGN.md §12): spins are initialized from `state` (labels clamped,
  /// unlabeled thresholded at 0.5) and equilibrated with
  /// `options.base_sweeps` counter-based sweeps over ALL unlabeled claims.
  /// Every candidate overlay of the step starts from this one
  /// configuration instead of burning in its own chain — the fan-out
  /// reuse rule. Deterministic function of (bound model, state,
  /// options.seed); never touches a thread.
  Result<FanoutBase> PrepareFanoutBase(const BeliefState& state,
                                       const struct FanoutOptions& options) const;

 private:
  struct LabelOverride;
  friend class FanoutWorker;

  Scratch* AcquireScratch() const;
  void ReleaseScratch(Scratch* scratch) const;
  Status RunKernel(const BeliefState& state, const std::vector<ClaimId>* scope,
                   const LabelOverride& override_label, bool neutral_prior,
                   Rng* rng, Scratch* scratch) const;

  const ClaimMrf* mrf_ = nullptr;
  const std::vector<double>* evidence_field_ = nullptr;
  GibbsOptions gibbs_;
  uint64_t structure_epoch_ = 0;

  struct NeighborhoodEntry {
    bool filled = false;
    std::vector<ClaimId> claims;
  };
  mutable std::vector<NeighborhoodEntry> neighborhood_cache_;
  /// Striped locks over the cache: claim c is guarded by stripe c % kStripes.
  static constexpr size_t kCacheStripes = 64;
  mutable std::array<std::mutex, kCacheStripes> cache_mu_;

  mutable std::mutex scratch_mu_;
  mutable std::vector<std::unique_ptr<Scratch>> free_scratch_;
  mutable size_t scratch_created_ = 0;
};

/// Knobs of the batched candidate fan-out (DESIGN.md §12): the whole
/// guidance pool is evaluated against one shared base resample, each
/// candidate as a label overlay with a scope-compacted chain and
/// Rao-Blackwellized marginals. The short per-overlay schedule (burn_in +
/// num_samples sweeps) is what the shared base buys: equilibration happens
/// once per step instead of once per candidate evaluation.
struct FanoutOptions {
  size_t base_sweeps = 4;   ///< shared equilibration sweeps (all unlabeled)
  size_t burn_in = 2;       ///< per-overlay sweeps before sampling
  size_t num_samples = 8;   ///< Rao-Blackwell sampling sweeps per overlay
  uint64_t seed = 17;
  /// Stream decorrelation offset, same contract as HypotheticalOptions
  /// (IG_C uses 0, IG_S uses 2).
  int rng_stream = 0;
};

/// Immutable snapshot shared by every overlay evaluation of one guidance
/// step: the base ±1 spin configuration, the belief state it was built
/// from, and the knobs. Built by HypotheticalEngine::PrepareFanoutBase();
/// safe to read from any number of FanoutWorkers concurrently. Must not
/// outlive the engine binding or the state.
class FanoutBase {
 public:
  const std::vector<double>& spin_pm() const { return spin_pm_; }
  const BeliefState& state() const { return *state_; }
  const FanoutOptions& options() const { return options_; }

 private:
  friend class HypotheticalEngine;
  friend class FanoutWorker;
  std::vector<double> spin_pm_;  ///< ±1 spins, labels clamped
  const BeliefState* state_ = nullptr;
  FanoutOptions options_;
};

/// Per-thread overlay evaluator of the batched fan-out. Owns all scratch
/// (local spin/field/frozen arrays, the scope-compacted CSR, the stamped
/// index map), so steady-state evaluation allocates nothing; create one
/// worker per fan-out shard. NOT thread-safe — concurrency comes from many
/// workers over one FanoutBase.
///
/// An Evaluate(claim, branch) run hypothetically labels `claim`
/// (branch 0 = credible, 1 = not) and resamples the claim's cached
/// coupling neighborhood, with three kernel-level reuses over the legacy
/// per-candidate path:
///   * spins start at the shared base configuration (no per-candidate
///     burn-in from scratch);
///   * the neighbor walk runs over a scope-local CSR: couplings into
///     claims outside the scope — or labeled inside it — are folded into
///     one frozen scalar per swept claim, computed once per candidate and
///     shared by both branches;
///   * marginals are Rao-Blackwellized (mean conditional probability).
/// The chain draws come from CandidateRng(seed, claim, branch +
/// rng_stream), so results depend only on (base, claim, branch) — never on
/// evaluation order, worker identity, or thread count.
class FanoutWorker {
 public:
  FanoutWorker(const HypotheticalEngine* engine, const FanoutBase* base);

  /// Runs the overlay chain for (claim, branch). On OK, scope() and prob()
  /// describe the hypothetical posterior until the next Evaluate().
  Status Evaluate(ClaimId claim, int branch);

  /// Scope of the last evaluation: the engine's cached neighborhood.
  const std::vector<ClaimId>& scope() const { return *scope_; }

  /// Post-evaluation probability of `id`, matching the legacy
  /// Evaluation::probs() contract: the hypothetical label at 0/1, real
  /// labels at 0/1, the swept scope at its fresh marginals, everything
  /// else at its carried-over `state` estimate.
  double prob(ClaimId id) const {
    if (id < stamp_of_.size() && stamp_of_[id] == stamp_) {
      return final_prob_[local_of_[id]];
    }
    return base_->state().prob(id);
  }

 private:
  void BuildPartition(ClaimId claim);

  const HypotheticalEngine* engine_;
  const FanoutBase* base_;
  const std::vector<ClaimId>* scope_ = nullptr;

  static constexpr ClaimId kNoClaim = ~static_cast<ClaimId>(0);
  ClaimId partition_claim_ = kNoClaim;  ///< claim the partition was built for
  uint32_t candidate_local_ = 0;

  // Stamped global->local index map (O(1) reset per candidate).
  std::vector<uint32_t> local_of_;
  std::vector<uint64_t> stamp_of_;
  uint64_t stamp_ = 0;

  // Scope-local SoA state. Indexed by local scope position...
  std::vector<double> local_spin_;   ///< ±1, dynamic claims only mutate
  std::vector<double> final_prob_;
  // ...or by sweep slot (scope minus labeled minus the candidate):
  std::vector<uint32_t> sweep_local_;  ///< sweep slot -> local position
  std::vector<double> sweep_field_;
  std::vector<double> sweep_frozen_;   ///< folded out-of-scope/labeled terms
  std::vector<double> sweep_rb_;       ///< Rao-Blackwell accumulators
  // Scope-local CSR over the dynamic claims.
  std::vector<size_t> in_offsets_;
  std::vector<uint32_t> in_local_;
  std::vector<double> in_coupling_;
};

}  // namespace veritas

#endif  // VERITAS_CRF_HYPOTHETICAL_H_
