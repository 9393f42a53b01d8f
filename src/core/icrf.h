/// \file
/// Inference stage of the pipeline (grounding -> inference -> guidance ->
/// confirmation -> termination): the iCRF incremental EM engine (§3.2).
/// Wraps the CRF model, its flat-CSR pairwise-MRF reduction and Gibbs
/// E-step, and the TRON M-step behind one object that warm-starts every
/// validation iteration from cached structures. The primitives the later
/// stages are built on — hypothetical re-inference with frozen weights and
/// cached bounded coupling neighborhoods — live in the owned
/// HypotheticalEngine (crf/hypothetical.h, DESIGN.md §8), re-bound after
/// every Infer(); ResampleProbs/Neighborhood remain as thin delegating
/// wrappers.

#ifndef VERITAS_CORE_ICRF_H_
#define VERITAS_CORE_ICRF_H_

#include <vector>

#include <memory>

#include "common/fields.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "crf/chromatic.h"
#include "crf/entropy.h"
#include "crf/gibbs.h"
#include "crf/hypothetical.h"
#include "crf/model.h"
#include "crf/mrf.h"
#include "crf/partition.h"
#include "crf/solver.h"
#include "data/model.h"
#include "optim/tron.h"

namespace veritas {

/// Options of the incremental inference engine (§3.2).
struct ICrfOptions {
  CrfConfig crf;
  GibbsOptions gibbs;           ///< E-step sampling for full inference
  GibbsOptions hypothetical_gibbs{8, 24, 1};  ///< cheaper sampling for Q+/Q-
  TronOptions tron;             ///< M-step solver
  size_t max_em_iterations = 4;
  double em_tolerance = 5e-3;   ///< max per-claim probability change to stop
  bool fit_weights = true;      ///< disable to freeze the log-linear weights
  /// E-step backend (crf/solver.h, DESIGN.md §13). kAuto keeps the
  /// original rule — gibbs.num_threads == 0 runs the sequential sampler,
  /// >= 1 the chromatic kernel.
  CrfBackend backend = CrfBackend::kAuto;
};

template <typename V, typename S>
FieldsOf<S, ICrfOptions> VisitFields(V& v, S& o) {
  v("crf", o.crf);
  v("gibbs", o.gibbs);
  v("hypothetical_gibbs", o.hypothetical_gibbs);
  v("tron", o.tron);
  v("max_em_iterations", o.max_em_iterations);
  v("em_tolerance", o.em_tolerance);
  v("fit_weights", o.fit_weights);
  v("backend", o.backend);
}

/// Statistics of one Infer() call.
struct InferenceStats {
  size_t em_iterations = 0;
  size_t tron_iterations = 0;
  double max_prob_change = 0.0;
};

/// iCRF: incremental EM inference over the probabilistic fact database
/// (§3.2). The engine caches the coupling structure, the current weights,
/// the last-built MRF and the last Gibbs configuration, so that each
/// iteration of the validation process warm-starts from the previous one
/// (the view-maintenance principle) instead of recomputing from scratch.
class ICrf {
 public:
  /// `db` must outlive the engine. Call SyncStructures() after the database
  /// gains claims/documents/sources (streaming setting, §7).
  ICrf(const FactDatabase* db, const ICrfOptions& options, uint64_t seed);

  /// Rebuilds cached structures (couplings, partition, claim-source map)
  /// from the current database contents. Marks the coupling structure
  /// dirty, so the hypothetical engine drops its cached neighborhoods at
  /// the next Infer().
  Status SyncStructures();

  /// Flags the cached structures as stale after external database growth
  /// (streaming arrivals, §7): the next Infer() re-syncs and the
  /// hypothetical engine invalidates its neighborhood cache.
  void MarkStructuresStale();

  /// Full incremental EM inference: updates the probabilities of unlabeled
  /// claims in *state from the current model, then refits the weights.
  Result<InferenceStats> Infer(BeliefState* state);

  /// Rebuilds the post-Infer() engine state — couplings, partition, MRF
  /// fields from the current weights and `state` probabilities, and the
  /// hypothetical-engine binding — WITHOUT running inference. After a
  /// checkpoint restore (src/service/checkpoint.h) this reproduces the
  /// exact engine a never-interrupted run would hold, because the final
  /// MRF of Infer() is a deterministic function of (db, weights, probs).
  Status RestoreEngine(const BeliefState& state);

  /// Full sampler state, persisted by session checkpoints so a restored
  /// engine continues the exact Gibbs stream.
  RngState rng_state() const { return rng_.SaveState(); }
  void restore_rng_state(const RngState& state) { rng_.RestoreState(state); }

  /// Hypothetical re-inference with frozen weights and cached fields:
  /// resamples the claims in `restrict` (all unlabeled claims when null)
  /// under the labels of `state`, and returns the full probability vector
  /// (labels fixed, untouched claims keep their `state` probability).
  /// With `neutral_prior`, the restricted claims' fields drop the carried-
  /// over probability prior and use the feature evidence alone — required by
  /// leave-one-out checks (§5.2, §6.1), where the prior of the label under
  /// scrutiny would anchor the chain to that very label.
  /// Thread-safe: callers supply their own Rng. Requires a prior Infer().
  /// Thin wrapper over HypotheticalEngine::ResampleScoped that copies the
  /// pooled result out; hot paths hold an Evaluation lease via
  /// hypothetical() instead.
  Result<std::vector<double>> ResampleProbs(const BeliefState& state,
                                            const std::vector<ClaimId>* restrict,
                                            Rng* rng,
                                            bool neutral_prior = false) const;

  /// Bounded coupling-graph neighborhood of a claim (partition optimization,
  /// §5.1). Requires a prior Infer(). Copies the engine's cached
  /// neighborhood out; hot paths use hypothetical().Neighborhood().
  std::vector<ClaimId> Neighborhood(ClaimId claim, size_t radius,
                                    size_t max_claims) const;

  /// The shared hypothetical re-inference engine (DESIGN.md §8), bound to
  /// the current model after every Infer(). Guidance, batching,
  /// confirmation and termination all evaluate through it.
  const HypotheticalEngine& hypothetical() const { return hypothetical_; }

  /// Shared incremental marginal-entropy cache (DESIGN.md §12): consumers
  /// (guidance h_before, the validation entropy trace) call Refresh() with
  /// the current probabilities and the engine's structure epoch, then read.
  /// Refresh re-scores only bit-changed entries, so repeated reads within a
  /// step — the 64-candidate fan-out reads every scope entropy twice —
  /// cost additions instead of logarithms. Refresh() must not race reads;
  /// the pipeline refreshes between phases.
  MarginalEntropyCache& entropy_cache() const { return entropy_cache_; }

  const FactDatabase& db() const { return *db_; }
  const ICrfOptions& options() const { return options_; }
  const CrfModel& model() const { return model_; }
  CrfModel* mutable_model() { return &model_; }
  const ClaimMrf& mrf() const { return mrf_; }
  const SampleSet& last_samples() const { return last_samples_; }
  const ClaimPartition& partition() const { return partition_; }
  bool ready() const { return ready_; }

  /// Distinct sources connected to each claim (used by the source-driven
  /// strategy and the batch correlation matrix).
  const std::vector<std::vector<SourceId>>& claim_sources() const {
    return claim_sources_;
  }

  /// Clique indices per source (used to evaluate source trustworthiness
  /// locally during source-driven guidance).
  const std::vector<std::vector<size_t>>& source_cliques() const {
    return source_cliques_;
  }

 private:
  const FactDatabase* db_;
  ICrfOptions options_;
  Rng rng_;
  CrfModel model_;
  std::vector<ClaimMrf::Edge> couplings_;
  ClaimPartition partition_;
  std::vector<std::vector<SourceId>> claim_sources_;
  std::vector<std::vector<size_t>> source_cliques_;
  ClaimMrf mrf_;
  std::vector<double> evidence_field_;  ///< prior-free fields (0.5 * evidence)
  HypotheticalEngine hypothetical_;
  SampleSet last_samples_;
  SpinConfig warm_config_;
  mutable MarginalEntropyCache entropy_cache_;
  /// E-step kernel state: the chromatic color schedule — structure-
  /// dependent, rebuilt after SyncStructures — and the worker pool of the
  /// chromatic and dispatch kernels, created lazily (> 1 thread only).
  ChromaticSchedule chromatic_schedule_;
  std::unique_ptr<ThreadPool> gibbs_pool_;
  bool ready_ = false;
  bool structures_built_ = false;
  bool structure_dirty_ = true;  ///< couplings changed since the last Bind
};

}  // namespace veritas

#endif  // VERITAS_CORE_ICRF_H_
