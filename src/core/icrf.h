/// \file
/// Inference stage of the pipeline (grounding -> inference -> guidance ->
/// confirmation -> termination): the iCRF incremental EM engine (§3.2).
/// Wraps the CRF model, its flat-CSR pairwise-MRF reduction and Gibbs
/// E-step, and the TRON M-step behind one object that warm-starts every
/// validation iteration from cached structures. The primitives the later
/// stages are built on — hypothetical re-inference with frozen weights and
/// cached bounded coupling neighborhoods — live in the owned
/// HypotheticalEngine (crf/hypothetical.h, DESIGN.md §8), re-bound after
/// every Infer().

#ifndef VERITAS_CORE_ICRF_H_
#define VERITAS_CORE_ICRF_H_

#include <vector>

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

namespace veritas {

/// Options of the incremental inference engine (§3.2).
struct ICrfOptions {
  CrfConfig crf;
  GibbsOptions gibbs;           ///< E-step sampling for full inference
  GibbsOptions hypothetical_gibbs{8, 24, 1};  ///< cheaper sampling for Q+/Q-
  size_t max_em_iterations = 4;
  double em_tolerance = 5e-3;   ///< max per-claim probability change to stop
  bool fit_weights = true;      ///< disable to freeze the log-linear weights
  /// E-step backend (crf/solver.h, DESIGN.md §13). kAuto runs the
  /// sequential sampler; the chromatic kernel is chosen by name.
  CrfBackend backend = CrfBackend::kAuto;
};

template <typename V, typename S>
FieldsOf<S, ICrfOptions> VisitFields(V& v, S& o) {
  v("crf", o.crf);
  v("gibbs", o.gibbs);
  v("hypothetical_gibbs", o.hypothetical_gibbs);
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
  /// gains claims/documents/sources (streaming setting, §7). The chromatic
  /// and dispatch E-steps run on `pool` when it is non-null (borrowed, must
  /// outlive the engine) and on the calling thread otherwise; their results
  /// are identical either way.
  ICrf(const FactDatabase* db, const ICrfOptions& options, uint64_t seed,
       ThreadPool* pool = nullptr);

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
  ThreadPool* pool_;  ///< borrowed E-step pool; null = calling thread
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
  /// The chromatic color schedule: structure-dependent, rebuilt after
  /// SyncStructures.
  ChromaticSchedule chromatic_schedule_;
  bool ready_ = false;
  bool structures_built_ = false;
  bool structure_dirty_ = true;  ///< couplings changed since the last Bind
};

}  // namespace veritas

#endif  // VERITAS_CORE_ICRF_H_
