#include "core/icrf.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <unordered_set>

#include "obs/metrics.h"
#include "optim/tron.h"

namespace veritas {

namespace {

/// Per-backend registry handles (DESIGN.md §14), labeled with the
/// resolved backend's canonical wire name:
///   veritas_crf_backend_selected_total{backend="..."} — Infer() calls
///   veritas_crf_sweep_seconds{backend="..."}          — one E-step solve
/// plus the backend-independent veritas_crf_mstep_seconds — one weight fit.
struct BackendMetrics {
  MetricsRegistry::Counter* selected;
  MetricsRegistry::Histogram* sweep_seconds;
};

const BackendMetrics& MetricsFor(CrfBackend backend) {
  static const auto metrics = [] {
    std::array<BackendMetrics, EnumSpellings(CrfBackend{}).size()> m{};
    MetricsRegistry& registry = GlobalMetrics();
    for (size_t b = 0; b < m.size(); ++b) {
      const char* name = CrfBackendName(static_cast<CrfBackend>(b));
      m[b].selected = registry.counter(
          WithLabel("veritas_crf_backend_selected_total", "backend", name));
      m[b].sweep_seconds = registry.histogram(
          WithLabel("veritas_crf_sweep_seconds", "backend", name));
    }
    return m;
  }();
  return metrics[static_cast<size_t>(backend)];
}

MetricsRegistry::Histogram* MStepSeconds() {
  static MetricsRegistry::Histogram* const histogram =
      GlobalMetrics().histogram("veritas_crf_mstep_seconds");
  return histogram;
}

}  // namespace

ICrf::ICrf(const FactDatabase* db, const ICrfOptions& options, uint64_t seed,
           ThreadPool* pool)
    : db_(db),
      options_(options),
      pool_(pool),
      rng_(seed),
      model_(CrfModel::ForDatabase(*db)) {}

Status ICrf::SyncStructures() {
  if (db_ == nullptr) return Status::InvalidArgument("ICrf: null database");
  couplings_ = BuildSourceCouplings(*db_, options_.crf);
  partition_ = PartitionClaims(*db_);

  claim_sources_.assign(db_->num_claims(), {});
  source_cliques_.assign(db_->num_sources(), {});
  std::unordered_set<uint64_t> seen;
  seen.reserve(db_->num_cliques());
  const uint64_t n = db_->num_claims();
  for (size_t i = 0; i < db_->num_cliques(); ++i) {
    const Clique& clique = db_->clique(i);
    source_cliques_[clique.source].push_back(i);
    if (seen.insert(static_cast<uint64_t>(clique.source) * n + clique.claim).second) {
      claim_sources_[clique.claim].push_back(clique.source);
    }
  }

  // Preserve the learned weights if the feature dimensionality is unchanged.
  const size_t want_dim = 1 + db_->document_feature_dim() + db_->source_feature_dim();
  if (model_.feature_dim() != want_dim) model_ = CrfModel(want_dim);
  structures_built_ = true;
  structure_dirty_ = true;
  return Status::OK();
}

void ICrf::MarkStructuresStale() {
  structures_built_ = false;
  structure_dirty_ = true;
}

Result<InferenceStats> ICrf::Infer(BeliefState* state) {
  if (state == nullptr) return Status::InvalidArgument("ICrf::Infer: null state");
  if (state->num_claims() != db_->num_claims()) {
    return Status::InvalidArgument("ICrf::Infer: state size mismatch");
  }
  if (!structures_built_) {
    VERITAS_RETURN_IF_ERROR(SyncStructures());
  }

  InferenceStats stats;
  std::vector<double> prev_probs = state->probs();
  // The chain is re-initialized from the field distribution at every Infer()
  // call (warm starts apply only across the EM iterations within one call).
  // Carrying spins across calls locks the sampler into the basin of the
  // previous labels; the incrementality of iCRF lives in the reused weights
  // and carried-over probabilities instead.
  const SpinConfig* warm = nullptr;

  // Resolve the backend (crf/solver.h): kAuto is the sequential sampler.
  const CrfBackend backend = options_.backend == CrfBackend::kAuto
                                 ? CrfBackend::kGibbs
                                 : options_.backend;
  const BackendMetrics& backend_metrics = MetricsFor(backend);
  backend_metrics.selected->Increment();
  for (size_t em = 0; em < options_.max_em_iterations; ++em) {
    ++stats.em_iterations;
    // E-step: rebuild fields from the current weights and previous-iteration
    // probabilities (Eq. 6), then solve for marginals. Only the chromatic
    // and dispatch kernels draw a counter-based seed from rng_ (one per
    // E-step); the sequential chain reads rng_ directly, so it must not.
    mrf_ = BuildClaimMrf(*db_, model_, prev_probs, couplings_);
    std::vector<double> new_probs;
    const auto sweep_started = std::chrono::steady_clock::now();  // lint: timing
    switch (backend) {
      case CrfBackend::kAuto:  // resolved above
      case CrfBackend::kGibbs: {
        auto samples =
            RunGibbs(mrf_, *state, warm, nullptr, options_.gibbs, &rng_);
        if (!samples.ok()) return samples.status();
        last_samples_ = std::move(samples).value();
        new_probs = last_samples_.Marginals(*state);
        break;
      }
      case CrfBackend::kChromatic: {
        // The color schedule depends only on the edge structure, which is
        // identical across the EM iterations of one call and across calls
        // until SyncStructures().
        if (structure_dirty_ ||
            chromatic_schedule_.num_claims != mrf_.num_claims()) {
          chromatic_schedule_ = BuildChromaticSchedule(mrf_);
        }
        auto chromatic =
            RunGibbsChromatic(mrf_, *state, warm, nullptr, options_.gibbs,
                              rng_.NextU64(), chromatic_schedule_, pool_);
        if (!chromatic.ok()) return chromatic.status();
        last_samples_ = std::move(chromatic.value().samples);
        new_probs = std::move(chromatic.value().marginals);
        break;
      }
      case CrfBackend::kDispatch: {
        auto dispatch = DispatchMarginals(mrf_, *state, options_.gibbs, warm,
                                          rng_.NextU64(), pool_);
        if (!dispatch.ok()) return dispatch.status();
        new_probs = std::move(dispatch.value().marginals);
        // No configurations come back; the marginal-threshold configuration
        // keeps the warm start and the sample consumers
        // (GroundingFromSamples, Eq. 10) working. Thresholding an exact
        // marginal IS the per-claim mode.
        SpinConfig config(new_probs.size(), 0);
        for (size_t c = 0; c < new_probs.size(); ++c) {
          config[c] = new_probs[c] >= 0.5 ? 1 : 0;
        }
        last_samples_ = SampleSet({std::move(config)});
        break;
      }
    }
    backend_metrics.sweep_seconds->Record(
        std::chrono::duration<double>(  // lint: timing
            std::chrono::steady_clock::now() - sweep_started)
            .count());
    warm_config_ = last_samples_.samples().back();
    warm = &warm_config_;

    // M-step: refit the log-linear weights on soft-labelled cliques (Eq. 8).
    if (options_.fit_weights) {
      const auto mstep_started = std::chrono::steady_clock::now();  // lint: timing
      auto report =
          FitCrfWeights(*db_, new_probs, *state, &model_);
      MStepSeconds()->Record(
          std::chrono::duration<double>(  // lint: timing
              std::chrono::steady_clock::now() - mstep_started)
              .count());
      if (!report.ok()) return report.status();
      stats.tron_iterations += report.value().iterations;
    }

    double max_change = 0.0;
    for (size_t c = 0; c < new_probs.size(); ++c) {
      max_change = std::max(max_change, std::fabs(new_probs[c] - prev_probs[c]));
    }
    stats.max_prob_change = max_change;
    prev_probs = std::move(new_probs);
    if (max_change < options_.em_tolerance) break;
  }

  for (size_t c = 0; c < prev_probs.size(); ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (!state->IsLabeled(id)) state->set_prob(id, prev_probs[c]);
  }

  // Rebuild the cached MRF with the FINAL weights: consumers (guidance,
  // confirmation checks, cross-validation) must see the post-M-step model,
  // not the fields of the last E-step. This matters most right after user
  // input flips the weights — the stale fields would carry the old model.
  mrf_ = BuildClaimMrf(*db_, model_, prev_probs, couplings_);
  {
    const std::vector<double> evidence = model_.EvidenceLogOdds(*db_);
    evidence_field_.resize(evidence.size());
    for (size_t c = 0; c < evidence.size(); ++c) {
      evidence_field_[c] = 0.5 * evidence[c];
    }
  }
  // Re-bind the hypothetical engine to the fresh model snapshot. Cached
  // neighborhoods survive unless the coupling structure itself changed
  // (SyncStructures ran) — fields change every iteration, edges do not.
  hypothetical_.Bind(&mrf_, &evidence_field_, options_.hypothetical_gibbs,
                     structure_dirty_);
  structure_dirty_ = false;
  ready_ = true;
  return stats;
}

Status ICrf::RestoreEngine(const BeliefState& state) {
  if (state.num_claims() != db_->num_claims()) {
    return Status::InvalidArgument("ICrf::RestoreEngine: state size mismatch");
  }
  VERITAS_RETURN_IF_ERROR(SyncStructures());
  // Post-Infer() invariant: labeled probabilities are 0/1 and unlabeled ones
  // equal the final marginals, so state.probs() IS the prev_probs vector the
  // last BuildClaimMrf of Infer() consumed.
  mrf_ = BuildClaimMrf(*db_, model_, state.probs(), couplings_);
  const std::vector<double> evidence = model_.EvidenceLogOdds(*db_);
  evidence_field_.resize(evidence.size());
  for (size_t c = 0; c < evidence.size(); ++c) {
    evidence_field_[c] = 0.5 * evidence[c];
  }
  hypothetical_.Bind(&mrf_, &evidence_field_, options_.hypothetical_gibbs,
                     /*structure_changed=*/true);
  structure_dirty_ = false;
  ready_ = true;
  return Status::OK();
}

}  // namespace veritas
