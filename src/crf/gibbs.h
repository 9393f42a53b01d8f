/// \file
/// The iCRF E-step sampler (§3.2): sequential Gibbs sampling over the claim
/// MRF, the `gibbs` backend of ICrf (crf/solver.h), and the sample set its
/// estimates (Eq. 7) and the grounding (Eq. 10) are read from. The single
/// site-update rule, GibbsSweepCsr, is shared with hypothetical
/// re-inference (crf/hypothetical.h).

#ifndef VERITAS_CRF_GIBBS_H_
#define VERITAS_CRF_GIBBS_H_

#include <vector>

#include "common/fields.h"
#include "common/rng.h"
#include "common/status.h"
#include "crf/mrf.h"
#include "data/model.h"

namespace veritas {

/// Gibbs sampling options (E-step of iCRF, §3.2).
struct GibbsOptions {
  size_t burn_in = 15;      ///< sweeps discarded before collecting samples
  size_t num_samples = 50;  ///< configurations retained
  size_t thin = 1;          ///< sweeps between retained samples
  /// E-step kernel selector (DESIGN.md §12): 0 keeps the sequential
  /// RunGibbs sampler; >= 1 switches ICrf to the chromatic counter-based
  /// kernel (crf/chromatic.h) with that many worker threads and
  /// Rao-Blackwellized marginals. The chromatic kernel is bit-identical
  /// across thread counts, but its draws differ from the sequential
  /// sampler's, so flipping this knob changes (not degrades) results.
  size_t num_threads = 0;
};

template <typename V, typename S>
FieldsOf<S, GibbsOptions> VisitFields(V& v, S& o) {
  v("burn_in", o.burn_in);
  v("num_samples", o.num_samples);
  v("thin", o.thin);
  v("num_threads", o.num_threads);
}

/// A set of Gibbs configurations Omega (Eq. 6/7) plus derived statistics.
class SampleSet {
 public:
  SampleSet() = default;
  explicit SampleSet(std::vector<SpinConfig> samples);

  const std::vector<SpinConfig>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }
  size_t size() const { return samples_.size(); }
  size_t num_claims() const { return samples_.empty() ? 0 : samples_[0].size(); }

  /// Per-claim credibility estimates: the ratio of samples in which the
  /// claim is credible (Eq. 7); labelled claims are fixed to their label.
  std::vector<double> Marginals(const BeliefState& state) const;

  /// The most frequent configuration (the decide() of Eq. 10). When every
  /// sample is distinct — the typical case for large claim sets — falls
  /// back to the per-claim majority configuration, which coincides with the
  /// mode under weak coupling.
  SpinConfig ModeConfiguration() const;

 private:
  std::vector<SpinConfig> samples_;
};

/// Runs Gibbs sampling over the unlabeled claims of the MRF; labelled claims
/// stay clamped at their label. `warm_start` (optional) seeds the chain from
/// a previous iteration's configuration — the view-maintenance idea that
/// makes iCRF incremental. When null, spins are initialized by sampling the
/// field-only (decoupled) distribution.
///
/// `restrict_claims` (optional) limits resampling to the given claim set;
/// all other claims keep their initial spin.
Result<SampleSet> RunGibbs(const ClaimMrf& mrf, const BeliefState& state,
                           const SpinConfig* warm_start,
                           const std::vector<ClaimId>* restrict_claims,
                           const GibbsOptions& options, Rng* rng);

/// One Gibbs sweep over `sweep_order` against the CSR adjacency of `mrf`,
/// with `fields` replacing mrf.field (same size). The single update rule
/// shared by RunGibbs and HypotheticalEngine::RunKernel — change it here
/// and both full inference and hypothetical re-inference move together.
void GibbsSweepCsr(const ClaimMrf& mrf, const double* fields,
                   const std::vector<size_t>& sweep_order, SpinConfig* spins,
                   Rng* rng);

}  // namespace veritas

#endif  // VERITAS_CRF_GIBBS_H_
