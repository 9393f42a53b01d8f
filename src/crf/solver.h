/// \file
/// E-step backends of ICrf (DESIGN.md §13). `ICrf::Infer` resolves the
/// backend and calls its kernel directly:
///
///   kGibbs      RunGibbs (crf/gibbs.h), then SampleSet::Marginals — the
///               paper's sequential sampler and the committed reference.
///   kChromatic  RunGibbsChromatic (crf/chromatic.h): counter-based
///               parallel Gibbs, bit-identical at any thread count.
///   kDispatch   DispatchMarginals below: exact where tractable, sampled
///               elsewhere, bit-identical at any thread count.
///
/// `CrfBackend::kAuto` keeps the original selection rule
/// (GibbsOptions::num_threads == 0 -> kGibbs, >= 1 -> kChromatic), which
/// is what keeps default-configured runs unchanged.

#ifndef VERITAS_CRF_SOLVER_H_
#define VERITAS_CRF_SOLVER_H_

#include <cstdint>
#include <vector>

#include "common/fields.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "crf/gibbs.h"
#include "crf/mrf.h"
#include "data/model.h"

namespace veritas {

/// Backend selector carried by ICrfOptions (and the wire protocol, which
/// spells it through the table below; unknown spellings are rejected, a
/// missing key means kAuto).
enum class CrfBackend {
  kAuto,       ///< num_threads == 0 -> kGibbs, >= 1 -> kChromatic
  kGibbs,      ///< sequential Gibbs sampler
  kChromatic,  ///< chromatic counter-based parallel Gibbs
  kDispatch,   ///< exact where tractable, chromatic sampling elsewhere
};

constexpr Spellings<4> EnumSpellings(CrfBackend) {
  return {"auto", "gibbs", "chromatic", "dispatch"};
}

/// Canonical wire spelling of a backend (codec, diagnostics, bench tables).
const char* CrfBackendName(CrfBackend backend);

/// Largest unlabeled-claim count of a cyclic component that
/// DispatchMarginals enumerates (2^20 states); larger cyclic components
/// are sampled.
inline constexpr size_t kDispatchMaxExactClaims = 20;

/// Output of DispatchMarginals. It retains no configurations; ICrf
/// thresholds the marginals into its warm-start configuration.
struct DispatchResult {
  std::vector<double> marginals;  ///< P(t_c = +1); labeled claims at 0/1
  bool exact = false;             ///< true when no component was sampled
};

/// The kDispatch E-step. Every connected component of the coupling graph
/// is cut out (ExtractComponent) and solved by SolveExact with the cap
/// above; a component SolveExact rejects runs the chromatic sampler on its
/// sub-MRF, warm-started from `warm_start` (when it covers every claim)
/// and seeded from `draw_seed` and the component index. Components write
/// disjoint slots, so the merged marginals are bit-identical at any thread
/// count of `pool` (null = run on the calling thread).
Result<DispatchResult> DispatchMarginals(const ClaimMrf& mrf,
                                         const BeliefState& state,
                                         const GibbsOptions& gibbs,
                                         const SpinConfig* warm_start,
                                         uint64_t draw_seed, ThreadPool* pool);

}  // namespace veritas

#endif  // VERITAS_CRF_SOLVER_H_
