#include "crf/chromatic.h"

#include <utility>

#include "common/math.h"
#include "common/rng.h"
#include "graph/coloring.h"

namespace veritas {

ChromaticSchedule BuildChromaticSchedule(const ClaimMrf& mrf) {
  ChromaticSchedule schedule;
  schedule.num_claims = mrf.num_claims();
  if (!mrf.adjacency_built() || schedule.num_claims == 0) {
    schedule.class_offsets.assign(1, 0);
    return schedule;
  }
  GraphColoring coloring = GreedyColorCsr(mrf.offsets, mrf.neighbors);
  schedule.num_colors = coloring.num_colors;
  schedule.color_of = std::move(coloring.color_of);

  // Counting sort into flat color classes; iterating claims in id order
  // keeps every class id-ascending, which fixes the sequential reference
  // order the determinism tests pin.
  schedule.class_offsets.assign(schedule.num_colors + 1, 0);
  for (const uint32_t c : schedule.color_of) ++schedule.class_offsets[c + 1];
  for (size_t k = 1; k <= schedule.num_colors; ++k) {
    schedule.class_offsets[k] += schedule.class_offsets[k - 1];
  }
  schedule.class_claims.resize(schedule.num_claims);
  std::vector<size_t> cursor(schedule.class_offsets.begin(),
                             schedule.class_offsets.end() - 1);
  for (size_t v = 0; v < schedule.num_claims; ++v) {
    schedule.class_claims[cursor[schedule.color_of[v]]++] =
        static_cast<ClaimId>(v);
  }
  return schedule;
}

Result<ChromaticResult> RunGibbsChromatic(
    const ClaimMrf& mrf, const BeliefState& state, const SpinConfig* warm_start,
    const std::vector<ClaimId>* restrict_claims, const GibbsOptions& options,
    uint64_t draw_seed, const ChromaticSchedule& schedule, ThreadPool* pool) {
  const size_t n = mrf.num_claims();
  if (state.num_claims() != n) {
    return Status::InvalidArgument("RunGibbsChromatic: state size mismatch");
  }
  if (!mrf.adjacency_built()) {
    return Status::FailedPrecondition("RunGibbsChromatic: adjacency not built");
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument(
        "RunGibbsChromatic: num_samples must be positive");
  }
  if (schedule.num_claims != n) {
    return Status::InvalidArgument("RunGibbsChromatic: stale schedule");
  }

  // SoA sweep state: flat ±1 spins (branchless coupling products), flat
  // sweep mask, per-claim Rao-Blackwell accumulators.
  std::vector<double> spin_pm(n, -1.0);
  std::vector<uint8_t> swept(n, 0);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (state.IsLabeled(id)) {
      spin_pm[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : -1.0;
    } else if (warm_start != nullptr && c < warm_start->size()) {
      spin_pm[c] = (*warm_start)[c] != 0 ? 1.0 : -1.0;
    } else {
      const double p = Sigmoid(2.0 * mrf.field[c]);
      spin_pm[c] = CounterUniform(draw_seed, 0, c) < p ? 1.0 : -1.0;
    }
  }

  // Sweep membership, then the per-color compacted orders: labeled and
  // out-of-restriction claims are dropped once, ahead of every sweep.
  if (restrict_claims != nullptr) {
    for (const ClaimId id : *restrict_claims) {
      if (id < n && !state.IsLabeled(id)) swept[id] = 1;
    }
  } else {
    for (size_t c = 0; c < n; ++c) {
      if (!state.IsLabeled(static_cast<ClaimId>(c))) swept[c] = 1;
    }
  }
  std::vector<size_t> order_offsets(schedule.num_colors + 1, 0);
  std::vector<ClaimId> order;
  order.reserve(n);
  for (size_t k = 0; k < schedule.num_colors; ++k) {
    for (size_t i = schedule.class_offsets[k]; i < schedule.class_offsets[k + 1];
         ++i) {
      const ClaimId id = schedule.class_claims[i];
      if (swept[id]) order.push_back(id);
    }
    order_offsets[k + 1] = order.size();
  }

  const size_t* offsets = mrf.offsets.data();
  const ClaimId* neighbors = mrf.neighbors.data();
  const double* couplings = mrf.couplings.data();
  const double* fields = mrf.field.data();
  double* pm = spin_pm.data();
  std::vector<double> rb_sum(n, 0.0);
  double* rb = rb_sum.data();
  const ClaimId* order_claims = order.data();

  // One color class of one sweep. Claims of a class are pairwise
  // non-adjacent, so concurrent shards read only spins frozen for the whole
  // class: the update is exact and race-free. `sampling` adds the
  // conditional into the Rao-Blackwell accumulator (owned by the updated
  // claim, hence by exactly one shard).
  auto run_class = [&](uint64_t sweep, bool sampling, size_t begin,
                       size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const ClaimId c = order_claims[i];
      double neighbor_term = 0.0;
      const size_t row_end = offsets[c + 1];
      for (size_t k = offsets[c]; k < row_end; ++k) {
        neighbor_term += couplings[k] * pm[neighbors[k]];
      }
      const double p = Sigmoid(2.0 * (fields[c] + neighbor_term));
      if (sampling) rb[c] += p;
      pm[c] = CounterUniform(draw_seed, 1 + sweep, c) < p ? 1.0 : -1.0;
    }
  };

  // Per-class parallel grain: barriers between classes are mandatory (the
  // exactness argument above), so tiny classes run inline on the caller.
  constexpr size_t kMinGrain = 64;
  const bool parallel = pool != nullptr && pool->num_threads() > 1;
  auto sweep_once = [&](uint64_t sweep, bool sampling) {
    for (size_t k = 0; k < schedule.num_colors; ++k) {
      const size_t begin = order_offsets[k];
      const size_t end = order_offsets[k + 1];
      if (begin == end) continue;
      if (parallel && end - begin >= 2 * kMinGrain) {
        pool->ParallelForRanges(end - begin, kMinGrain,
                                [&](size_t b, size_t e) {
                                  run_class(sweep, sampling, begin + b,
                                            begin + e);
                                });
      } else {
        run_class(sweep, sampling, begin, end);
      }
    }
  };

  uint64_t sweep = 0;
  for (size_t b = 0; b < options.burn_in; ++b) sweep_once(sweep++, false);

  std::vector<SpinConfig> samples;
  samples.reserve(options.num_samples);
  SpinConfig snapshot(n, 0);
  for (size_t s = 0; s < options.num_samples; ++s) {
    sweep_once(sweep++, true);
    for (size_t c = 0; c < n; ++c) snapshot[c] = pm[c] > 0.0 ? 1 : 0;
    samples.push_back(snapshot);
  }

  ChromaticResult result;
  result.samples = SampleSet(std::move(samples));
  result.marginals.assign(n, 0.5);
  const double denom = static_cast<double>(options.num_samples);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (state.IsLabeled(id)) {
      result.marginals[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : 0.0;
    } else if (swept[c]) {
      result.marginals[c] = rb_sum[c] / denom;
    } else {
      result.marginals[c] = state.prob(id);
    }
  }
  return result;
}

}  // namespace veritas
