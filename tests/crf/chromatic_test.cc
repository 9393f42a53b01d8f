#include "crf/chromatic.h"

#include <algorithm>
#include <set>
#include <utility>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "core/icrf.h"
#include "graph/coloring.h"
#include "testing/corpus_fixtures.h"

namespace veritas {
namespace {

ClaimMrf RandomMrf(size_t n, size_t extra_edges, uint64_t seed) {
  Rng rng(seed);
  ClaimMrf mrf;
  mrf.field.resize(n);
  for (auto& f : mrf.field) f = rng.Uniform(-1.0, 1.0);
  std::set<std::pair<ClaimId, ClaimId>> seen;
  auto add_edge = [&](ClaimId a, ClaimId b) {
    if (a == b) return;
    if (a > b) std::swap(a, b);
    if (!seen.insert({a, b}).second) return;
    mrf.edges.push_back({a, b, rng.Uniform(-0.6, 0.6)});
  };
  // Ring plus random chords: connected, sparse, irregular degrees.
  for (size_t i = 0; i < n; ++i) {
    add_edge(static_cast<ClaimId>(i), static_cast<ClaimId>((i + 1) % n));
  }
  for (size_t e = 0; e < extra_edges; ++e) {
    add_edge(static_cast<ClaimId>(rng.UniformInt(n)),
             static_cast<ClaimId>(rng.UniformInt(n)));
  }
  mrf.RebuildAdjacency();
  return mrf;
}

TEST(GreedyColoringTest, ColoringIsProperAndBounded) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const ClaimMrf mrf = RandomMrf(200, 400, seed);
    const GraphColoring coloring = GreedyColorCsr(mrf.offsets, mrf.neighbors);
    ASSERT_EQ(coloring.color_of.size(), mrf.num_claims());
    size_t max_degree = 0;
    for (size_t v = 0; v < mrf.num_claims(); ++v) {
      max_degree = std::max(max_degree, mrf.offsets[v + 1] - mrf.offsets[v]);
      for (size_t k = mrf.offsets[v]; k < mrf.offsets[v + 1]; ++k) {
        EXPECT_NE(coloring.color_of[v], coloring.color_of[mrf.neighbors[k]])
            << "edge " << v << "-" << mrf.neighbors[k] << " seed " << seed;
      }
    }
    EXPECT_GE(coloring.num_colors, 2u);  // the ring alone forces 2
    EXPECT_LE(coloring.num_colors, max_degree + 1);  // greedy bound
  }
}

TEST(GreedyColoringTest, EmptyAndEdgelessGraphs) {
  EXPECT_EQ(GreedyColorCsr({}, {}).num_colors, 0u);
  // Three isolated vertices: one color.
  const GraphColoring coloring = GreedyColorCsr({0, 0, 0, 0}, {});
  EXPECT_EQ(coloring.num_colors, 1u);
  EXPECT_EQ(coloring.color_of, (std::vector<uint32_t>{0, 0, 0}));
}

TEST(ChromaticScheduleTest, ClassesPartitionClaimsIdAscending) {
  const ClaimMrf mrf = RandomMrf(150, 250, 5);
  const ChromaticSchedule schedule = BuildChromaticSchedule(mrf);
  ASSERT_EQ(schedule.num_claims, mrf.num_claims());
  ASSERT_EQ(schedule.class_offsets.size(), schedule.num_colors + 1);
  ASSERT_EQ(schedule.class_claims.size(), mrf.num_claims());
  std::vector<bool> present(mrf.num_claims(), false);
  for (size_t k = 0; k < schedule.num_colors; ++k) {
    for (size_t i = schedule.class_offsets[k]; i < schedule.class_offsets[k + 1];
         ++i) {
      const ClaimId id = schedule.class_claims[i];
      EXPECT_FALSE(present[id]);
      present[id] = true;
      EXPECT_EQ(schedule.color_of[id], k);
      if (i > schedule.class_offsets[k]) {
        EXPECT_LT(schedule.class_claims[i - 1], id);  // id-ascending
      }
    }
  }
  EXPECT_TRUE(std::all_of(present.begin(), present.end(), [](bool p) { return p; }));
}

/// Straight-line reimplementation of the documented draw contract: stream 0
/// initializes, stream 1 + s drives sweep s, classes in color order and
/// id-ascending within a class. Pins RunGibbsChromatic bit-for-bit.
ChromaticResult ReferenceRun(const ClaimMrf& mrf, const BeliefState& state,
                             const SpinConfig* warm,
                             const std::vector<ClaimId>* restrict_claims,
                             const GibbsOptions& options, uint64_t seed,
                             const ChromaticSchedule& schedule) {
  const size_t n = mrf.num_claims();
  std::vector<double> pm(n);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (state.IsLabeled(id)) {
      pm[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : -1.0;
    } else if (warm != nullptr && c < warm->size()) {
      pm[c] = (*warm)[c] != 0 ? 1.0 : -1.0;
    } else {
      pm[c] = CounterUniform(seed, 0, c) < Sigmoid(2.0 * mrf.field[c]) ? 1.0 : -1.0;
    }
  }
  std::vector<uint8_t> swept(n, 0);
  if (restrict_claims != nullptr) {
    for (const ClaimId id : *restrict_claims) {
      if (id < n && !state.IsLabeled(id)) swept[id] = 1;
    }
  } else {
    for (size_t c = 0; c < n; ++c) {
      if (!state.IsLabeled(static_cast<ClaimId>(c))) swept[c] = 1;
    }
  }
  std::vector<double> rb(n, 0.0);
  auto sweep_once = [&](uint64_t sweep, bool sampling) {
    for (size_t k = 0; k < schedule.num_colors; ++k) {
      for (size_t i = schedule.class_offsets[k];
           i < schedule.class_offsets[k + 1]; ++i) {
        const ClaimId c = schedule.class_claims[i];
        if (!swept[c]) continue;
        double term = 0.0;
        for (size_t e = mrf.offsets[c]; e < mrf.offsets[c + 1]; ++e) {
          term += mrf.couplings[e] * pm[mrf.neighbors[e]];
        }
        const double p = Sigmoid(2.0 * (mrf.field[c] + term));
        if (sampling) rb[c] += p;
        pm[c] = CounterUniform(seed, 1 + sweep, c) < p ? 1.0 : -1.0;
      }
    }
  };
  uint64_t sweep = 0;
  for (size_t b = 0; b < options.burn_in; ++b) sweep_once(sweep++, false);
  std::vector<SpinConfig> samples;
  for (size_t s = 0; s < options.num_samples; ++s) {
    sweep_once(sweep++, true);
    SpinConfig snapshot(n, 0);
    for (size_t c = 0; c < n; ++c) snapshot[c] = pm[c] > 0.0 ? 1 : 0;
    samples.push_back(std::move(snapshot));
  }
  ChromaticResult result;
  result.samples = SampleSet(std::move(samples));
  result.marginals.assign(n, 0.5);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (state.IsLabeled(id)) {
      result.marginals[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : 0.0;
    } else if (swept[c]) {
      result.marginals[c] = rb[c] / static_cast<double>(options.num_samples);
    } else {
      result.marginals[c] = state.prob(id);
    }
  }
  return result;
}

TEST(ChromaticGibbsTest, MatchesSequentialReferenceBitForBit) {
  const ClaimMrf mrf = RandomMrf(60, 90, 11);
  const ChromaticSchedule schedule = BuildChromaticSchedule(mrf);
  BeliefState state(mrf.num_claims());
  state.SetLabel(3, true);
  state.SetLabel(17, false);
  state.set_prob(40, 0.73);
  GibbsOptions options;
  options.burn_in = 3;
  options.num_samples = 5;
  const uint64_t seed = 0xfeedULL;

  auto run = RunGibbsChromatic(mrf, state, nullptr, nullptr, options, seed,
                               schedule, nullptr);
  ASSERT_TRUE(run.ok());
  const ChromaticResult reference =
      ReferenceRun(mrf, state, nullptr, nullptr, options, seed, schedule);
  EXPECT_EQ(run.value().samples.samples(), reference.samples.samples());
  ASSERT_EQ(run.value().marginals.size(), reference.marginals.size());
  for (size_t c = 0; c < reference.marginals.size(); ++c) {
    EXPECT_EQ(run.value().marginals[c], reference.marginals[c]) << "claim " << c;
  }
}

TEST(ChromaticGibbsTest, WarmStartAndRestrictionMatchReference) {
  const ClaimMrf mrf = RandomMrf(40, 60, 13);
  const ChromaticSchedule schedule = BuildChromaticSchedule(mrf);
  BeliefState state(mrf.num_claims());
  state.SetLabel(5, true);
  SpinConfig warm(mrf.num_claims(), 0);
  for (size_t c = 0; c < warm.size(); c += 3) warm[c] = 1;
  const std::vector<ClaimId> restrict_to{1, 2, 5, 8, 13, 21, 34};
  GibbsOptions options;
  options.burn_in = 2;
  options.num_samples = 4;
  const uint64_t seed = 99;

  auto run = RunGibbsChromatic(mrf, state, &warm, &restrict_to, options, seed,
                               schedule, nullptr);
  ASSERT_TRUE(run.ok());
  const ChromaticResult reference =
      ReferenceRun(mrf, state, &warm, &restrict_to, options, seed, schedule);
  EXPECT_EQ(run.value().samples.samples(), reference.samples.samples());
  for (size_t c = 0; c < reference.marginals.size(); ++c) {
    EXPECT_EQ(run.value().marginals[c], reference.marginals[c]) << "claim " << c;
  }
  // Restriction semantics: un-restricted unlabeled claims keep their warm
  // spin in every sample and their carried-over probability as marginal.
  for (const SpinConfig& sample : run.value().samples.samples()) {
    EXPECT_EQ(sample[0], warm[0]);
    EXPECT_EQ(sample[6], warm[6]);
  }
  EXPECT_EQ(run.value().marginals[0], state.prob(0));
  // Labels are clamped: spin pinned, marginal exactly 0/1.
  for (const SpinConfig& sample : run.value().samples.samples()) {
    EXPECT_EQ(sample[5], 1);
  }
  EXPECT_EQ(run.value().marginals[5], 1.0);
}

TEST(ChromaticGibbsTest, BitIdenticalAcrossThreadCounts) {
  // Big enough that color classes exceed the parallel grain (64) and the
  // pool path actually runs.
  const ClaimMrf mrf = RandomMrf(1200, 1800, 21);
  const ChromaticSchedule schedule = BuildChromaticSchedule(mrf);
  BeliefState state(mrf.num_claims());
  for (ClaimId c = 0; c < 30; ++c) state.SetLabel(c * 7, c % 2 == 0);
  GibbsOptions options;
  options.burn_in = 2;
  options.num_samples = 3;
  const uint64_t seed = 0xabcdef12345ULL;

  auto sequential = RunGibbsChromatic(mrf, state, nullptr, nullptr, options,
                                      seed, schedule, nullptr);
  ASSERT_TRUE(sequential.ok());
  for (const size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    auto parallel = RunGibbsChromatic(mrf, state, nullptr, nullptr, options,
                                      seed, schedule, &pool);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    EXPECT_EQ(parallel.value().samples.samples(),
              sequential.value().samples.samples())
        << threads << " threads";
    for (size_t c = 0; c < mrf.num_claims(); ++c) {
      ASSERT_EQ(parallel.value().marginals[c], sequential.value().marginals[c])
          << "claim " << c << " at " << threads << " threads";
    }
  }
}

TEST(ChromaticGibbsTest, RaoBlackwellMarginalIsExactOnIndependentClaim) {
  // No neighbors: the conditional is the same sigmoid every sweep, so the
  // Rao-Blackwell average equals it exactly — no sampling noise at all.
  ClaimMrf mrf;
  mrf.field = {0.37};
  mrf.RebuildAdjacency();
  const ChromaticSchedule schedule = BuildChromaticSchedule(mrf);
  BeliefState state(1);
  GibbsOptions options;
  options.burn_in = 1;
  options.num_samples = 8;
  auto run = RunGibbsChromatic(mrf, state, nullptr, nullptr, options, 7,
                               schedule, nullptr);
  ASSERT_TRUE(run.ok());
  EXPECT_DOUBLE_EQ(run.value().marginals[0], Sigmoid(2.0 * 0.37));
}

TEST(ChromaticGibbsTest, RejectsBadArguments) {
  const ClaimMrf mrf = RandomMrf(10, 5, 3);
  const ChromaticSchedule schedule = BuildChromaticSchedule(mrf);
  BeliefState state(10);
  GibbsOptions zero;
  zero.num_samples = 0;
  EXPECT_FALSE(
      RunGibbsChromatic(mrf, state, nullptr, nullptr, zero, 1, schedule, nullptr)
          .ok());
  BeliefState mismatched(11);
  EXPECT_FALSE(
      RunGibbsChromatic(mrf, mismatched, nullptr, nullptr, {}, 1, schedule, nullptr)
          .ok());
  const ClaimMrf other = RandomMrf(12, 5, 4);
  const ChromaticSchedule stale = BuildChromaticSchedule(other);
  EXPECT_FALSE(
      RunGibbsChromatic(mrf, state, nullptr, nullptr, {}, 1, stale, nullptr).ok());
}

TEST(ChromaticGibbsTest, IcrfEStepIsThreadCountInvariant) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(71, 30);
  ICrfOptions options;
  options.backend = CrfBackend::kChromatic;
  options.gibbs.burn_in = 6;
  options.gibbs.num_samples = 12;
  options.max_em_iterations = 2;

  std::vector<std::vector<double>> probs_by_threads;
  for (const size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    ICrf icrf(&corpus.db, options, 11, &pool);
    BeliefState state(corpus.db.num_claims());
    ASSERT_TRUE(icrf.Infer(&state).ok()) << threads << " threads";
    probs_by_threads.push_back(state.probs());
  }
  for (size_t t = 1; t < probs_by_threads.size(); ++t) {
    ASSERT_EQ(probs_by_threads[t].size(), probs_by_threads[0].size());
    for (size_t c = 0; c < probs_by_threads[0].size(); ++c) {
      EXPECT_EQ(probs_by_threads[t][c], probs_by_threads[0][c])
          << "claim " << c << " run " << t;
    }
  }
}

}  // namespace
}  // namespace veritas
