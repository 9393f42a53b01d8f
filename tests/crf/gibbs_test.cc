#include "crf/gibbs.h"

#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "common/math.h"
#include "crf/mrf.h"

namespace veritas {
namespace {

ClaimMrf ChainMrf(const std::vector<double>& fields,
                  const std::vector<double>& couplings) {
  ClaimMrf mrf;
  mrf.field = fields;
  for (size_t i = 0; i < couplings.size(); ++i) {
    mrf.edges.push_back(
        {static_cast<ClaimId>(i), static_cast<ClaimId>(i + 1), couplings[i]});
  }
  mrf.RebuildAdjacency();
  return mrf;
}

GibbsOptions LongRun() {
  GibbsOptions options;
  options.burn_in = 100;
  options.num_samples = 6000;
  return options;
}

TEST(GibbsTest, RejectsBadArguments) {
  ClaimMrf mrf;
  mrf.field = {0.0};
  mrf.RebuildAdjacency();
  Rng rng(1);
  BeliefState mismatched(2);
  EXPECT_FALSE(RunGibbs(mrf, mismatched, nullptr, nullptr, {}, &rng).ok());
  BeliefState state(1);
  GibbsOptions zero;
  zero.num_samples = 0;
  EXPECT_FALSE(RunGibbs(mrf, state, nullptr, nullptr, zero, &rng).ok());
  ClaimMrf no_adjacency;
  no_adjacency.field = {0.0};
  EXPECT_FALSE(RunGibbs(no_adjacency, state, nullptr, nullptr, {}, &rng).ok());
}

TEST(GibbsTest, IndependentClaimMarginalMatchesSigmoid) {
  ClaimMrf mrf;
  mrf.field = {0.6};
  mrf.RebuildAdjacency();
  BeliefState state(1);
  Rng rng(2);
  auto samples = RunGibbs(mrf, state, nullptr, nullptr, LongRun(), &rng);
  ASSERT_TRUE(samples.ok());
  const auto marginals = samples.value().Marginals(state);
  EXPECT_NEAR(marginals[0], Sigmoid(1.2), 0.03);
}

TEST(GibbsTest, MarginalsMatchExactInferenceOnCoupledChain) {
  const ClaimMrf mrf = ChainMrf({0.4, -0.2, 0.1, -0.5}, {0.6, -0.4, 0.5});
  BeliefState state(4);
  auto exact = ExactInference(mrf, state);
  ASSERT_TRUE(exact.ok());
  Rng rng(3);
  auto samples = RunGibbs(mrf, state, nullptr, nullptr, LongRun(), &rng);
  ASSERT_TRUE(samples.ok());
  const auto marginals = samples.value().Marginals(state);
  for (size_t c = 0; c < 4; ++c) {
    EXPECT_NEAR(marginals[c], exact.value().marginals[c], 0.04);
  }
}

TEST(GibbsTest, LabeledClaimsNeverFlip) {
  const ClaimMrf mrf = ChainMrf({0.0, 0.0, 0.0}, {1.0, 1.0});
  BeliefState state(3);
  state.SetLabel(1, false);
  Rng rng(4);
  auto samples = RunGibbs(mrf, state, nullptr, nullptr, LongRun(), &rng);
  ASSERT_TRUE(samples.ok());
  for (const SpinConfig& sample : samples.value().samples()) {
    EXPECT_EQ(sample[1], 0);
  }
  const auto marginals = samples.value().Marginals(state);
  EXPECT_DOUBLE_EQ(marginals[1], 0.0);
  // Negative evidence propagates through the positive couplings.
  EXPECT_LT(marginals[0], 0.4);
  EXPECT_LT(marginals[2], 0.4);
}

TEST(GibbsTest, LabelPropagationMatchesExactConditional) {
  const ClaimMrf mrf = ChainMrf({0.0, 0.0}, {0.8});
  BeliefState state(2);
  state.SetLabel(0, true);
  auto exact = ExactInference(mrf, state);
  ASSERT_TRUE(exact.ok());
  Rng rng(5);
  auto samples = RunGibbs(mrf, state, nullptr, nullptr, LongRun(), &rng);
  ASSERT_TRUE(samples.ok());
  EXPECT_NEAR(samples.value().Marginals(state)[1], exact.value().marginals[1],
              0.03);
}

TEST(GibbsTest, RestrictedSweepOnlyTouchesRestrictedClaims) {
  const ClaimMrf mrf = ChainMrf({2.0, 2.0, 2.0}, {0.0, 0.0});
  BeliefState state(3);
  // Warm start all claims at 0; restrict resampling to claim 1 only.
  SpinConfig warm{0, 0, 0};
  const std::vector<ClaimId> restrict_to{1};
  Rng rng(6);
  GibbsOptions options;
  options.burn_in = 10;
  options.num_samples = 200;
  auto samples = RunGibbs(mrf, state, &warm, &restrict_to, options, &rng);
  ASSERT_TRUE(samples.ok());
  for (const SpinConfig& sample : samples.value().samples()) {
    EXPECT_EQ(sample[0], 0);  // untouched despite strong positive field
    EXPECT_EQ(sample[2], 0);
  }
  const auto marginals = samples.value().Marginals(state);
  EXPECT_GT(marginals[1], 0.9);  // the restricted claim reacts to its field
}

TEST(GibbsTest, WarmStartIsDeterministicGivenSeed) {
  const ClaimMrf mrf = ChainMrf({0.3, -0.3}, {0.5});
  BeliefState state(2);
  Rng rng_a(7);
  Rng rng_b(7);
  auto a = RunGibbs(mrf, state, nullptr, nullptr, {}, &rng_a);
  auto b = RunGibbs(mrf, state, nullptr, nullptr, {}, &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().samples(), b.value().samples());
}

TEST(SampleSetTest, ModeConfigurationPicksMostFrequent) {
  // The paper's worked example: [1,1,0] x2 and [1,0,0] x1 -> [1,1,0].
  SampleSet samples({{1, 1, 0}, {1, 0, 0}, {1, 1, 0}});
  EXPECT_EQ(samples.ModeConfiguration(), (SpinConfig{1, 1, 0}));
}

TEST(SampleSetTest, AllDistinctFallsBackToMajority) {
  SampleSet samples({{1, 1, 0}, {1, 0, 1}, {1, 1, 1}});
  // Per-claim majorities: 3/3, 2/3, 2/3 -> [1, 1, 1].
  EXPECT_EQ(samples.ModeConfiguration(), (SpinConfig{1, 1, 1}));
}

TEST(SampleSetTest, EmptySampleSet) {
  SampleSet samples;
  EXPECT_TRUE(samples.empty());
  EXPECT_TRUE(samples.ModeConfiguration().empty());
}

/// Naive reference for the mode: map keyed by the full configuration.
SpinConfig NaiveMode(const std::vector<SpinConfig>& samples) {
  if (samples.empty()) return {};
  std::map<SpinConfig, size_t> frequency;
  const SpinConfig* best = nullptr;
  size_t best_count = 0;
  for (const SpinConfig& sample : samples) {
    const size_t count = ++frequency[sample];
    if (count > best_count) {
      best_count = count;
      best = &sample;
    }
  }
  if (best_count > 1) return *best;
  const size_t n = samples.front().size();
  SpinConfig majority(n, 0);
  for (size_t c = 0; c < n; ++c) {
    size_t ones = 0;
    for (const SpinConfig& sample : samples) ones += sample[c];
    majority[c] = ones * 2 >= samples.size() ? 1 : 0;
  }
  return majority;
}

TEST(SampleSetTest, ModeMatchesNaiveReferenceOnRandomSampleSets) {
  // The hashed frequency map must select the same configuration as the
  // allocation-heavy string/map reference it replaced, including on sets
  // with many crafted duplicates and on wide (> 64 claim) configurations.
  Rng rng(40);
  for (int round = 0; round < 50; ++round) {
    const size_t n = 1 + rng.UniformInt(100);
    const size_t count = 1 + rng.UniformInt(30);
    std::vector<SpinConfig> samples;
    for (size_t s = 0; s < count; ++s) {
      if (!samples.empty() && rng.Bernoulli(0.5)) {
        // Duplicate an earlier sample to create real modes.
        samples.push_back(samples[rng.UniformInt(samples.size())]);
        continue;
      }
      SpinConfig sample(n, 0);
      for (size_t c = 0; c < n; ++c) sample[c] = rng.Bernoulli(0.5) ? 1 : 0;
      samples.push_back(std::move(sample));
    }
    EXPECT_EQ(SampleSet(samples).ModeConfiguration(), NaiveMode(samples))
        << "round " << round;
  }
}

TEST(SampleSetTest, ModeSeparatesConfigurationsBeyondWordBoundaries) {
  // Two configurations identical in the first 64 claims, differing at claim
  // 64 and 70: the packed hash must not conflate them.
  SpinConfig a(72, 1);
  SpinConfig b = a;
  b[64] = 0;
  b[70] = 0;
  SampleSet samples({a, b, b});
  EXPECT_EQ(samples.ModeConfiguration(), b);
}

TEST(SampleSetTest, MarginalsAreSampleAverages) {
  SampleSet samples({{1, 0}, {1, 1}, {0, 1}, {1, 0}});
  BeliefState state(2);
  const auto marginals = samples.Marginals(state);
  EXPECT_NEAR(marginals[0], 0.75, 1e-12);
  EXPECT_NEAR(marginals[1], 0.5, 1e-12);
}

class GibbsVsExactTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GibbsVsExactTest, RandomSmallModelsAgreeWithEnumeration) {
  Rng rng(GetParam());
  const size_t n = 3 + rng.UniformInt(4);
  ClaimMrf mrf;
  mrf.field.resize(n);
  for (auto& f : mrf.field) f = rng.Uniform(-1.0, 1.0);
  // Random sparse couplings (possibly cyclic — Gibbs does not care).
  for (ClaimId a = 0; a < n; ++a) {
    for (ClaimId b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(0.4)) {
        mrf.edges.push_back({a, b, rng.Uniform(-0.7, 0.7)});
      }
    }
  }
  mrf.RebuildAdjacency();
  BeliefState state(n);
  if (rng.Bernoulli(0.5)) state.SetLabel(0, rng.Bernoulli(0.5));

  auto exact = ExactInference(mrf, state);
  ASSERT_TRUE(exact.ok());
  Rng gibbs_rng(GetParam() * 31 + 7);
  GibbsOptions options;
  options.burn_in = 200;
  options.num_samples = 4000;
  auto samples = RunGibbs(mrf, state, nullptr, nullptr, options, &gibbs_rng);
  ASSERT_TRUE(samples.ok());
  const auto marginals = samples.value().Marginals(state);
  for (size_t c = 0; c < n; ++c) {
    EXPECT_NEAR(marginals[c], exact.value().marginals[c], 0.05)
        << "claim " << c << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GibbsVsExactTest,
                         ::testing::Values(101, 202, 303, 404, 505, 606));

}  // namespace
}  // namespace veritas
