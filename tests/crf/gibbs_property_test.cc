#include <cmath>
#include <tuple>

#include <gtest/gtest.h>

#include "common/math.h"
#include "crf/gibbs.h"
#include "crf/mrf.h"

namespace veritas {
namespace {

GibbsOptions MediumRun() {
  GibbsOptions options;
  options.burn_in = 50;
  options.num_samples = 1500;
  return options;
}

/// Property: a stronger positive field yields a (weakly) larger marginal.
class FieldMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(FieldMonotonicityTest, MarginalIncreasesWithField) {
  const double field = GetParam();
  ClaimMrf weak;
  weak.field = {field};
  weak.RebuildAdjacency();
  ClaimMrf strong;
  strong.field = {field + 0.5};
  strong.RebuildAdjacency();
  BeliefState state(1);
  Rng rng_a(5), rng_b(5);
  auto weak_run = RunGibbs(weak, state, nullptr, nullptr, MediumRun(), &rng_a);
  auto strong_run = RunGibbs(strong, state, nullptr, nullptr, MediumRun(), &rng_b);
  ASSERT_TRUE(weak_run.ok());
  ASSERT_TRUE(strong_run.ok());
  EXPECT_GE(strong_run.value().Marginals(state)[0] + 0.03,
            weak_run.value().Marginals(state)[0]);
}

INSTANTIATE_TEST_SUITE_P(FieldSweep, FieldMonotonicityTest,
                         ::testing::Values(-1.5, -0.5, 0.0, 0.5, 1.5));

/// Property: under a positive coupling, labelling the neighbor credible
/// raises a claim's marginal relative to labelling it non-credible; a
/// negative coupling flips the effect.
class CouplingDirectionTest : public ::testing::TestWithParam<double> {};

TEST_P(CouplingDirectionTest, LabelPropagationFollowsCouplingSign) {
  const double coupling = GetParam();
  ClaimMrf mrf;
  mrf.field = {0.0, 0.0};
  mrf.edges = {{0, 1, coupling}};
  mrf.RebuildAdjacency();

  BeliefState credible(2);
  credible.SetLabel(0, true);
  BeliefState non_credible(2);
  non_credible.SetLabel(0, false);
  Rng rng_a(9), rng_b(9);
  auto up = RunGibbs(mrf, credible, nullptr, nullptr, MediumRun(), &rng_a);
  auto down = RunGibbs(mrf, non_credible, nullptr, nullptr, MediumRun(), &rng_b);
  ASSERT_TRUE(up.ok());
  ASSERT_TRUE(down.ok());
  const double delta =
      up.value().Marginals(credible)[1] - down.value().Marginals(non_credible)[1];
  if (coupling > 0.05) {
    EXPECT_GT(delta, 0.05);
  } else if (coupling < -0.05) {
    EXPECT_LT(delta, -0.05);
  } else {
    EXPECT_NEAR(delta, 0.0, 0.08);
  }
}

INSTANTIATE_TEST_SUITE_P(CouplingSweep, CouplingDirectionTest,
                         ::testing::Values(-1.0, -0.4, 0.0, 0.4, 1.0));

/// Property: the exact conditional of an isolated spin is sigmoid(2 field);
/// the empirical marginal converges to it at the Monte-Carlo rate.
class SigmoidConsistencyTest
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(SigmoidConsistencyTest, IsolatedSpinMatchesSigmoid) {
  const auto [field, seed] = GetParam();
  ClaimMrf mrf;
  mrf.field = {field};
  mrf.RebuildAdjacency();
  BeliefState state(1);
  Rng rng(seed);
  auto run = RunGibbs(mrf, state, nullptr, nullptr, MediumRun(), &rng);
  ASSERT_TRUE(run.ok());
  EXPECT_NEAR(run.value().Marginals(state)[0], Sigmoid(2.0 * field), 0.04);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SigmoidConsistencyTest,
    ::testing::Combine(::testing::Values(-2.0, -0.7, 0.0, 0.7, 2.0),
                       ::testing::Values(11ull, 13ull)));

/// Property: thinning does not bias marginals (only decorrelates).
TEST(GibbsThinningTest, ThinnedMarginalsAgree) {
  ClaimMrf mrf;
  mrf.field = {0.4, -0.4};
  mrf.edges = {{0, 1, 0.3}};
  mrf.RebuildAdjacency();
  BeliefState state(2);
  GibbsOptions thin = MediumRun();
  thin.thin = 3;
  thin.num_samples = 500;
  GibbsOptions unthinned = MediumRun();
  Rng rng_a(23), rng_b(29);
  auto a = RunGibbs(mrf, state, nullptr, nullptr, thin, &rng_a);
  auto b = RunGibbs(mrf, state, nullptr, nullptr, unthinned, &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NEAR(a.value().Marginals(state)[0], b.value().Marginals(state)[0], 0.06);
  EXPECT_NEAR(a.value().Marginals(state)[1], b.value().Marginals(state)[1], 0.06);
}

}  // namespace
}  // namespace veritas
