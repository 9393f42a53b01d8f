#include "crf/entropy.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/math.h"

namespace veritas {
namespace {

TEST(ApproxEntropyTest, SumOfBernoulliEntropies) {
  const std::vector<double> probs{0.5, 0.5, 1.0, 0.0};
  EXPECT_NEAR(ApproxDatabaseEntropy(probs), 2.0 * std::log(2.0), 1e-12);
}

TEST(ApproxEntropyTest, EmptyIsZero) {
  EXPECT_DOUBLE_EQ(ApproxDatabaseEntropy({}), 0.0);
}

TEST(ApproxEntropyTest, SubsetRestrictsScope) {
  const std::vector<double> probs{0.5, 0.9, 0.5};
  const std::vector<ClaimId> subset{0, 1};
  EXPECT_NEAR(ApproxSubsetEntropy(probs, subset),
              std::log(2.0) + BinaryEntropy(0.9), 1e-12);
}

TEST(ApproxEntropyTest, SubsetIgnoresOutOfRangeIds) {
  const std::vector<double> probs{0.5};
  const std::vector<ClaimId> subset{0, 99};
  EXPECT_NEAR(ApproxSubsetEntropy(probs, subset), std::log(2.0), 1e-12);
}

TEST(MarginalEntropiesTest, PerClaimValues) {
  const auto entropies = MarginalEntropies({0.5, 1.0});
  EXPECT_NEAR(entropies[0], std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(entropies[1], 0.0);
}

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

TEST(ExactEntropyTest, TreePathUsedForAcyclicGraphs) {
  const ClaimMrf mrf = ChainMrf({0.2, -0.4, 0.1}, {0.5, -0.3});
  BeliefState state(3);
  auto exact = SolveExact(mrf, state);
  ASSERT_TRUE(exact.ok());
  auto enumerated = ExactInference(mrf, state);
  ASSERT_TRUE(enumerated.ok());
  EXPECT_NEAR(exact.value().entropy, enumerated.value().entropy, 1e-9);
}

TEST(ExactEntropyTest, CyclicFallsBackToEnumeration) {
  ClaimMrf mrf;
  mrf.field = {0.1, 0.2, 0.3};
  mrf.edges = {{0, 1, 0.5}, {1, 2, 0.5}, {0, 2, 0.5}};
  mrf.RebuildAdjacency();
  BeliefState state(3);
  auto exact = SolveExact(mrf, state, 20);
  ASSERT_TRUE(exact.ok());
  auto enumerated = ExactInference(mrf, state);
  ASSERT_TRUE(enumerated.ok());
  EXPECT_NEAR(exact.value().entropy, enumerated.value().entropy, 1e-9);
}

TEST(ExactEntropyTest, LargeCyclicGraphErrors) {
  // 30-claim cycle exceeds the enumeration cap.
  ClaimMrf mrf;
  mrf.field.assign(30, 0.0);
  for (ClaimId i = 0; i < 30; ++i) {
    mrf.edges.push_back({i, static_cast<ClaimId>((i + 1) % 30), 0.2});
  }
  mrf.RebuildAdjacency();
  BeliefState state(30);
  EXPECT_FALSE(SolveExact(mrf, state, 20).ok());
}

TEST(ExactEntropyTest, ApproxUpperBoundsExactUnderCoupling) {
  // Marginal (approx) entropy >= joint (exact) entropy: independence bound.
  const ClaimMrf mrf = ChainMrf({0.0, 0.0, 0.0}, {1.0, 1.0});
  BeliefState state(3);
  auto exact = ExactInference(mrf, state);
  ASSERT_TRUE(exact.ok());
  const double approx = ApproxDatabaseEntropy(exact.value().marginals);
  EXPECT_GE(approx + 1e-9, exact.value().entropy);
  EXPECT_GT(approx - exact.value().entropy, 0.2);  // strictly looser here
}

TEST(ExactEntropyTest, LabelsReduceEntropy) {
  const ClaimMrf mrf = ChainMrf({0.1, 0.1, 0.1}, {0.4, 0.4});
  BeliefState unlabeled(3);
  BeliefState labeled(3);
  labeled.SetLabel(1, true);
  auto h_unlabeled = SolveExact(mrf, unlabeled);
  auto h_labeled = SolveExact(mrf, labeled);
  ASSERT_TRUE(h_unlabeled.ok());
  ASSERT_TRUE(h_labeled.ok());
  EXPECT_LT(h_labeled.value().entropy, h_unlabeled.value().entropy);
}

TEST(ComponentEntropyTest, ComponentsDecomposeAdditively) {
  // Two disconnected chains; total exact entropy = sum of component
  // entropies.
  ClaimMrf mrf;
  mrf.field = {0.2, -0.1, 0.4, 0.3};
  mrf.edges = {{0, 1, 0.6}, {2, 3, -0.5}};
  mrf.RebuildAdjacency();
  BeliefState state(4);
  auto total = SolveExact(mrf, state);
  auto left = ExactComponentEntropy(mrf, state, {0, 1});
  auto right = ExactComponentEntropy(mrf, state, {2, 3});
  ASSERT_TRUE(total.ok());
  ASSERT_TRUE(left.ok());
  ASSERT_TRUE(right.ok());
  EXPECT_NEAR(total.value().entropy, left.value() + right.value(), 1e-9);
}

TEST(ComponentEntropyTest, RespectsLabelsInsideComponent) {
  ClaimMrf mrf;
  mrf.field = {0.0, 0.0};
  mrf.edges = {{0, 1, 0.8}};
  mrf.RebuildAdjacency();
  BeliefState state(2);
  state.SetLabel(0, true);
  auto entropy = ExactComponentEntropy(mrf, state, {0, 1});
  ASSERT_TRUE(entropy.ok());
  // Only claim 1 is free, conditioned on t_0 = +1: H = H(sigmoid(2*0.8)).
  EXPECT_NEAR(entropy.value(), BinaryEntropy(Sigmoid(1.6)), 1e-9);
}

TEST(MarginalEntropyCacheTest, TotalAndSubsetMatchOneShotFunctionsBitwise) {
  std::vector<double> probs{0.5, 0.9, 0.12345, 1.0, 0.0, 0.731};
  MarginalEntropyCache cache;
  cache.Refresh(probs, /*structure_epoch=*/1);
  EXPECT_EQ(cache.Total(), ApproxDatabaseEntropy(probs));
  const std::vector<ClaimId> subset{5, 1, 2, 99};  // caller order, OOR id
  EXPECT_EQ(cache.SubsetSum(subset), ApproxSubsetEntropy(probs, subset));

  // Simulated answer/ground sequence: only some entries move each step.
  probs[2] = 1.0;           // answered
  probs[5] = 0.5001;        // re-inferred
  cache.Refresh(probs, 1);
  EXPECT_EQ(cache.Total(), ApproxDatabaseEntropy(probs));
  EXPECT_EQ(cache.SubsetSum(subset), ApproxSubsetEntropy(probs, subset));
  probs[0] = 0.0;           // grounded
  cache.Refresh(probs, 1);
  EXPECT_EQ(cache.Total(), ApproxDatabaseEntropy(probs));
  EXPECT_EQ(cache.SubsetSum(subset), ApproxSubsetEntropy(probs, subset));
}

TEST(MarginalEntropyCacheTest, RefreshRescoresOnlyBitChangedEntries) {
  std::vector<double> probs{0.1, 0.2, 0.3, 0.4};
  MarginalEntropyCache cache;
  cache.Refresh(probs, 7);
  EXPECT_EQ(cache.last_refreshed_entries(), 4u);  // first fill is full
  EXPECT_EQ(cache.full_refreshes(), 1u);

  cache.Refresh(probs, 7);  // nothing moved
  EXPECT_EQ(cache.last_refreshed_entries(), 0u);
  probs[1] = 0.25;
  probs[3] = 0.45;
  cache.Refresh(probs, 7);
  EXPECT_EQ(cache.last_refreshed_entries(), 2u);
  EXPECT_EQ(cache.full_refreshes(), 1u);
  EXPECT_EQ(cache.value(1), BinaryEntropy(0.25));
}

TEST(MarginalEntropyCacheTest, EpochAndSizeChangesForceFullRecompute) {
  std::vector<double> probs{0.3, 0.6};
  MarginalEntropyCache cache;
  cache.Refresh(probs, 1);
  // Structure change: same probabilities, new epoch -> full pass.
  cache.Refresh(probs, 2);
  EXPECT_EQ(cache.last_refreshed_entries(), 2u);
  EXPECT_EQ(cache.full_refreshes(), 2u);
  // Streaming growth: size change -> full pass.
  probs.push_back(0.8);
  cache.Refresh(probs, 2);
  EXPECT_EQ(cache.last_refreshed_entries(), 3u);
  EXPECT_EQ(cache.full_refreshes(), 3u);
  EXPECT_EQ(cache.Total(), ApproxDatabaseEntropy(probs));
}

TEST(MarginalEntropyCacheTest, ShrinkThenTotalDropsStaleTailEntries) {
  // Regression guard: when the probability vector SHRINKS (session reset,
  // checkpoint restore to a smaller database), the cache must not keep the
  // truncated tail's entropy contributions in Total(), and value() must be
  // rebuilt against the new indices.
  std::vector<double> probs{0.5, 0.5, 0.5, 0.5};  // each contributes log 2
  MarginalEntropyCache cache;
  cache.Refresh(probs, 1);
  EXPECT_EQ(cache.Total(), ApproxDatabaseEntropy(probs));

  probs.resize(2);
  probs[0] = 0.9;
  cache.Refresh(probs, 1);
  EXPECT_EQ(cache.last_refreshed_entries(), 2u);  // size change -> full pass
  EXPECT_EQ(cache.Total(), ApproxDatabaseEntropy(probs));
  EXPECT_EQ(cache.value(0), BinaryEntropy(0.9));
  EXPECT_EQ(cache.value(1), BinaryEntropy(0.5));

  // Shrink-then-regrow to the original size: the regrown tail must be scored
  // from the NEW probabilities, not resurrected from the pre-shrink cache.
  probs = {0.1, 0.2, 0.3, 0.4};
  cache.Refresh(probs, 1);
  EXPECT_EQ(cache.Total(), ApproxDatabaseEntropy(probs));
  EXPECT_EQ(cache.value(3), BinaryEntropy(0.4));
}

}  // namespace
}  // namespace veritas
