#include "optim/logistic.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "optim/tron.h"
#include "testing/reference_logistic.h"

namespace veritas {
namespace {

TEST(LogisticTest, ValueAtZeroWeightsIsLog2PerExample) {
  LogisticObjective objective(2, 0.0);
  objective.AddExample({1.0, 0.0}, 1.0);
  objective.AddExample({0.0, 1.0}, 0.0);
  const double value = objective.Value({0.0, 0.0});
  EXPECT_NEAR(value, 2.0 * std::log(2.0), 1e-12);
}

TEST(LogisticTest, RegularizationAddsQuadraticTerm) {
  LogisticObjective objective(2, 2.0);
  const double value = objective.Value({3.0, 4.0});
  EXPECT_NEAR(value, 0.5 * 2.0 * 25.0, 1e-12);  // no examples: pure L2
}

TEST(LogisticTest, GradientMatchesFiniteDifferences) {
  Rng rng(1);
  LogisticObjective objective(3, 0.5);
  for (int i = 0; i < 40; ++i) {
    objective.AddExample({rng.Uniform(), rng.Uniform(), 1.0}, rng.Uniform(),
                         0.5 + rng.Uniform());
  }
  const std::vector<double> w{0.3, -0.7, 0.1};
  EXPECT_LT(MaxGradientDeviation(objective, w), 1e-5);
}

TEST(LogisticTest, HessianVectorProductMatchesFiniteDifferenceOfGradient) {
  Rng rng(2);
  LogisticObjective objective(3, 0.3);
  for (int i = 0; i < 30; ++i) {
    objective.AddExample({rng.Uniform(), rng.Uniform(), 1.0}, rng.Bernoulli(0.5));
  }
  const std::vector<double> w{0.2, 0.4, -0.3};
  const std::vector<double> v{1.0, -2.0, 0.5};
  std::vector<double> hv;
  objective.HessianVectorProduct(w, v, &hv);

  const double eps = 1e-6;
  std::vector<double> w_plus = w, w_minus = w;
  for (size_t i = 0; i < w.size(); ++i) {
    w_plus[i] += eps * v[i];
    w_minus[i] -= eps * v[i];
  }
  std::vector<double> g_plus, g_minus;
  objective.Gradient(w_plus, &g_plus);
  objective.Gradient(w_minus, &g_minus);
  for (size_t i = 0; i < w.size(); ++i) {
    const double numeric = (g_plus[i] - g_minus[i]) / (2.0 * eps);
    EXPECT_NEAR(hv[i], numeric, 1e-4);
  }
}

TEST(LogisticTest, SoftTargetsInterpolate) {
  // With a single example of soft target y, the optimum of the unregularized
  // intercept-only model is sigmoid(w) = y.
  LogisticObjective objective(1, 0.0);
  objective.AddExample({1.0}, 0.3);
  // Evaluate the gradient at w with sigmoid(w) = 0.3: should vanish.
  const double w_star = std::log(0.3 / 0.7);
  std::vector<double> g;
  objective.Gradient({w_star}, &g);
  EXPECT_NEAR(g[0], 0.0, 1e-9);
}

TEST(LogisticTest, WeightsScaleGradient) {
  LogisticObjective weighted(1, 0.0);
  weighted.AddExample({1.0}, 1.0, 3.0);
  LogisticObjective unweighted(1, 0.0);
  unweighted.AddExample({1.0}, 1.0, 1.0);
  std::vector<double> gw, gu;
  weighted.Gradient({0.5}, &gw);
  unweighted.Gradient({0.5}, &gu);
  EXPECT_NEAR(gw[0], 3.0 * gu[0], 1e-12);
}

TEST(LogisticTest, ClearExamplesResets) {
  LogisticObjective objective(2, 0.0);
  objective.AddExample({1.0, 0.0}, 1.0);
  EXPECT_EQ(objective.num_examples(), 1u);
  objective.ClearExamples();
  EXPECT_EQ(objective.num_examples(), 0u);
  EXPECT_DOUBLE_EQ(objective.Value({1.0, 1.0}), 0.0);
}

TEST(LogisticTest, OutOfRangeTargetsAndWeightsAreClamped) {
  LogisticObjective objective(1, 0.0);
  objective.AddExample({1.0}, 2.0, -1.0);  // target clamps to 1, weight to 0
  std::vector<double> g;
  objective.Gradient({0.0}, &g);
  EXPECT_DOUBLE_EQ(g[0], 0.0);  // zero weight: no contribution
}

TEST(LogisticTest, ShortFeatureRowsArePadded) {
  LogisticObjective objective(3, 0.0);
  objective.AddExample({1.0}, 1.0);  // missing features become 0
  std::vector<double> g;
  objective.Gradient({0.0, 0.0, 0.0}, &g);
  EXPECT_NE(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 0.0);
  EXPECT_DOUBLE_EQ(g[2], 0.0);
}

TEST(LogisticTest, ExtremeMarginsStayFinite) {
  LogisticObjective objective(1, 0.0);
  objective.AddExample({1.0}, 1.0);
  EXPECT_TRUE(std::isfinite(objective.Value({800.0})));
  EXPECT_TRUE(std::isfinite(objective.Value({-800.0})));
}

// --- Bit-identity against the straight-line oracle --------------------------
//
// The cached kernel promises exactly the bits a fresh evaluation would give
// (DESIGN.md §12, "M-step kernel"), so every comparison below is memcmp, not
// a tolerance.

using testing::ReferenceLogisticObjective;

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// The cached objective and the oracle, fed identical rows.
struct Pair {
  Pair(size_t dim, double lambda) : fast(dim, lambda), reference(dim, lambda) {}

  void Add(const std::vector<double>& x, double y, double omega) {
    fast.AddExample(x, y, omega);
    reference.AddExample(x, y, omega);
  }

  /// Seeded rows with mixed-sign features, hard and soft targets, and the
  /// clamped/padded edge cases AddExample tolerates.
  void AddRandom(Rng* rng, size_t n) {
    const size_t dim = fast.dim();
    for (size_t i = 0; i < n; ++i) {
      std::vector<double> x(i % 17 == 5 ? dim / 2 : dim);
      for (double& value : x) value = rng->Uniform(-2.0, 2.0);
      if (!x.empty()) x[0] = 1.0;
      const double y = i % 3 == 0 ? (rng->Bernoulli(0.5) ? 1.0 : 0.0)
                                  : rng->Uniform(-0.1, 1.1);
      Add(x, y, rng->Uniform(-0.2, 3.0));
    }
  }

  void ExpectValue(const std::vector<double>& w) const {
    EXPECT_TRUE(SameBits(fast.Value(w), reference.Value(w)));
  }
  void ExpectGradient(const std::vector<double>& w) const {
    std::vector<double> got, want;
    fast.Gradient(w, &got);
    reference.Gradient(w, &want);
    EXPECT_TRUE(SameBits(got, want));
  }
  void ExpectHvp(const std::vector<double>& w, const std::vector<double>& v) const {
    std::vector<double> got, want;
    fast.HessianVectorProduct(w, v, &got);
    reference.HessianVectorProduct(w, v, &want);
    EXPECT_TRUE(SameBits(got, want));
  }
  void ExpectAll(const std::vector<double>& w, const std::vector<double>& v) const {
    ExpectValue(w);
    ExpectGradient(w);
    ExpectHvp(w, v);
  }

  LogisticObjective fast;
  ReferenceLogisticObjective reference;
};

std::vector<double> RandomVector(Rng* rng, size_t dim, double scale) {
  std::vector<double> out(dim);
  for (double& value : out) value = rng->Uniform(-scale, scale);
  return out;
}

TEST(LogisticOracleTest, InterleavedCallsMatchBitwise) {
  Rng rng(101);
  Pair pair(9, 0.7);
  pair.AddRandom(&rng, 300);
  // A small pool so weight vectors recur in every order: cache hits,
  // misses and returns to a vector evaluated several calls ago.
  std::vector<std::vector<double>> pool;
  for (int k = 0; k < 4; ++k) pool.push_back(RandomVector(&rng, 9, 1.5));
  for (int step = 0; step < 400; ++step) {
    const std::vector<double>& w = pool[rng.UniformInt(pool.size())];
    switch (rng.UniformInt(3)) {
      case 0: pair.ExpectValue(w); break;
      case 1: pair.ExpectGradient(w); break;
      default: pair.ExpectHvp(w, RandomVector(&rng, 9, 1.0)); break;
    }
  }
}

TEST(LogisticOracleTest, RepeatChangeAndReturnToEarlierWeights) {
  Rng rng(102);
  Pair pair(6, 0.2);
  pair.AddRandom(&rng, 120);
  const std::vector<double> w1 = RandomVector(&rng, 6, 1.0);
  const std::vector<double> v = RandomVector(&rng, 6, 1.0);
  std::vector<double> w2 = w1;
  w2[3] = std::nextafter(w2[3], 10.0);  // one ulp away: a different key
  for (int repeat = 0; repeat < 3; ++repeat) pair.ExpectHvp(w1, v);
  pair.ExpectAll(w1, v);
  pair.ExpectAll(w2, v);
  pair.ExpectHvp(w2, w1);
  // Back to w1 through a fresh copy: the key is the bits, not the object.
  const std::vector<double> w1_copy = w1;
  pair.ExpectHvp(w1_copy, v);
  pair.ExpectGradient(w1_copy);
  pair.ExpectValue(w1);
  pair.ExpectAll(w2, v);
}

TEST(LogisticOracleTest, SignedZeroCoordinateFlipsMatchBitwise) {
  Rng rng(103);
  Pair pair(5, 0.0);  // no L2 term, so w reaches the output only via margins
  pair.AddRandom(&rng, 80);
  std::vector<double> w = RandomVector(&rng, 5, 1.0);
  const std::vector<double> v = RandomVector(&rng, 5, 1.0);
  w[2] = 0.0;
  pair.ExpectAll(w, v);
  w[2] = -0.0;
  pair.ExpectAll(w, v);
  pair.ExpectHvp(w, v);
  w[2] = 0.0;
  pair.ExpectGradient(w);
  pair.ExpectAll(w, v);
}

TEST(LogisticOracleTest, AppendAndClearAfterEvaluationMatchBitwise) {
  Rng rng(104);
  Pair pair(7, 0.4);
  pair.AddRandom(&rng, 50);
  const std::vector<double> w = RandomVector(&rng, 7, 1.0);
  const std::vector<double> v = RandomVector(&rng, 7, 1.0);
  pair.ExpectAll(w, v);
  // Same w after an append: the new row must be part of every result.
  pair.AddRandom(&rng, 1);
  pair.ExpectHvp(w, v);
  pair.ExpectGradient(w);
  pair.ExpectValue(w);
  pair.fast.ClearExamples();
  pair.reference.ClearExamples();
  pair.ExpectAll(w, v);
  // Grow one row at a time: row counts below, at and past the kernel's
  // four-row blocks.
  for (int rows = 1; rows <= 9; ++rows) {
    pair.AddRandom(&rng, 1);
    pair.ExpectAll(w, v);
  }
}

TEST(LogisticOracleTest, ReserveChangesNothing) {
  Rng rng(105);
  Pair pair(4, 0.3);
  pair.fast.Reserve(64);
  pair.AddRandom(&rng, 100);  // past the reservation as well
  EXPECT_EQ(pair.fast.num_examples(), 100u);
  pair.ExpectAll(RandomVector(&rng, 4, 1.0), RandomVector(&rng, 4, 1.0));
}

TEST(LogisticOracleTest, TronTrajectoryMatchesBitwise) {
  Rng rng(106);
  Pair pair(8, 0.05);
  pair.AddRandom(&rng, 400);
  std::vector<double> w_fast = RandomVector(&rng, 8, 0.5);
  std::vector<double> w_reference = w_fast;
  auto fast = MinimizeTron(pair.fast, &w_fast);
  auto reference = MinimizeTron(pair.reference, &w_reference);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(reference.ok());
  EXPECT_TRUE(SameBits(w_fast, w_reference));
  EXPECT_EQ(fast.value().iterations, reference.value().iterations);
  EXPECT_GT(fast.value().iterations, 1u);
  EXPECT_TRUE(SameBits(fast.value().final_value, reference.value().final_value));
  EXPECT_TRUE(SameBits(fast.value().final_gradient_norm,
                       reference.value().final_gradient_norm));
}

}  // namespace
}  // namespace veritas
