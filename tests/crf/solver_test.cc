#include "crf/solver.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/thread_pool.h"

namespace veritas {
namespace {

// Random sparse MRF: `n` claims, each candidate edge kept with probability
// `edge_prob`, fields in [-0.8, 0.8], couplings in [-0.6, 0.6]. Small enough
// for ExactInference to enumerate.
ClaimMrf RandomMrf(Rng* rng, size_t n, double edge_prob) {
  ClaimMrf mrf;
  mrf.field.resize(n);
  for (size_t c = 0; c < n; ++c) mrf.field[c] = rng->Uniform(-0.8, 0.8);
  for (ClaimId a = 0; a + 1 < n; ++a) {
    for (ClaimId b = a + 1; b < n; ++b) {
      if (rng->Bernoulli(edge_prob)) {
        mrf.edges.push_back({a, b, rng->Uniform(-0.6, 0.6)});
      }
    }
  }
  mrf.RebuildAdjacency();
  return mrf;
}

// State with a few random labels and random carried-over probabilities.
BeliefState RandomState(Rng* rng, size_t n, double label_prob) {
  BeliefState state(n);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (rng->Bernoulli(label_prob)) {
      state.SetLabel(id, rng->Bernoulli(0.5));
    } else {
      state.set_prob(id, rng->Uniform(0.05, 0.95));
    }
  }
  return state;
}

ClaimMrf MixedComponentsMrf() {
  // Component A: 4-cycle (cyclic, small -> enumerated exactly by dispatch).
  // Component B: chain of 3 (forest -> tree BP).
  // Component C: isolated claim.
  ClaimMrf mrf;
  mrf.field = {0.2, -0.3, 0.1, 0.4, -0.1, 0.25, 0.0, 0.6};
  mrf.edges = {{0, 1, 0.5}, {1, 2, 0.3}, {2, 3, -0.2}, {0, 3, 0.4},
               {4, 5, -0.6}, {5, 6, 0.2}};
  mrf.RebuildAdjacency();
  return mrf;
}

// ---- exact route ------------------------------------------------------------

TEST(SolverTest, ExactMatchesEnumerationOnRandomSmallMrfs) {
  Rng gen(29);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 3 + gen.UniformInt(10);  // 3..12 claims
    const ClaimMrf mrf = RandomMrf(&gen, n, 0.35);
    const BeliefState state = RandomState(&gen, n, 0.25);

    // Every component is within the enumeration cap, so dispatch solves
    // them all exactly and says so.
    auto got = DispatchMarginals(mrf, state, GibbsOptions{}, nullptr, 0,
                                 nullptr);
    ASSERT_TRUE(got.ok()) << got.status().message();
    EXPECT_TRUE(got.value().exact);

    auto reference = ExactInference(mrf, state, n);
    ASSERT_TRUE(reference.ok());
    ASSERT_EQ(got.value().marginals.size(), n);
    for (size_t c = 0; c < n; ++c) {
      // Whole-database enumeration and the per-component tree/enumeration
      // route must agree to floating-point noise.
      EXPECT_NEAR(got.value().marginals[c], reference.value().marginals[c],
                  1e-9)
          << "trial " << trial << " claim " << c;
    }
  }
}

TEST(SolverTest, ExactComponentDecompositionBeatsGlobalCap) {
  // 30 claims in 10 disjoint triangles: whole-database enumeration (2^30)
  // is out of reach, but every component has 3 free claims.
  ClaimMrf mrf;
  mrf.field.assign(30, 0.1);
  for (ClaimId base = 0; base < 30; base += 3) {
    mrf.edges.push_back({base, static_cast<ClaimId>(base + 1), 0.4});
    mrf.edges.push_back({static_cast<ClaimId>(base + 1),
                         static_cast<ClaimId>(base + 2), 0.4});
    mrf.edges.push_back({base, static_cast<ClaimId>(base + 2), 0.4});
  }
  mrf.RebuildAdjacency();
  BeliefState state(30);
  EXPECT_FALSE(ExactInference(mrf, state, 20).ok());
  EXPECT_FALSE(SolveExact(mrf, state).ok());

  auto got = DispatchMarginals(mrf, state, GibbsOptions{}, nullptr, 0, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().exact);
  // All triangles identical -> identical marginals, checked against one
  // triangle enumerated directly.
  ClaimMrf tri;
  tri.field.assign(3, 0.1);
  tri.edges = {{0, 1, 0.4}, {1, 2, 0.4}, {0, 2, 0.4}};
  tri.RebuildAdjacency();
  auto tri_exact = ExactInference(tri, BeliefState(3), 3);
  ASSERT_TRUE(tri_exact.ok());
  for (size_t c = 0; c < 30; ++c) {
    EXPECT_NEAR(got.value().marginals[c], tri_exact.value().marginals[c % 3],
                1e-12);
  }
}

TEST(SolverTest, ExactSolveRejectsOversizedCycleThatDispatchSamples) {
  ClaimMrf mrf;
  mrf.field.assign(25, 0.0);
  for (ClaimId i = 0; i < 25; ++i) {
    const ClaimId next = static_cast<ClaimId>((i + 1) % 25);
    mrf.edges.push_back({std::min(i, next), std::max(i, next), 0.2});
  }
  mrf.RebuildAdjacency();
  BeliefState state(25);
  EXPECT_EQ(SolveExact(mrf, state, kDispatchMaxExactClaims).status().code(),
            StatusCode::kFailedPrecondition);

  auto got = DispatchMarginals(mrf, state, GibbsOptions{}, nullptr, 7, nullptr);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_FALSE(got.value().exact);
  ASSERT_EQ(got.value().marginals.size(), 25u);
  for (const double p : got.value().marginals) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

// ---- sampled backend vs exact ----------------------------------------------

TEST(SolverTest, GibbsTracksExactMarginals) {
  Rng gen(31);
  const ClaimMrf mrf = RandomMrf(&gen, 10, 0.25);
  const BeliefState state = RandomState(&gen, 10, 0.2);

  auto exact = SolveExact(mrf, state);
  ASSERT_TRUE(exact.ok());

  Rng rng(5);
  auto gibbs = RunGibbs(mrf, state, nullptr, nullptr, GibbsOptions{200, 2000},
                        &rng);
  ASSERT_TRUE(gibbs.ok());
  const std::vector<double> marginals = gibbs.value().Marginals(state);

  for (size_t c = 0; c < mrf.num_claims(); ++c) {
    // Monte-Carlo noise at 2000 samples is ~0.011 per marginal (3 sigma).
    EXPECT_NEAR(marginals[c], exact.value().marginals[c], 0.05)
        << "gibbs claim " << c;
  }
}

// ---- dispatcher ------------------------------------------------------------

TEST(SolverTest, DispatchIsExactOnForestsAndSmallComponents) {
  const ClaimMrf mrf = MixedComponentsMrf();
  BeliefState state(mrf.num_claims());
  state.SetLabel(1, true);
  auto got = DispatchMarginals(mrf, state, GibbsOptions{}, nullptr, 99, nullptr);
  ASSERT_TRUE(got.ok());
  // Every component is tractable (4-cycle enumerated, chain + singleton by
  // tree BP): the dispatcher must report an exact result and match the
  // whole-database enumeration.
  EXPECT_TRUE(got.value().exact);
  auto reference = ExactInference(mrf, state, mrf.num_claims());
  ASSERT_TRUE(reference.ok());
  for (size_t c = 0; c < mrf.num_claims(); ++c) {
    EXPECT_NEAR(got.value().marginals[c], reference.value().marginals[c], 1e-9);
  }
}

TEST(SolverTest, DispatchMergeIsBitDeterministicAcrossThreadCounts) {
  // Many components, some intractable (30-claim cycles force the sampled
  // fallback), so the test exercises both routes and the merge.
  Rng gen(41);
  ClaimMrf mrf;
  const size_t kCycle = 30;
  const size_t kComponents = 6;
  mrf.field.resize(kCycle * kComponents);
  for (size_t c = 0; c < mrf.field.size(); ++c) {
    mrf.field[c] = gen.Uniform(-0.5, 0.5);
  }
  for (size_t k = 0; k < kComponents; ++k) {
    const ClaimId base = static_cast<ClaimId>(k * kCycle);
    if (k % 2 == 0) {
      // Intractable: full cycle.
      for (ClaimId i = 0; i < kCycle; ++i) {
        const ClaimId a = base + i;
        const ClaimId b = base + (i + 1) % kCycle;
        mrf.edges.push_back({std::min(a, b), std::max(a, b), 0.3});
      }
    } else {
      // Tractable: chain.
      for (ClaimId i = 0; i + 1 < kCycle; ++i) {
        mrf.edges.push_back(
            {static_cast<ClaimId>(base + i), static_cast<ClaimId>(base + i + 1),
             -0.2});
      }
    }
  }
  mrf.RebuildAdjacency();
  const BeliefState state(mrf.num_claims());

  const GibbsOptions gibbs{10, 30};
  const uint64_t draw_seed = 4242;
  auto serial = DispatchMarginals(mrf, state, gibbs, nullptr, draw_seed, nullptr);
  ASSERT_TRUE(serial.ok());
  EXPECT_FALSE(serial.value().exact);  // the cycles were sampled

  for (const size_t threads : {2u, 4u}) {
    ThreadPool pool(threads);
    auto got = DispatchMarginals(mrf, state, gibbs, nullptr, draw_seed, &pool);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value().marginals, serial.value().marginals)
        << "thread count " << threads;
    EXPECT_EQ(got.value().exact, serial.value().exact);
  }
}

TEST(SolverTest, DispatchSampledFallbackTracksExactMarginals) {
  // One cyclic component just over the enumeration cap, so dispatch must
  // sample it, yet small enough for the test to enumerate the truth.
  const size_t n = kDispatchMaxExactClaims + 1;
  Rng gen(43);
  ClaimMrf mrf;
  mrf.field.resize(n);
  for (size_t c = 0; c < n; ++c) mrf.field[c] = gen.Uniform(-0.8, 0.8);
  for (ClaimId i = 0; i < n; ++i) {
    const ClaimId next = static_cast<ClaimId>((i + 1) % n);
    mrf.edges.push_back({std::min(i, next), std::max(i, next),
                         gen.Uniform(-0.6, 0.6)});
  }
  mrf.RebuildAdjacency();
  const BeliefState state = RandomState(&gen, n, 0.0);

  auto got = DispatchMarginals(mrf, state, GibbsOptions{200, 2000}, nullptr,
                               31337, nullptr);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got.value().exact);

  auto reference = ExactInference(mrf, state, n);
  ASSERT_TRUE(reference.ok());
  for (size_t c = 0; c < n; ++c) {
    EXPECT_NEAR(got.value().marginals[c], reference.value().marginals[c], 0.05)
        << "claim " << c;
  }
}

}  // namespace
}  // namespace veritas
