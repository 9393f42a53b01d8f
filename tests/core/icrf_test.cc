#include "core/icrf.h"

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "core/grounding.h"
#include "obs/metrics.h"
#include "testing/corpus_fixtures.h"

namespace veritas {
namespace {

ICrfOptions FastOptions() {
  ICrfOptions options;
  options.gibbs.burn_in = 10;
  options.gibbs.num_samples = 40;
  options.max_em_iterations = 3;
  return options;
}

TEST(ICrfTest, InferRejectsBadState) {
  const FactDatabase db = testing::MakeHandDatabase();
  ICrf icrf(&db, FastOptions(), 1);
  BeliefState wrong_size(1);
  EXPECT_FALSE(icrf.Infer(&wrong_size).ok());
  EXPECT_FALSE(icrf.Infer(nullptr).ok());
}

TEST(ICrfTest, InferProducesValidProbabilities) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(41);
  ICrf icrf(&corpus.db, FastOptions(), 2);
  BeliefState state(corpus.db.num_claims());
  auto stats = icrf.Infer(&state);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats.value().em_iterations, 1u);
  for (size_t c = 0; c < state.num_claims(); ++c) {
    EXPECT_GE(state.prob(static_cast<ClaimId>(c)), 0.0);
    EXPECT_LE(state.prob(static_cast<ClaimId>(c)), 1.0);
  }
  EXPECT_TRUE(icrf.ready());
  EXPECT_EQ(icrf.mrf().num_claims(), corpus.db.num_claims());
  EXPECT_FALSE(icrf.last_samples().empty());
}

TEST(ICrfTest, LabelsAreRespectedAndPropagate) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(43);
  ICrf icrf(&corpus.db, FastOptions(), 3);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());

  // Label half the claims with their truth and re-infer.
  for (size_t c = 0; c < corpus.db.num_claims(); c += 2) {
    state.SetLabel(static_cast<ClaimId>(c),
                   corpus.db.ground_truth(static_cast<ClaimId>(c)));
  }
  ASSERT_TRUE(icrf.Infer(&state).ok());
  for (size_t c = 0; c < corpus.db.num_claims(); c += 2) {
    const ClaimId id = static_cast<ClaimId>(c);
    EXPECT_DOUBLE_EQ(state.prob(id), corpus.db.ground_truth(id) ? 1.0 : 0.0);
  }
}

TEST(ICrfTest, LabelsImprovePrecision) {
  // The central claim of the paper's model section: user input improves the
  // credibility assessment of unvalidated claims.
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(47, 40);
  const FactDatabase& db = corpus.db;
  ICrf icrf(&db, FastOptions(), 4);
  BeliefState state(db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());

  auto unlabeled_precision = [&](const BeliefState& s) {
    size_t correct = 0, total = 0;
    for (size_t c = 0; c < db.num_claims(); ++c) {
      const ClaimId id = static_cast<ClaimId>(c);
      if (s.IsLabeled(id)) continue;
      ++total;
      if ((s.prob(id) >= 0.5) == db.ground_truth(id)) ++correct;
    }
    return total == 0 ? 1.0 : static_cast<double>(correct) / total;
  };
  const double before = unlabeled_precision(state);

  for (size_t c = 0; c < db.num_claims(); c += 2) {
    state.SetLabel(static_cast<ClaimId>(c), db.ground_truth(static_cast<ClaimId>(c)));
  }
  ASSERT_TRUE(icrf.Infer(&state).ok());
  ASSERT_TRUE(icrf.Infer(&state).ok());
  const double after = unlabeled_precision(state);
  EXPECT_GE(after, before - 0.05);
  EXPECT_GT(after, 0.55);  // meaningfully better than a coin flip
}

TEST(ICrfTest, ResampleRequiresInferFirst) {
  const FactDatabase db = testing::MakeHandDatabase();
  ICrf icrf(&db, FastOptions(), 5);
  BeliefState state(db.num_claims());
  Rng rng(1);
  EXPECT_FALSE(icrf.hypothetical()
                   .ResampleScoped(state, nullptr, &rng, /*neutral_prior=*/false)
                   .ok());
}

TEST(ICrfTest, ResampleRestrictedTouchesOnlyScope) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(53);
  ICrf icrf(&corpus.db, FastOptions(), 6);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());

  BeliefState hypo = state;
  hypo.SetLabel(0, true);
  const std::vector<ClaimId> scope{0};
  Rng rng(2);
  auto probs = icrf.hypothetical().ResampleScoped(hypo, &scope, &rng,
                                                  /*neutral_prior=*/false);
  ASSERT_TRUE(probs.ok());
  EXPECT_DOUBLE_EQ(probs.value().probs()[0], 1.0);  // labeled
  for (size_t c = 1; c < corpus.db.num_claims(); ++c) {
    EXPECT_DOUBLE_EQ(probs.value().probs()[c],
                     state.prob(static_cast<ClaimId>(c)));
  }
}

TEST(ICrfTest, HypotheticalLabelShiftsNeighborhood) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(59, 30);
  ICrfOptions options = FastOptions();
  options.crf.coupling = 1.0;  // strong coupling so the shift is visible
  ICrf icrf(&corpus.db, options, 7);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());

  // Find a claim with at least one neighbor.
  ClaimId center = 0;
  std::vector<ClaimId> hood;
  for (size_t c = 0; c < corpus.db.num_claims(); ++c) {
    hood = icrf.hypothetical().Neighborhood(static_cast<ClaimId>(c), 1, 16);
    if (hood.size() > 2) {
      center = static_cast<ClaimId>(c);
      break;
    }
  }
  ASSERT_GT(hood.size(), 2u);

  BeliefState positive = state;
  positive.SetLabel(center, true);
  BeliefState negative = state;
  negative.SetLabel(center, false);
  Rng rng_a(3), rng_b(3);
  auto plus = icrf.hypothetical().ResampleScoped(positive, &hood, &rng_a,
                                                 /*neutral_prior=*/false);
  auto minus = icrf.hypothetical().ResampleScoped(negative, &hood, &rng_b,
                                                  /*neutral_prior=*/false);
  ASSERT_TRUE(plus.ok());
  ASSERT_TRUE(minus.ok());
  // Averaged over the neighborhood, the positive hypothesis must yield
  // weakly larger probabilities than the negative one (couplings from a
  // shared source are predominantly positive when stances agree).
  double mean_plus = 0.0, mean_minus = 0.0;
  for (const ClaimId c : hood) {
    mean_plus += plus.value().probs()[c];
    mean_minus += minus.value().probs()[c];
  }
  EXPECT_NE(mean_plus, mean_minus);
}

TEST(ICrfTest, WarmStartKeepsResultsStableAcrossCalls) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(61);
  ICrf icrf(&corpus.db, FastOptions(), 8);
  BeliefState state(corpus.db.num_claims());
  // Anchor the model with labels on half the claims; an unanchored model is
  // symmetric and its marginals are pure sampling noise around 0.5.
  ASSERT_TRUE(icrf.Infer(&state).ok());
  for (size_t c = 0; c < corpus.db.num_claims(); c += 2) {
    state.SetLabel(static_cast<ClaimId>(c),
                   corpus.db.ground_truth(static_cast<ClaimId>(c)));
  }
  ASSERT_TRUE(icrf.Infer(&state).ok());
  const std::vector<double> first = state.probs();
  ASSERT_TRUE(icrf.Infer(&state).ok());
  // Re-running on the same labels must not swing probabilities wildly: the
  // mean drift stays within the Monte-Carlo noise of the sample budget
  // (individual claims near 0.5 may flip, which is why the max is not a
  // meaningful stability metric here).
  double total_change = 0.0;
  for (size_t c = 0; c < first.size(); ++c) {
    total_change += std::fabs(first[c] - state.probs()[c]);
  }
  EXPECT_LT(total_change / static_cast<double>(first.size()), 0.15);
}

TEST(ICrfTest, SyncStructuresBuildsIndexes) {
  const FactDatabase db = testing::MakeHandDatabase();
  ICrf icrf(&db, FastOptions(), 9);
  ASSERT_TRUE(icrf.SyncStructures().ok());
  EXPECT_EQ(icrf.claim_sources().size(), db.num_claims());
  EXPECT_EQ(icrf.source_cliques().size(), db.num_sources());
  EXPECT_EQ(icrf.claim_sources()[2].size(), 2u);  // claim 2 touched by both
  EXPECT_EQ(icrf.partition().num_components(), 1u);
}

TEST(ICrfTest, FitWeightsOffFreezesModel) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(67);
  ICrfOptions options = FastOptions();
  options.fit_weights = false;
  ICrf icrf(&corpus.db, options, 10);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());
  for (const double w : icrf.model().weights()) EXPECT_DOUBLE_EQ(w, 0.0);
}

TEST(ICrfTest, EStepAndMStepHistogramsGainOneSamplePerEmIteration) {
  MetricsRegistry::Histogram* sweeps = GlobalMetrics().histogram(
      WithLabel("veritas_crf_sweep_seconds", "backend",
                CrfBackendName(CrfBackend::kGibbs)));
  MetricsRegistry::Histogram* msteps =
      GlobalMetrics().histogram("veritas_crf_mstep_seconds");
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(71);
  for (const bool fit_weights : {true, false}) {
    ICrfOptions options = FastOptions();
    options.backend = CrfBackend::kGibbs;
    options.em_tolerance = 0.0;  // run every EM iteration
    options.fit_weights = fit_weights;
    ICrf icrf(&corpus.db, options, 11);
    BeliefState state(corpus.db.num_claims());
    const uint64_t sweeps_before = sweeps->Snapshot().count;
    const uint64_t msteps_before = msteps->Snapshot().count;
    auto stats = icrf.Infer(&state);
    ASSERT_TRUE(stats.ok());
    const uint64_t iterations = stats.value().em_iterations;
    EXPECT_EQ(iterations, options.max_em_iterations);
    EXPECT_EQ(sweeps->Snapshot().count - sweeps_before, iterations);
    // A frozen model runs no M-step, so it records none.
    EXPECT_EQ(msteps->Snapshot().count - msteps_before,
              fit_weights ? iterations : 0u);
  }
}

TEST(ICrfTest, BackendResolvesToOneKernelAndCountsIt) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(73);
  const CrfBackend resolved[] = {CrfBackend::kGibbs, CrfBackend::kChromatic,
                                 CrfBackend::kDispatch};
  auto counts = [&] {
    std::vector<uint64_t> values;
    for (const CrfBackend b : resolved) {
      values.push_back(GlobalMetrics()
                           .counter(WithLabel(
                               "veritas_crf_backend_selected_total", "backend",
                               CrfBackendName(b)))
                           ->Value());
    }
    return values;
  };
  // One Infer() under `backend` on a pool of `threads` workers (0 = no
  // pool): returns the probabilities, and requires that exactly the `want`
  // series gained one.
  auto infer = [&](CrfBackend backend, size_t threads, CrfBackend want) {
    ICrfOptions options = FastOptions();
    options.backend = backend;
    std::unique_ptr<ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
    ICrf icrf(&corpus.db, options, 12, pool.get());
    BeliefState state(corpus.db.num_claims());
    const std::vector<uint64_t> before = counts();
    EXPECT_TRUE(icrf.Infer(&state).ok());
    const std::vector<uint64_t> after = counts();
    for (size_t i = 0; i < after.size(); ++i) {
      EXPECT_EQ(after[i] - before[i], resolved[i] == want ? 1u : 0u)
          << CrfBackendName(resolved[i]);
    }
    return state.probs();
  };

  // kAuto is the sequential sampler whatever pool the engine borrows; the
  // chromatic kernel is chosen by name.
  EXPECT_EQ(infer(CrfBackend::kAuto, 0, CrfBackend::kGibbs),
            infer(CrfBackend::kGibbs, 0, CrfBackend::kGibbs));
  EXPECT_EQ(infer(CrfBackend::kAuto, 2, CrfBackend::kGibbs),
            infer(CrfBackend::kGibbs, 0, CrfBackend::kGibbs));
  EXPECT_EQ(infer(CrfBackend::kChromatic, 1, CrfBackend::kChromatic),
            infer(CrfBackend::kChromatic, 2, CrfBackend::kChromatic));
  infer(CrfBackend::kDispatch, 2, CrfBackend::kDispatch);
}

}  // namespace
}  // namespace veritas
