// Equivalence suite of the HypotheticalEngine refactor: pins that (a) the
// flat-CSR Gibbs sweep reproduces the former nested-vector adjacency bit
// for bit, (b) EvaluateCandidate / EvaluateHoldout reproduce the manual
// BeliefState-copy + ResampleScoped plumbing the five call sites used to
// carry, (c) cached neighborhoods equal fresh BFS and honor the
// invalidation contract when edges change, and (d) the scratch pool
// actually reuses buffers.

#include "crf/hypothetical.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/math.h"
#include "core/icrf.h"
#include "core/strategy.h"
#include "crf/partition.h"
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

// ---------------------------------------------------------------------------
// (a) CSR inference == nested-vector inference, bit for bit.
// ---------------------------------------------------------------------------

/// Pre-refactor reference: RunGibbs re-implemented over the nested
/// vector<vector<pair>> adjacency the repo used before the CSR layout,
/// replicating initialization, sweep order, and rng consumption exactly.
std::vector<double> NestedAdjacencyReferenceMarginals(const ClaimMrf& mrf,
                                                      const BeliefState& state,
                                                      const GibbsOptions& options,
                                                      Rng* rng) {
  const size_t n = mrf.num_claims();
  std::vector<std::vector<std::pair<ClaimId, double>>> adjacency(n);
  for (const auto& edge : mrf.edges) {
    adjacency[edge.a].emplace_back(edge.b, edge.j);
    adjacency[edge.b].emplace_back(edge.a, edge.j);
  }

  SpinConfig spins(n, 0);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (state.IsLabeled(id)) {
      spins[c] = state.label(id) == ClaimLabel::kCredible ? 1 : 0;
    } else {
      spins[c] = rng->Bernoulli(Sigmoid(2.0 * mrf.field[c])) ? 1 : 0;
    }
  }
  std::vector<size_t> sweep_order;
  for (size_t c = 0; c < n; ++c) {
    if (!state.IsLabeled(static_cast<ClaimId>(c))) sweep_order.push_back(c);
  }
  auto sweep = [&]() {
    for (const size_t c : sweep_order) {
      double neighbor_term = 0.0;
      for (const auto& [nbr, j] : adjacency[c]) {
        neighbor_term += j * (spins[nbr] != 0 ? 1.0 : -1.0);
      }
      spins[c] = rng->Bernoulli(Sigmoid(2.0 * (mrf.field[c] + neighbor_term)))
                     ? 1
                     : 0;
    }
  };
  for (size_t b = 0; b < options.burn_in; ++b) sweep();
  std::vector<double> counts(n, 0.0);
  for (size_t s = 0; s < options.num_samples; ++s) {
    sweep();
    for (size_t c = 0; c < n; ++c) counts[c] += spins[c];
  }
  std::vector<double> marginals(n, 0.5);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    marginals[c] = state.IsLabeled(id)
                       ? (state.label(id) == ClaimLabel::kCredible ? 1.0 : 0.0)
                       : counts[c] / static_cast<double>(options.num_samples);
  }
  return marginals;
}

TEST(CsrEquivalenceTest, GibbsMatchesNestedAdjacencyBitForBit) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(101, 30);
  CrfModel model = CrfModel::ForDatabase(corpus.db);
  CrfConfig config;
  const auto couplings = BuildSourceCouplings(corpus.db, config);
  std::vector<double> prev(corpus.db.num_claims(), 0.5);
  const ClaimMrf mrf = BuildClaimMrf(corpus.db, model, prev, couplings);
  ASSERT_FALSE(mrf.edges.empty());

  BeliefState state(corpus.db.num_claims());
  state.SetLabel(0, true);
  state.SetLabel(1, false);
  GibbsOptions options;
  options.burn_in = 5;
  options.num_samples = 25;

  Rng rng_csr(77);
  auto samples = RunGibbs(mrf, state, nullptr, nullptr, options, &rng_csr);
  ASSERT_TRUE(samples.ok());
  const std::vector<double> csr = samples.value().Marginals(state);

  Rng rng_ref(77);
  const std::vector<double> reference =
      NestedAdjacencyReferenceMarginals(mrf, state, options, &rng_ref);

  ASSERT_EQ(csr.size(), reference.size());
  for (size_t c = 0; c < csr.size(); ++c) {
    EXPECT_DOUBLE_EQ(csr[c], reference[c]) << "claim " << c;
  }
}

// ---------------------------------------------------------------------------
// (b) Engine evaluations == the manual plumbing they replaced.
// ---------------------------------------------------------------------------

TEST(HypotheticalEngineTest, EvaluateCandidateMatchesManualResample) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(103, 30);
  ICrf icrf(&corpus.db, FastOptions(), 11);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());

  const HypotheticalEngine& engine = icrf.hypothetical();
  HypotheticalOptions options;
  options.seed = 17;

  for (ClaimId c = 0; c < 6; ++c) {
    for (int branch = 0; branch < 2; ++branch) {
      // The pre-refactor call-site plumbing: copy the belief state, label
      // the candidate, re-sample its neighborhood with the candidate rng.
      BeliefState hypo = state;
      hypo.SetLabel(c, branch == 0);
      const std::vector<ClaimId> hood = engine.Neighborhood(c);
      Rng rng = CandidateRng(options.seed, c, branch);
      auto manual =
          engine.ResampleScoped(hypo, &hood, &rng, /*neutral_prior=*/false);
      ASSERT_TRUE(manual.ok());

      auto evaluation = engine.EvaluateCandidate(state, c, branch, options);
      ASSERT_TRUE(evaluation.ok());
      const std::vector<double>& pooled = evaluation.value().probs();
      ASSERT_EQ(pooled.size(), manual.value().probs().size());
      for (size_t i = 0; i < pooled.size(); ++i) {
        EXPECT_DOUBLE_EQ(pooled[i], manual.value().probs()[i])
            << "claim " << c << " branch " << branch << " index " << i;
      }
    }
  }
}

TEST(HypotheticalEngineTest, EvaluateHoldoutMatchesManualClearLabel) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(107, 30);
  ICrf icrf(&corpus.db, FastOptions(), 12);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());
  for (size_t c = 0; c < corpus.db.num_claims(); c += 3) {
    const ClaimId id = static_cast<ClaimId>(c);
    state.SetLabel(id, corpus.db.ground_truth(id));
  }
  ASSERT_TRUE(icrf.Infer(&state).ok());

  const HypotheticalEngine& engine = icrf.hypothetical();
  HypotheticalOptions options;
  options.seed = 23;
  options.neutral_prior = true;

  for (const ClaimId c : state.LabeledClaims()) {
    for (int rep = 0; rep < 2; ++rep) {
      // The pre-refactor confirmation plumbing: copy, clear the label,
      // re-sample the neighborhood with a neutral prior.
      BeliefState holdout = state;
      holdout.ClearLabel(c, 0.5);
      const std::vector<ClaimId> hood = engine.Neighborhood(c);
      Rng rng = CandidateRng(options.seed, c, rep);
      auto manual =
          engine.ResampleScoped(holdout, &hood, &rng, /*neutral_prior=*/true);
      ASSERT_TRUE(manual.ok());

      auto evaluation = engine.EvaluateHoldout(state, c, rep, options);
      ASSERT_TRUE(evaluation.ok());
      const std::vector<double>& pooled = evaluation.value().probs();
      for (size_t i = 0; i < pooled.size(); ++i) {
        EXPECT_DOUBLE_EQ(pooled[i], manual.value().probs()[i])
            << "claim " << c << " rep " << rep << " index " << i;
      }
    }
  }
}

TEST(HypotheticalEngineTest, InfoGainsIdenticalAcrossSerialAndParallel) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(109, 30);
  ICrf icrf(&corpus.db, FastOptions(), 13);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());

  const std::vector<ClaimId> candidates = CandidatePool(state, 0);
  GuidanceConfig serial;
  serial.variant = GuidanceVariant::kScalable;
  GuidanceConfig parallel;
  parallel.variant = GuidanceVariant::kParallelPartition;
  ThreadPool pool(4);

  auto serial_gains =
      ComputeClaimInfoGains(icrf, state, candidates, serial, nullptr);
  auto parallel_gains =
      ComputeClaimInfoGains(icrf, state, candidates, parallel, &pool);
  ASSERT_TRUE(serial_gains.ok());
  ASSERT_TRUE(parallel_gains.ok());
  // Per-candidate rng derivation + pooled buffers: scores are a pure
  // function of (state, model, seed), not of scheduling.
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial_gains.value()[i], parallel_gains.value()[i]);
  }
}

// ---------------------------------------------------------------------------
// (c) Neighborhood cache: hits, stability across re-inference, invalidation.
// ---------------------------------------------------------------------------

TEST(HypotheticalEngineTest, NeighborhoodMatchesFreshBfsAndCaches) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(113, 30);
  ICrf icrf(&corpus.db, FastOptions(), 14);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());
  const HypotheticalEngine& engine = icrf.hypothetical();

  for (ClaimId c = 0; c < corpus.db.num_claims(); ++c) {
    const std::vector<ClaimId>& cached = engine.Neighborhood(c);
    const std::vector<ClaimId> fresh = CouplingNeighborhood(
        icrf.mrf(), c, kNeighborhoodRadius, kNeighborhoodCap);
    EXPECT_EQ(cached, fresh) << "claim " << c;
    // Second lookup returns the same cached object, not a recomputation.
    EXPECT_EQ(&cached, &engine.Neighborhood(c));
  }
  EXPECT_EQ(engine.cached_neighborhoods(), corpus.db.num_claims());
}

TEST(HypotheticalEngineTest, CacheSurvivesReinferenceWithoutEdgeChanges) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(127, 30);
  ICrf icrf(&corpus.db, FastOptions(), 15);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());
  const HypotheticalEngine& engine = icrf.hypothetical();

  const uint64_t epoch = engine.structure_epoch();
  const std::vector<ClaimId>* before = &engine.Neighborhood(2);
  // Fields change every Infer(); edges do not — the cache must survive.
  state.SetLabel(0, true);
  ASSERT_TRUE(icrf.Infer(&state).ok());
  EXPECT_EQ(engine.structure_epoch(), epoch);
  EXPECT_EQ(before, &engine.Neighborhood(2));
}

TEST(HypotheticalEngineTest, EdgeChangesInvalidateCachedNeighborhoods) {
  // 60 claims: the 30-claim corpus has no claim outside radius 2 of claim 0.
  EmulatedCorpus corpus = testing::MakeTinyCorpus(131, 60);
  ICrf icrf(&corpus.db, FastOptions(), 16);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());
  const HypotheticalEngine& engine = icrf.hypothetical();

  // Pick a claim and another claim outside its radius-2 neighborhood.
  const ClaimId center = 0;
  const std::vector<ClaimId> hood = engine.Neighborhood(center);
  ClaimId outsider = 0;
  bool found = false;
  for (ClaimId c = 0; c < corpus.db.num_claims() && !found; ++c) {
    if (std::find(hood.begin(), hood.end(), c) == hood.end()) {
      outsider = c;
      found = true;
    }
  }
  ASSERT_TRUE(found);

  // Link them through a shared document (same source ⇒ new coupling edge).
  ASSERT_FALSE(corpus.db.ClaimCliques(center).empty());
  const DocumentId doc =
      corpus.db.clique(corpus.db.ClaimCliques(center).front()).document;
  ASSERT_TRUE(corpus.db.AddMention(doc, outsider, Stance::kSupport).ok());

  const uint64_t epoch = engine.structure_epoch();
  icrf.MarkStructuresStale();
  ASSERT_TRUE(icrf.Infer(&state).ok());
  EXPECT_GT(engine.structure_epoch(), epoch);
  const std::vector<ClaimId>& refreshed = engine.Neighborhood(center);
  EXPECT_NE(std::find(refreshed.begin(), refreshed.end(), outsider),
            refreshed.end())
      << "cache must reflect the new edge after invalidation";
}

// ---------------------------------------------------------------------------
// (d) Scratch pooling: steady-state evaluations reuse buffers.
// ---------------------------------------------------------------------------

TEST(HypotheticalEngineTest, SerialEvaluationsReuseOneScratchBuffer) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(137, 24);
  ICrf icrf(&corpus.db, FastOptions(), 17);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());
  const HypotheticalEngine& engine = icrf.hypothetical();

  HypotheticalOptions options;
  for (int round = 0; round < 20; ++round) {
    auto evaluation = engine.EvaluateCandidate(
        state, static_cast<ClaimId>(round % corpus.db.num_claims()),
        round % 2, options);
    ASSERT_TRUE(evaluation.ok());
    ASSERT_EQ(evaluation.value().probs().size(), corpus.db.num_claims());
  }
  // One evaluation lives at a time ⇒ the pool never grows beyond one.
  EXPECT_EQ(engine.scratch_buffers_created(), 1u);
}

TEST(HypotheticalEngineTest, ParallelFanOutBoundsScratchByConcurrency) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(139, 30);
  ICrf icrf(&corpus.db, FastOptions(), 18);
  BeliefState state(corpus.db.num_claims());
  ASSERT_TRUE(icrf.Infer(&state).ok());

  GuidanceConfig config;
  config.variant = GuidanceVariant::kParallelPartition;
  ThreadPool pool(4);
  const std::vector<ClaimId> candidates = CandidatePool(state, 0);
  for (int round = 0; round < 3; ++round) {
    auto gains = ComputeClaimInfoGains(icrf, state, candidates, config, &pool);
    ASSERT_TRUE(gains.ok());
  }
  // Buffers created == peak concurrent evaluations, not 3 * 2 * |candidates|.
  EXPECT_LE(icrf.hypothetical().scratch_buffers_created(), 4u);
}

TEST(HypotheticalEngineTest, UnboundEngineRejectsEvaluations) {
  HypotheticalEngine engine;
  BeliefState state(3);
  HypotheticalOptions options;
  EXPECT_FALSE(engine.EvaluateCandidate(state, 0, 0, options).ok());
  EXPECT_FALSE(engine.EvaluateHoldout(state, 0, 0, options).ok());
  Rng rng(1);
  EXPECT_FALSE(engine.ResampleScoped(state, nullptr, &rng, false).ok());
  EXPECT_TRUE(engine.Neighborhood(0).empty());
}

}  // namespace
}  // namespace veritas
