#include "crf/model.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/math.h"
#include "common/rng.h"
#include "testing/corpus_fixtures.h"
#include "testing/reference_logistic.h"

namespace veritas {
namespace {

TEST(CrfModelTest, DimensionMatchesDatabase) {
  const FactDatabase db = testing::MakeHandDatabase();
  const CrfModel model = CrfModel::ForDatabase(db);
  EXPECT_EQ(model.feature_dim(), 1 + 6 + 5u);
  for (const double w : model.weights()) EXPECT_DOUBLE_EQ(w, 0.0);
}

TEST(CrfModelTest, CliqueFeaturesAreInterceptDocThenSource) {
  const FactDatabase db = testing::MakeHandDatabase();
  const CrfModel model = CrfModel::ForDatabase(db);
  std::vector<double> x;
  model.BuildCliqueFeatures(db, 0, &x);
  ASSERT_EQ(x.size(), model.feature_dim());
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], db.document(0).features[0]);
  EXPECT_DOUBLE_EQ(x[7], db.source(0).features[0]);
}

TEST(CrfModelTest, CliqueScoreIsDotProduct) {
  const FactDatabase db = testing::MakeHandDatabase();
  CrfModel model = CrfModel::ForDatabase(db);
  auto& theta = *model.mutable_weights();
  for (size_t i = 0; i < theta.size(); ++i) theta[i] = 0.1 * (i + 1);
  std::vector<double> x;
  model.BuildCliqueFeatures(db, 2, &x);
  EXPECT_NEAR(model.CliqueScore(db, 2), Dot(theta, x), 1e-12);
}

TEST(CrfModelTest, EvidenceSignsFollowStance) {
  const FactDatabase db = testing::MakeHandDatabase();
  CrfModel model = CrfModel::ForDatabase(db);
  // Intercept-only weights: every clique scores 1.0.
  (*model.mutable_weights())[0] = 1.0;
  const auto evidence = model.EvidenceLogOdds(db);
  // Claim 0: one supporting clique -> +1. Claim 1: two supports -> +2.
  // Claim 2: one refute + one support -> 0.
  EXPECT_NEAR(evidence[0], 1.0, 1e-12);
  EXPECT_NEAR(evidence[1], 2.0, 1e-12);
  EXPECT_NEAR(evidence[2], 0.0, 1e-12);
}

TEST(CouplingTest, SharedSourceCreatesEdge) {
  const FactDatabase db = testing::MakeHandDatabase();
  CrfConfig config;
  config.coupling = 0.6;
  const auto edges = BuildSourceCouplings(db, config);
  // Source 0 touches claims {0, 1, 2}; source 1 touches only claim 2.
  // Expect edges among {0,1}, {0,2}, {1,2}.
  EXPECT_EQ(edges.size(), 3u);
}

TEST(CouplingTest, StanceSignsMultiply) {
  const FactDatabase db = testing::MakeHandDatabase();
  CrfConfig config;
  config.coupling = 1.0;
  const auto edges = BuildSourceCouplings(db, config);
  double j01 = 0.0, j12 = 0.0;
  for (const auto& edge : edges) {
    if (edge.a == 0 && edge.b == 1) j01 = edge.j;
    if (edge.a == 1 && edge.b == 2) j12 = edge.j;
  }
  // Claims 0 and 1 both supported by source 0: positive coupling.
  EXPECT_GT(j01, 0.0);
  // Claim 1 supported, claim 2 refuted by source 0: negative coupling.
  EXPECT_LT(j12, 0.0);
}

TEST(CouplingTest, NormalizationBoundsPerClaimMass) {
  // A source with k claims contributes |J| <= coupling/(k-1) per pair, so
  // each claim's total coupling from one source is at most `coupling`.
  FactDatabase db;
  db.AddSource({"s", {0.5}});
  db.AddDocument({0, {0.5}});
  const size_t k = 6;
  for (size_t c = 0; c < k; ++c) {
    db.AddClaim({"c"});
    ASSERT_TRUE(db.AddMention(0, static_cast<ClaimId>(c), Stance::kSupport).ok());
  }
  CrfConfig config;
  config.coupling = 0.8;
  const auto edges = BuildSourceCouplings(db, config);
  std::vector<double> mass(k, 0.0);
  for (const auto& edge : edges) {
    mass[edge.a] += std::fabs(edge.j);
    mass[edge.b] += std::fabs(edge.j);
  }
  for (const double m : mass) EXPECT_LE(m, 0.8 + 1e-9);
}

TEST(CouplingTest, LargeSourceFallsBackToBoundedTopology) {
  FactDatabase db;
  db.AddSource({"s", {0.5}});
  db.AddDocument({0, {0.5}});
  constexpr size_t k = 60;  // full pairs = 1770 > cap
  for (size_t c = 0; c < k; ++c) {
    db.AddClaim({"c"});
    ASSERT_TRUE(db.AddMention(0, static_cast<ClaimId>(c), Stance::kSupport).ok());
  }
  static_assert(k * (k - 1) / 2 > kMaxPairsPerSource);
  const auto edges = BuildSourceCouplings(db, CrfConfig());
  EXPECT_LE(edges.size(), kMaxPairsPerSource);
  EXPECT_GE(edges.size(), k);  // at least the connectivity ring
}

TEST(BuildClaimMrfTest, FieldsCombineEvidenceAndPrior) {
  const FactDatabase db = testing::MakeHandDatabase();
  CrfModel model = CrfModel::ForDatabase(db);
  (*model.mutable_weights())[0] = 1.0;
  const std::vector<double> prev{0.5, 0.9, 0.5};
  const auto couplings = BuildSourceCouplings(db, CrfConfig());
  const ClaimMrf mrf = BuildClaimMrf(db, model, prev, couplings);
  ASSERT_EQ(mrf.num_claims(), 3u);
  // Claim 0: evidence 1.0, prior logit 0 -> field 0.5.
  EXPECT_NEAR(mrf.field[0], 0.5, 1e-9);
  // Claim 1: evidence 2.0, prior logit log(9) weighted by kPriorWeight
  // -> field > 1.
  EXPECT_GT(mrf.field[1], 1.0);
  EXPECT_TRUE(mrf.adjacency_built());
  EXPECT_EQ(mrf.offsets.size(), 4u);
}

TEST(FitCrfWeightsTest, LearnsDiscriminativeWeightsFromLabels) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(21, 40);
  const FactDatabase& db = corpus.db;
  CrfModel model = CrfModel::ForDatabase(db);
  BeliefState state(db.num_claims());
  std::vector<double> targets(db.num_claims(), 0.5);
  for (size_t c = 0; c < db.num_claims(); ++c) {
    state.SetLabel(static_cast<ClaimId>(c), db.ground_truth(static_cast<ClaimId>(c)));
    targets[c] = db.ground_truth(static_cast<ClaimId>(c)) ? 1.0 : 0.0;
  }
  auto report = FitCrfWeights(db, targets, state, &model);
  ASSERT_TRUE(report.ok());

  // The fitted model must separate claims: evidence log-odds should be
  // positive for credible claims more often than for non-credible ones.
  const auto evidence = model.EvidenceLogOdds(db);
  double credible_mean = 0.0, non_credible_mean = 0.0;
  size_t credible_count = 0, non_credible_count = 0;
  for (size_t c = 0; c < db.num_claims(); ++c) {
    if (db.ground_truth(static_cast<ClaimId>(c))) {
      credible_mean += evidence[c];
      ++credible_count;
    } else {
      non_credible_mean += evidence[c];
      ++non_credible_count;
    }
  }
  ASSERT_GT(credible_count, 0u);
  ASSERT_GT(non_credible_count, 0u);
  EXPECT_GT(credible_mean / credible_count,
            non_credible_mean / non_credible_count);
}

TEST(FitCrfWeightsTest, RejectsBadArguments) {
  const FactDatabase db = testing::MakeHandDatabase();
  CrfModel model = CrfModel::ForDatabase(db);
  BeliefState state(db.num_claims());
  std::vector<double> bad_targets(1, 0.5);
  EXPECT_FALSE(FitCrfWeights(db, bad_targets, state, &model).ok());
  std::vector<double> targets(db.num_claims(), 0.5);
  EXPECT_FALSE(FitCrfWeights(db, targets, state, nullptr).ok());
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// FitCrfWeights's M-step problem written out straight-line over the oracle
/// objective: one example per clique, labelled cliques at kLabeledWeight,
/// unlabelled ones at their confidence weight scaled under the mass cap.
Result<TronReport> ReferenceFit(const FactDatabase& db,
                                const std::vector<double>& targets,
                                const BeliefState& state, CrfModel* model) {
  std::vector<double> weights(db.num_cliques());
  double labeled_mass = 0.0;
  double unlabeled_mass = 0.0;
  for (size_t i = 0; i < db.num_cliques(); ++i) {
    const ClaimId claim = db.clique(i).claim;
    if (state.IsLabeled(claim)) {
      weights[i] = kLabeledWeight;
      labeled_mass += weights[i];
    } else {
      const double y = std::clamp(targets[claim], 0.0, 1.0);
      weights[i] = kUnlabeledWeightFloor +
                   kUnlabeledConfidenceScale * std::fabs(2.0 * y - 1.0);
      unlabeled_mass += weights[i];
    }
  }
  const double cap = std::max(1.0, kUnlabeledMassCapRatio * labeled_mass);
  const double scale = unlabeled_mass > cap ? cap / unlabeled_mass : 1.0;
  testing::ReferenceLogisticObjective objective(model->feature_dim(),
                                                kL2Lambda);
  std::vector<double> x;
  for (size_t i = 0; i < db.num_cliques(); ++i) {
    const Clique& clique = db.clique(i);
    const double y = std::clamp(targets[clique.claim], 0.0, 1.0);
    model->BuildCliqueFeatures(db, i, &x);
    objective.AddExample(x, clique.stance == Stance::kSupport ? y : 1.0 - y,
                         state.IsLabeled(clique.claim) ? weights[i]
                                                       : weights[i] * scale);
  }
  return MinimizeTron(objective, model->mutable_weights());
}

TEST(FitCrfWeightsTest, MatchesStraightLineOracleBitwise) {
  const EmulatedCorpus corpus = testing::MakeTinyCorpus(23, 60);
  const FactDatabase& db = corpus.db;
  Rng rng(5);
  BeliefState state(db.num_claims());
  std::vector<double> targets(db.num_claims());
  for (size_t c = 0; c < db.num_claims(); ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (c % 4 == 0) {
      state.SetLabel(id, db.ground_truth(id));
      targets[c] = db.ground_truth(id) ? 1.0 : 0.0;
    } else {
      targets[c] = rng.Uniform();
    }
  }
  CrfModel fast = CrfModel::ForDatabase(db);
  CrfModel reference = fast;
  // Two rounds, like consecutive EM iterations: the second warm-starts from
  // the first round's weights.
  for (int round = 0; round < 2; ++round) {
    auto got = FitCrfWeights(db, targets, state, &fast);
    auto want = ReferenceFit(db, targets, state, &reference);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(want.ok());
    ASSERT_EQ(fast.weights().size(), reference.weights().size());
    EXPECT_EQ(std::memcmp(fast.weights().data(), reference.weights().data(),
                          fast.weights().size() * sizeof(double)),
              0);
    const TronReport& a = got.value();
    const TronReport& b = want.value();
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_TRUE(SameBits(a.initial_value, b.initial_value));
    EXPECT_TRUE(SameBits(a.final_value, b.final_value));
    EXPECT_TRUE(SameBits(a.final_gradient_norm, b.final_gradient_norm));
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_GT(a.iterations, 0u);
    for (size_t c = 0; c < db.num_claims(); ++c) {
      if (!state.IsLabeled(static_cast<ClaimId>(c))) {
        targets[c] = 0.5 * (targets[c] + rng.Uniform());
      }
    }
  }
}

}  // namespace
}  // namespace veritas
