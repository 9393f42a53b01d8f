#include "crf/hypothetical.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/math.h"
#include "core/grounding.h"
#include "core/icrf.h"
#include "core/strategy.h"
#include "testing/corpus_fixtures.h"

namespace veritas {
namespace {

ICrfOptions FastOptions() {
  ICrfOptions options;
  options.gibbs.burn_in = 10;
  options.gibbs.num_samples = 40;
  options.max_em_iterations = 2;
  return options;
}

GuidanceConfig BatchedSerial() {
  GuidanceConfig config;
  config.variant = GuidanceVariant::kScalable;
  config.candidate_pool = 0;
  config.fanout = FanoutKernel::kBatched;
  return config;
}

FanoutOptions FanoutFromConfig(const GuidanceConfig& config, int rng_stream) {
  FanoutOptions options;
  options.base_sweeps = kFanoutBaseSweeps;
  options.burn_in = config.fanout_burn_in;
  options.num_samples = config.fanout_samples;
  options.seed = config.seed;
  options.rng_stream = rng_stream;
  return options;
}

class FanoutTest : public ::testing::Test {
 protected:
  FanoutTest() : corpus_(testing::MakeTinyCorpus(71, 40)) {}

  void SetUp() override {
    icrf_ = std::make_unique<ICrf>(&corpus_.db, FastOptions(), 11);
    state_ = BeliefState(corpus_.db.num_claims());
    state_.SetLabel(2, true);
    state_.SetLabel(9, false);
    ASSERT_TRUE(icrf_->Infer(&state_).ok());
  }

  EmulatedCorpus corpus_;
  std::unique_ptr<ICrf> icrf_;
  BeliefState state_;
};

TEST_F(FanoutTest, BatchedClaimGainsIdenticalAcrossThreadCounts) {
  const auto candidates = CandidatePool(state_, 0);
  auto serial = ComputeClaimInfoGains(*icrf_, state_, candidates,
                                      BatchedSerial(), nullptr);
  ASSERT_TRUE(serial.ok());
  GuidanceConfig parallel_config = BatchedSerial();
  parallel_config.variant = GuidanceVariant::kParallelPartition;
  for (const size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    auto parallel = ComputeClaimInfoGains(*icrf_, state_, candidates,
                                          parallel_config, &pool);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(parallel.value()[i], serial.value()[i])
          << "candidate " << candidates[i] << " at " << threads << " threads";
    }
  }
}

TEST_F(FanoutTest, BatchedSourceGainsIdenticalAcrossThreadCounts) {
  const auto candidates = CandidatePool(state_, 0);
  auto serial = ComputeSourceInfoGains(*icrf_, state_, candidates,
                                       BatchedSerial(), nullptr);
  ASSERT_TRUE(serial.ok());
  GuidanceConfig parallel_config = BatchedSerial();
  parallel_config.variant = GuidanceVariant::kParallelPartition;
  for (const size_t threads : {2u, 4u, 8u}) {
    ThreadPool pool(threads);
    auto parallel = ComputeSourceInfoGains(*icrf_, state_, candidates,
                                           parallel_config, &pool);
    ASSERT_TRUE(parallel.ok()) << threads << " threads";
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(parallel.value()[i], serial.value()[i])
          << "candidate " << candidates[i] << " at " << threads << " threads";
    }
  }
}

TEST_F(FanoutTest, SharedWorkerMatchesFreshWorkerInAnyOrder) {
  const HypotheticalEngine& engine = icrf_->hypothetical();
  const GuidanceConfig config = BatchedSerial();
  auto base = engine.PrepareFanoutBase(state_, FanoutFromConfig(config, 0));
  ASSERT_TRUE(base.ok());

  const std::vector<ClaimId> candidates{0, 5, 12, 20, 33};
  // Reference: one fresh worker per (candidate, branch).
  std::vector<std::vector<double>> reference;
  for (const ClaimId c : candidates) {
    for (int branch = 0; branch < 2; ++branch) {
      FanoutWorker fresh(&engine, &base.value());
      ASSERT_TRUE(fresh.Evaluate(c, branch).ok());
      std::vector<double> probs;
      for (const ClaimId id : fresh.scope()) probs.push_back(fresh.prob(id));
      reference.push_back(std::move(probs));
    }
  }
  // One shared worker, ascending then descending candidate order.
  for (const bool reversed : {false, true}) {
    FanoutWorker shared(&engine, &base.value());
    for (size_t i = 0; i < candidates.size(); ++i) {
      const size_t pick = reversed ? candidates.size() - 1 - i : i;
      for (int branch = 0; branch < 2; ++branch) {
        ASSERT_TRUE(shared.Evaluate(candidates[pick], branch).ok());
        const std::vector<double>& expected = reference[pick * 2 + branch];
        ASSERT_EQ(shared.scope().size(), expected.size());
        for (size_t k = 0; k < expected.size(); ++k) {
          EXPECT_EQ(shared.prob(shared.scope()[k]), expected[k])
              << "candidate " << candidates[pick] << " branch " << branch;
        }
      }
    }
  }
}

TEST_F(FanoutTest, WorkerProbHonorsTheEvaluationContract) {
  const HypotheticalEngine& engine = icrf_->hypothetical();
  const GuidanceConfig config = BatchedSerial();
  auto base = engine.PrepareFanoutBase(state_, FanoutFromConfig(config, 0));
  ASSERT_TRUE(base.ok());
  FanoutWorker worker(&engine, &base.value());

  const ClaimId candidate = 2 + 1;  // unlabeled by construction
  ASSERT_FALSE(state_.IsLabeled(candidate));
  ASSERT_TRUE(worker.Evaluate(candidate, 0).ok());
  EXPECT_EQ(worker.prob(candidate), 1.0);  // hypothetical credible
  ASSERT_TRUE(worker.Evaluate(candidate, 1).ok());
  EXPECT_EQ(worker.prob(candidate), 0.0);  // hypothetical not credible

  std::unordered_set<ClaimId> in_scope(worker.scope().begin(),
                                       worker.scope().end());
  // Real labels inside the scope stay at their 0/1 probability.
  for (const ClaimId id : worker.scope()) {
    if (state_.IsLabeled(id)) {
      EXPECT_EQ(worker.prob(id), state_.prob(id));
    }
  }
  // Claims outside the scope keep their carried-over estimate.
  for (ClaimId id = 0; id < state_.num_claims(); ++id) {
    if (in_scope.count(id) == 0) {
      EXPECT_EQ(worker.prob(id), state_.prob(id));
    }
  }
  // Swept probabilities are valid Rao-Blackwell averages.
  for (const ClaimId id : worker.scope()) {
    EXPECT_GE(worker.prob(id), 0.0);
    EXPECT_LE(worker.prob(id), 1.0);
  }
}

TEST_F(FanoutTest, BatchedClaimGainsMatchDirectWorkerRecompute) {
  const auto candidates = CandidatePool(state_, 0);
  const GuidanceConfig config = BatchedSerial();
  auto gains =
      ComputeClaimInfoGains(*icrf_, state_, candidates, config, nullptr);
  ASSERT_TRUE(gains.ok());

  const HypotheticalEngine& engine = icrf_->hypothetical();
  auto base = engine.PrepareFanoutBase(state_, FanoutFromConfig(config, 0));
  ASSERT_TRUE(base.ok());
  FanoutWorker worker(&engine, &base.value());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const ClaimId c = candidates[i];
    const auto& neighborhood = engine.Neighborhood(c);
    const double h_before = ApproxSubsetEntropy(state_.probs(), neighborhood);
    const double p = ClampProb(state_.prob(c));
    double h_after = 0.0;
    for (int branch = 0; branch < 2; ++branch) {
      const double weight = branch == 0 ? p : 1.0 - p;
      if (weight <= kProbEpsilon) continue;
      ASSERT_TRUE(worker.Evaluate(c, branch).ok());
      double h_branch = 0.0;
      for (const ClaimId id : neighborhood) h_branch += BinaryEntropy(worker.prob(id));
      h_after += weight * h_branch;
    }
    EXPECT_DOUBLE_EQ(gains.value()[i], h_before - h_after) << "candidate " << c;
  }
}

TEST_F(FanoutTest, SourceGainsDeltaCorrectionMatchesFullRecompute) {
  const auto candidates = CandidatePool(state_, 0);
  const GuidanceConfig config = BatchedSerial();
  auto gains =
      ComputeSourceInfoGains(*icrf_, state_, candidates, config, nullptr);
  ASSERT_TRUE(gains.ok());

  // Full-recompute reference: same worker draws, but every branch entropy
  // re-walks every clique of every affected source (the legacy shape).
  const FactDatabase& db = corpus_.db;
  const HypotheticalEngine& engine = icrf_->hypothetical();
  auto base = engine.PrepareFanoutBase(state_, FanoutFromConfig(config, 2));
  ASSERT_TRUE(base.ok());
  FanoutWorker worker(&engine, &base.value());
  const Grounding current = GroundingFromProbs(state_.probs());

  for (size_t i = 0; i < candidates.size(); ++i) {
    const ClaimId c = candidates[i];
    const auto& neighborhood = engine.Neighborhood(c);
    std::vector<SourceId> affected;
    std::unordered_set<SourceId> dedupe;
    for (const ClaimId n : neighborhood) {
      for (const SourceId s : icrf_->claim_sources()[n]) {
        if (dedupe.insert(s).second) affected.push_back(s);
      }
    }
    std::vector<uint8_t> in_scope(db.num_claims(), 0);
    for (const ClaimId n : neighborhood) in_scope[n] = 1;

    auto trust = [&](SourceId s, const std::vector<uint8_t>& hypo_credible,
                     bool use_hypo) {
      double agree = 0.0, total = 0.0;
      for (const size_t ci : icrf_->source_cliques()[s]) {
        const Clique& clique = db.clique(ci);
        const bool credible = (use_hypo && in_scope[clique.claim] != 0)
                                  ? hypo_credible[clique.claim] != 0
                                  : current[clique.claim] != 0;
        agree += ((clique.stance == Stance::kSupport) == credible) ? 1.0 : 0.0;
        total += 1.0;
      }
      return total > 0.0 ? agree / total : 0.5;
    };

    double h_before = 0.0;
    for (const SourceId s : affected) {
      h_before += BinaryEntropy(trust(s, {}, false));
    }
    const double p = ClampProb(state_.prob(c));
    double h_after = 0.0;
    for (int branch = 0; branch < 2; ++branch) {
      const double weight = branch == 0 ? p : 1.0 - p;
      if (weight <= kProbEpsilon) continue;
      ASSERT_TRUE(worker.Evaluate(c, branch).ok());
      std::vector<uint8_t> hypo_credible(db.num_claims(), 0);
      for (ClaimId id = 0; id < db.num_claims(); ++id) {
        hypo_credible[id] = worker.prob(id) >= 0.5 ? 1 : 0;
      }
      double h_branch = 0.0;
      for (const SourceId s : affected) {
        h_branch += BinaryEntropy(trust(s, hypo_credible, true));
      }
      h_after += weight * h_branch;
    }
    EXPECT_NEAR(gains.value()[i], h_before - h_after, 1e-9) << "candidate " << c;
  }
}

TEST_F(FanoutTest, PerCandidateKernelStillAvailable) {
  const auto candidates = CandidatePool(state_, 16);
  GuidanceConfig legacy = BatchedSerial();
  legacy.fanout = FanoutKernel::kPerCandidate;
  auto a = ComputeClaimInfoGains(*icrf_, state_, candidates, legacy, nullptr);
  auto b = ComputeClaimInfoGains(*icrf_, state_, candidates, legacy, nullptr);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(a.value()[i], b.value()[i]);
    EXPECT_TRUE(std::isfinite(a.value()[i]));
  }
}

TEST_F(FanoutTest, BatchedGainsAreFiniteAndMostlyNonNegative) {
  const auto candidates = CandidatePool(state_, 0);
  auto gains = ComputeClaimInfoGains(*icrf_, state_, candidates,
                                     BatchedSerial(), nullptr);
  ASSERT_TRUE(gains.ok());
  size_t non_negative = 0;
  for (const double gain : gains.value()) {
    ASSERT_TRUE(std::isfinite(gain));
    if (gain >= -0.05) ++non_negative;
  }
  EXPECT_GE(non_negative * 10, candidates.size() * 9);
}

TEST_F(FanoutTest, EvaluateRejectsBadClaims) {
  const HypotheticalEngine& engine = icrf_->hypothetical();
  auto base =
      engine.PrepareFanoutBase(state_, FanoutFromConfig(BatchedSerial(), 0));
  ASSERT_TRUE(base.ok());
  FanoutWorker worker(&engine, &base.value());
  EXPECT_FALSE(worker.Evaluate(static_cast<ClaimId>(corpus_.db.num_claims()), 0).ok());
}

}  // namespace
}  // namespace veritas
