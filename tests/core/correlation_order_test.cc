/// Regression tests for the deterministic neighbor order of the batch
/// selector's ClaimCorrelation: the shared-source counts live in an
/// unordered_map, and until the sort-before-emit fix the neighbor lists —
/// and through them the FP accumulation order of the importance weights
/// and greedy delta updates — followed its hash order. The lists are now
/// pinned: for claim c, partners below c ascend first (keys where c is
/// the pair's 'b'), then partners above c ascend (c is the pair's 'a').

#include "core/batch.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

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

class CorrelationOrderTest : public ::testing::Test {
 protected:
  CorrelationOrderTest() : corpus_(testing::MakeTinyCorpus(101, 24)) {}

  void SetUp() override {
    icrf_ = std::make_unique<ICrf>(&corpus_.db, FastOptions(), 21);
    state_ = BeliefState(corpus_.db.num_claims());
    ASSERT_TRUE(icrf_->Infer(&state_).ok());
  }

  EmulatedCorpus corpus_;
  std::unique_ptr<ICrf> icrf_;
  BeliefState state_;
};

TEST_F(CorrelationOrderTest, NeighborsAscendWithinRoleSegments) {
  const auto candidates = state_.UnlabeledClaims();
  const ClaimCorrelation correlation(*icrf_, candidates);
  bool any_neighbors = false;
  for (const ClaimId c : candidates) {
    const auto& neighbors = correlation.Neighbors(c);
    if (!neighbors.empty()) any_neighbors = true;
    // The list is two ascending runs: partners < c, then partners > c.
    size_t i = 0;
    ClaimId prev = 0;
    for (; i < neighbors.size() && neighbors[i].first < c; ++i) {
      if (i > 0) {
        EXPECT_LT(prev, neighbors[i].first) << "claim " << c;
      }
      prev = neighbors[i].first;
    }
    for (size_t j = i; j < neighbors.size(); ++j) {
      EXPECT_GT(neighbors[j].first, c) << "claim " << c;
      if (j > i) {
        EXPECT_LT(prev, neighbors[j].first) << "claim " << c;
      }
      prev = neighbors[j].first;
    }
  }
  EXPECT_TRUE(any_neighbors) << "corpus produced no shared-source pairs";
}

TEST_F(CorrelationOrderTest, RebuildIsBitIdentical) {
  const auto candidates = state_.UnlabeledClaims();
  const ClaimCorrelation first(*icrf_, candidates);
  const ClaimCorrelation second(*icrf_, candidates);
  for (const ClaimId c : candidates) {
    const auto& a = first.Neighbors(c);
    const auto& b = second.Neighbors(c);
    ASSERT_EQ(a.size(), b.size()) << "claim " << c;
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].first, b[i].first);
      EXPECT_EQ(a[i].second, b[i].second);  // bitwise, not approximate
    }
  }
}

TEST_F(CorrelationOrderTest, NeighborsMatchAtLookups) {
  const auto candidates = state_.UnlabeledClaims();
  const ClaimCorrelation correlation(*icrf_, candidates);
  for (const ClaimId c : candidates) {
    for (const auto& [other, value] : correlation.Neighbors(c)) {
      EXPECT_DOUBLE_EQ(value, correlation.At(c, other));
      EXPECT_GT(value, 0.0);
    }
  }
}

}  // namespace
}  // namespace veritas
