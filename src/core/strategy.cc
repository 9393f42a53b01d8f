#include "core/strategy.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/math.h"
#include "crf/entropy.h"

namespace veritas {

const char* StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kRandom:
      return "random";
    case StrategyKind::kUncertainty:
      return "uncertainty";
    case StrategyKind::kInfoGain:
      return "info";
    case StrategyKind::kSource:
      return "source";
    case StrategyKind::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

Result<ClaimId> SelectionStrategy::Select(const ICrf& icrf,
                                          const BeliefState& state) {
  auto ranked = Rank(icrf, state, 1);
  if (!ranked.ok()) return ranked.status();
  if (ranked.value().empty()) {
    return Status::NotFound("SelectionStrategy: no unlabeled claims");
  }
  return ranked.value().front();
}

std::vector<ClaimId> CandidatePool(const BeliefState& state, size_t pool) {
  std::vector<ClaimId> unlabeled = state.UnlabeledClaims();
  if (pool == 0 || unlabeled.size() <= pool) return unlabeled;
  // Keep the `pool` most uncertain claims (largest Bernoulli entropy, i.e.
  // probability closest to 0.5).
  std::nth_element(unlabeled.begin(), unlabeled.begin() + pool, unlabeled.end(),
                   [&](ClaimId a, ClaimId b) {
                     return std::fabs(state.prob(a) - 0.5) <
                            std::fabs(state.prob(b) - 0.5);
                   });
  unlabeled.resize(pool);
  return unlabeled;
}

double HybridScore(double error_rate, double unreliable_ratio,
                   double labeled_ratio) {
  const double h = std::clamp(labeled_ratio, 0.0, 1.0);
  const double exponent =
      std::max(0.0, error_rate) * (1.0 - h) + std::max(0.0, unreliable_ratio) * h;
  return 1.0 - std::exp(-exponent);
}

namespace {

/// Largest unlabeled-claim count of a component that kOrigin's exact
/// entropy enumerates; larger cyclic components fall back to Eq. 13.
constexpr size_t kMaxEnumerationClaims = 16;

/// Knobs of one hypothetical evaluation, derived from the guidance config.
/// `rng_stream` decorrelates the random streams of IG_C (0) and IG_S (2).
HypotheticalOptions HypotheticalFromGuidance(const GuidanceConfig& config,
                                             int rng_stream) {
  HypotheticalOptions options;
  options.seed = config.seed;
  options.rng_stream = rng_stream;
  return options;
}

FanoutOptions FanoutFromGuidance(const GuidanceConfig& config, int rng_stream) {
  FanoutOptions options;
  options.base_sweeps = kFanoutBaseSweeps;
  options.burn_in = config.fanout_burn_in;
  options.num_samples = config.fanout_samples;
  options.seed = config.seed;
  options.rng_stream = rng_stream;
  return options;
}

/// The batched kernel serves the sampling variants; kOrigin keeps the legacy
/// path because its entropy scope is the exact component, with a sampling
/// fallback that must match the committed per-candidate estimator.
bool UseBatchedFanout(const GuidanceConfig& config) {
  return config.fanout == FanoutKernel::kBatched &&
         config.variant != GuidanceVariant::kOrigin;
}

/// Ranks candidates by decreasing score, ties broken by id for determinism.
std::vector<ClaimId> RankByScore(const std::vector<ClaimId>& candidates,
                                 const std::vector<double>& scores, size_t k) {
  std::vector<size_t> order(candidates.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (scores[a] != scores[b]) return scores[a] > scores[b];
    return candidates[a] < candidates[b];
  });
  std::vector<ClaimId> ranked;
  ranked.reserve(std::min(k, candidates.size()));
  for (size_t i = 0; i < order.size() && ranked.size() < k; ++i) {
    ranked.push_back(candidates[order[i]]);
  }
  return ranked;
}

/// Runs `fn(i)` over candidates — on `pool` when there is one, serial
/// otherwise.
void ForEachCandidate(ThreadPool* pool, size_t n,
                      const std::function<void(size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, fn);
  } else {
    for (size_t i = 0; i < n; ++i) fn(i);
  }
}

/// Sharded variant for the batched fan-out: `fn(begin, end)` gets a
/// contiguous candidate range, so each shard amortizes one FanoutWorker
/// (and its scratch) over many candidates. Scores stay shard-independent —
/// every chain draw is a pure function of (seed, claim, branch).
void ForEachCandidateSharded(ThreadPool* pool, size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (pool != nullptr) {
    pool->ParallelForRanges(n, /*min_grain=*/1, fn);
  } else {
    if (n > 0) fn(0, n);
  }
}

}  // namespace

Result<std::vector<double>> ComputeClaimInfoGains(
    const ICrf& icrf, const BeliefState& state,
    const std::vector<ClaimId>& candidates, const GuidanceConfig& config,
    ThreadPool* pool) {
  if (!icrf.ready()) {
    return Status::FailedPrecondition("ComputeClaimInfoGains: inference not run");
  }
  const HypotheticalEngine& engine = icrf.hypothetical();

  if (UseBatchedFanout(config)) {
    // Batched kernel (DESIGN.md §12): one shared base resample for the whole
    // pool, per-candidate label overlays over scope-compacted chains.
    auto base = engine.PrepareFanoutBase(state,
                                         FanoutFromGuidance(config, /*rng_stream=*/0));
    if (!base.ok()) return base.status();
    // h_before reads come from the incremental entropy cache; refresh
    // serially here, shards below only read (SubsetSum is bit-identical to
    // ApproxSubsetEntropy on the same probabilities).
    MarginalEntropyCache& entropy_cache = icrf.entropy_cache();
    entropy_cache.Refresh(state.probs(), engine.structure_epoch());
    std::vector<double> gains(candidates.size(), 0.0);
    std::vector<Status> failures(candidates.size());

    ForEachCandidateSharded(pool, candidates.size(),
                            [&](size_t begin, size_t end) {
      FanoutWorker worker(&engine, &base.value());
      for (size_t i = begin; i < end; ++i) {
        const ClaimId c = candidates[i];
        const std::vector<ClaimId>& neighborhood = engine.Neighborhood(c);
        const double h_before = entropy_cache.SubsetSum(neighborhood);
        const double p = ClampProb(state.prob(c));

        double h_after_expected = 0.0;
        bool failed = false;
        for (int branch = 0; branch < 2; ++branch) {
          const double branch_weight = branch == 0 ? p : 1.0 - p;
          if (branch_weight <= kProbEpsilon) continue;
          const Status status = worker.Evaluate(c, branch);
          if (!status.ok()) {
            failures[i] = status;
            failed = true;
            break;
          }
          double h_branch = 0.0;
          for (const ClaimId id : neighborhood) {
            h_branch += BinaryEntropy(worker.prob(id));
          }
          h_after_expected += branch_weight * h_branch;
        }
        if (!failed) gains[i] = h_before - h_after_expected;
      }
    });

    for (const Status& failure : failures) {
      if (!failure.ok()) return failure;
    }
    return gains;
  }

  const HypotheticalOptions hypothetical_options =
      HypotheticalFromGuidance(config, /*rng_stream=*/0);
  std::vector<double> gains(candidates.size(), 0.0);
  std::vector<Status> failures(candidates.size());

  ForEachCandidate(pool, candidates.size(), [&](size_t i) {
    const ClaimId c = candidates[i];
    const std::vector<ClaimId>& neighborhood = engine.Neighborhood(c);
    const double p = ClampProb(state.prob(c));

    // Entropy of the neighborhood/component before validation.
    double h_before = 0.0;
    bool exact_ok = false;
    const std::vector<ClaimId>* entropy_scope = &neighborhood;
    std::vector<ClaimId> component;
    if (config.variant == GuidanceVariant::kOrigin) {
      const auto& partition = icrf.partition();
      component = partition.members[partition.component_of[c]];
      entropy_scope = &component;
      auto exact = ExactComponentEntropy(icrf.mrf(), state, component,
                                         kMaxEnumerationClaims);
      if (exact.ok()) {
        h_before = exact.value();
        exact_ok = true;
      }
    }
    if (!exact_ok) {
      h_before = ApproxSubsetEntropy(state.probs(), *entropy_scope);
    }

    // Expected entropy under hypothetical validation (Eq. 14).
    double h_after_expected = 0.0;
    for (int branch = 0; branch < 2; ++branch) {
      const bool value = branch == 0;
      const double branch_weight = value ? p : 1.0 - p;
      if (branch_weight <= kProbEpsilon) continue;
      double h_branch = 0.0;
      bool branch_exact = false;
      if (exact_ok) {
        // Exact path (kOrigin): enumerate/BP over the hypothetically
        // labeled component instead of sampling.
        BeliefState hypo = state;
        hypo.SetLabel(c, value);
        auto exact = ExactComponentEntropy(icrf.mrf(), hypo, *entropy_scope,
                                           kMaxEnumerationClaims);
        if (exact.ok()) {
          h_branch = exact.value();
          branch_exact = true;
        }
      }
      if (!branch_exact) {
        auto evaluation =
            engine.EvaluateCandidate(state, c, branch, hypothetical_options);
        if (!evaluation.ok()) {
          failures[i] = evaluation.status();
          return;
        }
        h_branch =
            ApproxSubsetEntropy(evaluation.value().probs(), *entropy_scope);
      }
      h_after_expected += branch_weight * h_branch;
    }
    gains[i] = h_before - h_after_expected;
  });

  for (const Status& failure : failures) {
    if (!failure.ok()) return failure;
  }
  return gains;
}

Result<std::vector<double>> ComputeSourceInfoGains(
    const ICrf& icrf, const BeliefState& state,
    const std::vector<ClaimId>& candidates, const GuidanceConfig& config,
    ThreadPool* pool) {
  if (!icrf.ready()) {
    return Status::FailedPrecondition("ComputeSourceInfoGains: inference not run");
  }
  const FactDatabase& db = icrf.db();
  const HypotheticalEngine& engine = icrf.hypothetical();
  const Grounding current = GroundingFromProbs(state.probs());

  if (UseBatchedFanout(config)) {
    // Batched kernel + incremental trust update: instead of re-walking every
    // clique of every affected source per branch, walk only the cliques of
    // the claims whose hypothetical grounding flipped (they all lie in the
    // re-sampled scope) and correct the per-source agree count by the delta.
    // Exact in the counts — agree/total are small integers in doubles — but
    // the branch entropy total is accumulated in a different order than the
    // legacy full walk, so parity holds to rounding, not bitwise.
    auto base = engine.PrepareFanoutBase(state,
                                         FanoutFromGuidance(config, /*rng_stream=*/2));
    if (!base.ok()) return base.status();
    std::vector<double> gains(candidates.size(), 0.0);
    std::vector<Status> failures(candidates.size());

    ForEachCandidateSharded(pool, candidates.size(),
                            [&](size_t begin, size_t end) {
      FanoutWorker worker(&engine, &base.value());
      // Stamped source -> slot map, reset in O(1) per candidate.
      std::vector<uint32_t> source_slot(db.num_sources(), 0);
      std::vector<uint64_t> source_stamp(db.num_sources(), 0);
      uint64_t stamp = 0;
      std::vector<SourceId> affected;
      std::vector<double> agree0, total, h0, delta;
      std::vector<uint8_t> slot_touched;
      std::vector<uint32_t> touched;

      for (size_t i = begin; i < end; ++i) {
        const ClaimId c = candidates[i];
        const std::vector<ClaimId>& neighborhood = engine.Neighborhood(c);
        // Affected sources in first-appearance order (matches the legacy
        // dedupe), slotted for O(1) lookup during the delta walk.
        ++stamp;
        affected.clear();
        for (const ClaimId n : neighborhood) {
          for (const SourceId s : icrf.claim_sources()[n]) {
            if (source_stamp[s] != stamp) {
              source_stamp[s] = stamp;
              source_slot[s] = static_cast<uint32_t>(affected.size());
              affected.push_back(s);
            }
          }
        }
        // Base (agree, total) per affected source under the current
        // grounding; shared by h_before and both branch corrections.
        agree0.assign(affected.size(), 0.0);
        total.assign(affected.size(), 0.0);
        h0.resize(affected.size());
        delta.assign(affected.size(), 0.0);
        slot_touched.assign(affected.size(), 0);
        double h_before = 0.0;
        for (size_t slot = 0; slot < affected.size(); ++slot) {
          for (const size_t ci : icrf.source_cliques()[affected[slot]]) {
            const Clique& clique = db.clique(ci);
            const bool credible = current[clique.claim] != 0;
            const bool supports = clique.stance == Stance::kSupport;
            agree0[slot] += (supports == credible) ? 1.0 : 0.0;
            total[slot] += 1.0;
          }
          h0[slot] = BinaryEntropy(
              total[slot] > 0.0 ? agree0[slot] / total[slot] : 0.5);
          h_before += h0[slot];
        }

        const double p = ClampProb(state.prob(c));
        double h_after_expected = 0.0;
        bool failed = false;
        for (int branch = 0; branch < 2; ++branch) {
          const double branch_weight = branch == 0 ? p : 1.0 - p;
          if (branch_weight <= kProbEpsilon) continue;
          const Status status = worker.Evaluate(c, branch);
          if (!status.ok()) {
            failures[i] = status;
            failed = true;
            break;
          }
          touched.clear();
          for (const ClaimId id : worker.scope()) {
            const bool new_credible = worker.prob(id) >= 0.5;
            const bool old_credible = current[id] != 0;
            if (new_credible == old_credible) continue;
            for (const size_t ci : db.ClaimCliques(id)) {
              const Clique& clique = db.clique(ci);
              if (source_stamp[clique.source] != stamp) continue;
              const uint32_t slot = source_slot[clique.source];
              const bool supports = clique.stance == Stance::kSupport;
              delta[slot] += ((supports == new_credible) ? 1.0 : 0.0) -
                             ((supports == old_credible) ? 1.0 : 0.0);
              if (!slot_touched[slot]) {
                slot_touched[slot] = 1;
                touched.push_back(slot);
              }
            }
          }
          double h_branch = h_before;
          for (const uint32_t slot : touched) {
            // A touched source has at least one clique, so total > 0.
            h_branch += BinaryEntropy((agree0[slot] + delta[slot]) / total[slot]) -
                        h0[slot];
            delta[slot] = 0.0;
            slot_touched[slot] = 0;
          }
          h_after_expected += branch_weight * h_branch;
        }
        if (!failed) gains[i] = h_before - h_after_expected;
      }
    });

    for (const Status& failure : failures) {
      if (!failure.ok()) return failure;
    }
    return gains;
  }

  const HypotheticalOptions hypothetical_options =
      HypotheticalFromGuidance(config, /*rng_stream=*/2);
  std::vector<double> gains(candidates.size(), 0.0);
  std::vector<Status> failures(candidates.size());

  // Source trust given a grounding override limited to `scope` claims.
  auto local_trust = [&](SourceId s, const Grounding& over,
                         const std::vector<uint8_t>& in_scope) {
    double agree = 0.0;
    double total = 0.0;
    for (const size_t ci : icrf.source_cliques()[s]) {
      const Clique& clique = db.clique(ci);
      const bool credible = in_scope[clique.claim] != 0 ? over[clique.claim] != 0
                                                        : current[clique.claim] != 0;
      const bool supports = clique.stance == Stance::kSupport;
      agree += (supports == credible) ? 1.0 : 0.0;
      total += 1.0;
    }
    return total > 0.0 ? agree / total : 0.5;
  };

  ForEachCandidate(pool, candidates.size(), [&](size_t i) {
    const ClaimId c = candidates[i];
    const std::vector<ClaimId>& neighborhood = engine.Neighborhood(c);
    // Affected sources: any source touching the neighborhood.
    std::vector<SourceId> affected;
    {
      std::unordered_set<SourceId> dedupe;
      for (const ClaimId n : neighborhood) {
        for (const SourceId s : icrf.claim_sources()[n]) {
          if (dedupe.insert(s).second) affected.push_back(s);
        }
      }
    }
    std::vector<uint8_t> in_scope(db.num_claims(), 0);
    for (const ClaimId n : neighborhood) in_scope[n] = 1;

    double h_before = 0.0;
    for (const SourceId s : affected) {
      h_before += BinaryEntropy(local_trust(s, current, in_scope));
    }

    const double p = ClampProb(state.prob(c));
    double h_after_expected = 0.0;
    for (int branch = 0; branch < 2; ++branch) {
      const bool value = branch == 0;
      const double branch_weight = value ? p : 1.0 - p;
      if (branch_weight <= kProbEpsilon) continue;
      auto evaluation =
          engine.EvaluateCandidate(state, c, branch, hypothetical_options);
      if (!evaluation.ok()) {
        failures[i] = evaluation.status();
        return;
      }
      const Grounding hypothetical =
          GroundingFromProbs(evaluation.value().probs());
      double h_branch = 0.0;
      for (const SourceId s : affected) {
        h_branch += BinaryEntropy(local_trust(s, hypothetical, in_scope));
      }
      h_after_expected += branch_weight * h_branch;
    }
    gains[i] = h_before - h_after_expected;
  });

  for (const Status& failure : failures) {
    if (!failure.ok()) return failure;
  }
  return gains;
}

namespace {

class RandomStrategy : public SelectionStrategy {
 public:
  explicit RandomStrategy(const GuidanceConfig& config) : rng_(config.seed) {}

  std::string name() const override { return "random"; }

  Result<std::vector<ClaimId>> Rank(const ICrf& icrf, const BeliefState& state,
                                    size_t k) override {
    (void)icrf;
    std::vector<ClaimId> unlabeled = state.UnlabeledClaims();
    if (unlabeled.empty()) {
      return Status::NotFound("RandomStrategy: no unlabeled claims");
    }
    rng_.Shuffle(&unlabeled);
    if (unlabeled.size() > k) unlabeled.resize(k);
    return unlabeled;
  }

  Rng* mutable_rng() override { return &rng_; }

 private:
  Rng rng_;
};

class UncertaintyStrategy : public SelectionStrategy {
 public:
  explicit UncertaintyStrategy(const GuidanceConfig& config) : config_(config) {}

  std::string name() const override { return "uncertainty"; }

  Result<std::vector<ClaimId>> Rank(const ICrf& icrf, const BeliefState& state,
                                    size_t k) override {
    (void)icrf;
    const std::vector<ClaimId> unlabeled = state.UnlabeledClaims();
    if (unlabeled.empty()) {
      return Status::NotFound("UncertaintyStrategy: no unlabeled claims");
    }
    std::vector<double> scores(unlabeled.size());
    for (size_t i = 0; i < unlabeled.size(); ++i) {
      scores[i] = BinaryEntropy(state.prob(unlabeled[i]));
    }
    return RankByScore(unlabeled, scores, k);
  }

 private:
  GuidanceConfig config_;
};

class InfoGainStrategy : public SelectionStrategy {
 public:
  InfoGainStrategy(const GuidanceConfig& config, ThreadPool* pool)
      : config_(config), pool_(pool) {}

  std::string name() const override { return "info"; }

  Result<std::vector<ClaimId>> Rank(const ICrf& icrf, const BeliefState& state,
                                    size_t k) override {
    const std::vector<ClaimId> candidates =
        CandidatePool(state, config_.candidate_pool);
    if (candidates.empty()) {
      return Status::NotFound("InfoGainStrategy: no unlabeled claims");
    }
    auto gains =
        ComputeClaimInfoGains(icrf, state, candidates, config_, pool_);
    if (!gains.ok()) return gains.status();
    return RankByScore(candidates, gains.value(), k);
  }

 private:
  GuidanceConfig config_;
  ThreadPool* pool_;  // borrowed; null = serial
};

class SourceStrategy : public SelectionStrategy {
 public:
  SourceStrategy(const GuidanceConfig& config, ThreadPool* pool)
      : config_(config), pool_(pool) {}

  std::string name() const override { return "source"; }

  Result<std::vector<ClaimId>> Rank(const ICrf& icrf, const BeliefState& state,
                                    size_t k) override {
    const std::vector<ClaimId> candidates =
        CandidatePool(state, config_.candidate_pool);
    if (candidates.empty()) {
      return Status::NotFound("SourceStrategy: no unlabeled claims");
    }
    auto gains =
        ComputeSourceInfoGains(icrf, state, candidates, config_, pool_);
    if (!gains.ok()) return gains.status();
    return RankByScore(candidates, gains.value(), k);
  }

 private:
  GuidanceConfig config_;
  ThreadPool* pool_;  // borrowed; null = serial
};

class HybridStrategy : public SelectionStrategy, public HybridControl {
 public:
  HybridStrategy(const GuidanceConfig& config, ThreadPool* pool)
      : rng_(config.seed ^ 0xa5a5a5a5a5a5a5a5ULL),
        info_(config, pool),
        source_(config, pool) {}

  std::string name() const override { return "hybrid"; }

  Result<std::vector<ClaimId>> Rank(const ICrf& icrf, const BeliefState& state,
                                    size_t k) override {
    // Roulette-wheel choice between the strategies (Alg. 1 lines 7-9).
    if (rng_.Uniform() < z_) {
      return source_.Rank(icrf, state, k);
    }
    return info_.Rank(icrf, state, k);
  }

  void set_z(double z) override { z_ = std::clamp(z, 0.0, 1.0); }
  double z() const override { return z_; }

  Rng* mutable_rng() override { return &rng_; }

 private:
  Rng rng_;
  double z_ = 0.0;  // info-driven at the start (little user input, §4.4)
  InfoGainStrategy info_;
  SourceStrategy source_;
};

}  // namespace

std::unique_ptr<SelectionStrategy> MakeStrategy(StrategyKind kind,
                                                const GuidanceConfig& config,
                                                ThreadPool* pool) {
  switch (kind) {
    case StrategyKind::kRandom:
      return std::make_unique<RandomStrategy>(config);
    case StrategyKind::kUncertainty:
      return std::make_unique<UncertaintyStrategy>(config);
    case StrategyKind::kInfoGain:
      return std::make_unique<InfoGainStrategy>(config, pool);
    case StrategyKind::kSource:
      return std::make_unique<SourceStrategy>(config, pool);
    case StrategyKind::kHybrid:
      return std::make_unique<HybridStrategy>(config, pool);
  }
  return nullptr;
}

}  // namespace veritas
