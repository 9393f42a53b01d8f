#include "core/batch.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>

namespace veritas {

ClaimCorrelation::ClaimCorrelation(const ICrf& icrf,
                                   const std::vector<ClaimId>& claims)
    : key_stride_(icrf.db().num_claims()) {
  // Count shared sources between restricted claim pairs. We iterate each
  // claim's sources and each source's claims, restricted to the candidate
  // set, which keeps the cost near the sparsity of the overlap.
  std::unordered_set<ClaimId> restricted(claims.begin(), claims.end());
  std::unordered_map<uint64_t, double> counts;
  const auto& claim_sources = icrf.claim_sources();
  const FactDatabase& db = icrf.db();
  double max_count = 0.0;
  for (const ClaimId c : claims) {
    for (const SourceId s : claim_sources[c]) {
      for (const ClaimId other : db.SourceClaims(s)) {
        if (other <= c || restricted.find(other) == restricted.end()) continue;
        const uint64_t key = static_cast<uint64_t>(c) * key_stride_ + other;
        const double updated = (counts[key] += 1.0);
        max_count = std::max(max_count, updated);
      }
    }
  }
  if (max_count <= 0.0) return;
  // Build the neighbor lists in (a, b) key order, not hash order: the
  // lists fix the FP accumulation order of the importance weights and the
  // greedy delta updates, which must not depend on the stdlib's hash.
  std::vector<std::pair<uint64_t, double>> ordered(counts.begin(), counts.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });
  for (const auto& [key, count] : ordered) {
    const ClaimId a = static_cast<ClaimId>(key / key_stride_);
    const ClaimId b = static_cast<ClaimId>(key % key_stride_);
    const double normalized = count / max_count;
    values_[key] = normalized;
    neighbors_[a].emplace_back(b, normalized);
    neighbors_[b].emplace_back(a, normalized);
  }
}

double ClaimCorrelation::At(ClaimId a, ClaimId b) const {
  if (a == b) return 1.0;  // a claim fully overlaps itself
  if (a > b) std::swap(a, b);
  const auto it = values_.find(static_cast<uint64_t>(a) * key_stride_ + b);
  return it == values_.end() ? 0.0 : it->second;
}

const std::vector<std::pair<ClaimId, double>>& ClaimCorrelation::Neighbors(
    ClaimId c) const {
  const auto it = neighbors_.find(c);
  return it == neighbors_.end() ? empty_ : it->second;
}

double BatchUtility(const std::vector<ClaimId>& batch,
                    const std::unordered_map<ClaimId, double>& info_gain,
                    const std::unordered_map<ClaimId, double>& importance,
                    const ClaimCorrelation& correlation, double benefit_weight) {
  auto ig = [&](ClaimId c) {
    const auto it = info_gain.find(c);
    return it == info_gain.end() ? 0.0 : std::max(0.0, it->second);
  };
  double benefit = 0.0;
  for (const ClaimId c : batch) {
    const auto it = importance.find(c);
    const double q = it == importance.end() ? 0.0 : it->second;
    benefit += q * ig(c);
  }
  double redundancy = 0.0;
  for (const ClaimId a : batch) {
    for (const ClaimId b : batch) {
      if (a >= b) continue;
      redundancy += 2.0 * ig(a) * correlation.At(a, b) * ig(b);
    }
  }
  return benefit_weight * benefit - redundancy;
}

Result<BatchSelection> SelectBatch(const ICrf& icrf, const BeliefState& state,
                                   const BatchOptions& options, ThreadPool* pool) {
  if (options.batch_size == 0) {
    return Status::InvalidArgument("SelectBatch: batch_size must be positive");
  }
  const std::vector<ClaimId> candidates =
      CandidatePool(state, std::max(options.guidance.candidate_pool,
                                    options.batch_size * 4));
  if (candidates.empty()) {
    return Status::NotFound("SelectBatch: no unlabeled claims");
  }

  // Per-candidate IG_C flows through the shared HypotheticalEngine: the
  // batch selector reuses the cached neighborhoods and pooled scratch
  // buffers of the single-claim guidance path (DESIGN.md §8).
  auto gains_result =
      ComputeClaimInfoGains(icrf, state, candidates, options.guidance, pool);
  if (!gains_result.ok()) return gains_result.status();
  const std::vector<double>& gains = gains_result.value();

  std::unordered_map<ClaimId, double> info_gain;
  info_gain.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    info_gain[candidates[i]] = std::max(0.0, gains[i]);
  }

  const ClaimCorrelation correlation(icrf, candidates);

  // Importance q(c) = sum_{c'} M(c, c') IG(c') (diagonal included: a claim
  // fully correlates with itself).
  std::unordered_map<ClaimId, double> importance;
  importance.reserve(candidates.size());
  for (const ClaimId c : candidates) {
    double q = info_gain[c];
    for (const auto& [other, m] : correlation.Neighbors(c)) {
      const auto it = info_gain.find(other);
      if (it != info_gain.end()) q += m * it->second;
    }
    importance[c] = q;
  }

  // Greedy selection with incremental marginal gains.
  std::unordered_map<ClaimId, double> delta;
  delta.reserve(candidates.size());
  for (const ClaimId c : candidates) {
    // Delta_0(c) = w q(c) IG(c) - IG(c) M(c,c) IG(c).
    delta[c] = kBatchBenefitWeight * importance[c] * info_gain[c] -
               info_gain[c] * info_gain[c];
  }

  BatchSelection selection;
  std::unordered_set<ClaimId> chosen;
  const size_t k = std::min(options.batch_size, candidates.size());
  for (size_t round = 0; round < k; ++round) {
    ClaimId best = 0;
    double best_delta = -std::numeric_limits<double>::infinity();
    bool found = false;
    for (const ClaimId c : candidates) {
      if (chosen.count(c)) continue;
      const double d = delta[c];
      if (!found || d > best_delta || (d == best_delta && c < best)) {
        best = c;
        best_delta = d;
        found = true;
      }
    }
    if (!found) break;
    chosen.insert(best);
    selection.claims.push_back(best);
    selection.info_gains.push_back(info_gain[best]);
    // Delta_{i+1}(c) = Delta_i(c) - 2 IG(c*) M(c, c*) IG(c).
    const double ig_best = info_gain[best];
    for (const auto& [other, m] : correlation.Neighbors(best)) {
      const auto it = delta.find(other);
      if (it == delta.end()) continue;
      it->second -= 2.0 * ig_best * m * info_gain[other];
    }
  }
  selection.utility = BatchUtility(selection.claims, info_gain, importance,
                                   correlation, kBatchBenefitWeight);
  return selection;
}

}  // namespace veritas
