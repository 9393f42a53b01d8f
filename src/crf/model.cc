#include "crf/model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/math.h"
#include "optim/logistic.h"

namespace veritas {

CrfModel::CrfModel(size_t feature_dim) : theta_(feature_dim, 0.0) {}

CrfModel CrfModel::ForDatabase(const FactDatabase& db) {
  return CrfModel(1 + db.document_feature_dim() + db.source_feature_dim());
}

void CrfModel::BuildCliqueFeatures(const FactDatabase& db, size_t clique_index,
                                   std::vector<double>* x) const {
  const Clique& clique = db.clique(clique_index);
  const Document& document = db.document(clique.document);
  const Source& source = db.source(clique.source);
  x->clear();
  x->reserve(theta_.size());
  x->push_back(1.0);
  x->insert(x->end(), document.features.begin(), document.features.end());
  x->insert(x->end(), source.features.begin(), source.features.end());
}

double CrfModel::CliqueScore(const FactDatabase& db, size_t clique_index) const {
  const Clique& clique = db.clique(clique_index);
  const Document& document = db.document(clique.document);
  const Source& source = db.source(clique.source);
  double score = theta_[0];
  size_t k = 1;
  for (double f : document.features) score += theta_[k++] * f;
  for (double f : source.features) score += theta_[k++] * f;
  return score;
}

std::vector<double> CrfModel::EvidenceLogOdds(const FactDatabase& db) const {
  std::vector<double> evidence(db.num_claims(), 0.0);
  for (size_t i = 0; i < db.num_cliques(); ++i) {
    const Clique& clique = db.clique(i);
    const double sign = clique.stance == Stance::kSupport ? 1.0 : -1.0;
    evidence[clique.claim] += sign * CliqueScore(db, i);
  }
  return evidence;
}

std::vector<ClaimMrf::Edge> BuildSourceCouplings(const FactDatabase& db,
                                                 const CrfConfig& config) {
  // Net stance of each source towards each of its claims, averaged over the
  // source's cliques on that claim (in [-1, 1]). One pass over all cliques.
  std::unordered_map<uint64_t, double> merged;  // key: a * N + b with a < b
  const uint64_t n = db.num_claims();

  std::unordered_map<uint64_t, std::pair<double, double>> stance_acc;
  stance_acc.reserve(db.num_cliques());
  for (size_t i = 0; i < db.num_cliques(); ++i) {
    const Clique& clique = db.clique(i);
    auto& acc = stance_acc[static_cast<uint64_t>(clique.source) * n + clique.claim];
    acc.first += clique.stance == Stance::kSupport ? 1.0 : -1.0;
    acc.second += 1.0;
  }

  std::vector<std::pair<ClaimId, double>> stances;
  for (size_t s = 0; s < db.num_sources(); ++s) {
    stances.clear();
    for (const ClaimId claim : db.SourceClaims(static_cast<SourceId>(s))) {
      const auto it = stance_acc.find(static_cast<uint64_t>(s) * n + claim);
      if (it == stance_acc.end() || it->second.second <= 0.0) continue;
      stances.emplace_back(claim, it->second.first / it->second.second);
    }
    const size_t k = stances.size();
    if (k < 2) continue;
    const double normalizer = static_cast<double>(k - 1);
    const size_t full_pairs = k * (k - 1) / 2;

    auto add_pair = [&](size_t i, size_t j, double scale) {
      ClaimId a = stances[i].first;
      ClaimId b = stances[j].first;
      if (a == b) return;
      if (a > b) std::swap(a, b);
      const double j_value = scale * config.coupling * stances[i].second *
                             stances[j].second / normalizer;
      merged[static_cast<uint64_t>(a) * n + b] += j_value;
    };

    if (full_pairs <= config.max_pairs_per_source) {
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = i + 1; j < k; ++j) add_pair(i, j, 1.0);
      }
    } else {
      // Ring plus strided chords: preserves the component structure and the
      // per-claim coupling budget while bounding the edge count. The scale
      // factor keeps the total coupling mass of the source comparable.
      const size_t budget = config.max_pairs_per_source;
      const double scale =
          static_cast<double>(full_pairs) / static_cast<double>(budget);
      size_t added = 0;
      for (size_t i = 0; i < k && added < budget; ++i, ++added) {
        add_pair(i, (i + 1) % k, scale);
      }
      size_t stride = 2;
      while (added < budget && stride < k) {
        for (size_t i = 0; i < k && added < budget; i += stride, ++added) {
          add_pair(i, (i + stride) % k, scale);
        }
        stride *= 2;
      }
    }
  }

  // Emit in (a, b) key order, not hash order: the edge sequence fixes the
  // CSR neighbor order and the FP summation order downstream, so it must
  // not depend on which standard library hashed the accumulator.
  std::vector<std::pair<uint64_t, double>> ordered(merged.begin(), merged.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& x, const auto& y) { return x.first < y.first; });

  // Degree normalization: cap the total |J| mass incident to any claim at
  // config.coupling. Without this, popular claims (many shared sources)
  // accumulate coupling fields that drown the feature evidence and create a
  // ferromagnetic phase whose arbitrary basin locks in wrong groundings.
  std::vector<double> mass(db.num_claims(), 0.0);
  for (const auto& [key, j] : ordered) {
    mass[key / n] += std::fabs(j);
    mass[key % n] += std::fabs(j);
  }
  std::vector<ClaimMrf::Edge> edges;
  edges.reserve(ordered.size());
  for (const auto& [key, j] : ordered) {
    if (j == 0.0) continue;
    const ClaimId a = static_cast<ClaimId>(key / n);
    const ClaimId b = static_cast<ClaimId>(key % n);
    const double heaviest = std::max({mass[a], mass[b], 1e-12});
    const double scale =
        heaviest > config.coupling ? config.coupling / heaviest : 1.0;
    edges.push_back({a, b, j * scale});
  }
  return edges;
}

ClaimMrf BuildClaimMrf(const FactDatabase& db, const CrfModel& model,
                       const std::vector<double>& prev_probs,
                       const CrfConfig& config,
                       const std::vector<ClaimMrf::Edge>& couplings) {
  ClaimMrf mrf;
  const std::vector<double> evidence = model.EvidenceLogOdds(db);
  mrf.field.resize(db.num_claims());
  const double clamp_lo = std::clamp(config.prior_clamp, kProbEpsilon, 0.5);
  for (size_t c = 0; c < db.num_claims(); ++c) {
    const double raw = c < prev_probs.size() ? prev_probs[c] : 0.5;
    // Clamping bounds the hysteresis of the carried-over estimate: the prior
    // nudges the chain but can never pin a claim against fresh evidence.
    const double prior = std::clamp(raw, clamp_lo, 1.0 - clamp_lo);
    const double prior_logit = std::log(prior / (1.0 - prior));
    // Log-odds of t_c = +1 vs -1 is 2 * field, hence the 0.5 factor.
    mrf.field[c] = 0.5 * (evidence[c] + config.prior_weight * prior_logit);
  }
  mrf.edges = couplings;
  mrf.RebuildAdjacency();
  return mrf;
}

Result<TronReport> FitCrfWeights(const FactDatabase& db,
                                 const std::vector<double>& targets,
                                 const BeliefState& state,
                                 const CrfConfig& config,
                                 const TronOptions& tron_options,
                                 CrfModel* model) {
  if (model == nullptr) {
    return Status::InvalidArgument("FitCrfWeights: null model");
  }
  if (targets.size() != db.num_claims()) {
    return Status::InvalidArgument("FitCrfWeights: target size mismatch");
  }
  // First pass: example weights and the labelled/unlabelled mass split.
  std::vector<double> weights(db.num_cliques(), 0.0);
  double labeled_mass = 0.0;
  double unlabeled_mass = 0.0;
  for (size_t i = 0; i < db.num_cliques(); ++i) {
    const Clique& clique = db.clique(i);
    const double y_claim = std::clamp(targets[clique.claim], 0.0, 1.0);
    if (state.IsLabeled(clique.claim)) {
      weights[i] = config.labeled_weight;
      labeled_mass += weights[i];
    } else {
      weights[i] = config.unlabeled_weight_floor +
                   config.unlabeled_confidence_scale *
                       std::fabs(2.0 * y_claim - 1.0);
      unlabeled_mass += weights[i];
    }
  }
  // Cap the unlabelled (self-training) mass relative to the labelled mass so
  // that user input always dominates weight learning (see CrfConfig).
  const double mass_cap =
      std::max(1.0, config.unlabeled_mass_cap_ratio * labeled_mass);
  const double unlabeled_scale =
      unlabeled_mass > mass_cap ? mass_cap / unlabeled_mass : 1.0;

  LogisticObjective objective(model->feature_dim(), config.l2_lambda);
  objective.Reserve(db.num_cliques());
  std::vector<double> x;
  for (size_t i = 0; i < db.num_cliques(); ++i) {
    const Clique& clique = db.clique(i);
    const double y_claim = std::clamp(targets[clique.claim], 0.0, 1.0);
    const double y =
        clique.stance == Stance::kSupport ? y_claim : 1.0 - y_claim;
    const double weight = state.IsLabeled(clique.claim)
                              ? weights[i]
                              : weights[i] * unlabeled_scale;
    model->BuildCliqueFeatures(db, i, &x);
    objective.AddExample(x, y, weight);
  }
  return MinimizeTron(objective, model->mutable_weights(), tron_options);
}

}  // namespace veritas
