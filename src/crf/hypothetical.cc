#include "crf/hypothetical.h"

#include <algorithm>

#include "common/math.h"
#include "crf/partition.h"

namespace veritas {

/// Per-evaluation working set. Every buffer is sized once against the bound
/// model and reused verbatim afterwards: steady-state evaluations touch no
/// allocator. `counts` is reset lazily — only the entries of the claims
/// actually swept are cleared per run.
struct HypotheticalEngine::Scratch {
  SpinConfig spins;
  std::vector<double> fields;
  std::vector<double> probs;
  std::vector<uint32_t> counts;
  std::vector<size_t> sweep_order;
  /// Stamp-based visited set for scope deduplication: entries matching
  /// `stamp` were already admitted to sweep_order this run. Stamping makes
  /// the reset O(1) instead of O(n) per evaluation.
  std::vector<uint64_t> visit_stamp;
  uint64_t stamp = 0;
};

/// Hypothetical single-claim edit applied on top of the caller's belief
/// state, replacing the per-candidate BeliefState copies the call sites
/// used to make: kSet labels the claim (Q+/Q-), kClear removes its label
/// (leave-one-out), kNone passes the state through.
struct HypotheticalEngine::LabelOverride {
  enum class Kind { kNone, kSet, kClear };
  Kind kind = Kind::kNone;
  ClaimId claim = 0;
  bool value = false;
};

HypotheticalEngine::HypotheticalEngine() = default;
HypotheticalEngine::~HypotheticalEngine() = default;

void HypotheticalEngine::Evaluation::Release() {
  if (engine_ != nullptr && scratch_ != nullptr) {
    engine_->ReleaseScratch(scratch_);
  }
  engine_ = nullptr;
  scratch_ = nullptr;
  probs_ = nullptr;
}

void HypotheticalEngine::Bind(const ClaimMrf* mrf,
                              const std::vector<double>* evidence_field,
                              const GibbsOptions& gibbs,
                              bool structure_changed) {
  const size_t n = mrf == nullptr ? 0 : mrf->num_claims();
  const bool resized = neighborhood_cache_.size() != n;
  mrf_ = mrf;
  evidence_field_ = evidence_field;
  gibbs_ = gibbs;
  if (structure_changed || resized) {
    neighborhood_cache_.assign(n, {});
    ++structure_epoch_;
  }
}

const std::vector<ClaimId>& HypotheticalEngine::Neighborhood(
    ClaimId claim) const {
  static const std::vector<ClaimId> kEmpty;
  if (!bound() || claim >= neighborhood_cache_.size()) return kEmpty;
  std::lock_guard<std::mutex> lock(cache_mu_[claim % kCacheStripes]);
  NeighborhoodEntry& entry = neighborhood_cache_[claim];
  if (!entry.filled) {
    entry.claims = CouplingNeighborhood(*mrf_, claim, kNeighborhoodRadius,
                                        kNeighborhoodCap);
    entry.filled = true;
  }
  return entry.claims;
}

HypotheticalEngine::Scratch* HypotheticalEngine::AcquireScratch() const {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  if (free_scratch_.empty()) {
    ++scratch_created_;
    return new Scratch();
  }
  Scratch* scratch = free_scratch_.back().release();
  free_scratch_.pop_back();
  return scratch;
}

void HypotheticalEngine::ReleaseScratch(Scratch* scratch) const {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  free_scratch_.emplace_back(scratch);
}

size_t HypotheticalEngine::scratch_buffers_created() const {
  std::lock_guard<std::mutex> lock(scratch_mu_);
  return scratch_created_;
}

size_t HypotheticalEngine::cached_neighborhoods() const {
  size_t filled = 0;
  for (size_t c = 0; c < neighborhood_cache_.size(); ++c) {
    std::lock_guard<std::mutex> lock(cache_mu_[c % kCacheStripes]);
    if (neighborhood_cache_[c].filled) ++filled;
  }
  return filled;
}

Status HypotheticalEngine::RunKernel(const BeliefState& state,
                                     const std::vector<ClaimId>* scope,
                                     const LabelOverride& override_label,
                                     bool neutral_prior, Rng* rng,
                                     Scratch* scratch) const {
  using Kind = LabelOverride::Kind;
  const size_t n = mrf_->num_claims();
  if (state.num_claims() != n) {
    return Status::InvalidArgument("HypotheticalEngine: state size mismatch");
  }
  if (!mrf_->adjacency_built()) {
    return Status::FailedPrecondition("HypotheticalEngine: adjacency not built");
  }
  if (gibbs_.num_samples == 0) {
    return Status::InvalidArgument(
        "HypotheticalEngine: num_samples must be positive");
  }

  // Effective label view: the caller's state with the single hypothetical
  // edit applied on top (no BeliefState copy).
  auto is_labeled = [&](size_t c) {
    if (override_label.kind == Kind::kSet && c == override_label.claim) {
      return true;
    }
    if (override_label.kind == Kind::kClear && c == override_label.claim) {
      return false;
    }
    return state.IsLabeled(static_cast<ClaimId>(c));
  };
  auto label_value = [&](size_t c) {
    if (override_label.kind == Kind::kSet && c == override_label.claim) {
      return override_label.value;
    }
    return state.label(static_cast<ClaimId>(c)) == ClaimLabel::kCredible;
  };
  auto prior_prob = [&](size_t c) {
    if (override_label.kind == Kind::kClear && c == override_label.claim) {
      return 0.5;  // the maximum-entropy prior ClearLabel would restore
    }
    return state.prob(static_cast<ClaimId>(c));
  };

  // Spins: labels authoritative, everything else warm-started from the
  // incumbent probabilities so the restricted chain mixes quickly from the
  // current MAP-ish configuration.
  SpinConfig& spins = scratch->spins;
  spins.resize(n);
  for (size_t c = 0; c < n; ++c) {
    spins[c] = is_labeled(c) ? (label_value(c) ? 1 : 0)
                             : (prior_prob(c) >= 0.5 ? 1 : 0);
  }

  // Claims to resample each sweep: the scope (all unlabeled when null).
  // Duplicate scope entries are admitted once — each claim is resampled
  // once per sweep and counted once per sample, keeping marginals in [0,1]
  // regardless of what the caller passes.
  std::vector<size_t>& sweep_order = scratch->sweep_order;
  sweep_order.clear();
  if (scope != nullptr) {
    scratch->visit_stamp.resize(n, 0);
    const uint64_t stamp = ++scratch->stamp;
    for (const ClaimId id : *scope) {
      if (id < n && !is_labeled(id) && scratch->visit_stamp[id] != stamp) {
        scratch->visit_stamp[id] = stamp;
        sweep_order.push_back(id);
      }
    }
  } else {
    for (size_t c = 0; c < n; ++c) {
      if (!is_labeled(c)) sweep_order.push_back(c);
    }
  }

  // Fields: the bound model's, with the carried-over prior replaced by the
  // bare feature evidence inside the scope for leave-one-out re-inference.
  std::vector<double>& fields = scratch->fields;
  fields.assign(mrf_->field.begin(), mrf_->field.end());
  if (neutral_prior && evidence_field_ != nullptr) {
    if (scope != nullptr) {
      for (const ClaimId c : *scope) {
        if (c < evidence_field_->size()) fields[c] = (*evidence_field_)[c];
      }
    } else {
      const size_t limit = std::min(n, evidence_field_->size());
      for (size_t c = 0; c < limit; ++c) fields[c] = (*evidence_field_)[c];
    }
  }

  // Assemble the probability vector: carried-over estimates everywhere,
  // labels fixed at 0/1; the swept scope is filled below from the chain.
  std::vector<double>& probs = scratch->probs;
  probs.assign(state.probs().begin(), state.probs().end());
  if (override_label.kind == Kind::kClear && override_label.claim < n) {
    probs[override_label.claim] = 0.5;
  }
  for (size_t c = 0; c < n; ++c) {
    if (is_labeled(c)) probs[c] = label_value(c) ? 1.0 : 0.0;
  }

  std::vector<uint32_t>& counts = scratch->counts;
  counts.resize(n);
  for (const size_t c : sweep_order) counts[c] = 0;

  for (size_t b = 0; b < gibbs_.burn_in; ++b) {
    GibbsSweepCsr(*mrf_, fields.data(), sweep_order, &spins, rng);
  }
  for (size_t s = 0; s < gibbs_.num_samples; ++s) {
    GibbsSweepCsr(*mrf_, fields.data(), sweep_order, &spins, rng);
    for (const size_t c : sweep_order) counts[c] += spins[c];
  }
  const double denom = static_cast<double>(gibbs_.num_samples);
  for (const size_t c : sweep_order) {
    probs[c] = static_cast<double>(counts[c]) / denom;
  }
  return Status::OK();
}

Result<HypotheticalEngine::Evaluation> HypotheticalEngine::EvaluateCandidate(
    const BeliefState& state, ClaimId claim, int branch,
    const HypotheticalOptions& options) const {
  if (!bound()) {
    return Status::FailedPrecondition(
        "HypotheticalEngine::EvaluateCandidate: engine not bound; run "
        "inference first");
  }
  const std::vector<ClaimId>& scope = Neighborhood(claim);
  Rng rng = CandidateRng(options.seed, claim, branch + options.rng_stream);
  const LabelOverride hypothetical{LabelOverride::Kind::kSet, claim,
                                   branch == 0};
  Scratch* scratch = AcquireScratch();
  const Status status = RunKernel(state, &scope, hypothetical,
                                  options.neutral_prior, &rng, scratch);
  if (!status.ok()) {
    ReleaseScratch(scratch);
    return status;
  }
  return Evaluation(this, scratch, &scratch->probs);
}

Result<HypotheticalEngine::Evaluation> HypotheticalEngine::EvaluateHoldout(
    const BeliefState& state, ClaimId claim, int repetition,
    const HypotheticalOptions& options) const {
  if (!bound()) {
    return Status::FailedPrecondition(
        "HypotheticalEngine::EvaluateHoldout: engine not bound; run "
        "inference first");
  }
  const std::vector<ClaimId>& scope = Neighborhood(claim);
  Rng rng = CandidateRng(options.seed, claim, repetition + options.rng_stream);
  const LabelOverride holdout{LabelOverride::Kind::kClear, claim, false};
  Scratch* scratch = AcquireScratch();
  const Status status =
      RunKernel(state, &scope, holdout, options.neutral_prior, &rng, scratch);
  if (!status.ok()) {
    ReleaseScratch(scratch);
    return status;
  }
  return Evaluation(this, scratch, &scratch->probs);
}

Result<FanoutBase> HypotheticalEngine::PrepareFanoutBase(
    const BeliefState& state, const FanoutOptions& options) const {
  if (!bound()) {
    return Status::FailedPrecondition(
        "HypotheticalEngine::PrepareFanoutBase: engine not bound; run "
        "inference first");
  }
  const size_t n = mrf_->num_claims();
  if (state.num_claims() != n) {
    return Status::InvalidArgument(
        "HypotheticalEngine::PrepareFanoutBase: state size mismatch");
  }
  if (!mrf_->adjacency_built()) {
    return Status::FailedPrecondition(
        "HypotheticalEngine::PrepareFanoutBase: adjacency not built");
  }
  if (options.num_samples == 0) {
    return Status::InvalidArgument(
        "HypotheticalEngine::PrepareFanoutBase: num_samples must be positive");
  }

  FanoutBase base;
  base.state_ = &state;
  base.options_ = options;
  base.spin_pm_.resize(n);
  std::vector<ClaimId> order;
  order.reserve(n);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (state.IsLabeled(id)) {
      base.spin_pm_[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : -1.0;
    } else {
      base.spin_pm_[c] = state.prob(id) >= 0.5 ? 1.0 : -1.0;
      order.push_back(id);
    }
  }

  // Counter-based equilibration in claim-id order: the salt decorrelates
  // the base stream from the per-candidate overlay streams that share
  // options.seed.
  constexpr uint64_t kBaseSalt = 0x5851f42d4c957f2dULL;
  const uint64_t base_seed = options.seed ^ kBaseSalt;
  const size_t* offsets = mrf_->offsets.data();
  const ClaimId* neighbors = mrf_->neighbors.data();
  const double* couplings = mrf_->couplings.data();
  const double* fields = mrf_->field.data();
  double* pm = base.spin_pm_.data();
  for (size_t s = 0; s < options.base_sweeps; ++s) {
    for (const ClaimId c : order) {
      double neighbor_term = 0.0;
      const size_t row_end = offsets[c + 1];
      for (size_t k = offsets[c]; k < row_end; ++k) {
        neighbor_term += couplings[k] * pm[neighbors[k]];
      }
      const double p = Sigmoid(2.0 * (fields[c] + neighbor_term));
      pm[c] = CounterUniform(base_seed, s, c) < p ? 1.0 : -1.0;
    }
  }
  return base;
}

FanoutWorker::FanoutWorker(const HypotheticalEngine* engine,
                           const FanoutBase* base)
    : engine_(engine), base_(base) {}

void FanoutWorker::BuildPartition(ClaimId claim) {
  const ClaimMrf& mrf = *engine_->mrf_;
  const BeliefState& state = base_->state();
  const std::vector<double>& base_pm = base_->spin_pm();
  const size_t n = mrf.num_claims();
  const size_t scope_size = scope_->size();

  if (stamp_of_.size() != n) {
    stamp_of_.assign(n, 0);
    local_of_.assign(n, 0);
    stamp_ = 0;
  }
  ++stamp_;
  for (size_t i = 0; i < scope_size; ++i) {
    const ClaimId id = (*scope_)[i];
    local_of_[id] = static_cast<uint32_t>(i);
    stamp_of_[id] = stamp_;
  }

  local_spin_.resize(scope_size);
  final_prob_.resize(scope_size);
  sweep_local_.clear();
  candidate_local_ = local_of_[claim];
  for (size_t i = 0; i < scope_size; ++i) {
    const ClaimId id = (*scope_)[i];
    if (id != claim && !state.IsLabeled(id)) {
      sweep_local_.push_back(static_cast<uint32_t>(i));
    }
  }

  // Scope-local CSR with frozen terms: one full CSR walk per candidate,
  // partitioning each swept claim's couplings into dynamic ones (the
  // candidate or another swept claim — kept as local edges) and frozen
  // ones (out of scope, or labeled in scope — folded into a scalar against
  // the base/label spins, which the overlay chain never flips). The frozen
  // scalars are shared by both branches of the candidate.
  const size_t sweep_size = sweep_local_.size();
  sweep_field_.resize(sweep_size);
  sweep_frozen_.resize(sweep_size);
  sweep_rb_.resize(sweep_size);
  in_offsets_.resize(sweep_size + 1);
  in_offsets_[0] = 0;
  in_local_.clear();
  in_coupling_.clear();
  const size_t* offsets = mrf.offsets.data();
  const ClaimId* neighbors = mrf.neighbors.data();
  const double* couplings = mrf.couplings.data();
  for (size_t s = 0; s < sweep_size; ++s) {
    const ClaimId id = (*scope_)[sweep_local_[s]];
    sweep_field_[s] = mrf.field[id];
    double frozen = 0.0;
    const size_t row_end = offsets[id + 1];
    for (size_t k = offsets[id]; k < row_end; ++k) {
      const ClaimId nbr = neighbors[k];
      const bool dynamic = stamp_of_[nbr] == stamp_ &&
                           (nbr == claim || !state.IsLabeled(nbr));
      if (dynamic) {
        in_local_.push_back(local_of_[nbr]);
        in_coupling_.push_back(couplings[k]);
      } else {
        frozen += couplings[k] * base_pm[nbr];
      }
    }
    sweep_frozen_[s] = frozen;
    in_offsets_[s + 1] = in_local_.size();
  }
  partition_claim_ = claim;
}

Status FanoutWorker::Evaluate(ClaimId claim, int branch) {
  if (engine_ == nullptr || !engine_->bound()) {
    return Status::FailedPrecondition(
        "FanoutWorker::Evaluate: engine not bound; run inference first");
  }
  const size_t n = engine_->mrf_->num_claims();
  if (claim >= n) {
    return Status::InvalidArgument("FanoutWorker::Evaluate: claim out of range");
  }
  const FanoutOptions& options = base_->options();
  scope_ = &engine_->Neighborhood(claim);
  if (scope_->empty()) {
    return Status::FailedPrecondition(
        "FanoutWorker::Evaluate: empty neighborhood");
  }
  if (claim != partition_claim_) BuildPartition(claim);

  // Label overlay: spins start at the shared base configuration with the
  // candidate clamped to the hypothesized branch.
  const std::vector<double>& base_pm = base_->spin_pm();
  const size_t scope_size = scope_->size();
  for (size_t i = 0; i < scope_size; ++i) {
    local_spin_[i] = base_pm[(*scope_)[i]];
  }
  local_spin_[candidate_local_] = branch == 0 ? 1.0 : -1.0;

  const size_t sweep_size = sweep_local_.size();
  std::fill(sweep_rb_.begin(), sweep_rb_.end(), 0.0);
  Rng rng = CandidateRng(options.seed, claim, branch + options.rng_stream);
  const size_t total_sweeps = options.burn_in + options.num_samples;
  for (size_t sweep = 0; sweep < total_sweeps; ++sweep) {
    const bool sampling = sweep >= options.burn_in;
    for (size_t s = 0; s < sweep_size; ++s) {
      double t = sweep_frozen_[s];
      const size_t row_end = in_offsets_[s + 1];
      for (size_t k = in_offsets_[s]; k < row_end; ++k) {
        t += in_coupling_[k] * local_spin_[in_local_[k]];
      }
      const double p = Sigmoid(2.0 * (sweep_field_[s] + t));
      if (sampling) sweep_rb_[s] += p;
      local_spin_[sweep_local_[s]] = rng.Bernoulli(p) ? 1.0 : -1.0;
    }
  }

  // Assemble the scope view served by prob(): hypothetical label and real
  // labels at 0/1, swept claims at their Rao-Blackwell marginal.
  const BeliefState& state = base_->state();
  for (size_t i = 0; i < scope_size; ++i) {
    const ClaimId id = (*scope_)[i];
    final_prob_[i] = state.IsLabeled(id)
                         ? (state.label(id) == ClaimLabel::kCredible ? 1.0 : 0.0)
                         : state.prob(id);
  }
  final_prob_[candidate_local_] = branch == 0 ? 1.0 : 0.0;
  const double denom = static_cast<double>(options.num_samples);
  for (size_t s = 0; s < sweep_size; ++s) {
    final_prob_[sweep_local_[s]] = sweep_rb_[s] / denom;
  }
  return Status::OK();
}

Result<HypotheticalEngine::Evaluation> HypotheticalEngine::ResampleScoped(
    const BeliefState& state, const std::vector<ClaimId>* scope, Rng* rng,
    bool neutral_prior) const {
  if (!bound()) {
    return Status::FailedPrecondition(
        "HypotheticalEngine::ResampleScoped: engine not bound; run inference "
        "first");
  }
  const LabelOverride none{};
  Scratch* scratch = AcquireScratch();
  const Status status =
      RunKernel(state, scope, none, neutral_prior, rng, scratch);
  if (!status.ok()) {
    ReleaseScratch(scratch);
    return status;
  }
  return Evaluation(this, scratch, &scratch->probs);
}

}  // namespace veritas
