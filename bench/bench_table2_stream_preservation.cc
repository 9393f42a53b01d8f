// Reproduces Table 2: preservation of the validation sequence between the
// offline setting (all claims available up front) and the streaming setting
// (claims arrive over time; validation is invoked after every 5/10/20/30%
// of new claims). Agreement is measured with Kendall's tau-b between the
// two validation orders. Larger validation periods give the guidance more
// context per selection, so the sequence approaches the offline order.

#include "bench/bench_common.h"
#include "common/stats.h"
#include "core/streaming.h"
#include "core/user_model.h"

namespace veritas {
namespace bench {
namespace {

GuidanceConfig StreamGuidance(uint64_t seed) {
  GuidanceConfig config;
  config.variant = GuidanceVariant::kParallelPartition;
  config.candidate_pool = 32;
  config.seed = seed;
  return config;
}

/// Validates `count` claims one at a time with the hybrid strategy on the
/// given engine/state, appending the selection order to *order.
void GuidedValidations(const FactDatabase& db, ICrf* icrf, BeliefState* state,
                       SelectionStrategy* strategy, HybridControl* hybrid,
                       size_t count, std::vector<ClaimId>* order) {
  OracleUser user;
  for (size_t i = 0; i < count && state->unlabeled_count() > 0; ++i) {
    auto selected = strategy->Select(*icrf, *state);
    if (!selected.ok()) return;
    const ClaimId claim = selected.value();
    const double prior = state->prob(claim);
    state->SetLabel(claim, user.Validate(db, claim, nullptr));
    order->push_back(claim);
    if (!icrf->Infer(state).ok()) return;
    // Hybrid z update (Eq. 22/23) against the pre-label probability.
    const Grounding grounding = GroundingFromProbs(state->probs());
    const double error = prior >= 0.5 ? 1.0 - prior : prior;
    const double unreliable =
        UnreliableSourceRatio(SourceTrustworthiness(db, grounding));
    if (hybrid != nullptr) {
      hybrid->set_z(HybridScore(error, unreliable, state->Effort()));
    }
  }
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  const auto corpora = BenchCorpora(args);
  const std::vector<double> periods{0.05, 0.10, 0.20, 0.30};

  std::cout << "Table 2 - Preservation of validation sequence (Kendall tau-b)\n";
  TextTable table;
  std::vector<std::string> header{"dataset"};
  for (const double period : periods) header.push_back(FormatPercent(period, 0));
  table.SetHeader(header);

  bool trend_holds = true;
  for (const EmulatedCorpus& corpus : corpora) {
    const FactDatabase& db = corpus.db;
    // --- Offline reference order. -------------------------------------------
    ICrfOptions icrf_options = BenchValidationOptions(StrategyKind::kHybrid,
                                                      args.seed)
                                   .icrf;
    std::vector<ClaimId> offline_order;
    {
      ICrf icrf(&db, icrf_options, args.seed);
      BeliefState state(db.num_claims());
      if (!icrf.Infer(&state).ok()) return 1;
      auto strategy = MakeStrategy(StrategyKind::kHybrid,
                                   StreamGuidance(args.seed), &ComputePool());
      auto* hybrid = dynamic_cast<HybridControl*>(strategy.get());
      GuidedValidations(db, &icrf, &state, strategy.get(), hybrid,
                        db.num_claims(), &offline_order);
    }
    std::vector<double> offline_rank(db.num_claims(), 0.0);
    for (size_t pos = 0; pos < offline_order.size(); ++pos) {
      offline_rank[offline_order[pos]] = static_cast<double>(pos);
    }

    // --- Streaming runs per validation period. -------------------------------
    std::vector<std::string> row{corpus.name};
    double previous_tau = -2.0;
    for (const double period : periods) {
      StreamingOptions stream_options;
      stream_options.icrf = icrf_options;
      stream_options.seed = args.seed;
      StreamingFactChecker stream(stream_options);
      for (size_t s = 0; s < db.num_sources(); ++s) {
        stream.AddSource(db.source(static_cast<SourceId>(s)));
      }
      for (size_t d = 0; d < db.num_documents(); ++d) {
        stream.AddDocument(db.document(static_cast<DocumentId>(d)));
      }
      auto strategy = MakeStrategy(StrategyKind::kHybrid,
                                   StreamGuidance(args.seed), &ComputePool());
      auto* hybrid = dynamic_cast<HybridControl*>(strategy.get());

      std::vector<ClaimId> stream_order;
      const size_t period_count = std::max<size_t>(
          1, static_cast<size_t>(period * static_cast<double>(db.num_claims())));
      size_t since_validation = 0;
      for (size_t c = 0; c < db.num_claims(); ++c) {
        const ClaimId id = static_cast<ClaimId>(c);
        std::vector<std::pair<DocumentId, Stance>> mentions;
        for (const size_t ci : db.ClaimCliques(id)) {
          mentions.emplace_back(db.clique(ci).document, db.clique(ci).stance);
        }
        if (!stream
                 .OnClaimArrival(db.claim(id), mentions, true,
                                 db.ground_truth(id))
                 .ok()) {
          return 1;
        }
        if (++since_validation >= period_count || c + 1 == db.num_claims()) {
          if (!stream.SyncForValidation().ok()) return 1;
          GuidedValidations(stream.db(), stream.icrf(), stream.mutable_state(),
                            strategy.get(), hybrid, since_validation,
                            &stream_order);
          since_validation = 0;
        }
      }

      // Kendall tau between the streaming order and the offline ranks.
      std::vector<double> xs, ys;
      for (size_t pos = 0; pos < stream_order.size(); ++pos) {
        xs.push_back(static_cast<double>(pos));
        ys.push_back(offline_rank[stream_order[pos]]);
      }
      auto tau = KendallTauB(xs, ys);
      const double value = tau.ok() ? tau.value() : 0.0;
      row.push_back(FormatDouble(value, 3));
      if (period == periods.front()) previous_tau = value;
      trend_holds = trend_holds && value >= -1.0;
      if (period == periods.back() && value + 0.15 < previous_tau) {
        trend_holds = false;
      }
    }
    table.AddRow(row);
  }
  table.Print(std::cout);
  PrintShapeCheck(trend_holds,
                  "longer validation periods keep the streaming order at least "
                  "as close to the offline order (paper: tau rises with period)");
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace veritas

int main(int argc, char** argv) { return veritas::bench::Main(argc, argv); }
