// Crowd deployment: combine guided claim selection with a crowdsourcing
// back-end (§8.9). The guidance picks the claims whose validation helps the
// model most; each selected claim is answered by a small worker panel whose
// consensus (Dawid-Skene with reliability estimation) acts as the user input.
//
//   ./examples/crowd_deployment

#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "core/icrf.h"
#include "core/strategy.h"
#include "crowd/aggregation.h"
#include "crowd/worker.h"
#include "data/emulator.h"

using namespace veritas;

int main() {
  CorpusSpec spec = Scaled(WikipediaSpec(), 0.4);
  Rng rng(29);
  auto corpus = GenerateCorpus(spec, &rng);
  if (!corpus.ok()) {
    std::cerr << "corpus generation failed: " << corpus.status() << "\n";
    return 1;
  }
  const FactDatabase& db = corpus.value().db;

  // Crowd panel: five workers, unknown reliability (0.65-0.85).
  std::vector<WorkerModel> panel(5);
  Rng panel_rng(31);
  for (size_t w = 0; w < panel.size(); ++w) {
    panel[w].name = "worker-" + std::to_string(w);
    panel[w].accuracy = 0.65 + 0.2 * panel_rng.Uniform();
    panel[w].mean_seconds = 180.0;
  }

  ICrfOptions icrf_options;
  ICrf icrf(&db, icrf_options, 37);
  BeliefState state(db.num_claims());
  if (!icrf.Infer(&state).ok()) return 1;

  GuidanceConfig guidance;
  guidance.seed = 41;
  auto strategy =
      MakeStrategy(StrategyKind::kInfoGain, guidance, &ComputePool());

  TextTable table;
  table.SetHeader({"round", "claim", "consensus", "confidence", "correct",
                   "cost ($)"});
  const double per_hit_cost = 0.10;  // the paper's FigureEight incentive
  double total_cost = 0.0;
  size_t correct_consensus = 0;
  const size_t rounds = 15;
  Rng crowd_rng(43);

  for (size_t round = 1; round <= rounds; ++round) {
    auto selected = strategy->Select(icrf, state);
    if (!selected.ok()) break;
    const ClaimId claim = selected.value();

    // Deploy the claim to the panel and aggregate.
    const auto responses = CollectResponses(panel, {claim}, db, &crowd_rng);
    auto consensus = DawidSkene(responses, panel.size());
    if (!consensus.ok()) return 1;
    const bool answer = consensus.value().answers[0];
    const double confidence = consensus.value().confidences[0];
    total_cost += per_hit_cost * static_cast<double>(panel.size());

    // Feed the consensus into the model as user input.
    state.SetLabel(claim, answer);
    if (!icrf.Infer(&state).ok()) return 1;

    const bool correct = answer == db.ground_truth(claim);
    correct_consensus += correct ? 1 : 0;
    table.AddRow({std::to_string(round), db.claim(claim).text,
                  answer ? "credible" : "non-credible",
                  FormatDouble(confidence, 2), correct ? "yes" : "NO",
                  FormatDouble(total_cost, 2)});
  }
  table.Print(std::cout);

  const Grounding grounding = GroundingFromProbs(state.probs());
  std::cout << "\nConsensus accuracy: " << correct_consensus << "/" << rounds
            << "; knowledge-base precision after " << rounds
            << " crowd rounds: "
            << FormatDouble(GroundingPrecision(grounding, db), 3)
            << "; total crowd cost $" << FormatDouble(total_cost, 2) << "\n";
  return 0;
}
