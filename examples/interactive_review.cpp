// Interactive review: a terminal fact-checking session where YOU are the
// validator. The guidance engine picks the claim whose validation most
// reduces the database uncertainty, shows the evidence (sources, stances,
// current belief), and asks for a verdict. Uses the text-synthesis pipeline
// so each document has an actual snippet to read.
//
//   ./examples/interactive_review            # interactive (stdin)
//   ./examples/interactive_review --auto     # oracle answers (demo/CI mode)

#include <iostream>
#include <string>

#include "common/rng.h"
#include "common/table.h"
#include "core/grounding.h"
#include "core/icrf.h"
#include "core/strategy.h"
#include "core/user_model.h"
#include "data/emulator.h"

using namespace veritas;

int main(int argc, char** argv) {
  const bool auto_mode = argc > 1 && std::string(argv[1]) == "--auto";

  CorpusSpec spec = Scaled(WikipediaSpec(), 0.2);
  spec.synthesize_text = true;  // documents carry real (synthetic) snippets
  Rng rng(123);
  auto corpus = GenerateCorpus(spec, &rng);
  if (!corpus.ok()) {
    std::cerr << "corpus generation failed: " << corpus.status() << "\n";
    return 1;
  }
  const FactDatabase& db = corpus.value().db;
  std::cout << "veritas interactive review - " << db.num_claims()
            << " claims from " << db.num_sources() << " sources\n"
            << "answer y (credible) / n (non-credible) / q (quit)\n\n";

  ICrfOptions icrf_options;
  ICrf icrf(&db, icrf_options, 11);
  BeliefState state(db.num_claims());
  if (!icrf.Infer(&state).ok()) return 1;

  GuidanceConfig guidance;
  guidance.seed = 31;
  auto strategy =
      MakeStrategy(StrategyKind::kInfoGain, guidance, &ComputePool());
  OracleUser oracle;

  const size_t max_rounds = auto_mode ? 10 : db.num_claims();
  for (size_t round = 1; round <= max_rounds; ++round) {
    auto selected = strategy->Select(icrf, state);
    if (!selected.ok()) break;
    const ClaimId claim = selected.value();

    std::cout << "--- round " << round << " ---\n";
    std::cout << "claim: " << db.claim(claim).text << "\n";
    std::cout << "current belief: P(credible) = "
              << FormatDouble(state.prob(claim), 2) << "\n";
    size_t shown = 0;
    for (const size_t ci : db.ClaimCliques(claim)) {
      if (shown++ >= 3) break;
      const Clique& clique = db.clique(ci);
      std::cout << "  " << db.source(clique.source).name << " "
                << (clique.stance == Stance::kSupport ? "supports" : "refutes")
                << " it\n";
    }

    bool verdict;
    if (auto_mode) {
      verdict = oracle.Validate(db, claim, nullptr);
      std::cout << "verdict (auto): " << (verdict ? "y" : "n") << "\n";
    } else {
      std::cout << "your verdict [y/n/q]: " << std::flush;
      std::string line;
      if (!std::getline(std::cin, line) || line == "q") break;
      verdict = !line.empty() && (line[0] == 'y' || line[0] == 'Y');
    }
    state.SetLabel(claim, verdict);
    if (!icrf.Infer(&state).ok()) return 1;

    const Grounding grounding = GroundingFromSamples(icrf.last_samples(), state);
    std::cout << "knowledge base precision now "
              << FormatDouble(GroundingPrecision(grounding, db), 3) << " at "
              << FormatPercent(state.Effort(), 1) << " effort\n\n";
  }

  const Grounding grounding = GroundingFromSamples(icrf.last_samples(), state);
  std::cout << "session done: " << state.labeled_count() << " claims validated, "
            << "final precision "
            << FormatDouble(GroundingPrecision(grounding, db), 3) << "\n";
  return 0;
}
