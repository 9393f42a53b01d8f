// Newsroom stream: claims arrive continuously from a news crawl; the
// streaming fact checker (Algorithm 2, §7) keeps model parameters current
// with stochastic-approximation updates, and an editor periodically runs
// guided validation over the accumulated claims.
//
//   ./examples/newsroom_stream

#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "core/grounding.h"
#include "core/strategy.h"
#include "core/streaming.h"
#include "core/user_model.h"
#include "data/emulator.h"

using namespace veritas;

int main() {
  // A snopes-like emulated crawl, streamed in arrival order.
  CorpusSpec spec = Scaled(SnopesSpec(), 0.02);
  Rng rng(9);
  auto corpus = GenerateCorpus(spec, &rng);
  if (!corpus.ok()) {
    std::cerr << "corpus generation failed: " << corpus.status() << "\n";
    return 1;
  }
  const FactDatabase& crawl = corpus.value().db;
  std::cout << "Crawl: " << crawl.num_claims() << " claims from "
            << crawl.num_sources() << " sources will arrive over time\n\n";

  StreamingOptions options;
  options.seed = 17;
  StreamingFactChecker checker(options);
  for (size_t s = 0; s < crawl.num_sources(); ++s) {
    checker.AddSource(crawl.source(static_cast<SourceId>(s)));
  }
  for (size_t d = 0; d < crawl.num_documents(); ++d) {
    checker.AddDocument(crawl.document(static_cast<DocumentId>(d)));
  }

  OracleUser editor;
  TextTable table;
  table.SetHeader({"arrivals", "avg update (ms)", "editor labels",
                   "stream precision"});
  double update_seconds = 0.0;
  size_t editor_labels = 0;
  const size_t review_period = std::max<size_t>(1, crawl.num_claims() / 5);

  for (size_t c = 0; c < crawl.num_claims(); ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    std::vector<std::pair<DocumentId, Stance>> mentions;
    for (const size_t ci : crawl.ClaimCliques(id)) {
      mentions.emplace_back(crawl.clique(ci).document, crawl.clique(ci).stance);
    }
    auto stats = checker.OnClaimArrival(crawl.claim(id), mentions, true,
                                        crawl.ground_truth(id));
    if (!stats.ok()) {
      std::cerr << "arrival failed: " << stats.status() << "\n";
      return 1;
    }
    update_seconds += stats.value().update_seconds;

    // Editorial review after each batch of arrivals: sync the full model and
    // have the editor validate the two most uncertain claims.
    if ((c + 1) % review_period == 0) {
      if (!checker.SyncForValidation().ok()) return 1;
      GuidanceConfig guidance;
      guidance.seed = 23 + c;
      auto strategy = MakeStrategy(StrategyKind::kUncertainty, guidance);
      for (int review = 0; review < 2; ++review) {
        auto selected = strategy->Select(*checker.icrf(), checker.state());
        if (!selected.ok()) break;
        const bool verdict =
            editor.Validate(checker.db(), selected.value(), nullptr);
        checker.mutable_state()->SetLabel(selected.value(), verdict);
        ++editor_labels;
        if (!checker.icrf()->Infer(checker.mutable_state()).ok()) return 1;
      }
      // Precision of the current stream snapshot.
      const Grounding grounding = GroundingFromProbs(checker.state().probs());
      table.AddRow({std::to_string(c + 1),
                    FormatDouble(update_seconds / (c + 1) * 1e3, 2),
                    std::to_string(editor_labels),
                    FormatDouble(GroundingPrecision(grounding, checker.db()), 3)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nStreamed " << checker.arrivals() << " claims; editor labeled "
            << editor_labels << " of them ("
            << FormatPercent(static_cast<double>(editor_labels) /
                                 static_cast<double>(crawl.num_claims()),
                             1)
            << ")\n";
  return 0;
}
