#include "core/confirmation.h"

#include <algorithm>

namespace veritas {

Result<std::vector<ClaimId>> FindSuspiciousLabels(const ICrf& icrf,
                                                  const BeliefState& state,
                                                  const ConfirmationOptions& options) {
  if (!icrf.ready()) {
    return Status::FailedPrecondition("FindSuspiciousLabels: inference not run");
  }
  const HypotheticalEngine& engine = icrf.hypothetical();
  HypotheticalOptions hypothetical_options;
  hypothetical_options.seed = options.seed;
  // Neutral prior: the cached field still carries the prior of the very
  // label under scrutiny, which would anchor the re-inference to it
  // (DESIGN.md §5.4).
  hypothetical_options.neutral_prior = true;

  std::vector<ClaimId> suspicious;
  const size_t repetitions = std::max<size_t>(1, options.repetitions);
  for (const ClaimId c : state.LabeledClaims()) {
    const bool user_value = state.label(c) == ClaimLabel::kCredible;
    double reinferred = 0.0;
    for (size_t rep = 0; rep < repetitions; ++rep) {
      auto evaluation = engine.EvaluateHoldout(
          state, c, static_cast<int>(rep), hypothetical_options);
      if (!evaluation.ok()) return evaluation.status();
      reinferred += evaluation.value().probs()[c];
    }
    reinferred /= static_cast<double>(repetitions);
    const bool contradicts = user_value ? reinferred < 0.5 - options.margin
                                        : reinferred > 0.5 + options.margin;
    if (contradicts) suspicious.push_back(c);
  }
  return suspicious;
}

}  // namespace veritas
