/// \file
/// Confirmation stage of the pipeline (grounding -> inference -> guidance ->
/// confirmation -> termination): the leave-one-out check of §5.2 that
/// audits past user input. Each validated claim is re-inferred from all
/// other information with frozen weights; a label the rest of the database
/// decisively contradicts is flagged for repair (re-elicitation). See
/// DESIGN.md §5.4 for the margin and neutral-prior refinements.

#ifndef VERITAS_CORE_CONFIRMATION_H_
#define VERITAS_CORE_CONFIRMATION_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/icrf.h"
#include "data/model.h"

namespace veritas {

/// Options of the lightweight confirmation check (§5.2). Never serialized:
/// validation.cc derives the seed from the session seed at each
/// confirmation pass, so the wire and checkpoint formats carry the source
/// value instead.
struct ConfirmationOptions {
  /// A label is flagged only when the re-inferred probability contradicts it
  /// by at least this margin beyond 0.5. The margin filters the Monte-Carlo
  /// noise of the sampled grounding: a mistaken label contradicts evidence
  /// and neighbors decisively, a correct one hovers near its label.
  double margin = 0.15;
  /// Independent re-inference repetitions averaged before thresholding.
  size_t repetitions = 2;
  /// Base seed of the per-claim random streams (CandidateRng): verdicts are
  /// independent of the order in which labels are audited.
  uint64_t seed = 29;
};

/// Leave-one-out confirmation check (§5.2): for every validated claim c,
/// re-infers its credibility from all other information (label of c removed,
/// weights frozen, via HypotheticalEngine::EvaluateHoldout) and flags c when
/// the re-inferred grounding disagrees with the user's input — the signature
/// of an accidental mis-validation. Returns the flagged claim ids.
Result<std::vector<ClaimId>> FindSuspiciousLabels(const ICrf& icrf,
                                                  const BeliefState& state,
                                                  const ConfirmationOptions& options);

}  // namespace veritas

#endif  // VERITAS_CORE_CONFIRMATION_H_
