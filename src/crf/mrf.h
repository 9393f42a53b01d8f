/// \file
/// Pairwise binary MRF reduction of the CRF (§3.1) with its flat-CSR
/// adjacency: `offsets`/`neighbors`/`couplings` arrays instead of nested
/// per-claim vectors, so the Gibbs sweep and the neighborhood BFS walk one
/// contiguous coupling array per claim (cache locality of the guidance hot
/// path, DESIGN.md §8).

#ifndef VERITAS_CRF_MRF_H_
#define VERITAS_CRF_MRF_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/model.h"

namespace veritas {

/// Pairwise binary Markov random field over claims, the reduced form of the
/// paper's CRF (§3.1) once source and document variables are observed:
///
///   log m(t) = sum_c field[c] * t_c + sum_{(c,c')} J_{cc'} * t_c * t_{c'}
///
/// with spins t_c in {-1, +1} (t_c = +1 meaning "credible"). `field[c]`
/// aggregates the stance-signed log-linear clique scores of claim c plus the
/// prior carried over from the previous EM iteration (the Pr^{l-1}(c) factor
/// of Eq. 6). Couplings J arise from cliques of a shared source: a source
/// taking stances sigma, sigma' on claims c, c' contributes
/// J += coupling * sigma * sigma' / (n_s - 1), which rewards configurations
/// in which the source is consistently right or consistently wrong — the
/// paper's indirect relation. This is an Ising model with external field,
/// matching the "Ising methods" the paper invokes for exact entropy (§4.1).
struct ClaimMrf {
  /// Per-claim external field (log-odds contribution of t_c = +1 vs -1 is
  /// 2 * field[c]).
  std::vector<double> field;

  /// Unique undirected edges (a < b) with coupling strength.
  struct Edge {
    ClaimId a;
    ClaimId b;
    double j;
  };
  std::vector<Edge> edges;

  /// Flat CSR adjacency mirroring `edges` in both directions: the neighbors
  /// of claim c are `neighbors[offsets[c] .. offsets[c + 1])` with matching
  /// coupling strengths in `couplings`. Per-claim neighbor order follows the
  /// order of `edges`, exactly as the former nested-vector layout did, so
  /// floating-point accumulation over a claim's neighbors is unchanged.
  std::vector<size_t> offsets;      ///< size num_claims() + 1 once built
  std::vector<ClaimId> neighbors;   ///< size 2 * edges.size()
  std::vector<double> couplings;    ///< coupling of the matching neighbor

  size_t num_claims() const { return field.size(); }

  /// True once RebuildAdjacency() has been run against the current fields.
  bool adjacency_built() const { return offsets.size() == field.size() + 1; }

  /// Number of coupling partners of claim c (requires adjacency_built()).
  size_t degree(ClaimId c) const { return offsets[c + 1] - offsets[c]; }

  /// Rebuilds the CSR arrays from `edges` (call after editing edges
  /// directly). Cost: two passes over the edge list.
  void RebuildAdjacency();
};

/// A full configuration assigns every claim a spin; stored as 0/1 values.
using SpinConfig = std::vector<uint8_t>;

/// Unnormalized log measure log m(t) of a configuration (labels included;
/// callers clamp labeled claims beforehand).
double LogMeasure(const ClaimMrf& mrf, const SpinConfig& config);

/// Exact quantities of the label-conditioned MRF: labeled claims are
/// clamped to their BeliefState value, and only labels are read (carried-
/// over probabilities of unlabeled claims play no part).
struct ExactInferenceResult {
  double log_partition = 0.0;
  std::vector<double> marginals;  ///< P(t_c = +1) per claim (labeled: 0/1)
  double entropy = 0.0;           ///< joint Shannon entropy (natural log)
};

/// Exact quantities by enumeration over the unlabeled claims. Errors with
/// FailedPrecondition when more than `max_free` claims are unlabeled
/// (default 2^20 states).
Result<ExactInferenceResult> ExactInference(const ClaimMrf& mrf,
                                            const BeliefState& state,
                                            size_t max_free = 20);

/// Sum-product belief propagation for acyclic (forest) MRFs: exact node
/// marginals, log partition function and joint entropy in linear time —
/// the polynomial-time exact path of Eq. 12. Errors with
/// FailedPrecondition when the (label-reduced) graph contains a cycle.
Result<ExactInferenceResult> TreeSumProduct(const ClaimMrf& mrf,
                                            const BeliefState& state);

/// The exact solve every exact consumer shares (the `dispatch` E-step and
/// the origin variant's entropy, DESIGN.md §13): TreeSumProduct first,
/// enumeration when the label-reduced graph is cyclic. Errors with
/// FailedPrecondition when the graph is cyclic and has more than
/// `max_free` unlabeled claims.
Result<ExactInferenceResult> SolveExact(const ClaimMrf& mrf,
                                        const BeliefState& state,
                                        size_t max_free = 20);

/// One connected component of an MRF as a self-contained problem: claim
/// `component[i]` becomes local claim i, with its field, its label or
/// carried-over probability, and the couplings among the members
/// (adjacency built). Marginals and entropy decompose over connected
/// components, so solving the component alone answers for its claims.
struct ComponentProblem {
  ClaimMrf mrf;
  BeliefState state;
};

ComponentProblem ExtractComponent(const ClaimMrf& mrf, const BeliefState& state,
                                  const std::vector<ClaimId>& component);

}  // namespace veritas

#endif  // VERITAS_CRF_MRF_H_
