#include "crf/solver.h"

#include "common/rng.h"
#include "crf/chromatic.h"
#include "graph/graph.h"

namespace veritas {
namespace {

/// Connected components of the coupling graph, indexed in first-seen claim-id
/// order; member lists are id-ascending by construction.
std::vector<std::vector<ClaimId>> ConnectedComponents(const ClaimMrf& mrf) {
  const size_t n = mrf.num_claims();
  UnionFind uf(n);
  for (const ClaimMrf::Edge& edge : mrf.edges) uf.Union(edge.a, edge.b);
  std::vector<std::vector<ClaimId>> members;
  std::vector<size_t> remap(n, SIZE_MAX);
  for (size_t c = 0; c < n; ++c) {
    const size_t root = uf.Find(c);
    if (remap[root] == SIZE_MAX) {
      remap[root] = members.size();
      members.emplace_back();
    }
    members[remap[root]].push_back(static_cast<ClaimId>(c));
  }
  return members;
}

/// Stream constant decorrelating per-component chromatic seeds from the
/// caller's draw_seed (arbitrary odd 64-bit salt).
constexpr uint64_t kDispatchSeedStream = 0x9e6b1a5d4f3c2b17ULL;

}  // namespace

const char* CrfBackendName(CrfBackend backend) { return EnumName(backend); }

Result<DispatchResult> DispatchMarginals(const ClaimMrf& mrf,
                                         const BeliefState& state,
                                         const GibbsOptions& gibbs,
                                         const SpinConfig* warm_start,
                                         uint64_t draw_seed, ThreadPool* pool) {
  const size_t n = mrf.num_claims();
  if (state.num_claims() != n) {
    return Status::InvalidArgument("DispatchMarginals: state size mismatch");
  }
  if (!mrf.adjacency_built()) {
    return Status::FailedPrecondition("DispatchMarginals: adjacency not built");
  }
  const std::vector<std::vector<ClaimId>> components = ConnectedComponents(mrf);
  DispatchResult result;
  result.marginals.resize(n);

  // Solve each component independently and scatter into disjoint slots of
  // the shared output. The per-component work is a deterministic function
  // of (mrf, state, draw_seed, component index) — the sampled fallback
  // draws from CounterUniform streams seeded per component — so the merged
  // marginals are bit-identical at any thread count and any completion
  // order.
  std::vector<Status> statuses(components.size(), Status::OK());
  std::vector<uint8_t> was_exact(components.size(), 1);
  auto solve_component = [&](size_t k) {
    const std::vector<ClaimId>& component = components[k];
    const ComponentProblem sub = ExtractComponent(mrf, state, component);
    auto exact = SolveExact(sub.mrf, sub.state, kDispatchMaxExactClaims);
    std::vector<double> marginals;
    if (exact.ok()) {
      marginals = std::move(exact.value().marginals);
    } else {
      // Cyclic and too large to enumerate: chromatic sampling over the
      // component's sub-MRF, warm-started from the caller's configuration.
      was_exact[k] = 0;
      SpinConfig warm;
      if (warm_start != nullptr && warm_start->size() == n) {
        warm.resize(component.size());
        for (size_t i = 0; i < component.size(); ++i) {
          warm[i] = (*warm_start)[component[i]];
        }
      }
      const ChromaticSchedule schedule = BuildChromaticSchedule(sub.mrf);
      auto sampled = RunGibbsChromatic(
          sub.mrf, sub.state, warm.empty() ? nullptr : &warm, nullptr, gibbs,
          CounterU64(draw_seed, kDispatchSeedStream, k), schedule, nullptr);
      if (!sampled.ok()) {
        statuses[k] = sampled.status();
        return;
      }
      marginals = std::move(sampled.value().marginals);
    }
    for (size_t i = 0; i < component.size(); ++i) {
      result.marginals[component[i]] = marginals[i];
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && components.size() > 1) {
    pool->ParallelFor(components.size(), solve_component);
  } else {
    for (size_t k = 0; k < components.size(); ++k) solve_component(k);
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  result.exact = true;
  for (const uint8_t exact : was_exact) {
    if (!exact) result.exact = false;
  }
  return result;
}

}  // namespace veritas
