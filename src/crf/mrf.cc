#include "crf/mrf.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>

#include "common/math.h"

namespace veritas {

void ClaimMrf::RebuildAdjacency() {
  const size_t n = field.size();
  offsets.assign(n + 1, 0);
  for (const Edge& edge : edges) {
    ++offsets[edge.a + 1];
    ++offsets[edge.b + 1];
  }
  for (size_t c = 0; c < n; ++c) offsets[c + 1] += offsets[c];
  neighbors.resize(edges.size() * 2);
  couplings.resize(edges.size() * 2);
  // Counting sort keyed on the endpoint: per-claim neighbor order equals the
  // edge-list order, matching the former nested-vector layout bit for bit.
  std::vector<size_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const Edge& edge : edges) {
    neighbors[cursor[edge.a]] = edge.b;
    couplings[cursor[edge.a]++] = edge.j;
    neighbors[cursor[edge.b]] = edge.a;
    couplings[cursor[edge.b]++] = edge.j;
  }
}

namespace {

inline double SpinOf(uint8_t value) { return value != 0 ? 1.0 : -1.0; }

}  // namespace

double LogMeasure(const ClaimMrf& mrf, const SpinConfig& config) {
  double log_m = 0.0;
  for (size_t c = 0; c < mrf.field.size(); ++c) {
    log_m += mrf.field[c] * SpinOf(config[c]);
  }
  for (const auto& edge : mrf.edges) {
    log_m += edge.j * SpinOf(config[edge.a]) * SpinOf(config[edge.b]);
  }
  return log_m;
}

Result<ExactInferenceResult> ExactInference(const ClaimMrf& mrf,
                                            const BeliefState& state,
                                            size_t max_free) {
  const size_t n = mrf.num_claims();
  if (state.num_claims() != n) {
    return Status::InvalidArgument("ExactInference: state size mismatch");
  }
  std::vector<size_t> free_claims;
  SpinConfig config(n, 0);
  for (size_t c = 0; c < n; ++c) {
    if (state.IsLabeled(static_cast<ClaimId>(c))) {
      config[c] = state.label(static_cast<ClaimId>(c)) == ClaimLabel::kCredible;
    } else {
      free_claims.push_back(c);
    }
  }
  if (free_claims.size() > max_free) {
    return Status::FailedPrecondition(
        "ExactInference: too many unlabeled claims for enumeration");
  }

  const size_t k = free_claims.size();
  const size_t num_configs = size_t{1} << k;
  std::vector<double> log_measures(num_configs);
  for (size_t mask = 0; mask < num_configs; ++mask) {
    for (size_t bit = 0; bit < k; ++bit) {
      config[free_claims[bit]] = (mask >> bit) & 1u;
    }
    log_measures[mask] = LogMeasure(mrf, config);
  }
  const double log_z = LogSumExp(log_measures);

  ExactInferenceResult result;
  result.log_partition = log_z;
  result.marginals.assign(n, 0.0);
  for (size_t c = 0; c < n; ++c) {
    if (state.IsLabeled(static_cast<ClaimId>(c))) {
      result.marginals[c] =
          state.label(static_cast<ClaimId>(c)) == ClaimLabel::kCredible ? 1.0 : 0.0;
    }
  }
  double expected_log_m = 0.0;
  for (size_t mask = 0; mask < num_configs; ++mask) {
    const double p = std::exp(log_measures[mask] - log_z);
    expected_log_m += p * log_measures[mask];
    for (size_t bit = 0; bit < k; ++bit) {
      if ((mask >> bit) & 1u) result.marginals[free_claims[bit]] += p;
    }
  }
  result.entropy = std::max(0.0, log_z - expected_log_m);
  return result;
}

namespace {

/// Reduced MRF over unlabeled claims: labeled spins folded into fields and a
/// constant; returns indices of the free claims and the reduction.
struct ReducedMrf {
  std::vector<size_t> free_claims;            // mrf index per reduced node
  std::vector<size_t> reduced_index;          // mrf index -> reduced (or SIZE_MAX)
  std::vector<double> field;                  // reduced fields
  std::vector<ClaimMrf::Edge> edges;          // reduced edges (ids are reduced)
  double constant = 0.0;                      // contribution of clamped spins
};

ReducedMrf Reduce(const ClaimMrf& mrf, const BeliefState& state) {
  ReducedMrf red;
  const size_t n = mrf.num_claims();
  red.reduced_index.assign(n, SIZE_MAX);
  std::vector<double> clamped_spin(n, 0.0);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (state.IsLabeled(id)) {
      clamped_spin[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : -1.0;
      red.constant += mrf.field[c] * clamped_spin[c];
    } else {
      red.reduced_index[c] = red.free_claims.size();
      red.free_claims.push_back(c);
      red.field.push_back(mrf.field[c]);
    }
  }
  for (const auto& edge : mrf.edges) {
    const bool a_free = red.reduced_index[edge.a] != SIZE_MAX;
    const bool b_free = red.reduced_index[edge.b] != SIZE_MAX;
    if (a_free && b_free) {
      red.edges.push_back({static_cast<ClaimId>(red.reduced_index[edge.a]),
                           static_cast<ClaimId>(red.reduced_index[edge.b]), edge.j});
    } else if (a_free) {
      red.field[red.reduced_index[edge.a]] += edge.j * clamped_spin[edge.b];
    } else if (b_free) {
      red.field[red.reduced_index[edge.b]] += edge.j * clamped_spin[edge.a];
    } else {
      red.constant += edge.j * clamped_spin[edge.a] * clamped_spin[edge.b];
    }
  }
  return red;
}

}  // namespace

Result<ExactInferenceResult> TreeSumProduct(const ClaimMrf& mrf,
                                            const BeliefState& state) {
  const size_t n = mrf.num_claims();
  if (state.num_claims() != n) {
    return Status::InvalidArgument("TreeSumProduct: state size mismatch");
  }
  const ReducedMrf red = Reduce(mrf, state);
  const size_t m = red.free_claims.size();

  // Adjacency with edge ids; detect cycles with union-find semantics.
  std::vector<std::vector<std::pair<size_t, size_t>>> adj(m);  // (neighbor, edge)
  {
    std::vector<size_t> parent(m);
    for (size_t i = 0; i < m; ++i) parent[i] = i;
    std::function<size_t(size_t)> find = [&](size_t x) {
      while (parent[x] != x) {
        parent[x] = parent[parent[x]];
        x = parent[x];
      }
      return x;
    };
    for (size_t e = 0; e < red.edges.size(); ++e) {
      const auto& edge = red.edges[e];
      const size_t ra = find(edge.a);
      const size_t rb = find(edge.b);
      if (ra == rb) {
        return Status::FailedPrecondition(
            "TreeSumProduct: graph contains a cycle; use Gibbs or enumeration");
      }
      parent[ra] = rb;
      adj[edge.a].emplace_back(edge.b, e);
      adj[edge.b].emplace_back(edge.a, e);
    }
  }

  // Log-domain messages per directed edge: message[2*e + dir][spin],
  // dir 0: a->b, dir 1: b->a; spin index 0: t=-1, 1: t=+1.
  std::vector<std::array<double, 2>> message(red.edges.size() * 2,
                                             {0.0, 0.0});
  std::vector<int> visited(m, 0);
  std::vector<size_t> order;  // BFS order per component, for upward pass
  order.reserve(m);
  std::vector<size_t> bfs_parent(m, SIZE_MAX);
  std::vector<size_t> bfs_parent_edge(m, SIZE_MAX);
  std::vector<size_t> roots;

  for (size_t start = 0; start < m; ++start) {
    if (visited[start]) continue;
    roots.push_back(start);
    std::vector<size_t> queue{start};
    visited[start] = 1;
    for (size_t head = 0; head < queue.size(); ++head) {
      const size_t u = queue[head];
      order.push_back(u);
      for (const auto& [v, e] : adj[u]) {
        if (visited[v]) continue;
        visited[v] = 1;
        bfs_parent[v] = u;
        bfs_parent_edge[v] = e;
        queue.push_back(v);
      }
    }
  }

  auto unary = [&](size_t u, int spin_index) {
    const double t = spin_index == 1 ? 1.0 : -1.0;
    return red.field[u] * t;
  };
  auto pairwise = [&](double j, int spin_u, int spin_v) {
    const double tu = spin_u == 1 ? 1.0 : -1.0;
    const double tv = spin_v == 1 ? 1.0 : -1.0;
    return j * tu * tv;
  };
  auto message_index = [&](size_t e, size_t from) {
    return 2 * e + (red.edges[e].a == from ? 0 : 1);
  };

  // Upward pass: children to parents, in reverse BFS order.
  for (size_t pos = order.size(); pos-- > 0;) {
    const size_t u = order[pos];
    if (bfs_parent[u] == SIZE_MAX) continue;
    const size_t e = bfs_parent_edge[u];
    const double j = red.edges[e].j;
    std::array<double, 2> out{};
    for (int spin_parent = 0; spin_parent < 2; ++spin_parent) {
      std::vector<double> terms;
      terms.reserve(2);
      for (int spin_u = 0; spin_u < 2; ++spin_u) {
        double value = unary(u, spin_u) + pairwise(j, spin_u, spin_parent);
        for (const auto& [w, ew] : adj[u]) {
          if (w == bfs_parent[u]) continue;
          value += message[message_index(ew, w)][spin_u];
        }
        terms.push_back(value);
      }
      out[spin_parent] = LogSumExp(terms);
    }
    message[message_index(e, u)] = out;
  }

  // Downward pass: parents to children, in BFS order.
  for (const size_t u : order) {
    for (const auto& [v, e] : adj[u]) {
      if (bfs_parent[v] != u) continue;  // only parent -> child
      const double j = red.edges[e].j;
      std::array<double, 2> out{};
      for (int spin_child = 0; spin_child < 2; ++spin_child) {
        std::vector<double> terms;
        terms.reserve(2);
        for (int spin_u = 0; spin_u < 2; ++spin_u) {
          double value = unary(u, spin_u) + pairwise(j, spin_u, spin_child);
          for (const auto& [w, ew] : adj[u]) {
            if (w == v) continue;
            value += message[message_index(ew, w)][spin_u];
          }
          terms.push_back(value);
        }
        out[spin_child] = LogSumExp(terms);
      }
      message[message_index(e, u)] = out;
    }
  }

  // Beliefs, logZ, expectations.
  ExactInferenceResult result;
  result.marginals.assign(n, 0.0);
  for (size_t c = 0; c < n; ++c) {
    const ClaimId id = static_cast<ClaimId>(c);
    if (state.IsLabeled(id)) {
      result.marginals[c] = state.label(id) == ClaimLabel::kCredible ? 1.0 : 0.0;
    }
  }

  std::vector<double> node_spin_expect(m, 0.0);
  double log_z_reduced = 0.0;
  std::vector<std::array<double, 2>> belief(m);
  for (size_t u = 0; u < m; ++u) {
    std::array<double, 2> b{};
    for (int spin = 0; spin < 2; ++spin) {
      double value = unary(u, spin);
      for (const auto& [w, ew] : adj[u]) {
        value += message[message_index(ew, w)][spin];
      }
      b[spin] = value;
    }
    const double norm = LogAddExp(b[0], b[1]);
    belief[u] = {b[0] - norm, b[1] - norm};
    const double p_plus = std::exp(belief[u][1]);
    result.marginals[red.free_claims[u]] = p_plus;
    node_spin_expect[u] = 2.0 * p_plus - 1.0;
  }
  // logZ of the reduced model: evaluate at each component root.
  for (const size_t root : roots) {
    std::array<double, 2> b{};
    for (int spin = 0; spin < 2; ++spin) {
      double value = unary(root, spin);
      for (const auto& [w, ew] : adj[root]) {
        value += message[message_index(ew, w)][spin];
      }
      b[spin] = value;
    }
    log_z_reduced += LogAddExp(b[0], b[1]);
  }
  result.log_partition = log_z_reduced + red.constant;

  // Edge expectations E[t_u t_v] from edge beliefs.
  double energy = 0.0;
  for (size_t u = 0; u < m; ++u) energy += red.field[u] * node_spin_expect[u];
  for (size_t e = 0; e < red.edges.size(); ++e) {
    const auto& edge = red.edges[e];
    const size_t u = edge.a;
    const size_t v = edge.b;
    std::array<std::array<double, 2>, 2> joint{};
    std::vector<double> flat;
    flat.reserve(4);
    for (int su = 0; su < 2; ++su) {
      for (int sv = 0; sv < 2; ++sv) {
        double value = unary(u, su) + unary(v, sv) + pairwise(edge.j, su, sv);
        for (const auto& [w, ew] : adj[u]) {
          if (w == v) continue;
          value += message[message_index(ew, w)][su];
        }
        for (const auto& [w, ew] : adj[v]) {
          if (w == u) continue;
          value += message[message_index(ew, w)][sv];
        }
        joint[su][sv] = value;
        flat.push_back(value);
      }
    }
    const double norm = LogSumExp(flat);
    double expect = 0.0;
    for (int su = 0; su < 2; ++su) {
      for (int sv = 0; sv < 2; ++sv) {
        const double p = std::exp(joint[su][sv] - norm);
        const double tu = su == 1 ? 1.0 : -1.0;
        const double tv = sv == 1 ? 1.0 : -1.0;
        expect += p * tu * tv;
      }
    }
    energy += edge.j * expect;
  }
  result.entropy = std::max(0.0, log_z_reduced - energy);
  return result;
}

Result<ExactInferenceResult> SolveExact(const ClaimMrf& mrf,
                                        const BeliefState& state,
                                        size_t max_free) {
  auto tree = TreeSumProduct(mrf, state);
  if (tree.ok()) return tree;
  return ExactInference(mrf, state, max_free);
}

ComponentProblem ExtractComponent(const ClaimMrf& mrf, const BeliefState& state,
                                  const std::vector<ClaimId>& component) {
  const size_t m = component.size();
  std::vector<size_t> local_index(mrf.num_claims(), SIZE_MAX);
  ComponentProblem sub{ClaimMrf{}, BeliefState(m)};
  sub.mrf.field.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const ClaimId id = component[i];
    local_index[id] = i;
    sub.mrf.field[i] = mrf.field[id];
    if (state.IsLabeled(id)) {
      sub.state.SetLabel(static_cast<ClaimId>(i),
                         state.label(id) == ClaimLabel::kCredible);
    } else {
      sub.state.set_prob(static_cast<ClaimId>(i), state.prob(id));
    }
  }
  for (const ClaimMrf::Edge& edge : mrf.edges) {
    const size_t a = local_index[edge.a];
    const size_t b = local_index[edge.b];
    if (a == SIZE_MAX || b == SIZE_MAX) continue;
    sub.mrf.edges.push_back(
        {static_cast<ClaimId>(a), static_cast<ClaimId>(b), edge.j});
  }
  sub.mrf.RebuildAdjacency();
  return sub;
}

}  // namespace veritas
