// Google-benchmark microbenchmarks of the inference kernels: Gibbs sweeps,
// TRON M-steps, entropy computation and PageRank. These quantify the
// linear-time claims of Props. 1-3 at the kernel level, plus the
// HypotheticalEngine claims of DESIGN.md §8: CSR vs. nested-vector
// adjacency locality, cached vs. recomputed neighborhoods, and pooled vs.
// fresh-allocation candidate evaluation.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include "common/math.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/icrf.h"
#include "crf/chromatic.h"
#include "crf/entropy.h"
#include "crf/gibbs.h"
#include "crf/hypothetical.h"
#include "crf/model.h"
#include "crf/partition.h"
#include "data/emulator.h"
#include "graph/centrality.h"
#include "graph/generator.h"
#include "optim/logistic.h"
#include "optim/tron.h"
#include "service/checkpoint.h"

namespace veritas {
namespace {

EmulatedCorpus MakeCorpus(size_t claims) {
  CorpusSpec spec;
  spec.name = "bench";
  spec.num_sources = claims * 2;
  spec.num_documents = claims * 5;
  spec.num_claims = claims;
  Rng rng(7);
  auto corpus = GenerateCorpus(spec, &rng);
  if (!corpus.ok()) std::abort();
  return std::move(corpus).value();
}

void BM_GibbsSweep(benchmark::State& state) {
  const EmulatedCorpus corpus = MakeCorpus(static_cast<size_t>(state.range(0)));
  CrfModel model = CrfModel::ForDatabase(corpus.db);
  CrfConfig config;
  const auto couplings = BuildSourceCouplings(corpus.db, config);
  std::vector<double> prev(corpus.db.num_claims(), 0.5);
  const ClaimMrf mrf = BuildClaimMrf(corpus.db, model, prev, couplings);
  BeliefState belief(corpus.db.num_claims());
  Rng rng(11);
  GibbsOptions options;
  options.burn_in = 0;
  options.num_samples = 10;
  for (auto _ : state) {
    auto samples = RunGibbs(mrf, belief, nullptr, nullptr, options, &rng);
    benchmark::DoNotOptimize(samples);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 10);
}
BENCHMARK(BM_GibbsSweep)->Arg(50)->Arg(200)->Arg(800);

ClaimMrf MakeBenchMrf(size_t claims) {
  const EmulatedCorpus corpus = MakeCorpus(claims);
  CrfModel model = CrfModel::ForDatabase(corpus.db);
  CrfConfig config;
  const auto couplings = BuildSourceCouplings(corpus.db, config);
  std::vector<double> prev(corpus.db.num_claims(), 0.5);
  return BuildClaimMrf(corpus.db, model, prev, couplings);
}

// Bare Gibbs sweeps over the flat-CSR adjacency vs. the pre-refactor
// nested vector<vector<pair>> layout: identical math and rng stream, only
// the memory layout differs. The gap is the locality win of DESIGN.md §8.
void BM_GibbsSweepCsrAdjacency(benchmark::State& state) {
  const ClaimMrf mrf = MakeBenchMrf(static_cast<size_t>(state.range(0)));
  const size_t n = mrf.num_claims();
  SpinConfig spins(n, 0);
  Rng rng(29);
  for (auto _ : state) {
    for (size_t c = 0; c < n; ++c) {
      double neighbor_term = 0.0;
      const size_t end = mrf.offsets[c + 1];
      for (size_t k = mrf.offsets[c]; k < end; ++k) {
        neighbor_term +=
            mrf.couplings[k] * (spins[mrf.neighbors[k]] != 0 ? 1.0 : -1.0);
      }
      spins[c] =
          rng.Bernoulli(Sigmoid(2.0 * (mrf.field[c] + neighbor_term))) ? 1 : 0;
    }
    benchmark::DoNotOptimize(spins.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GibbsSweepCsrAdjacency)->Arg(200)->Arg(800)->Arg(3200);

void BM_GibbsSweepNestedAdjacency(benchmark::State& state) {
  const ClaimMrf mrf = MakeBenchMrf(static_cast<size_t>(state.range(0)));
  const size_t n = mrf.num_claims();
  std::vector<std::vector<std::pair<ClaimId, double>>> adjacency(n);
  for (const auto& edge : mrf.edges) {
    adjacency[edge.a].emplace_back(edge.b, edge.j);
    adjacency[edge.b].emplace_back(edge.a, edge.j);
  }
  SpinConfig spins(n, 0);
  Rng rng(29);
  for (auto _ : state) {
    for (size_t c = 0; c < n; ++c) {
      double neighbor_term = 0.0;
      for (const auto& [nbr, j] : adjacency[c]) {
        neighbor_term += j * (spins[nbr] != 0 ? 1.0 : -1.0);
      }
      spins[c] =
          rng.Bernoulli(Sigmoid(2.0 * (mrf.field[c] + neighbor_term))) ? 1 : 0;
    }
    benchmark::DoNotOptimize(spins.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_GibbsSweepNestedAdjacency)->Arg(200)->Arg(800)->Arg(3200);

// Chromatic counter-based sweeps (DESIGN.md §12) at 1-8 worker threads.
// The draws are bit-identical at every thread count; the curve is the
// scaling of the color-class barriers (flat on a single-core host, where
// the win comes from the SoA spin layout instead).
void BM_ChromaticSweep(benchmark::State& state) {
  const ClaimMrf mrf = MakeBenchMrf(static_cast<size_t>(state.range(0)));
  const ChromaticSchedule schedule = BuildChromaticSchedule(mrf);
  BeliefState belief(mrf.num_claims());
  GibbsOptions options;
  options.burn_in = 0;
  options.num_samples = 10;
  const size_t threads = static_cast<size_t>(state.range(1));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  uint64_t draw_seed = 101;
  for (auto _ : state) {
    auto result = RunGibbsChromatic(mrf, belief, nullptr, nullptr, options,
                                    draw_seed++, schedule, pool.get());
    if (!result.ok()) std::abort();
    benchmark::DoNotOptimize(result.value().marginals.data());
  }
  state.counters["colors"] =
      benchmark::Counter(static_cast<double>(schedule.num_colors));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0) * 10);
}
BENCHMARK(BM_ChromaticSweep)
    ->Args({800, 1})
    ->Args({800, 2})
    ->Args({800, 4})
    ->Args({800, 8})
    ->Args({3200, 1})
    ->Args({3200, 4});

// Cached engine neighborhoods vs. a fresh BFS per lookup (what the five
// call sites used to do on every candidate evaluation).
void BM_NeighborhoodRecomputed(benchmark::State& state) {
  const ClaimMrf mrf = MakeBenchMrf(static_cast<size_t>(state.range(0)));
  const size_t n = mrf.num_claims();
  size_t total = 0;
  for (auto _ : state) {
    for (ClaimId c = 0; c < n; ++c) {
      total += CouplingNeighborhood(mrf, c, 2, 128).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_NeighborhoodRecomputed)->Arg(200)->Arg(800);

void BM_NeighborhoodCached(benchmark::State& state) {
  const ClaimMrf mrf = MakeBenchMrf(static_cast<size_t>(state.range(0)));
  const size_t n = mrf.num_claims();
  HypotheticalEngine engine;
  engine.Bind(&mrf, nullptr, GibbsOptions{}, /*structure_changed=*/true);
  size_t total = 0;
  for (auto _ : state) {
    for (ClaimId c = 0; c < n; ++c) {
      total += engine.Neighborhood(c).size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_NeighborhoodCached)->Arg(200)->Arg(800);

// Pooled EvaluateCandidate vs. the pre-refactor per-candidate plumbing
// (BeliefState copy + fresh sample buffers + probability-vector assembly).
void BM_EvaluateCandidatePooled(benchmark::State& state) {
  const ClaimMrf mrf = MakeBenchMrf(static_cast<size_t>(state.range(0)));
  const size_t n = mrf.num_claims();
  HypotheticalEngine engine;
  GibbsOptions gibbs{8, 24};
  engine.Bind(&mrf, nullptr, gibbs, /*structure_changed=*/true);
  BeliefState belief(n);
  HypotheticalOptions options;
  ClaimId c = 0;
  for (auto _ : state) {
    auto evaluation = engine.EvaluateCandidate(belief, c, 0, options);
    if (!evaluation.ok()) std::abort();
    benchmark::DoNotOptimize(evaluation.value().probs().data());
    c = (c + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateCandidatePooled)->Arg(200)->Arg(800);

void BM_EvaluateCandidateFresh(benchmark::State& state) {
  const ClaimMrf mrf = MakeBenchMrf(static_cast<size_t>(state.range(0)));
  const size_t n = mrf.num_claims();
  GibbsOptions gibbs{8, 24};
  BeliefState belief(n);
  HypotheticalOptions options;
  ClaimId c = 0;
  for (auto _ : state) {
    // The pre-refactor call-site plumbing, allocation for allocation:
    // BFS the neighborhood, copy the belief state, run RunGibbs (sample
    // set), average marginals, assemble the probability vector.
    const std::vector<ClaimId> hood =
        CouplingNeighborhood(mrf, c, kNeighborhoodRadius, kNeighborhoodCap);
    BeliefState hypo = belief;
    hypo.SetLabel(c, true);
    SpinConfig warm(n, 0);
    for (size_t i = 0; i < n; ++i) {
      warm[i] = hypo.prob(static_cast<ClaimId>(i)) >= 0.5 ? 1 : 0;
    }
    Rng rng = CandidateRng(options.seed, c, 0);
    auto samples = RunGibbs(mrf, hypo, &warm, &hood, gibbs, &rng);
    if (!samples.ok()) std::abort();
    const std::vector<double> marginals = samples.value().Marginals(hypo);
    std::vector<double> probs = hypo.probs();
    for (const ClaimId id : hood) {
      if (!hypo.IsLabeled(id)) probs[id] = marginals[id];
    }
    benchmark::DoNotOptimize(probs.data());
    c = (c + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EvaluateCandidateFresh)->Arg(200)->Arg(800);

// Batched fan-out overlay (DESIGN.md §12): one shared base resample per
// guidance step, then a FanoutWorker label-overlay chain per candidate.
// Compare per-candidate cost against BM_EvaluateCandidatePooled, which runs
// the full independent restricted Gibbs chain the overlay replaces.
void BM_BatchedCandidateFanout(benchmark::State& state) {
  const ClaimMrf mrf = MakeBenchMrf(static_cast<size_t>(state.range(0)));
  const size_t n = mrf.num_claims();
  HypotheticalEngine engine;
  engine.Bind(&mrf, nullptr, GibbsOptions{8, 24},
              /*structure_changed=*/true);
  BeliefState belief(n);
  auto base = engine.PrepareFanoutBase(belief, FanoutOptions{});
  if (!base.ok()) std::abort();
  FanoutWorker worker(&engine, &base.value());
  ClaimId c = 0;
  for (auto _ : state) {
    if (!worker.Evaluate(c, 0).ok()) std::abort();
    benchmark::DoNotOptimize(worker.prob(c));
    c = (c + 1) % n;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BatchedCandidateFanout)->Arg(200)->Arg(800);

void BM_TronMStep(benchmark::State& state) {
  const EmulatedCorpus corpus = MakeCorpus(static_cast<size_t>(state.range(0)));
  CrfModel model = CrfModel::ForDatabase(corpus.db);
  BeliefState belief(corpus.db.num_claims());
  std::vector<double> targets(corpus.db.num_claims());
  Rng rng(13);
  for (auto& t : targets) t = rng.Uniform();
  for (auto _ : state) {
    CrfModel fresh = model;
    auto report = FitCrfWeights(corpus.db, targets, belief, &fresh);
    benchmark::DoNotOptimize(report);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(corpus.db.num_cliques()));
}
BENCHMARK(BM_TronMStep)->Arg(50)->Arg(200);

void BM_ApproxEntropy(benchmark::State& state) {
  std::vector<double> probs(static_cast<size_t>(state.range(0)));
  Rng rng(17);
  for (auto& p : probs) p = rng.Uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApproxDatabaseEntropy(probs));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ApproxEntropy)->Arg(1000)->Arg(100000);

// Incremental marginal-entropy refresh (crf/entropy.h): a guidance step
// answers one claim and re-infers a small neighborhood, so only a handful
// of probabilities move bitwise. Compare against BM_ApproxEntropy, the full
// recompute the cache replaces.
void BM_IncrementalEntropy(benchmark::State& state) {
  std::vector<double> probs(static_cast<size_t>(state.range(0)));
  Rng rng(31);
  for (auto& p : probs) p = rng.Uniform();
  MarginalEntropyCache cache;
  cache.Refresh(probs, /*structure_epoch=*/1);
  const size_t stride = probs.size() / 8 + 1;
  size_t i = 0;
  for (auto _ : state) {
    for (size_t k = 0; k < 8; ++k) {
      probs[(i + k * stride) % probs.size()] = rng.Uniform();
    }
    cache.Refresh(probs, 1);
    benchmark::DoNotOptimize(cache.Total());
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_IncrementalEntropy)->Arg(1000)->Arg(100000);

void BM_PageRank(benchmark::State& state) {
  Rng rng(19);
  WebGraphOptions options;
  options.num_nodes = static_cast<size_t>(state.range(0));
  auto graph = GenerateWebGraph(options, &rng);
  if (!graph.ok()) std::abort();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PageRank(graph.value()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PageRank)->Arg(1000)->Arg(10000);

void BM_LogisticGradient(benchmark::State& state) {
  Rng rng(23);
  const size_t dim = 12;
  LogisticObjective objective(dim, 1.0);
  for (int64_t i = 0; i < state.range(0); ++i) {
    std::vector<double> x(dim);
    for (auto& v : x) v = rng.Uniform();
    objective.AddExample(x, rng.Uniform());
  }
  std::vector<double> w(dim, 0.1);
  std::vector<double> g;
  for (auto _ : state) {
    objective.Gradient(w, &g);
    benchmark::DoNotOptimize(g);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LogisticGradient)->Arg(1000)->Arg(10000);

// Session checkpointing (service/checkpoint.h): full save + load round trip
// of a warm batch session, the unit of work behind both explicit
// Checkpoint() calls and the SessionManager's LRU spill. The save includes
// the durable commit (fdatasync, rename, directory fsync). `bytes_per_ckpt`
// reports the on-disk size (the one file, session.bin, with the fact
// database inside).
void BM_CheckpointSaveRestore(benchmark::State& state) {
  const EmulatedCorpus corpus = MakeCorpus(static_cast<size_t>(state.range(0)));
  SessionSpec spec;
  spec.mode = SessionMode::kBatch;
  spec.validation.icrf.gibbs = GibbsOptions{5, 12};
  spec.validation.icrf.max_em_iterations = 2;
  spec.validation.guidance.variant = GuidanceVariant::kScalable;
  spec.validation.guidance.candidate_pool = 8;
  spec.validation.budget = 2;
  spec.user.kind = UserSpec::Kind::kOracle;
  auto session = Session::Create(corpus.db, spec);
  if (!session.ok()) std::abort();
  // Warm the session so the checkpoint carries a real posterior + trace.
  for (int i = 0; i < 2; ++i) {
    if (!session.value()->Advance().ok()) std::abort();
  }
  const std::string dir =
      std::filesystem::temp_directory_path() /
      ("veritas_bench_ckpt_" + std::to_string(state.range(0)));

  size_t bytes = 0;
  for (auto _ : state) {
    if (!SaveSessionCheckpoint(*session.value(), dir).ok()) std::abort();
    auto restored = LoadSessionCheckpoint(dir);
    if (!restored.ok()) std::abort();
    benchmark::DoNotOptimize(restored);
    if (bytes == 0) bytes = CheckpointSizeBytes(dir);
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  state.counters["bytes_per_ckpt"] =
      benchmark::Counter(static_cast<double>(bytes));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CheckpointSaveRestore)->Arg(50)->Arg(200)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace veritas

BENCHMARK_MAIN();
