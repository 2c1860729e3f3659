// Experiment E16 — accuracy of the static cost model
// (analysis/cost_model.h), whose consumers are the FLD201–203 lints and
// `floq analyze`. A registry of n small queries asks n(n-1) containment
// questions; the engine decides them with default options (jobs 1), and
// this bench prices every pair that survived the signature filter the
// way the model is meant to be used: ProfileTarget of the query's 2-level
// registration probe chase (engine.chase_of right after registration),
// ProfilePattern of the renamed right-hand side, and EstimatePairCost at
// the pair's Theorem 12 level. It emits a machine-checkable JSON report:
//
//   * rank_correlation — Spearman correlation between the predicted cost
//                        and the pair's measured search work (hom nodes +
//                        index probes), per registry; gate: >= 0.6 on the
//                        structured mix.
//   * wall_correlation — the same prediction against wall time
//                        (chase_ms + hom_ms); reported, not gated —
//                        sub-microsecond pairs make wall clocks noisy.
//
// The mixes mirror bench_containment_index (E14) so the cost model is
// exercised on the same populations the signature filter sees: a
// structured mix (chain probes + mandatory cycles, heterogeneous chase
// depth — where a cost prediction has something to rank), a
// predicate-diverse random mix, and a homogeneous adversarial mix whose
// pairs all cost about the same. Only the structured mix carries the
// correlation gate: the signature filter discharges nearly every
// predicate-diverse pair before it could be priced (priced_pairs ~ 0
// there is expected, and E14's job), and in the equal-cost adversarial
// mix rank order is meaningless by construction.
//
// FLOQ_BENCH_SMALL=1 in the environment shrinks the registries ~4x for
// CI smoke runs; the correlation gate still applies (the structured
// mix's cost spread is driven by chase depth, not registry size).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/cost_model.h"
#include "containment/engine.h"
#include "gen/generators.h"
#include "term/world.h"
#include "util/check.h"

namespace {

using namespace floq;

bool SmallMode() {
  const char* env = std::getenv("FLOQ_BENCH_SMALL");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

enum class Mix { kStructured, kPredicateDiverse, kAdversarial };

const char* MixName(Mix mix) {
  switch (mix) {
    case Mix::kStructured:
      return "structured_mixed_depth";
    case Mix::kPredicateDiverse:
      return "predicate_diverse";
    case Mix::kAdversarial:
      return "adversarial_homogeneous";
  }
  return "?";
}

// All queries are boolean so every ordered pair is checkable. The
// structured mix is half chain probes / mandatory cycles (wildly varying
// chase and search cost — exactly what a cost order can exploit), padded
// with cheap random queries; the other two mixes reuse the E14 recipes.
std::vector<ConjunctiveQuery> MakeRegistry(World& world, Mix mix, int n) {
  std::vector<ConjunctiveQuery> queries;
  queries.reserve(size_t(n));

  const int spine = mix == Mix::kStructured ? n / 2 : n / 50;
  for (int i = 0; i < spine; ++i) {
    if (i % 2 == 1) {
      queries.push_back(gen::MakeMandatoryCycleQuery(
          world, 1 + i % 3, "cycle" + std::to_string(i)));
    } else {
      queries.push_back(gen::MakeDataChainProbe(world, 1 + i % 6,
                                                "probe" + std::to_string(i)));
    }
  }

  gen::RandomQuerySpec spec;
  spec.arity = 0;
  spec.variable_pool = 4;
  switch (mix) {
    case Mix::kStructured:
      spec.atoms = 8;
      spec.constant_pool = 24;
      spec.constant_probability = 0.45;
      spec.with_constraints = false;
      break;
    case Mix::kPredicateDiverse:
      spec.atoms = 14;
      spec.constant_pool = 56;
      spec.constant_probability = 0.60;
      spec.with_constraints = true;
      break;
    case Mix::kAdversarial:
      spec.atoms = 6;
      spec.constant_pool = 4;
      spec.constant_probability = 0.30;
      spec.with_constraints = false;
      break;
  }
  for (int i = int(queries.size()); i < n; ++i) {
    spec.seed = uint64_t(9000 + 31 * i + int(mix));
    queries.push_back(
        gen::MakeRandomQuery(world, spec, "q" + std::to_string(i)));
  }
  return queries;
}

// Per-pair sample for the correlation metrics; only priced pairs
// (unpruned, search ran) participate.
struct PairSample {
  double predicted = 0;
  double work = 0;     // hom nodes + index probes (deterministic)
  double wall_ms = 0;  // chase_ms + hom_ms (noisy at microsecond scale)
};

struct RegistryRun {
  double wall_ms = 0;     // registration + CheckAll, pricing excluded
  double pricing_ms = 0;  // profiling every query + pricing every pair
  BatchStats stats;
  std::vector<PairSample> samples;
};

double MsBetween(std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point stop) {
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

RegistryRun RunRegistry(Mix mix, int n) {
  World world;
  std::vector<ConjunctiveQuery> queries = MakeRegistry(world, mix, n);

  BatchContainmentOptions options;
  options.jobs = 1;

  RegistryRun run;
  auto start = std::chrono::steady_clock::now();
  ContainmentEngine engine(world, options);
  for (const ConjunctiveQuery& q : queries) {
    auto id = engine.AddQuery(q);
    FLOQ_CHECK(id.ok());
  }
  auto registered = std::chrono::steady_clock::now();

  // Each query's profiles, taken where registration leaves them: the
  // target side from its probe chase (not yet deepened by any pair), the
  // pattern side from a renamed copy, the shape the hom search runs.
  std::vector<analysis::TargetProfile> targets;
  std::vector<analysis::PatternProfile> patterns;
  for (size_t i = 0; i < queries.size(); ++i) {
    const ChaseResult* probe = engine.chase_of(i);
    FLOQ_CHECK(probe != nullptr);
    targets.push_back(analysis::ProfileTarget(*probe));
    patterns.push_back(
        analysis::ProfilePattern(queries[i].RenameApart(world)));
  }
  auto profiled = std::chrono::steady_clock::now();

  auto sparse = engine.CheckAllSparse();
  auto stop = std::chrono::steady_clock::now();
  FLOQ_CHECK(sparse.ok());
  run.wall_ms = MsBetween(start, registered) + MsBetween(profiled, stop);
  run.stats = engine.stats();

  auto pricing_start = std::chrono::steady_clock::now();
  for (size_t s = 0; s < sparse->pairs.size(); ++s) {
    const auto [i, j] = sparse->pairs[s];
    const PairVerdict& v = sparse->verdicts[s];
    if (v.lhs_unsatisfiable) continue;
    const double work =
        double(v.hom_stats.nodes_visited) + double(v.hom_stats.index_probes);
    if (work <= 0) continue;
    const analysis::CostEstimate estimate = analysis::EstimatePairCost(
        targets[i], patterns[j], PaperLevelBound(queries[i], queries[j]),
        options.containment.max_chase_atoms);
    PairSample sample;
    sample.predicted = estimate.Scalar();
    if (sample.predicted <= 0) continue;
    sample.work = work;
    sample.wall_ms = v.chase_ms + v.hom_ms;
    run.samples.push_back(sample);
  }
  run.pricing_ms = MsBetween(registered, profiled) +
                   MsBetween(pricing_start, std::chrono::steady_clock::now());
  return run;
}

// Average ranks with midranks for ties, then Pearson on the ranks —
// standard Spearman.
std::vector<double> Ranks(const std::vector<double>& values) {
  const size_t n = values.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  std::vector<double> ranks(n, 0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    const double mid = 0.5 * double(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) ranks[order[k]] = mid;
    i = j + 1;
  }
  return ranks;
}

double Spearman(const std::vector<double>& x, const std::vector<double>& y) {
  const size_t n = x.size();
  if (n < 3 || y.size() != n) return 0;
  std::vector<double> rx = Ranks(x), ry = Ranks(y);
  double mx = 0, my = 0;
  for (size_t i = 0; i < n; ++i) {
    mx += rx[i];
    my += ry[i];
  }
  mx /= double(n);
  my /= double(n);
  double sxy = 0, sxx = 0, syy = 0;
  for (size_t i = 0; i < n; ++i) {
    sxy += (rx[i] - mx) * (ry[i] - my);
    sxx += (rx[i] - mx) * (rx[i] - mx);
    syy += (ry[i] - my) * (ry[i] - my);
  }
  if (sxx <= 0 || syy <= 0) return 0;
  return sxy / std::sqrt(sxx * syy);
}

void PrintReport() {
  const bool small = SmallMode();
  const int n = small ? 48 : 192;
  const Mix mixes[] = {Mix::kStructured, Mix::kPredicateDiverse,
                       Mix::kAdversarial};

  std::printf("{\n");
  std::printf("  \"experiment\": \"cost_model\",\n");
  std::printf("  \"small_mode\": %s,\n", small ? "true" : "false");
  std::printf("  \"queries_per_registry\": %d,\n", n);
  std::printf("  \"registries\": {\n");

  // See the file comment: only the structured mix carries the gate.
  double gated_correlation = 0.0;
  bool first = true;
  for (Mix mix : mixes) {
    const RegistryRun run = RunRegistry(mix, n);
    std::vector<double> predicted, work, wall;
    for (const PairSample& sample : run.samples) {
      predicted.push_back(sample.predicted);
      work.push_back(sample.work);
      wall.push_back(sample.wall_ms);
    }
    const double rank_correlation = Spearman(predicted, work);
    if (mix == Mix::kStructured) gated_correlation = rank_correlation;

    if (!first) std::printf(",\n");
    first = false;
    std::printf("    \"%s\": {\n", MixName(mix));
    std::printf("      \"priced_pairs\": %zu,\n", run.samples.size());
    std::printf("      \"wall_ms\": %.3f, \"pricing_ms\": %.3f, "
                "\"chases_run\": %llu, \"hom_nodes_visited\": %llu,\n",
                run.wall_ms, run.pricing_ms,
                (unsigned long long)run.stats.chases_run,
                (unsigned long long)run.stats.hom.nodes_visited);
    std::printf("      \"rank_correlation\": %.4f,\n", rank_correlation);
    std::printf("      \"wall_correlation\": %.4f\n",
                Spearman(predicted, wall));
    std::printf("    }");
  }
  std::printf("\n  },\n");

  std::printf("  \"gated_rank_correlation\": %.4f,\n", gated_correlation);
  std::printf("  \"gates\": {\"rank_correlation_min\": 0.60},\n");
  std::printf("  \"gates_pass\": %s\n",
              gated_correlation >= 0.60 ? "true" : "false");
  std::printf("}\n");
}

// Wall time of one structured-mix registry (engine plus pricing) for
// --benchmark_filter runs.
void BM_ClassifyStructured(benchmark::State& state) {
  const int n = SmallMode() ? 48 : 128;
  for (auto _ : state) {
    RegistryRun run = RunRegistry(Mix::kStructured, n);
    benchmark::DoNotOptimize(run.samples.size());
  }
}
BENCHMARK(BM_ClassifyStructured)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  PrintReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
