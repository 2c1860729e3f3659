// Experiment E12 — cost of the resource governor (DESIGN.md §11). The
// homomorphism search is the hottest governed loop: ExecGovernor::Tick()
// runs once per search step (a decrement-and-test, with the clock read
// and cancellation-flag load amortized over kStride = 1024 ticks). This
// benchmark measures that tax directly: the same search corpus is run
//
//   * ungoverned — a null governor (the default), and
//   * governed   — a live governor with a far-future deadline and an
//                  armed cancellation token, exactly what
//                  `floq ... --timeout-ms N` installs; it never trips,
//                  so every measured cycle is pure bookkeeping overhead.
//
// Per configuration the report records best-of-N wall times and the
// governed/ungoverned ratio; the headline number is the geometric mean
// of those ratios (target: < 1.02, i.e. under 2% overhead). Results go
// to BENCH_governor.json and stdout.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "containment/homomorphism.h"
#include "datalog/match.h"
#include "gen/generators.h"
#include "term/world.h"
#include "util/check.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace {

using namespace floq;

struct CorpusConfig {
  const char* name;
  int target_atoms;   // size of the random q1 whose chase is the target
  int target_pool;    // q1 variable pool (smaller => denser target)
  int probe_atoms;    // size of each probe body
  int probe_pool;     // probe variable pool (random probes only)
  bool subquery_probes;  // sample probes from the target's own body
  bool enumerate_all;    // count every match instead of stopping at one
  int probes;            // probes per pass
};

// The same axes as the E11 kernel grid: the governor tax is per search
// step, so the corpus spans short failing searches (tick count ~ probe
// size) through full enumerations (millions of ticks per pass) where the
// amortized clock read actually recurs.
constexpr CorpusConfig kCorpus[] = {
    {"random_sparse_first", 24, 10, 8, 5, false, false, 64},
    {"random_dense_first", 24, 6, 12, 4, false, false, 64},
    {"subquery_small_all", 24, 8, 5, 0, true, true, 24},
    {"subquery_mid_all", 48, 10, 7, 0, true, true, 16},
    {"subquery_wide_all", 96, 14, 7, 0, true, true, 12},
    {"subquery_deep_all", 64, 8, 9, 0, true, true, 8},
};

struct RunMetrics {
  double wall_ms = 0;  // best pass
  uint64_t nodes = 0;  // of one pass, for cross-variant agreement
  uint64_t found = 0;
};

struct Workload {
  World world;
  ChaseResult chase;
  std::vector<ConjunctiveQuery> probes;
};

// Fills a caller-owned Workload (World is neither copyable nor movable).
void MakeWorkload(const CorpusConfig& config, Workload& w) {
  gen::RandomQuerySpec target_spec;
  target_spec.seed = 977;
  target_spec.atoms = config.target_atoms;
  target_spec.variable_pool = config.target_pool;
  target_spec.constant_pool = 3;
  target_spec.constant_probability = 0.0;
  target_spec.arity = 0;
  target_spec.with_constraints = false;
  ConjunctiveQuery q1 = gen::MakeRandomQuery(w.world, target_spec, "target");
  w.chase = ChaseLevelZero(w.world, q1);

  Rng rng(4242);
  for (int t = 0; t < config.probes; ++t) {
    if (config.subquery_probes) {
      std::vector<Atom> body = q1.body();
      for (size_t i = body.size(); i > 1; --i) {
        std::swap(body[i - 1], body[rng.Below(i)]);
      }
      body.resize(size_t(config.probe_atoms));
      ConjunctiveQuery probe("probe", {}, std::move(body));
      w.probes.push_back(probe.RenameApart(w.world));
    } else {
      gen::RandomQuerySpec spec;
      spec.seed = uint64_t(t) * 131 + 17;
      spec.atoms = config.probe_atoms;
      spec.variable_pool = config.probe_pool;
      spec.constant_pool = 3;
      spec.constant_probability = 0.0;
      spec.arity = 0;
      spec.with_constraints = false;
      w.probes.push_back(
          gen::MakeRandomQuery(w.world, spec, "probe").RenameApart(w.world));
    }
  }
}

// One pass over every probe. When `governed`, a fresh governor with a
// far-future deadline and a live token is installed — the exact
// configuration `--timeout-ms` produces, minus any chance of tripping.
RunMetrics OnePass(const Workload& workload, const CorpusConfig& config,
                   bool governed, const CancellationToken& token) {
  ExecGovernor live(Deadline::AfterMillis(3'600'000), &token);
  ExecGovernor* governor = governed ? &live : nullptr;

  RunMetrics metrics;
  for (const ConjunctiveQuery& probe : workload.probes) {
    MatchStats stats;
    if (config.enumerate_all) {
      constexpr uint64_t kMatchCap = 20000;
      uint64_t matches = 0;
      MatchConjunction(
          probe.body(), workload.chase.conjuncts(), Substitution(),
          [&](const Substitution&) { return ++matches < kMatchCap; }, &stats,
          governor);
      metrics.found += matches;
    } else {
      if (FindQueryHomomorphism(probe, workload.chase.conjuncts(), {}, &stats,
                                governor)) {
        ++metrics.found;
      }
    }
    metrics.nodes += stats.nodes_visited;
  }
  return metrics;
}

RunMetrics TimedRun(const Workload& workload, const CorpusConfig& config,
                    bool governed, const CancellationToken& token) {
  OnePass(workload, config, governed, token);  // warm-up
  RunMetrics best;
  constexpr int kPasses = 9;
  for (int pass = 0; pass < kPasses; ++pass) {
    auto start = std::chrono::steady_clock::now();
    RunMetrics metrics = OnePass(workload, config, governed, token);
    auto stop = std::chrono::steady_clock::now();
    metrics.wall_ms =
        std::chrono::duration<double, std::milli>(stop - start).count();
    if (pass == 0 || metrics.wall_ms < best.wall_ms) best = metrics;
  }
  return best;
}

void WriteGovernorReport() {
  CancellationSource source;
  CancellationToken token = source.token();

  std::string json;
  json += "{\n  \"experiment\": \"governor_overhead\",\n";
  json += "  \"passes\": 9,\n  \"stride\": 1024,\n  \"configs\": [\n";

  double log_ratio_sum = 0;
  int config_count = 0;
  bool all_agree = true;

  for (const CorpusConfig& config : kCorpus) {
    Workload workload;
    MakeWorkload(config, workload);

    RunMetrics plain = TimedRun(workload, config, false, token);
    RunMetrics governed = TimedRun(workload, config, true, token);

    // A never-tripping governor must not change the search at all.
    bool agree = plain.found == governed.found && plain.nodes == governed.nodes;
    all_agree = all_agree && agree;
    double ratio = plain.wall_ms > 0 ? governed.wall_ms / plain.wall_ms : 1.0;
    log_ratio_sum += std::log(ratio);
    ++config_count;

    char buffer[512];
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"target_conjuncts\": %u, "
                  "\"probe_atoms\": %d, \"mode\": \"%s\", \"probes\": %d, "
                  "\"nodes_per_pass\": %llu,\n"
                  "      \"ungoverned_wall_ms\": %.3f, "
                  "\"governed_wall_ms\": %.3f, "
                  "\"overhead_ratio\": %.4f, \"verdicts_agree\": %s}",
                  config.name, workload.chase.size(), config.probe_atoms,
                  config.enumerate_all ? "all_matches" : "first_match",
                  config.probes, (unsigned long long)plain.nodes,
                  plain.wall_ms, governed.wall_ms, ratio,
                  agree ? "true" : "false");
    json += buffer;
    json += (&config == &kCorpus[std::size(kCorpus) - 1]) ? "\n" : ",\n";
  }

  double geomean = std::exp(log_ratio_sum / config_count);
  char buffer[256];
  std::snprintf(buffer, sizeof(buffer),
                "  ],\n  \"geomean_overhead_ratio\": %.4f,\n"
                "  \"target_ratio\": 1.02,\n"
                "  \"all_verdicts_agree\": %s\n}\n",
                geomean, all_agree ? "true" : "false");
  json += buffer;

  std::printf("== E12: governor overhead on the hom-search corpus ==\n%s\n",
              json.c_str());
  std::FILE* file = std::fopen("BENCH_governor.json", "w");
  FLOQ_CHECK(file != nullptr);
  std::fputs(json.c_str(), file);
  std::fclose(file);
  std::printf("(report written to BENCH_governor.json)\n\n");
}

// ---- google-benchmark timers ------------------------------------------------

void BM_GovernedHomSearch(benchmark::State& state) {
  const bool governed = state.range(0) != 0;
  const CorpusConfig& config = kCorpus[3];  // subquery_mid_all
  Workload workload;
  MakeWorkload(config, workload);
  CancellationSource source;
  CancellationToken token = source.token();
  for (auto _ : state) {
    RunMetrics metrics = OnePass(workload, config, governed, token);
    benchmark::DoNotOptimize(metrics.found);
  }
}
BENCHMARK(BM_GovernedHomSearch)
    ->ArgNames({"governed"})
    ->Args({0})
    ->Args({1});

}  // namespace

int main(int argc, char** argv) {
  WriteGovernorReport();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
