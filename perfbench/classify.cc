// classify_batch: one ClassifyQueries call with default options (jobs = 0,
// signature index on) over ~1000 boolean meta-queries, repeated for the
// run length. About a tenth of the n(n-1) ordered pairs survive the
// signature filter, so chase deepening, homomorphism search and the
// engine fan-out all do real work while no server layer runs.

#include <memory>

#include "containment/classifier.h"
#include "containment/engine.h"
#include "generate.h"
#include "measure.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {
namespace {

using floq::BatchContainmentOptions;
using floq::ConjunctiveQuery;
using floq::QueryTaxonomy;
using floq::World;

bool SameTaxonomy(const QueryTaxonomy& a, const QueryTaxonomy& b) {
  return a.class_of == b.class_of && a.hasse_edges == b.hasse_edges;
}

bool TaxonomyContains(const QueryTaxonomy& t, size_t lhs, size_t rhs) {
  const int a = t.class_of[lhs];
  const int b = t.class_of[rhs];
  return a == b || t.contains[size_t(a)][size_t(b)];
}

// Re-decides a seeded sample of pairs with one-shot CheckContainment:
// half drawn uniformly, half from the pairs the taxonomy says are
// contained, so both verdicts are exercised.
void CheckSample(Report& report, World& world,
                 const std::vector<ConjunctiveQuery>& queries,
                 const QueryTaxonomy& taxonomy, uint64_t seed, int samples) {
  floq::Rng rng(seed ^ 0x5eed);
  std::vector<std::pair<size_t, size_t>> contained;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (size_t j = 0; j < queries.size(); ++j) {
      if (i != j && TaxonomyContains(taxonomy, i, j)) {
        contained.emplace_back(i, j);
      }
    }
  }
  for (int k = 0; k < samples; ++k) {
    size_t i = 0, j = 0;
    if (k % 2 == 1 && !contained.empty()) {
      std::tie(i, j) = contained[rng.Below(contained.size())];
    } else {
      i = rng.Below(queries.size());
      j = (i + 1 + rng.Below(queries.size() - 1)) % queries.size();
    }
    ++report.attempted;
    floq::Result<floq::ContainmentResult> verdict =
        floq::CheckContainment(world, queries[i], queries[j]);
    if (!verdict.ok() ||
        verdict->resolution == floq::Resolution::kUnknown) {
      report.Fail("one-shot check failed");
    } else if (verdict->contained != TaxonomyContains(taxonomy, i, j)) {
      report.Fail("classify verdict differs from CheckContainment for " +
                  queries[i].name() + " vs " + queries[j].name());
    }
  }
}

constexpr int kSampledPairs = 200;
constexpr int kSetups = 10;

}  // namespace

Report RunClassify(const RunOptions& options) {
  Report report;
  std::vector<double> setup_ms, call_ms;
  std::unique_ptr<World> world;
  std::vector<ConjunctiveQuery> queries;
  QueryTaxonomy first, last;
  // Set-up: generating the inputs, back to back, several times.
  for (int i = 0; i < kSetups; ++i) {
    const double t0 = NowMs();
    world = std::make_unique<World>();
    queries = MakeClassifyQueries(*world, options.seed);
    setup_ms.push_back(NowMs() - t0);
  }
  const double start = NowMs();
  do {
    // Fresh inputs in a fresh World for every call (untimed), so each call
    // renames and chases from the same state.
    if (!call_ms.empty()) {
      world = std::make_unique<World>();
      queries = MakeClassifyQueries(*world, options.seed);
    }
    const double t1 = NowMs();
    floq::Result<QueryTaxonomy> taxonomy =
        floq::ClassifyQueries(*world, queries, BatchContainmentOptions{});
    call_ms.push_back(NowMs() - t1);
    ++report.attempted;
    if (!taxonomy.ok() || taxonomy->unknown_checks > 0) {
      report.Fail("ClassifyQueries failed or returned UNKNOWN pairs");
      continue;
    }
    if (call_ms.size() == 1) first = *taxonomy;
    if (!SameTaxonomy(first, *taxonomy)) {
      report.Fail("ClassifyQueries is not deterministic across calls");
    }
    last = *std::move(taxonomy);
  } while (NowMs() - start < options.seconds * 1000.0);

  if (!last.class_of.empty()) {
    CheckSample(report, *world, queries, last, options.seed, kSampledPairs);
  }

  const double n = double(queries.size());
  const double pairs_per_s = n * (n - 1) / (Median(call_ms) / 1000.0);
  report.Set("setup_s", Median(setup_ms) / 1000.0, "s",
             "median of " + std::to_string(setup_ms.size()));
  report.Set("classify_pairs_per_s", pairs_per_s, "ordered pairs/s",
             "n=" + std::to_string(queries.size()) + ", median of " +
                 std::to_string(call_ms.size()) + " calls");
  report.Set("peak_rss_mb", PeakRssMb(), "MB", "benchmark process");
  report.Set("ops_per_s", pairs_per_s, "1/s", "= classify_pairs_per_s");
  report.Set("op_latency_ms", Median(call_ms), "ms",
             "median ClassifyQueries call");
  return report;
}

namespace {

struct ClassifyReplay {
  double wall_ms = 0.0;
  double add_query_ms = 0.0;
  double check_all_ms = 0.0;
  floq::BatchStats stats;
  uint64_t contained_searched = 0;
  QueryTaxonomy taxonomy;
};

// What ClassifyQueries does, call by call, with a span around each call
// into the engine. The engine's own stage accounting (BatchStats) splits
// the CheckAll span into signature, chase and homomorphism children.
ClassifyReplay ReplayClassify(Tracer& tracer, World& world,
                              const std::vector<ConjunctiveQuery>& queries) {
  ClassifyReplay out;
  const int workers = int(floq::ThreadPool::DefaultThreads());
  const double start = tracer.Now();
  auto engine = std::make_unique<floq::ContainmentEngine>(
      world, BatchContainmentOptions{});
  for (size_t i = 0; i < queries.size(); ++i) {
    const double t0 = tracer.Now();
    ScopedSpan span(tracer, "containment.engine.add_query", Layer::kEngine,
                    uint32_t(i));
    FLOQ_CHECK(engine->AddQuery(queries[i]).ok());
    out.add_query_ms += tracer.Now() - t0;
  }
  const int32_t check = tracer.Begin("containment.engine.check_all",
                                     Layer::kEngine, uint32_t(queries.size()));
  const double t0 = tracer.Now();
  auto matrix = engine->CheckAll();
  out.check_all_ms = tracer.Now() - t0;
  tracer.End(check);
  FLOQ_CHECK(matrix.ok());
  std::vector<std::vector<floq::PairVerdict>> verdicts = *std::move(matrix);
  out.stats = engine->stats();
  tracer.AddMeasured(check, "containment.signature.filter", Layer::kSignature,
                     out.stats.signature_us / 1000.0);
  tracer.AddMeasured(check, "chase.stage", Layer::kChase,
                     out.stats.chase_stage.total_ms);
  tracer.AddMeasured(check, "containment.hom.search", Layer::kHom,
                     out.stats.hom_stage.total_ms / workers);
  {
    ScopedSpan span(tracer, "containment.classifier.taxonomy", Layer::kEngine,
                    uint32_t(queries.size()));
    const size_t n = queries.size();
    std::vector<std::vector<bool>> contained(n, std::vector<bool>(n, false));
    for (size_t i = 0; i < n; ++i) {
      contained[i][i] = true;
      for (size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const floq::PairVerdict& v = verdicts[i][j];
        contained[i][j] = v.contained;
        if (v.contained && !v.pruned) ++out.contained_searched;
      }
    }
    out.taxonomy = floq::TaxonomyFromContainment(
        contained, int(out.stats.pairs_checked - out.stats.pruned_pairs), 0,
        int(out.stats.pruned_pairs));
  }
  {
    ScopedSpan span(tracer, "containment.engine.release", Layer::kEngine,
                    uint32_t(queries.size()));
    std::vector<std::vector<floq::PairVerdict>>().swap(verdicts);
    engine.reset();
  }
  out.wall_ms = tracer.Now() - start;
  return out;
}

}  // namespace

Report TraceClassify(const RunOptions& options) {
  Report report;
  Tracer untraced(false);
  World world_a;
  std::vector<ConjunctiveQuery> queries_a =
      MakeClassifyQueries(world_a, options.seed);
  const ClassifyReplay plain = ReplayClassify(untraced, world_a, queries_a);

  Tracer tracer(true);
  World world;
  std::vector<ConjunctiveQuery> queries =
      MakeClassifyQueries(world, options.seed);
  const ClassifyReplay traced = ReplayClassify(tracer, world, queries);
  report.attempted = 2;
  if (!SameTaxonomy(plain.taxonomy, traced.taxonomy)) {
    report.Fail("traced and untraced replays disagree");
  }
  CheckSample(report, world, queries, traced.taxonomy, options.seed,
              kSampledPairs / 2);

  const floq::BatchStats& s = traced.stats;
  const int workers = int(floq::ThreadPool::DefaultThreads());
  const double searched = double(s.pairs_checked - s.pruned_pairs);
  report.Set("containment.engine.queue_wait_ms", s.queue_wait.total_ms, "ms");
  report.Set("containment.engine.unattributed_ms",
             EngineUnattributedMs(traced.check_all_ms, s.signature_us / 1000.0,
                                  s.chase_stage.total_ms, s.hom_stage.total_ms,
                                  workers),
             "ms", "CheckAll wall " + std::to_string(traced.check_all_ms) +
                       " ms, workers=" + std::to_string(workers));
  report.Set("containment.engine.add_query_ms", traced.add_query_ms, "ms");
  report.Set("containment.signature.ms", s.signature_us / 1000.0, "ms");
  report.Set("containment.signature.prune_ratio",
             double(s.pruned_pairs) / double(s.pairs_checked), "ratio",
             std::to_string(s.pruned_pairs) + " of " +
                 std::to_string(s.pairs_checked) + " pairs");
  report.Set("chase.stage_ms", s.chase_stage.total_ms, "ms");
  report.Set("chase.runs", double(s.chases_run), "count");
  report.Set("chase.deepenings", double(s.chase_deepenings), "count");
  report.Set("chase.cache_hit_rate",
             s.chase_requests == 0
                 ? 0.0
                 : double(s.chase_cache_hits) / double(s.chase_requests),
             "ratio");
  report.Set("containment.hom.busy_ms", s.hom_stage.total_ms, "ms");
  report.Set("containment.hom.nodes_visited", double(s.hom.nodes_visited),
             "count");
  report.Set("containment.hom.contained_ratio",
             searched == 0 ? 0.0 : double(traced.contained_searched) / searched,
             "ratio");
  SetAttribution(report, tracer, traced.wall_ms, plain.wall_ms);
  report.spans = tracer.spans();
  return report;
}

}  // namespace perfbench
