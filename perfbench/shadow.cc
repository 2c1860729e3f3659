#include "shadow.h"

#include <string_view>

#include "containment/signature.h"
#include "flogic/parser.h"
#include "measure.h"
#include "util/check.h"

namespace perfbench {

using floq::Result;
using floq::server::Json;

floq::server::RegistryOptions DaemonRegistryOptions(const std::string& dir) {
  floq::server::RegistryOptions options;
  options.dir = dir;
  options.containment.jobs = 1;
  options.checkpoint_every = 32;
  return options;
}

Shadow::Shadow(const std::string& wal_path)
    : index_(world_,
             floq::BatchContainmentOptions{floq::ContainmentOptions{}, 1}) {
  floq::server::WalReplay replay;
  FLOQ_CHECK(wal_.Open(wal_path, &replay).ok());
}

void Shadow::Register(Tracer& tracer, int32_t parent, const NamedQuery& q,
                      std::vector<double>& parse_us) {
  Json record = Json::Object();
  record.Set("op", Json::String("register"));
  record.Set("name", Json::String(q.name));
  record.Set("query", Json::String(q.text));
  // Register parses twice: once to validate before logging, once to
  // apply.
  floq::ConjunctiveQuery query;
  for (int pass = 0; pass < 2; ++pass) {
    floq::World probe;
    const double t0 = NowMs();
    Result<floq::ConjunctiveQuery> parsed =
        floq::flogic::ParseQuery(pass == 0 ? probe : world_, q.text);
    const double ms = NowMs() - t0;
    FLOQ_CHECK(parsed.ok());
    parse_us.push_back(ms * 1000.0);
    tracer.AddMeasured(parent, "flogic.parse", Layer::kFlogic, ms);
    if (pass == 1) query = *std::move(parsed);
  }
  Append(tracer, parent, record);

  const floq::BatchStats before = index_.engine_stats();
  double t0 = NowMs();
  Result<size_t> id = index_.Insert(query);
  const double insert_ms = NowMs() - t0;
  FLOQ_CHECK(id.ok());
  const floq::BatchStats& after = index_.engine_stats();
  // The index's signature prefilter, replayed: both directions against
  // every other same-arity entry.
  t0 = NowMs();
  const floq::ClosureSignature* sig = index_.engine().signature_of(*id);
  for (size_t j = 0; j < *id; ++j) {
    const floq::ClosureSignature* other = index_.engine().signature_of(j);
    if (other->base.arity != sig->base.arity) continue;
    (void)floq::MayContain(*sig, other->base);
    (void)floq::MayContain(*other, sig->base);
  }
  const double signature_ms = NowMs() - t0;
  signature_ms_ += signature_ms;
  insert_ms_ += insert_ms;
  const int32_t insert = tracer.AddMeasured(
      parent, "containment.index.insert", Layer::kIndex, insert_ms);
  tracer.AddMeasured(insert, "containment.signature.prefilter",
                     Layer::kSignature, signature_ms);
  tracer.AddMeasured(insert, "chase.stage", Layer::kChase,
                     after.chase_stage.total_ms - before.chase_stage.total_ms);
  tracer.AddMeasured(insert, "containment.hom.search", Layer::kHom,
                     after.hom_stage.total_ms - before.hom_stage.total_ms);
  live_.push_back(*id);
  Taxonomy(tracer, parent);
}

void Shadow::Unregister(Tracer& tracer, int32_t parent,
                        const std::string& name, size_t position) {
  Json record = Json::Object();
  record.Set("op", Json::String("unregister"));
  record.Set("name", Json::String(name));
  Append(tracer, parent, record);
  live_.erase(live_.begin() + long(position));
  Taxonomy(tracer, parent);
}

void Shadow::StartMeasuring() {
  insert_ms_ = signature_ms_ = append_ms_ = taxonomy_ms_ = 0.0;
  index_base_ = index_.index_stats();
  engine_base_ = index_.engine_stats();
}

void Shadow::Append(Tracer& tracer, int32_t parent, const Json& record) {
  const double t0 = NowMs();
  FLOQ_CHECK(wal_.Append(record.Serialize()).ok());
  const double ms = NowMs() - t0;
  append_ms_ += ms;
  tracer.AddMeasured(parent, "server.wal.append", Layer::kWal, ms);
}

void Shadow::Taxonomy(Tracer& tracer, int32_t parent) {
  const double t0 = NowMs();
  (void)index_.TaxonomyOf(live_);
  const double ms = NowMs() - t0;
  taxonomy_ms_ += ms;
  tracer.AddMeasured(parent, "containment.index.taxonomy_of", Layer::kIndex,
                     ms);
}

void Shadow::SetMetrics(Report& report, const Tracer& tracer) const {
  // The registry's residual: the self time of the Register spans.
  const std::vector<Span>& spans = tracer.spans();
  auto is_register = [](const Span& s) {
    return std::string_view(s.name) == "server.registry.register";
  };
  double residual_ms = 0.0;
  for (const Span& s : spans) {
    if (is_register(s)) {
      residual_ms += s.dur_ms;
    } else if (s.parent >= 0 && is_register(spans[size_t(s.parent)])) {
      residual_ms -= s.dur_ms;
    }
  }
  report.Set("server.registry.residual_ms", residual_ms, "ms",
             "Register - Insert - TaxonomyOf - Append - parse");

  const floq::IndexStats& is = index_.index_stats();
  const floq::BatchStats& es = index_.engine_stats();
  const double candidates =
      double(is.candidate_pairs - index_base_.candidate_pairs);
  const double checked = double(is.checked_pairs - index_base_.checked_pairs);
  const double pruned = double(is.pruned_pairs - index_base_.pruned_pairs);
  report.Set("containment.index.insert_ms", insert_ms_, "ms");
  report.Set("containment.index.checked_ratio", checked / candidates, "ratio",
             std::to_string(int64_t(checked)) + " of " +
                 std::to_string(int64_t(candidates)) + " candidates");
  report.Set("containment.index.taxonomy_of_ms", taxonomy_ms_, "ms");
  report.Set("server.wal.append_ms", append_ms_, "ms");
  report.Set("containment.signature.ms", signature_ms_, "ms");
  report.Set("containment.signature.prune_ratio", pruned / candidates,
             "ratio");
  report.Set("chase.stage_ms",
             es.chase_stage.total_ms - engine_base_.chase_stage.total_ms,
             "ms");
  report.Set("chase.runs", double(es.chases_run - engine_base_.chases_run),
             "count");
  report.Set("chase.deepenings",
             double(es.chase_deepenings - engine_base_.chase_deepenings),
             "count");
  const double requests =
      double(es.chase_requests - engine_base_.chase_requests);
  report.Set("chase.cache_hit_rate",
             requests == 0 ? 0.0
                           : double(es.chase_cache_hits -
                                    engine_base_.chase_cache_hits) /
                                 requests,
             "ratio");
  report.Set("containment.hom.busy_ms",
             es.hom_stage.total_ms - engine_base_.hom_stage.total_ms, "ms");
  report.Set("containment.hom.nodes_visited",
             double(es.hom.nodes_visited - engine_base_.hom.nodes_visited),
             "count");
  // Contained pairs among those the measured inserts decided: every pair
  // with at least one side inserted after StartMeasuring.
  const size_t first = size_t(index_base_.inserts);
  size_t contained = 0;
  for (size_t i = 0; i < index_.size(); ++i) {
    for (size_t j = 0; j < index_.size(); ++j) {
      contained += i != j && std::max(i, j) >= first && index_.Contains(i, j);
    }
  }
  report.Set("containment.hom.contained_ratio",
             checked == 0 ? 0.0 : double(contained) / checked, "ratio");
}

}  // namespace perfbench
