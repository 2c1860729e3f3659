// serve_registry_growth: one closed-loop client registers ~1000 queries
// into `floq serve`, unregisters and re-registers a tenth of them, asks
// for `classify`, restarts the daemon on the same directory and asks for
// `classify` again. The containment index, the registry's dense-matrix
// publish, the WAL and the cadence checkpoints do nearly all the work;
// homomorphism search does little.

#include <filesystem>
#include <memory>

#include "containment/classifier.h"
#include "flogic/parser.h"
#include "generate.h"
#include "measure.h"
#include "serve.h"
#include "shadow.h"
#include "server/registry.h"
#include "util/check.h"
#include "workloads.h"

namespace perfbench {
namespace {

using floq::Result;
using floq::World;
using floq::server::Json;

// The `classify` reply members that describe the lattice. Everything else
// in a reply (epoch, request_id) legitimately differs across a restart.
std::string LatticeOf(const Json& reply) {
  const Json* classes = reply.Find("classes");
  const Json* hasse = reply.Find("hasse");
  if (classes == nullptr || hasse == nullptr) return "";
  return classes->Serialize() + hasse->Serialize();
}

// The same rendering built from a taxonomy over `names` (positional).
std::string LatticeOf(const floq::QueryTaxonomy& taxonomy,
                      const std::vector<std::string>& names) {
  Json classes = Json::Array();
  for (const std::vector<size_t>& cls : taxonomy.classes) {
    Json members = Json::Array();
    for (size_t member : cls) members.Append(Json::String(names[member]));
    classes.Append(std::move(members));
  }
  Json hasse = Json::Array();
  for (const auto& [sub, super] : taxonomy.hasse_edges) {
    Json edge = Json::Array();
    edge.Append(Json::Number(double(sub)));
    edge.Append(Json::Number(double(super)));
    hasse.Append(std::move(edge));
  }
  return classes.Serialize() + hasse.Serialize();
}

// The operation sequence of one cycle: every registration, then the churn
// set unregistered, then the churn set registered again.
struct Op {
  bool unregister = false;
  size_t query = 0;
};
std::vector<Op> CycleOps(const GrowthInputs& inputs) {
  std::vector<Op> ops;
  for (size_t i = 0; i < inputs.registrations.size(); ++i) {
    ops.push_back({false, i});
  }
  for (size_t i : inputs.churn) ops.push_back({true, i});
  for (size_t i : inputs.churn) ops.push_back({false, i});
  return ops;
}

// Live names after a cycle, in registration order (re-registered queries
// move to the end, as the registry orders them).
std::vector<size_t> LiveAfter(const std::vector<Op>& ops) {
  std::vector<size_t> live;
  for (const Op& op : ops) {
    if (op.unregister) {
      std::erase(live, op.query);
    } else {
      live.push_back(op.query);
    }
  }
  return live;
}

// The expected lattice: ClassifyQueries over the live texts.
std::string ExpectedLattice(const GrowthInputs& inputs,
                            const std::vector<size_t>& live) {
  World world;
  std::vector<floq::ConjunctiveQuery> queries;
  std::vector<std::string> names;
  for (size_t i : live) {
    Result<floq::ConjunctiveQuery> q =
        floq::flogic::ParseQuery(world, inputs.registrations[i].text);
    if (!q.ok()) return "unparseable: " + q.status().ToString();
    queries.push_back(*std::move(q));
    names.push_back(inputs.registrations[i].name);
  }
  Result<floq::QueryTaxonomy> taxonomy = floq::ClassifyQueries(
      world, queries, floq::BatchContainmentOptions{});
  if (!taxonomy.ok()) return "classify failed";
  return LatticeOf(*taxonomy, names);
}

constexpr size_t kSizeBands = 10;

void Check(Report& report, const floq::Status& status, const char* what) {
  if (!status.ok()) report.Fail(std::string(what) + ": " + status.ToString());
}

}  // namespace

Report RunGrowth(const RunOptions& options) {
  Report report;
  std::vector<double> setup_ms, register_ms, unregister_ms, recovery_ms;
  double registering_ms = 0.0;
  double peak_rss_mb = 0.0;
  size_t registered = 0;
  std::vector<std::string> lattices;
  std::vector<size_t> live;
  std::vector<double> band_p50_ms;
  // Whole cycles only: another one starts while it is expected to end
  // within the run length (judged by the longest cycle so far).
  const double start = NowMs();
  double longest_cycle_ms = 0.0;
  for (int cycle = 0;
       cycle == 0 ||
       NowMs() - start + longest_cycle_ms <= options.seconds * 1000.0;
       ++cycle) {
    const double cycle_start = NowMs();
    // Set-up: inputs, a fresh registry directory and a daemon answering
    // ping. The first cycle sets up five times (four throwaway daemons) so
    // that the set-up median has several samples.
    std::unique_ptr<DaemonProcess> daemon;
    Result<Connection> connection = floq::InternalError("not started");
    GrowthInputs inputs;
    const std::string dir = "growth-" + std::to_string(cycle);
    for (int attempt = 0; attempt < (cycle == 0 ? 5 : 1); ++attempt) {
      if (daemon != nullptr) Check(report, daemon->Shutdown(), "shutdown");
      const double t0 = NowMs();
      inputs = MakeGrowthInputs(options.seed);
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      daemon = std::make_unique<DaemonProcess>(options.floq_binary, dir);
      connection = daemon->Start();
      if (!connection.ok()) {
        report.Fail(connection.status().ToString());
        return report;
      }
      Result<Json> pong = connection->Call(Request("ping"));
      if (!pong.ok() || ClassifyReply(*pong) != ReplyKind::kOk) {
        report.Fail("ping failed");
        return report;
      }
      setup_ms.push_back(NowMs() - t0);
    }

    const std::vector<Op> ops = CycleOps(inputs);
    std::vector<double> growing_ms;  // the first registration of each query
    for (const Op& op : ops) {
      const NamedQuery& q = inputs.registrations[op.query];
      const std::string request =
          op.unregister
              ? Request("unregister", {{"name", q.name}}).Serialize()
              : Request("register", {{"name", q.name}, {"query", q.text}})
                    .Serialize();
      const double t0 = NowMs();
      Result<std::string> raw = connection->CallRaw(request);
      const double ms = NowMs() - t0;
      ++report.attempted;
      Result<Json> reply = raw.ok() ? floq::server::ParseJson(*raw)
                                    : Result<Json>(raw.status());
      if (!reply.ok() || ClassifyReply(*reply) != ReplyKind::kOk) {
        report.Fail("mutation of " + q.name + " failed");
        continue;
      }
      (op.unregister ? unregister_ms : register_ms).push_back(ms);
      if (!op.unregister) {
        registering_ms += ms;
        ++registered;
        if (growing_ms.size() < inputs.registrations.size()) {
          growing_ms.push_back(ms);
        }
      }
    }
    // Register latency climbs with the registry size, so a plain median
    // samples only the moment the registry is half full. The operation
    // latency instead gives every size band its median.
    const size_t band = growing_ms.size() / kSizeBands;
    for (size_t b = 0; band > 0 && b < kSizeBands; ++b) {
      band_p50_ms.push_back(Median(std::vector<double>(
          growing_ms.begin() + long(b * band),
          growing_ms.begin() + long((b + 1) * band))));
    }

    ++report.attempted;
    Result<Json> before = connection->Call(Request("classify"));
    peak_rss_mb = std::max(peak_rss_mb, daemon->PeakRssMb());
    connection->Close();
    Check(report, daemon->Shutdown(), "shutdown");

    // Recovery: restart on the same directory until the first classify
    // reply arrives.
    const double t0 = NowMs();
    DaemonProcess restarted(options.floq_binary, dir);
    Result<Connection> again = restarted.Start();
    Result<Json> after = again.ok() ? again->Call(Request("classify"))
                                    : Result<Json>(again.status());
    recovery_ms.push_back(NowMs() - t0);
    ++report.attempted;
    peak_rss_mb = std::max(peak_rss_mb, restarted.PeakRssMb());
    if (again.ok()) again->Close();
    Check(report, restarted.Shutdown(), "shutdown after recovery");

    if (!before.ok() || !after.ok() ||
        ClassifyReply(*before) != ReplyKind::kOk ||
        ClassifyReply(*after) != ReplyKind::kOk) {
      report.Fail("classify failed");
    } else if (LatticeOf(*before) != LatticeOf(*after)) {
      report.Fail("classify differs after restart");
    } else {
      lattices.push_back(LatticeOf(*before));
    }
    std::filesystem::remove_all(dir);
    longest_cycle_ms = std::max(longest_cycle_ms, NowMs() - cycle_start);
    live = LiveAfter(ops);
  }

  // Every cycle ran the same operations, so every lattice must equal
  // ClassifyQueries over the final live set.
  if (!lattices.empty()) {
    const std::string expected =
        ExpectedLattice(MakeGrowthInputs(options.seed), live);
    for (const std::string& lattice : lattices) {
      if (lattice != expected) {
        report.Fail("classify differs from ClassifyQueries over the live set");
      }
    }
  }

  report.Set("setup_s", Median(setup_ms) / 1000.0, "s",
             "median of " + std::to_string(setup_ms.size()));
  SetLatency(report, "register_p50_ms", "register_tail_ms", register_ms, 1.0,
             "ms");
  SetLatency(report, "unregister_p50_ms", "unregister_tail_ms", unregister_ms,
             1.0, "ms");
  report.Set("recovery_s", Median(recovery_ms) / 1000.0, "s",
             "median of " + std::to_string(recovery_ms.size()) + " restarts");
  report.Set("peak_rss_mb", peak_rss_mb, "MB", "daemon VmHWM");
  report.Set("ops_per_s", double(registered) / (registering_ms / 1000.0),
             "1/s", "registrations acked per second of registering");
  double band_mean_ms = 0.0;
  for (double ms : band_p50_ms) {
    band_mean_ms += ms / double(band_p50_ms.size());
  }
  report.Set("op_latency_ms", band_mean_ms, "ms",
             "mean of the register p50 of " + std::to_string(kSizeBands) +
                 " registry-size bands");
  return report;
}

namespace {

struct GrowthReplay {
  double wall_ms = 0.0;
  double register_ms = 0.0;
  double checkpoint_ms = 0.0;
  double open_ms = 0.0;
  std::vector<double> snapshot_us;
  std::vector<double> json_write_us;
  std::string lattice_before;
  std::string lattice_after;
};

// The classify command in-process: the epoch snapshot, then the reply
// rendered and serialized as the daemon does.
std::string Classify(Tracer& tracer,
                     const floq::server::QueryRegistry& registry,
                     GrowthReplay& out, uint32_t op) {
  double t0 = NowMs();
  std::shared_ptr<const floq::server::RegistrySnapshotView> snap;
  {
    ScopedSpan span(tracer, "server.registry.snapshot", Layer::kRegistry, op);
    snap = registry.Snapshot();
  }
  out.snapshot_us.push_back((NowMs() - t0) * 1000.0);
  t0 = NowMs();
  std::string lattice;
  {
    ScopedSpan span(tracer, "server.protocol.json_write", Layer::kProtocol, op);
    std::vector<std::string> names;
    for (const auto& entry : snap->entries) names.push_back(entry.name);
    lattice = LatticeOf(snap->taxonomy, names);
  }
  out.json_write_us.push_back((NowMs() - t0) * 1000.0);
  return lattice;
}

GrowthReplay ReplayGrowth(Tracer& tracer, const std::string& dir,
                          const GrowthInputs& inputs, Shadow* shadow,
                          std::vector<double>& parse_us) {
  GrowthReplay out;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::vector<Op> ops = CycleOps(inputs);
  const double start = tracer.Now();
  auto registry = std::make_unique<floq::server::QueryRegistry>(
      DaemonRegistryOptions(dir));
  {
    ScopedSpan span(tracer, "server.registry.open", Layer::kRegistry, 0);
    FLOQ_CHECK(registry->Open().ok());
  }
  std::vector<std::string> live;
  for (uint32_t k = 0; k < ops.size(); ++k) {
    const NamedQuery& q = inputs.registrations[ops[k].query];
    const double t0 = tracer.Now();
    const int32_t span =
        tracer.Begin(ops[k].unregister ? "server.registry.unregister"
                                       : "server.registry.register",
                     Layer::kRegistry, k);
    const bool ok = ops[k].unregister
                        ? registry->Unregister(q.name).ok()
                        : registry->Register(q.name, q.text).ok();
    tracer.End(span);
    FLOQ_CHECK(ok) << "mutation of " << q.name << " failed";
    if (!ops[k].unregister) out.register_ms += tracer.Now() - t0;
    if (shadow == nullptr) continue;
    tracer.Pause();
    if (ops[k].unregister) {
      const size_t position =
          size_t(std::find(live.begin(), live.end(), q.name) - live.begin());
      live.erase(live.begin() + long(position));
      shadow->Unregister(tracer, span, q.name, position);
    } else {
      live.push_back(q.name);
      shadow->Register(tracer, span, q, parse_us);
    }
    tracer.Resume();
  }
  const uint32_t n = uint32_t(ops.size());
  out.lattice_before = Classify(tracer, *registry, out, n);
  double t0 = tracer.Now();
  {
    ScopedSpan span(tracer, "server.registry.checkpoint", Layer::kRegistry, n);
    FLOQ_CHECK(registry->Checkpoint().ok());
  }
  out.checkpoint_ms = tracer.Now() - t0;
  {
    ScopedSpan span(tracer, "server.registry.close", Layer::kRegistry, n);
    registry.reset();
  }
  t0 = tracer.Now();
  {
    ScopedSpan span(tracer, "server.registry.open", Layer::kRegistry, n);
    registry = std::make_unique<floq::server::QueryRegistry>(
        DaemonRegistryOptions(dir));
    FLOQ_CHECK(registry->Open().ok());
  }
  out.open_ms = tracer.Now() - t0;
  out.lattice_after = Classify(tracer, *registry, out, n + 1);
  registry.reset();
  out.wall_ms = tracer.Now() - start;
  std::filesystem::remove_all(dir);
  return out;
}

}  // namespace

Report TraceGrowth(const RunOptions& options) {
  Report report;
  const GrowthInputs inputs = MakeGrowthInputs(options.seed);
  std::vector<double> parse_us;
  Tracer untraced(false);
  const GrowthReplay plain =
      ReplayGrowth(untraced, "plain", inputs, nullptr, parse_us);

  Tracer tracer(true);
  std::filesystem::create_directories("shadow");
  Shadow shadow("shadow/registry.wal");
  const GrowthReplay traced =
      ReplayGrowth(tracer, "traced", inputs, &shadow, parse_us);
  std::filesystem::remove_all("shadow");

  report.attempted = 3;
  if (traced.lattice_before != traced.lattice_after ||
      plain.lattice_before != traced.lattice_before) {
    report.Fail("replayed classify differs across restart or passes");
  } else if (traced.lattice_before !=
             ExpectedLattice(inputs, LiveAfter(CycleOps(inputs)))) {
    report.Fail("replayed classify differs from ClassifyQueries");
  }

  shadow.SetMetrics(report, tracer);
  report.Set("server.registry.register_ms", traced.register_ms, "ms");
  report.Set("flogic.parse_us", Median(parse_us), "us",
             "n=" + std::to_string(parse_us.size()));
  report.Set("server.registry.checkpoint_ms", traced.checkpoint_ms, "ms");
  report.Set("server.registry.open_ms", traced.open_ms, "ms",
             "reopen after " + std::to_string(inputs.registrations.size()) +
                 " registrations");
  report.Set("server.registry.snapshot_us", Median(traced.snapshot_us), "us");
  report.Set("server.protocol.json_write_us", Median(traced.json_write_us),
             "us", "classify reply");
  SetAttribution(report, tracer, traced.wall_ms, plain.wall_ms);
  report.spans = tracer.spans();
  return report;
}

}  // namespace perfbench
