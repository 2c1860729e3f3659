// serve_mixed: `floq serve` with a warm registry of ~500 queries loaded in
// set-up. Two closed-loop reader connections send 90% cached `contain` by
// name and 10% ad-hoc `contain` with inline texts, while one writer
// connection registers new queries open-loop at a fixed rate. Reads
// exercise framing, JSON, admission and snapshot lookup next to writes
// publishing new epochs; the ad-hoc share runs parse, chase and
// homomorphism search per request.

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>

#include "containment/containment.h"
#include "containment/governor.h"
#include "containment/index.h"
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

using floq::Resolution;
using floq::Result;
using floq::World;
using floq::server::Json;

// Writer registrations per second.
constexpr double kWriteRate = 20.0;
// The timed phase is cut into windows and throughput is the median of the
// per-window rates, so a transient stall of the machine moves it less.
constexpr int kWindows = 10;

int WindowOf(double t_ms, double start_ms, double end_ms) {
  const int w = int((t_ms - start_ms) / (end_ms - start_ms) * kWindows);
  return std::clamp(w, 0, kWindows - 1);
}

// Resolution names as the daemon spells them, by enum value.
constexpr Resolution kResolutions[] = {Resolution::kContained,
                                       Resolution::kNotContained,
                                       Resolution::kUnknown};

int ResolutionCode(const Json& reply) {
  const Json* r = reply.Find("resolution");
  if (r == nullptr || !r->is_string()) return -1;
  for (int i = 0; i < 3; ++i) {
    if (r->AsString() == floq::ResolutionName(kResolutions[i])) return i;
  }
  return -1;
}

std::string ContainRequest(const MixedInputs& inputs, const ReaderOp& op) {
  if (op.cached) {
    return Request("contain", {{"lhs", inputs.warm[op.lhs].name},
                               {"rhs", inputs.warm[op.rhs].name}})
        .Serialize();
  }
  return Request("contain", {{"lhs_query", inputs.adhoc[op.lhs]},
                             {"rhs_query", inputs.adhoc[op.rhs]}})
      .Serialize();
}

// One answered request: which op of which reader stream, and the
// resolution it got (index into kResolutions).
struct Answer {
  uint8_t reader = 0;
  uint8_t resolution = 0;
  uint32_t op = 0;
};

// Decides every answered request again in-process after the timed phase:
// cached answers against a ContainmentIndex over the warm queries, ad-hoc
// answers against CheckContainment on the same texts.
class Oracle {
 public:
  explicit Oracle(const MixedInputs& inputs)
      : inputs_(inputs),
        index_(world_, floq::BatchContainmentOptions{
                           floq::ContainmentOptions{}, 1}) {
    for (const NamedQuery& q : inputs.warm) {
      Result<floq::ConjunctiveQuery> parsed =
          floq::flogic::ParseQuery(world_, q.text);
      FLOQ_CHECK(parsed.ok() && index_.Insert(*parsed).ok());
    }
  }

  Resolution Expected(const ReaderOp& op) {
    if (op.cached) return index_.ResolutionOf(op.lhs, op.rhs);
    auto [it, inserted] =
        adhoc_.try_emplace({op.lhs, op.rhs}, Resolution::kUnknown);
    if (inserted) {
      World world;
      Result<floq::ConjunctiveQuery> q1 =
          floq::flogic::ParseQuery(world, inputs_.adhoc[op.lhs]);
      Result<floq::ConjunctiveQuery> q2 =
          floq::flogic::ParseQuery(world, inputs_.adhoc[op.rhs]);
      if (q1.ok() && q2.ok()) {
        Result<floq::ContainmentResult> verdict =
            floq::CheckContainment(world, *q1, *q2);
        if (verdict.ok()) it->second = verdict->resolution;
      }
    }
    return it->second;
  }

  void Verify(Report& report, const std::vector<Answer>& answers) {
    for (const Answer& a : answers) {
      const ReaderOp& op = inputs_.readers[a.reader][a.op];
      if (kResolutions[a.resolution] != Expected(op)) {
        report.Fail(std::string(op.cached ? "cached" : "ad-hoc") +
                    " contain answer differs from the in-process oracle");
      }
    }
  }

 private:
  const MixedInputs& inputs_;
  World world_;
  floq::ContainmentIndex index_;
  std::map<std::pair<uint32_t, uint32_t>, Resolution> adhoc_;
};

struct ReaderLog {
  std::vector<double> cached_us;
  std::vector<double> adhoc_us;
  std::vector<Answer> answers;
  std::array<uint64_t, kWindows> served{};
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void ReadLoop(const MixedInputs& inputs, const std::string& socket_path,
              uint8_t reader, double start_ms, double end_ms, ReaderLog& log) {
  Result<Connection> connection = Connection::Open(socket_path, 10'000);
  if (!connection.ok()) {
    ++log.attempted;
    ++log.failed;
    return;
  }
  const std::vector<ReaderOp>& stream = inputs.readers[reader];
  while (NowMs() < start_ms) std::this_thread::yield();
  for (uint32_t k = 0; NowMs() < end_ms; ++k) {
    const uint32_t index = k % uint32_t(stream.size());
    const ReaderOp& op = stream[index];
    const std::string request = ContainRequest(inputs, op);
    const double t0 = NowMs();
    Result<std::string> raw = connection->CallRaw(request);
    const double us = (NowMs() - t0) * 1000.0;
    ++log.attempted;
    Result<Json> reply = raw.ok() ? floq::server::ParseJson(*raw)
                                  : Result<Json>(raw.status());
    const int code = reply.ok() ? ResolutionCode(*reply) : -1;
    if (!reply.ok() || ClassifyReply(*reply) != ReplyKind::kOk || code < 0) {
      ++log.failed;
      if (!raw.ok()) return;
      continue;
    }
    (op.cached ? log.cached_us : log.adhoc_us).push_back(us);
    log.answers.push_back({reader, uint8_t(code), index});
    ++log.served[size_t(WindowOf(t0, start_ms, end_ms))];
  }
}

struct WriterLog {
  std::vector<double> register_ms;
  std::array<uint64_t, kWindows> served{};
  double max_lag_ms = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

// Open loop: request k is due at start + k / rate whatever happened to the
// ones before it, and its latency runs from that due time.
void WriteLoop(const MixedInputs& inputs, Connection& connection,
               double start_ms, double end_ms, WriterLog& log) {
  for (size_t k = 0; k < inputs.writes.size(); ++k) {
    const double due = start_ms + double(k) * 1000.0 / kWriteRate;
    if (due >= end_ms) break;
    while (NowMs() < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    log.max_lag_ms = std::max(log.max_lag_ms, NowMs() - due);
    const NamedQuery& q = inputs.writes[k];
    Result<Json> reply = connection.Call(
        Request("register", {{"name", q.name}, {"query", q.text}}));
    ++log.attempted;
    if (!reply.ok() || ClassifyReply(*reply) != ReplyKind::kOk) {
      ++log.failed;
      continue;
    }
    log.register_ms.push_back(NowMs() - due);
    ++log.served[size_t(WindowOf(due, start_ms, end_ms))];
  }
}

}  // namespace

Report RunMixed(const RunOptions& options) {
  Report report;
  MixedInputs inputs;
  std::vector<double> setup_ms;
  std::unique_ptr<DaemonProcess> daemon;
  Result<Connection> writer = floq::InternalError("not started");
  // Set-up five times (four throwaway daemons) for a set-up median:
  // inputs, a fresh directory, the daemon, and the warm registry.
  for (int attempt = 0; attempt < 5; ++attempt) {
    if (daemon != nullptr) {
      writer->Close();
      if (!daemon->Shutdown().ok()) report.Fail("shutdown failed");
    }
    const double t0 = NowMs();
    inputs = MakeMixedInputs(options.seed);
    std::filesystem::remove_all("mixed");
    std::filesystem::create_directories("mixed");
    daemon = std::make_unique<DaemonProcess>(options.floq_binary, "mixed");
    writer = daemon->Start();
    if (!writer.ok()) {
      report.Fail(writer.status().ToString());
      return report;
    }
    for (const NamedQuery& q : inputs.warm) {
      Result<Json> reply = writer->Call(
          Request("register", {{"name", q.name}, {"query", q.text}}));
      if (!reply.ok() || ClassifyReply(*reply) != ReplyKind::kOk) {
        report.Fail("warm registration of " + q.name + " failed");
        return report;
      }
    }
    setup_ms.push_back(NowMs() - t0);
  }

  std::vector<ReaderLog> readers(kMixedReaders);
  WriterLog writes;
  const double start = NowMs() + 20.0;
  const double end = start + options.seconds * 1000.0;
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < kMixedReaders; ++r) {
      threads.emplace_back(ReadLoop, std::cref(inputs),
                           std::cref(daemon->socket_path()), uint8_t(r), start,
                           end, std::ref(readers[size_t(r)]));
    }
    threads.emplace_back(WriteLoop, std::cref(inputs), std::ref(*writer),
                         start, end, std::ref(writes));
    for (std::thread& t : threads) t.join();
  }
  const double peak_rss_mb = daemon->PeakRssMb();
  writer->Close();
  if (!daemon->Shutdown().ok()) report.Fail("shutdown failed");
  std::filesystem::remove_all("mixed");

  std::vector<double> cached_us, adhoc_us;
  Oracle oracle(inputs);
  for (const ReaderLog& log : readers) {
    cached_us.insert(cached_us.end(), log.cached_us.begin(),
                     log.cached_us.end());
    adhoc_us.insert(adhoc_us.end(), log.adhoc_us.begin(), log.adhoc_us.end());
    report.attempted += log.attempted;
    for (uint64_t i = 0; i < log.failed; ++i) report.Fail("contain failed");
    oracle.Verify(report, log.answers);
  }
  report.attempted += writes.attempted;
  for (uint64_t i = 0; i < writes.failed; ++i) report.Fail("register failed");

  std::vector<double> window_ops;
  for (size_t w = 0; w < kWindows; ++w) {
    uint64_t served = writes.served[w];
    for (const ReaderLog& log : readers) served += log.served[w];
    window_ops.push_back(double(served) /
                         (options.seconds / double(kWindows)));
  }
  const double ops_per_s = Median(window_ops);
  report.Set("setup_s", Median(setup_ms) / 1000.0, "s",
             "median of " + std::to_string(setup_ms.size()));
  SetLatency(report, "contain_p50_us", "contain_tail_us", cached_us, 1.0,
             "us");
  SetLatency(report, "check_p50_us", "check_tail_us", adhoc_us, 1.0, "us");
  SetLatency(report, "register_p50_ms", "register_tail_ms", writes.register_ms,
             1.0, "ms");
  report.Set("writer_max_lag_ms", writes.max_lag_ms, "ms",
             "open-loop writer at " + std::to_string(int(kWriteRate)) + "/s");
  report.Set("serve_ops_per_s", ops_per_s, "ops/s",
             "median of " + std::to_string(kWindows) + " windows");
  report.Set("peak_rss_mb", peak_rss_mb, "MB", "daemon VmHWM");
  report.Set("ops_per_s", ops_per_s, "1/s", "= serve_ops_per_s");
  report.Set("op_latency_ms",
             report.metrics["contain_p50_us"].value / 1000.0, "ms",
             "= contain_p50_us");
  return report;
}

namespace {

// Reader ops replayed in-process, interleaved across the two streams, with
// one writer registration per kReadsPerWrite reads.
constexpr uint32_t kReplayReads = 20'000;
constexpr uint32_t kReadsPerWrite = 250;

struct MixedReplay {
  double wall_ms = 0.0;
  std::vector<Answer> answers;
  std::vector<double> parse_us;
  std::vector<double> json_parse_us;
  std::vector<double> json_write_us;
  std::vector<double> register_parse_us;
  double chase_check_ms = 0.0;
  double hom_check_ms = 0.0;
  double register_ms = 0.0;
  double checkpoint_ms = 0.0;
  double open_ms = 0.0;
};

std::unique_ptr<floq::server::QueryRegistry> WarmRegistry(
    const std::string& dir, const MixedInputs& inputs) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  auto registry = std::make_unique<floq::server::QueryRegistry>(
      DaemonRegistryOptions(dir));
  FLOQ_CHECK(registry->Open().ok());
  for (const NamedQuery& q : inputs.warm) {
    FLOQ_CHECK(registry->Register(q.name, q.text).ok());
  }
  return registry;
}

// What the daemon does per request, call by call: parse the request JSON,
// take the epoch snapshot, answer (matrix lookup, or parse + one-shot
// check), render and frame the reply. Writer registrations are attributed
// through `shadow` when given. The replay ends with a checkpoint and a
// reopen of the registry, as a daemon restart does.
MixedReplay ReplayMixed(
    Tracer& tracer,
    std::unique_ptr<floq::server::QueryRegistry>& registry,
    const std::string& dir, const MixedInputs& inputs, Shadow* shadow) {
  MixedReplay out;
  auto timed = [&](std::vector<double>& samples, const char* name,
                   Layer layer, uint32_t op, auto&& body) {
    const double t0 = tracer.Now();
    ScopedSpan span(tracer, name, layer, op);
    body();
    samples.push_back((tracer.Now() - t0) * 1000.0);
  };
  const double start = tracer.Now();
  uint32_t writes = 0;
  for (uint32_t k = 0; k < kReplayReads; ++k) {
    const uint8_t reader = uint8_t(k % kMixedReaders);
    const uint32_t index = k / kMixedReaders;
    const ReaderOp& op = inputs.readers[reader][index];
    const std::string payload = ContainRequest(inputs, op);
    Json request;
    timed(out.json_parse_us, "server.protocol.json_parse", Layer::kProtocol, k,
          [&] { request = *floq::server::ParseJson(payload); });
    std::shared_ptr<const floq::server::RegistrySnapshotView> snap;
    Resolution resolution = Resolution::kUnknown;
    {
      ScopedSpan span(tracer, "server.registry.snapshot", Layer::kRegistry, k);
      snap = registry->Snapshot();
      if (op.cached) {
        const size_t li = snap->by_name.find(inputs.warm[op.lhs].name)->second;
        const size_t ri = snap->by_name.find(inputs.warm[op.rhs].name)->second;
        resolution = snap->resolution[li][ri];
      }
    }
    if (!op.cached) {
      World world;
      Result<floq::ConjunctiveQuery> q1 = floq::InternalError("unparsed");
      Result<floq::ConjunctiveQuery> q2 = floq::InternalError("unparsed");
      timed(out.parse_us, "flogic.parse", Layer::kFlogic, k, [&] {
        q1 = floq::flogic::ParseQuery(world, inputs.adhoc[op.lhs]);
      });
      timed(out.parse_us, "flogic.parse", Layer::kFlogic, k, [&] {
        q2 = floq::flogic::ParseQuery(world, inputs.adhoc[op.rhs]);
      });
      FLOQ_CHECK(q1.ok() && q2.ok());
      // The one-shot check: its chase and bookkeeping count to the chase
      // layer, its homomorphism search (reported by the check) to hom.
      const int32_t check =
          tracer.Begin("containment.check", Layer::kChase, k);
      Result<floq::ContainmentResult> verdict =
          floq::CheckContainment(world, *q1, *q2);
      tracer.End(check);
      FLOQ_CHECK(verdict.ok());
      tracer.AddMeasured(check, "containment.hom.check", Layer::kHom,
                         verdict->hom_ms);
      out.chase_check_ms += verdict->chase_ms;
      out.hom_check_ms += verdict->hom_ms;
      resolution = verdict->resolution;
    }
    timed(out.json_write_us, "server.protocol.json_write", Layer::kProtocol, k,
          [&] {
            Json reply = Json::Object();
            reply.Set("ok", Json::Bool(true));
            reply.Set("resolution",
                      Json::String(floq::ResolutionName(resolution)));
            reply.Set("epoch", Json::Number(double(snap->epoch)));
            reply.Set("cached", Json::Bool(op.cached));
            (void)floq::server::EncodeFrame(reply.Serialize());
          });
    for (uint8_t i = 0; i < 3; ++i) {
      if (kResolutions[i] == resolution) {
        out.answers.push_back({reader, i, index});
      }
    }
    if ((k + 1) % kReadsPerWrite == 0) {
      const NamedQuery& q = inputs.writes[writes++];
      const double t0 = tracer.Now();
      const int32_t span =
          tracer.Begin("server.registry.register", Layer::kRegistry, k);
      FLOQ_CHECK(registry->Register(q.name, q.text).ok());
      tracer.End(span);
      out.register_ms += tracer.Now() - t0;
      if (shadow != nullptr) {
        tracer.Pause();
        shadow->Register(tracer, span, q, out.register_parse_us);
        tracer.Resume();
      }
    }
  }
  double t0 = tracer.Now();
  {
    ScopedSpan span(tracer, "server.registry.checkpoint", Layer::kRegistry,
                    kReplayReads);
    FLOQ_CHECK(registry->Checkpoint().ok());
  }
  out.checkpoint_ms = tracer.Now() - t0;
  {
    ScopedSpan span(tracer, "server.registry.close", Layer::kRegistry,
                    kReplayReads);
    registry.reset();
  }
  t0 = tracer.Now();
  {
    ScopedSpan span(tracer, "server.registry.open", Layer::kRegistry,
                    kReplayReads);
    registry = std::make_unique<floq::server::QueryRegistry>(
        DaemonRegistryOptions(dir));
    FLOQ_CHECK(registry->Open().ok());
  }
  out.open_ms = tracer.Now() - t0;
  out.wall_ms = tracer.Now() - start;
  return out;
}

// Snapshot() latency while a writer thread keeps registering.
std::vector<double> SnapshotUnderWrites(floq::server::QueryRegistry& registry,
                                        const MixedInputs& inputs,
                                        size_t first_write) {
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (size_t k = first_write; k < first_write + 20; ++k) {
      FLOQ_CHECK(registry.Register(inputs.writes[k].name,
                                   inputs.writes[k].text)
                     .ok());
    }
    done.store(true);
  });
  std::vector<double> samples;
  while (!done.load()) {
    const double t0 = NowMs();
    std::shared_ptr<const floq::server::RegistrySnapshotView> snap =
        registry.Snapshot();
    samples.push_back((NowMs() - t0) * 1000.0);
  }
  writer.join();
  return samples;
}

// The serving stack over the socket: ping round trips, cached contain
// round trips, and the daemon's own handling time for them from its
// serve.cmd.contain.latency_us histogram.
struct SocketCosts {
  double ping_us = 0.0;
  double handle_us = 0.0;
  double transport_us = 0.0;
};

SocketCosts MeasureSocket(Report& report, const RunOptions& options,
                          const std::string& dir, const MixedInputs& inputs) {
  SocketCosts costs;
  DaemonProcess daemon(options.floq_binary, dir);
  Result<Connection> connection = daemon.Start();
  if (!connection.ok()) {
    report.Fail(connection.status().ToString());
    return costs;
  }
  std::vector<double> ping_us;
  const std::string ping = Request("ping").Serialize();
  for (int i = 0; i < 2000; ++i) {
    const double t0 = NowMs();
    Result<std::string> reply = connection->CallRaw(ping);
    ping_us.push_back((NowMs() - t0) * 1000.0);
    if (!reply.ok()) report.Fail("ping failed");
  }
  double round_trip_us = 0.0;
  int contains = 0;
  for (uint32_t k = 0; contains < 5000; ++k) {
    const ReaderOp& op = inputs.readers[0][k];
    if (!op.cached) continue;
    const std::string request = ContainRequest(inputs, op);
    const double t0 = NowMs();
    Result<std::string> reply = connection->CallRaw(request);
    round_trip_us += (NowMs() - t0) * 1000.0;
    ++contains;
    if (!reply.ok()) report.Fail("contain failed");
  }
  Result<Json> metrics = connection->Call(Request("metrics"));
  const Json* histogram = nullptr;
  if (metrics.ok()) {
    const Json* m = metrics->Find("metrics");
    const Json* hs = m == nullptr ? nullptr : m->Find("histograms");
    histogram =
        hs == nullptr ? nullptr : hs->Find("serve.cmd.contain.latency_us");
  }
  const Json* count = histogram == nullptr ? nullptr : histogram->Find("count");
  const Json* sum = histogram == nullptr ? nullptr : histogram->Find("sum");
  if (count == nullptr || sum == nullptr || count->AsNumber() <= 0) {
    report.Fail("daemon metrics lack serve.cmd.contain.latency_us");
  } else {
    costs.handle_us = sum->AsNumber() / count->AsNumber();
  }
  costs.ping_us = Median(ping_us);
  costs.transport_us = round_trip_us / contains - costs.handle_us;
  connection->Close();
  if (!daemon.Shutdown().ok()) report.Fail("shutdown failed");
  return costs;
}

}  // namespace

Report TraceMixed(const RunOptions& options) {
  Report report;
  const MixedInputs inputs = MakeMixedInputs(options.seed);
  Tracer untraced(false);
  MixedReplay plain;
  {
    auto registry = WarmRegistry("plain", inputs);
    plain = ReplayMixed(untraced, registry, "plain", inputs, nullptr);
  }
  std::filesystem::remove_all("plain");

  Tracer tracer(true);
  auto registry = WarmRegistry("traced", inputs);
  std::filesystem::create_directories("shadow");
  Shadow shadow("shadow/registry.wal");
  {
    Tracer off(false);
    std::vector<double> parse_us;
    for (const NamedQuery& q : inputs.warm) {
      shadow.Register(off, -1, q, parse_us);
    }
  }
  shadow.StartMeasuring();
  const MixedReplay traced =
      ReplayMixed(tracer, registry, "traced", inputs, &shadow);
  const std::vector<double> snapshot_us = SnapshotUnderWrites(
      *registry, inputs, kReplayReads / kReadsPerWrite);
  registry.reset();
  const SocketCosts socket = MeasureSocket(report, options, "traced", inputs);
  std::filesystem::remove_all("traced");
  std::filesystem::remove_all("shadow");

  report.attempted = traced.answers.size();
  Oracle oracle(inputs);
  oracle.Verify(report, traced.answers);
  if (plain.answers.size() != traced.answers.size()) {
    report.Fail("traced and untraced replays answered differently");
  }

  report.Set("chase.check_ms", traced.chase_check_ms, "ms",
             "ContainmentResult::chase_ms over the ad-hoc checks");
  report.Set("containment.hom.check_ms", traced.hom_check_ms, "ms",
             "ContainmentResult::hom_ms over the ad-hoc checks");
  report.Set("flogic.parse_us", Median(traced.parse_us), "us",
             "n=" + std::to_string(traced.parse_us.size()));
  report.Set("server.protocol.json_parse_us", Median(traced.json_parse_us),
             "us");
  report.Set("server.protocol.json_write_us", Median(traced.json_write_us),
             "us");
  report.Set("server.registry.register_ms", traced.register_ms, "ms",
             std::to_string(kReplayReads / kReadsPerWrite) +
                 " writer registrations during the replay");
  report.Set("server.registry.checkpoint_ms", traced.checkpoint_ms, "ms");
  report.Set("server.registry.open_ms", traced.open_ms, "ms",
             "reopen after the replay");
  shadow.SetMetrics(report, tracer);
  report.Set("server.registry.snapshot_us", Median(snapshot_us), "us",
             "while a writer registers, n=" +
                 std::to_string(snapshot_us.size()));
  report.Set("server.daemon.ping_us", socket.ping_us, "us", "round trip");
  report.Set("server.daemon.handle_us", socket.handle_us, "us",
             "mean of serve.cmd.contain.latency_us");
  report.Set("server.transport_us", socket.transport_us, "us",
             "mean cached contain round trip - handle_us");
  SetAttribution(report, tracer, traced.wall_ms, plain.wall_ms);
  report.spans = tracer.spans();
  return report;
}

}  // namespace perfbench
