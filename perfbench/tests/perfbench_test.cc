// Tests of the benchmark's own machinery: seeded input generation, tail
// percentile selection, span attribution arithmetic and reply accounting.
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test

#include <gtest/gtest.h>

#include <thread>

#include "flogic/parser.h"
#include "generate.h"
#include "measure.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

using floq::server::Json;

TEST(GenerateTest, SameSeedGivesByteIdenticalInputs) {
  floq::World a, b, c;
  EXPECT_EQ(SerializeInputs(MakeClassifyQueries(a, 7), a),
            SerializeInputs(MakeClassifyQueries(b, 7), b));
  EXPECT_NE(SerializeInputs(MakeClassifyQueries(a, 7), a),
            SerializeInputs(MakeClassifyQueries(c, 8), c));
  EXPECT_EQ(SerializeInputs(MakeGrowthInputs(7)),
            SerializeInputs(MakeGrowthInputs(7)));
  EXPECT_NE(SerializeInputs(MakeGrowthInputs(7)),
            SerializeInputs(MakeGrowthInputs(8)));
  EXPECT_EQ(SerializeInputs(MakeMixedInputs(7)),
            SerializeInputs(MakeMixedInputs(7)));
  EXPECT_NE(SerializeInputs(MakeMixedInputs(7)),
            SerializeInputs(MakeMixedInputs(8)));
}

TEST(GenerateTest, ServeTextsParseBack) {
  const GrowthInputs growth = MakeGrowthInputs(3);
  const MixedInputs mixed = MakeMixedInputs(3);
  std::vector<std::string> texts;
  for (const NamedQuery& q : growth.registrations) texts.push_back(q.text);
  for (const NamedQuery& q : mixed.warm) texts.push_back(q.text);
  for (const NamedQuery& q : mixed.writes) texts.push_back(q.text);
  texts.insert(texts.end(), mixed.adhoc.begin(), mixed.adhoc.end());
  for (const std::string& text : texts) {
    floq::World world;
    floq::Result<floq::ConjunctiveQuery> query =
        floq::flogic::ParseQuery(world, text);
    ASSERT_TRUE(query.ok()) << text;
    EXPECT_EQ(query->arity(), 1) << text;
  }
  EXPECT_EQ(growth.churn.size(), growth.registrations.size() / 10);
}

TEST(MeasureTest, TailIsHighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(0), 0.0);
  EXPECT_EQ(TailPercentile(19), 0.0);
  EXPECT_EQ(TailPercentile(20), 50.0);
  EXPECT_EQ(TailPercentile(99), 50.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(999), 90.0);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(10'000), 99.9);
  EXPECT_EQ(TailPercentile(100'000), 99.99);
}

TEST(MeasureTest, SummaryUsesNearestRank) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(i);
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.n, 100u);
  EXPECT_EQ(s.p50, 50.0);
  EXPECT_EQ(s.tail_pct, 90.0);
  EXPECT_EQ(s.tail, 90.0);
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
}

Json Reply(const std::string& text) { return *floq::server::ParseJson(text); }

TEST(MeasureTest, OverloadedAndUnknownRepliesAreFailures) {
  EXPECT_EQ(ClassifyReply(Reply(R"({"ok":true,"resolution":"CONTAINED"})")),
            ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply(Reply(R"({"ok":true,"epoch":3})")), ReplyKind::kOk);
  EXPECT_EQ(ClassifyReply(Reply(
                R"({"ok":false,"code":"OVERLOADED","error":"full"})")),
            ReplyKind::kOverloaded);
  EXPECT_EQ(ClassifyReply(Reply(
                R"({"ok":true,"resolution":"UNKNOWN","reason":"timeout"})")),
            ReplyKind::kUnknown);
  EXPECT_EQ(ClassifyReply(Reply(R"({"ok":false,"code":"UNKNOWN"})")),
            ReplyKind::kUnknown);
  EXPECT_EQ(ClassifyReply(Reply(R"({"ok":false,"code":"INVALID"})")),
            ReplyKind::kError);

  Report report;
  report.attempted = 4;
  report.Fail("overloaded");
  report.Fail("unknown");
  EXPECT_EQ(report.failed, 2u);
  EXPECT_FALSE(report.correct);
}

TEST(TraceTest, SelfTimesPlusUnattributedSumToWall) {
  // root A (10 ms) with child B (4 ms) which has a measured child C
  // (1 ms); root D (3 ms); wall 20 ms.
  std::vector<Span> spans(4);
  spans[0] = {"a", Layer::kRegistry, 0, 10, -1, 0};
  spans[1] = {"b", Layer::kIndex, 1, 4, 0, 0};
  spans[2] = {"c", Layer::kHom, 1, 1, 1, 0};
  spans[3] = {"d", Layer::kProtocol, 12, 3, -1, 1};
  const Attribution a = Attribute(spans, 20.0);
  EXPECT_DOUBLE_EQ(a.self_ms[size_t(Layer::kRegistry)], 6.0);
  EXPECT_DOUBLE_EQ(a.self_ms[size_t(Layer::kIndex)], 3.0);
  EXPECT_DOUBLE_EQ(a.self_ms[size_t(Layer::kHom)], 1.0);
  EXPECT_DOUBLE_EQ(a.self_ms[size_t(Layer::kProtocol)], 3.0);
  EXPECT_DOUBLE_EQ(a.unattributed_ms, 7.0);
  EXPECT_TRUE(SumsToWall(a));

  Attribution broken = a;
  broken.unattributed_ms += 1.0;
  EXPECT_FALSE(SumsToWall(broken));
}

TEST(TraceTest, EngineResidualSpreadsHomBusyOverWorkers) {
  EXPECT_DOUBLE_EQ(EngineUnattributedMs(100, 5, 15, 160, 4), 40.0);
  EXPECT_DOUBLE_EQ(EngineUnattributedMs(100, 5, 15, 40, 1), 40.0);
}

TEST(TraceTest, PausedTimeIsExcludedFromTheTraceClock) {
  Tracer tracer(true);
  const double t0 = tracer.Now();
  const int32_t span = tracer.Begin("outer", Layer::kRegistry, 0);
  tracer.Pause();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  tracer.Resume();
  tracer.End(span);
  tracer.AddMeasured(span, "shadow", Layer::kIndex, 30.0);
  EXPECT_LT(tracer.Now() - t0, 25.0);
  ASSERT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.spans()[1].parent, span);
  EXPECT_LT(tracer.spans()[0].dur_ms, 25.0);

  Tracer off(false);
  EXPECT_EQ(off.Begin("x", Layer::kFlogic, 0), -1);
  EXPECT_EQ(off.AddMeasured(0, "y", Layer::kFlogic, 1.0), -1);
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace perfbench
