#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "util/deadline.h"
#include "util/function_ref.h"
#include "util/interner.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "util/union_find.h"

namespace floq {
namespace {

// ---- Status / Result --------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = InvalidArgumentError("bad foo");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad foo");
  EXPECT_EQ(status.ToString(), "INVALID_ARGUMENT: bad foo");
}

TEST(StatusTest, FactoryFunctionsSetCodes) {
  EXPECT_EQ(NotFoundError("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(FailedPreconditionError("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(ResourceExhaustedError("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(InternalError("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, Equality) {
  EXPECT_EQ(Status(), Status::Ok());
  EXPECT_EQ(InvalidArgumentError("a"), InvalidArgumentError("a"));
  EXPECT_FALSE(InvalidArgumentError("a") == InvalidArgumentError("b"));
  EXPECT_FALSE(InvalidArgumentError("a") == NotFoundError("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> result = 42;
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result = NotFoundError("missing");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result = std::string("payload");
  std::string moved = std::move(result).value();
  EXPECT_EQ(moved, "payload");
}

// ---- strings ------------------------------------------------------------

TEST(StringsTest, StrCatMixesTypes) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.5), "a1b2.5");
  EXPECT_EQ(StrCat(), "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ", "), "");
  EXPECT_EQ(Join({"solo"}, ", "), "solo");
}

TEST(StringsTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  x y  "), "x y");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(StartsWith("_G12", "_G"));
  EXPECT_FALSE(StartsWith("_", "_G"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

// ---- interner -----------------------------------------------------------

TEST(InternerTest, InternIsIdempotent) {
  StringInterner interner;
  uint32_t a = interner.Intern("alpha");
  uint32_t b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.NameOf(a), "alpha");
  EXPECT_EQ(interner.NameOf(b), "beta");
  EXPECT_EQ(interner.size(), 2u);
}

TEST(InternerTest, LookupDoesNotInsert) {
  StringInterner interner;
  EXPECT_EQ(interner.Lookup("ghost"), UINT32_MAX);
  EXPECT_EQ(interner.size(), 0u);
  interner.Intern("ghost");
  EXPECT_NE(interner.Lookup("ghost"), UINT32_MAX);
}

TEST(InternerTest, IdsAreDense) {
  StringInterner interner;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(interner.Intern(StrCat("name", i)), uint32_t(i));
  }
}

// ---- union-find -----------------------------------------------------------

TEST(UnionFindTest, SingletonsAreDistinct) {
  UnionFind uf;
  uf.GrowTo(4);
  EXPECT_FALSE(uf.Same(0, 1));
  EXPECT_EQ(uf.Find(3), 3u);
}

TEST(UnionFindTest, WinnerBecomesRepresentative) {
  UnionFind uf;
  uf.GrowTo(4);
  EXPECT_TRUE(uf.Union(2, 1));
  EXPECT_EQ(uf.Find(1), 2u);
  EXPECT_EQ(uf.Find(2), 2u);
  // Merging again is a no-op.
  EXPECT_FALSE(uf.Union(2, 1));
}

TEST(UnionFindTest, TransitiveMerges) {
  UnionFind uf;
  uf.GrowTo(10);
  uf.Union(0, 1);
  uf.Union(1, 2);  // winner is 0's class root (0)
  EXPECT_TRUE(uf.Same(0, 2));
  EXPECT_EQ(uf.Find(2), 0u);
}

TEST(UnionFindTest, GrowsOnDemand) {
  UnionFind uf;
  EXPECT_EQ(uf.Find(100), 100u);
  EXPECT_GE(uf.size(), 101u);
}

// ---- rng ------------------------------------------------------------------

TEST(RngTest, Deterministic) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t x = rng.Below(10);
    EXPECT_LT(x, 10u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(RngTest, BetweenInclusive) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t x = rng.Between(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo |= x == -3;
    saw_hi |= x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Chance(0.0));
    EXPECT_TRUE(rng.Chance(1.0));
  }
}

// ---- ThreadPool --------------------------------------------------------

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitCanBeReusedAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int batch = 0; batch < 3; ++batch) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
    EXPECT_EQ(counter.load(), (batch + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        counter.fetch_add(1);
      });
    }
  }  // destructor must run the backlog before joining
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(pool, hits.size(),
              [&hits](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ChunkedParallelForRunsEachIndexExactlyOnce) {
  ThreadPool pool(4);
  for (size_t count : {size_t{0}, size_t{1}, pool.size() - 1, size_t{100000},
                       size_t{100003}}) {
    std::vector<std::atomic<int>> hits(count);
    ParallelFor(pool, count, [&hits](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "count " << count << ", index " << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkedParallelForReusesThePool) {
  ThreadPool pool(3);
  std::atomic<size_t> sum{0};
  for (size_t round = 1; round <= 20; ++round) {
    ParallelFor(pool, 1000 * round,
                [&sum](size_t i) { sum.fetch_add(i + 1); });
    const size_t n = 1000 * round;
    ASSERT_EQ(sum.exchange(0), n * (n + 1) / 2) << "round " << round;
  }
  // Plain submissions still run after the chunked calls.
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, ChunkedParallelForQueuesAtMostOneTaskPerWorker) {
  ThreadPool pool(4);
  for (size_t count : {size_t{0}, size_t{2}, size_t{4}, size_t{100000}}) {
    const size_t before = pool.submitted();
    ParallelFor(pool, count, [](size_t) {});
    EXPECT_EQ(pool.submitted() - before, std::min(count, pool.size()))
        << "count " << count;
  }
}

TEST(ThreadPoolTest, ZeroThreadsClampsToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

TEST(ThreadPoolTest, DefaultThreadsIsPositive) {
  EXPECT_GE(ThreadPool::DefaultThreads(), 1u);
}

// ---- FunctionRef -------------------------------------------------------

int FreeFunctionDouble(int x) { return 2 * x; }

TEST(FunctionRefTest, CallsLambda) {
  int calls = 0;
  // The ref is non-owning: the lambda must be a named object that outlives
  // it (a temporary would dangle, exactly as with C++26 std::function_ref).
  auto increment = [&calls](int x) {
    ++calls;
    return x + 1;
  };
  FunctionRef<int(int)> ref = increment;
  EXPECT_EQ(ref(41), 42);
  EXPECT_EQ(ref(1), 2);
  EXPECT_EQ(calls, 2);
}

TEST(FunctionRefTest, CallsFreeFunction) {
  FunctionRef<int(int)> ref = FreeFunctionDouble;
  EXPECT_EQ(ref(21), 42);
}

TEST(FunctionRefTest, PassesReferenceArguments) {
  auto append = [](std::string& out) { out += "x"; };
  FunctionRef<void(std::string&)> ref = append;
  std::string s;
  ref(s);
  ref(s);
  EXPECT_EQ(s, "xx");
}

// ---- borrowed cancellation tokens ------------------------------------------

TEST(BorrowedCancellationTest, BorrowedTokenObservesCancel) {
  CancellationSource source;
  const CancellationToken token = source.token();
  ExecGovernor governor(Deadline::Infinite(), &token);
  EXPECT_TRUE(governor.CheckNow());
  source.Cancel();
  EXPECT_FALSE(governor.CheckNow());
  EXPECT_EQ(governor.trip(), TripReason::kCancelled);

  // The second slot borrows a token the same way.
  CancellationSource other;
  const CancellationToken other_token = other.token();
  ExecGovernor second;
  second.AddCancellation(&other_token);
  EXPECT_TRUE(second.CheckNow());
  other.Cancel();
  EXPECT_FALSE(second.CheckNow());
  EXPECT_EQ(second.trip(), TripReason::kCancelled);
}

TEST(BorrowedCancellationTest, TokenTakenBeforeResetKeepsObservingTheOldFlag) {
  CancellationSource source;
  const CancellationToken cancelled = source.token();
  source.Cancel();
  source.Reset();
  // The source re-armed a fresh flag; the borrowed token still reads the
  // old one, which it keeps alive.
  EXPECT_FALSE(source.cancel_requested());
  ExecGovernor old_flag(Deadline::Infinite(), &cancelled);
  EXPECT_FALSE(old_flag.CheckNow());
  EXPECT_EQ(old_flag.trip(), TripReason::kCancelled);

  const CancellationToken live = source.token();
  ExecGovernor governor(Deadline::Infinite(), &live);
  source.Reset();
  source.Cancel();
  EXPECT_TRUE(source.cancel_requested());
  EXPECT_TRUE(governor.CheckNow());
}

TEST(BorrowedCancellationTest, InertTokenNeverTrips) {
  const CancellationToken inert;
  EXPECT_FALSE(inert.valid());
  EXPECT_FALSE(inert.cancelled());
  ExecGovernor governor(Deadline::Infinite(), &inert);
  governor.AddCancellation(&inert);
  for (uint32_t i = 0; i < 4 * ExecGovernor::kStride; ++i) {
    ASSERT_TRUE(governor.Tick()) << i;
  }
  EXPECT_TRUE(governor.CheckNow());
  EXPECT_FALSE(governor.tripped());
}

}  // namespace
}  // namespace floq
