// Tests of the benchmark itself: its metric arithmetic, and every workload
// at a tiny size passing its own output checks, traced and untraced alike.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "okbench/okbench_stats.h"
#include "okbench/okbench_trace.h"
#include "okbench/okbench_workloads.h"

namespace okbench {
namespace {

TEST(PercentileTest, NearestRankIndex) {
  EXPECT_EQ(PercentileIndex(1, 0.5), 0u);
  EXPECT_EQ(PercentileIndex(10, 0.5), 4u);
  EXPECT_EQ(PercentileIndex(11, 0.5), 5u);
  EXPECT_EQ(PercentileIndex(100, 0.99), 98u);
  EXPECT_EQ(PercentileIndex(1000, 0.99), 989u);
  EXPECT_EQ(PercentileIndex(1000, 1.0), 999u);
}

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  EXPECT_EQ(TailSamples(1000, 0.99), 10u);
  EXPECT_TRUE(PercentileSupported(1000, 0.99));
  EXPECT_FALSE(PercentileSupported(999, 0.99));
  EXPECT_FALSE(PercentileSupported(100, 0.99));
  EXPECT_FALSE(PercentileSupported(0, 0.5));
  EXPECT_TRUE(PercentileSupported(21, 0.5));
}

TEST(PercentileTest, ReadsTheSortedSample) {
  std::vector<uint64_t> v;
  for (uint64_t i = 1; i <= 1000; ++i) {
    v.push_back(i);
  }
  EXPECT_EQ(Percentile(v, 0.50), 500u);
  EXPECT_EQ(Percentile(v, 0.99), 990u);
}

TEST(MedianTest, OddEvenAndEmpty) {
  EXPECT_EQ(Median({3, 1, 2}), 2);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TEST(RatioTest, EmptyBaseIsZero) {
  EXPECT_EQ(Ratio(10, 4), 2.5);
  EXPECT_EQ(Ratio(10, 0), 0);
}

TEST(SelfTimeTest, SubtractsDirectChildrenOnly) {
  // pump [0,100) holds handler A [10,40) and handler B [50,90); B holds a
  // nested span [60,70). A client step [100,120) is a second root.
  std::vector<Span> spans(5);
  spans[0] = {0, -1, 0, 100, 0};
  spans[1] = {1, 0, 10, 40, 7};
  spans[2] = {1, 0, 50, 90, 8};
  spans[3] = {2, 2, 60, 70, 8};
  spans[4] = {3, -1, 100, 120, 0};
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 30 - 40);
  EXPECT_EQ(self[1], 30);
  EXPECT_EQ(self[2], 40 - 10);
  EXPECT_EQ(self[3], 10);
  EXPECT_EQ(self[4], 20);
  // Self times partition the root time exactly.
  int64_t sum = 0;
  for (int64_t s : self) {
    sum += s;
  }
  EXPECT_EQ(sum, 120);
}

TEST(SpanRecorderTest, NestsByOpenSpan) {
  SpanRecorder rec;
  const uint32_t outer = rec.NameId("pump");
  const uint32_t inner = rec.NameId("demux.handle");
  EXPECT_EQ(rec.NameId("pump"), outer);
  rec.Begin(outer, 0);
  rec.Begin(inner, 42);
  rec.End();
  rec.End();
  rec.Begin(outer, 0);
  rec.End();
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].trace_id, 42u);
  EXPECT_EQ(rec.spans()[2].parent, -1);
  EXPECT_LE(rec.spans()[0].start_ns, rec.spans()[1].start_ns);
  EXPECT_LE(rec.spans()[1].end_ns, rec.spans()[0].end_ns);
}

TEST(SerializeTest, RoundTripsEveryField) {
  RoundResult r;
  r.attempted = 1000;
  r.failed = 2;
  r.errors = {"request 3 (user 1): status 500", "second\nline"};
  r.setup_s = 0.012345678901234567;
  r.measured_s = 1.5;
  r.completed = 998;
  r.counts = {{"cycles.elapsed", 14800775912.0}, {"kernel.sends", 108961}};
  r.host_ns = {{"kernel.pump_self", 123456789.0}};
  r.calls = {{"okws.worker", 4000}};
  r.root_span_ns = 987654321.0;
  r.peak_rss_mb = 12.5;
  const RoundResult back = Deserialize(Serialize(r));
  EXPECT_EQ(back.attempted, r.attempted);
  EXPECT_EQ(back.failed, r.failed);
  EXPECT_EQ(back.errors, (std::vector<std::string>{"request 3 (user 1): status 500",
                                                    "second line"}));
  EXPECT_EQ(back.setup_s, r.setup_s);
  EXPECT_EQ(back.measured_s, r.measured_s);
  EXPECT_EQ(back.completed, r.completed);
  EXPECT_EQ(back.counts, r.counts);
  EXPECT_EQ(back.host_ns, r.host_ns);
  EXPECT_EQ(back.calls, r.calls);
  EXPECT_EQ(back.root_span_ns, r.root_span_ns);
  EXPECT_EQ(back.peak_rss_mb, r.peak_rss_mb);
}

// Each workload, shrunk, must answer every request correctly; a traced
// round must reproduce the untraced round's counts exactly, and its layer
// self times must add up to its root spans.
class TinyWorkloadTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyWorkloadTest, PassesOutputChecksTracedAndUntraced) {
  WorkloadSpec spec = *FindWorkload(GetParam());
  spec.users = 24;
  spec.requests = 1000;
  const std::string dir = ::testing::TempDir() + "okbench-" + spec.name;

  const RoundResult plain = RunRound(spec, 7, dir, "");
  for (const std::string& e : plain.errors) {
    ADD_FAILURE() << e;
  }
  EXPECT_EQ(plain.failed, 0u);
  EXPECT_EQ(plain.attempted, 1000u);
  EXPECT_EQ(plain.completed, 1000u);
  EXPECT_EQ(plain.counts.at("completed"), 1000);
  EXPECT_GT(plain.counts.at("cycles.elapsed"), 0);

  const RoundResult traced = RunRound(spec, 7, dir, dir + "-spans.csv");
  EXPECT_EQ(traced.failed, 0u);
  EXPECT_EQ(traced.counts, plain.counts);
  double layer_sum = 0;
  for (const auto& [layer, ns] : traced.host_ns) {
    layer_sum += ns;
  }
  EXPECT_NEAR(layer_sum, traced.root_span_ns, 1.0);
  EXPECT_LE(traced.root_span_ns, traced.measured_s * 1e9);
  EXPECT_GT(traced.calls.at("okws.worker"), 0);
  EXPECT_GT(traced.calls.at("net.netd"), 0);
  std::remove((dir + "-spans.csv").c_str());

  // A different seed is a different script over the same system.
  const RoundResult other = RunRound(spec, 8, dir, "");
  EXPECT_EQ(other.failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyWorkloadTest,
                         ::testing::Values("echo_hot", "login_5k", "notes_durable"));

}  // namespace
}  // namespace okbench

// RunRound re-executes this binary for each round.
int main(int argc, char** argv) {
  const int round = okbench::RoundMain(argc, argv);
  if (round >= 0) {
    return round;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
