// Rate-controlled autonomous sources.

#include "workload/rate_source.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "graph/query_graph.h"
#include "operators/latency_sink.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "util/busy_work.h"

namespace flexstream {
namespace {

struct SourceRig {
  QueryGraph graph;
  Source* src;
  CollectingSink* sink;

  SourceRig() {
    src = graph.Add<Source>("src");
    sink = graph.Add<CollectingSink>("sink");
    EXPECT_TRUE(graph.Connect(src, sink).ok());
  }
};

TEST(PhaseTest, Helpers) {
  std::vector<Phase> phases{{100, 50.0}, {200, 0.0}, {300, 100.0}};
  EXPECT_EQ(TotalCount(phases), 600);
  EXPECT_NEAR(ExpectedDurationSeconds(phases), 2.0 + 3.0, 1e-9);
  EXPECT_FALSE(PhasesToString(phases).empty());
}

TEST(RateSourceTest, EmitsExactCountThenCloses) {
  SourceRig rig;
  RateSource::Options opt;
  opt.phases = {{50, 0.0}};  // unpaced
  RateSource driver(rig.src, opt, RateSource::UniformInt(0, 9));
  driver.Run();
  EXPECT_EQ(driver.emitted(), 50);
  EXPECT_EQ(rig.sink->size(), 50u);
  EXPECT_TRUE(rig.sink->closed());
}

TEST(RateSourceTest, TimestampsStrictlyMonotoneWhenUnpaced) {
  SourceRig rig;
  RateSource::Options opt;
  opt.phases = {{100, 0.0}};
  RateSource driver(rig.src, opt, RateSource::UniformInt(0, 9));
  driver.Run();
  auto results = rig.sink->TakeResults();
  for (size_t i = 1; i < results.size(); ++i) {
    EXPECT_GT(results[i].timestamp(), results[i - 1].timestamp());
  }
}

TEST(RateSourceTest, ConstantPacingMatchesSchedule) {
  SourceRig rig;
  RateSource::Options opt;
  opt.phases = {{100, 1000.0}};  // 100 elements at 1000/s = 0.1 s
  RateSource driver(rig.src, opt, RateSource::UniformInt(0, 9));
  Stopwatch sw;
  driver.Run();
  EXPECT_GE(sw.ElapsedSeconds(), 0.09);
  EXPECT_LT(sw.ElapsedSeconds(), 0.5);
  // App timestamps follow the schedule: last ~ 100 * 1000us.
  auto results = rig.sink->TakeResults();
  EXPECT_NEAR(static_cast<double>(results.back().timestamp()), 100'000.0,
              1.0);
}

TEST(RateSourceTest, TimeScaleSpeedsUpWallClock) {
  SourceRig rig;
  RateSource::Options opt;
  opt.phases = {{100, 1000.0}};
  opt.time_scale = 10.0;  // 10x faster than the logical schedule
  RateSource driver(rig.src, opt, RateSource::UniformInt(0, 9));
  Stopwatch sw;
  driver.Run();
  EXPECT_LT(sw.ElapsedSeconds(), 0.1);
  auto results = rig.sink->TakeResults();
  EXPECT_NEAR(static_cast<double>(results.back().timestamp()), 100'000.0,
              1.0)
      << "application timestamps are unaffected by time_scale";
}

TEST(RateSourceTest, PoissonPacingHasSameMeanSchedule) {
  SourceRig rig;
  RateSource::Options opt;
  opt.phases = {{2000, 0.0}};
  opt.pacing = RateSource::Pacing::kPoisson;
  RateSource driver(rig.src, opt, RateSource::UniformInt(0, 9));
  driver.Run();
  EXPECT_EQ(rig.sink->size(), 2000u);
}

TEST(RateSourceTest, PoissonTimestampGapsAreExponential) {
  SourceRig rig;
  RateSource::Options opt;
  opt.phases = {{5000, 10000.0}};  // mean gap 100 us
  opt.pacing = RateSource::Pacing::kPoisson;
  opt.time_scale = 100.0;  // keep the test fast
  RateSource driver(rig.src, opt, RateSource::UniformInt(0, 9));
  driver.Run();
  auto results = rig.sink->TakeResults();
  double sum = 0;
  for (size_t i = 1; i < results.size(); ++i) {
    sum += static_cast<double>(results[i].timestamp() -
                               results[i - 1].timestamp());
  }
  EXPECT_NEAR(sum / static_cast<double>(results.size() - 1), 100.0, 10.0);
}

TEST(RateSourceTest, MultiPhaseSchedule) {
  SourceRig rig;
  RateSource::Options opt;
  opt.phases = {{10, 0.0}, {20, 0.0}, {30, 0.0}};
  RateSource driver(rig.src, opt, RateSource::UniformInt(0, 9));
  driver.Run();
  EXPECT_EQ(driver.emitted(), 60);
}

TEST(RateSourceTest, StartJoinRunsInBackground) {
  SourceRig rig;
  rig.sink->SetSerializedReceive(true);
  RateSource::Options opt;
  opt.phases = {{100, 0.0}};
  RateSource driver(rig.src, opt, RateSource::UniformInt(0, 9));
  driver.Start();
  driver.Join();
  EXPECT_EQ(rig.sink->size(), 100u);
}

TEST(RateSourceTest, RateTimelineRecordsBackpressure) {
  // A slow consumer forces the achieved rate below the schedule — the
  // Figure 6 measurement principle.
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  CallbackSink* sink = g.Add<CallbackSink>(
      "slow", [](const Tuple&, int) { BurnMicros(2000.0); });
  ASSERT_TRUE(g.Connect(src, sink).ok());
  RateSource::Options opt;
  opt.phases = {{200, 2000.0}};  // target 2000/s, consumer allows ~500/s
  opt.record_rate_timeline = true;
  opt.bucket_seconds = 0.1;
  RateSource driver(src, opt, RateSource::UniformInt(0, 9));
  driver.Run();
  auto timeline = driver.TakeRateTimeline();
  ASSERT_FALSE(timeline.empty());
  double peak = 0;
  for (const auto& [t, rate] : timeline) peak = std::max(peak, rate);
  EXPECT_LT(peak, 1500.0) << "achieved rate must fall below the schedule";
}

TEST(RateSourceTest, LateGeneratorLagShowsInLatency) {
  // The generator needs 2 ms per element against a 0.5 ms schedule, so
  // element i is emitted ~1.5 * i ms after its due time. Stamping the due
  // time (not the emission instant) charges that lag to the measured
  // latency instead of hiding it (coordinated omission).
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  const TimePoint epoch = Now();
  LatencySink* sink = g.Add<LatencySink>("lat", /*offset_attr=*/1, epoch);
  ASSERT_TRUE(g.Connect(src, sink).ok());
  RateSource::Options opt;
  opt.phases = {{40, 2000.0}};
  opt.stamp_emit_offset = true;
  opt.stamp_epoch = epoch;
  RateSource driver(src, opt, [](int64_t index, AppTime ts, Rng*) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    return Tuple({Value(index)}, ts);
  });
  driver.Run();
  const Histogram h = sink->TakeHistogram();
  ASSERT_EQ(h.count(), 40);
  // Median lag is ~1.5 ms * 20 = 30 ms; a Now() stamp would read ~0.
  EXPECT_GE(h.Percentile(0.5), 10000.0);
}

TEST(RateSourceTest, GeneratorReceivesIndexAndTimestamp) {
  SourceRig rig;
  RateSource::Options opt;
  opt.phases = {{5, 0.0}};
  RateSource driver(rig.src, opt,
                    [](int64_t index, AppTime ts, Rng*) {
                      return Tuple({Value(index)}, ts);
                    });
  driver.Run();
  auto results = rig.sink->TakeResults();
  for (int64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(results[static_cast<size_t>(i)].IntAt(0), i);
  }
}

}  // namespace
}  // namespace flexstream
