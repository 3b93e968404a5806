// Router, Distinct, TumblingAggregate, CountWindowAggregate.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>
#include <vector>

#include "graph/query_graph.h"
#include "operators/count_window_aggregate.h"
#include "operators/distinct.h"
#include "operators/router.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/tumbling_aggregate.h"
#include "util/random.h"

namespace flexstream {
namespace {

TEST(RouterTest, PartitionsStreamAcrossSubscribers) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  Router* router = g.Add<Router>(
      "route", [](const Tuple& t) { return static_cast<size_t>(t.IntAt(0)); });
  CollectingSink* sinks[3];
  ASSERT_TRUE(g.Connect(src, router).ok());
  for (int i = 0; i < 3; ++i) {
    sinks[i] = g.Add<CollectingSink>("sink" + std::to_string(i));
    ASSERT_TRUE(g.Connect(router, sinks[i]).ok());
  }
  for (int i = 0; i < 30; ++i) src->Push(Tuple::OfInt(i, i));
  for (int s = 0; s < 3; ++s) {
    auto results = sinks[s]->TakeResults();
    EXPECT_EQ(results.size(), 10u) << "subscriber " << s;
    for (const Tuple& t : results) {
      EXPECT_EQ(t.IntAt(0) % 3, s);
    }
  }
}

TEST(RouterTest, EachElementGoesToExactlyOneSubscriber) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  Router* router = g.Add<Router>("route", Router::HashAttr(0));
  CountingSink* a = g.Add<CountingSink>("a");
  CountingSink* b = g.Add<CountingSink>("b");
  ASSERT_TRUE(g.Connect(src, router).ok());
  ASSERT_TRUE(g.Connect(router, a).ok());
  ASSERT_TRUE(g.Connect(router, b).ok());
  for (int i = 0; i < 1000; ++i) src->Push(Tuple::OfInt(i, i));
  EXPECT_EQ(a->count() + b->count(), 1000);
  EXPECT_GT(a->count(), 300) << "hash routing should balance";
  EXPECT_GT(b->count(), 300);
}

TEST(RouterTest, SameKeyAlwaysSameRoute) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  Router* router = g.Add<Router>("route", Router::HashAttr(0));
  CollectingSink* a = g.Add<CollectingSink>("a");
  CollectingSink* b = g.Add<CollectingSink>("b");
  ASSERT_TRUE(g.Connect(src, router).ok());
  ASSERT_TRUE(g.Connect(router, a).ok());
  ASSERT_TRUE(g.Connect(router, b).ok());
  for (int i = 0; i < 10; ++i) src->Push(Tuple::OfInt(7, i));
  EXPECT_TRUE(a->size() == 10 || b->size() == 10)
      << "all equal keys must land on one side";
}

TEST(RouterTest, EosStillBroadcasts) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  Router* router = g.Add<Router>("route", Router::HashAttr(0));
  CollectingSink* a = g.Add<CollectingSink>("a");
  CollectingSink* b = g.Add<CollectingSink>("b");
  ASSERT_TRUE(g.Connect(src, router).ok());
  ASSERT_TRUE(g.Connect(router, a).ok());
  ASSERT_TRUE(g.Connect(router, b).ok());
  src->Close(1);
  EXPECT_TRUE(a->closed());
  EXPECT_TRUE(b->closed());
}

/// Collects rows and counts the batches that delivered them.
class BatchCountingSink : public CollectingSink {
 public:
  using CollectingSink::CollectingSink;
  int batches = 0;

 protected:
  void ProcessColumnar(ColumnarBatchPtr batch, int port) override {
    ++batches;
    CollectingSink::ProcessColumnar(std::move(batch), port);
  }
};

struct RoutedRun {
  std::vector<std::vector<Tuple>> outputs;  // per subscriber, in order
  int batches = 0;                          // summed over subscribers
};

/// Routes 64 (int key, string payload) rows through a Router with
/// `fan_out` subscribers; `batch_size` > 1 feeds it columnar batches.
RoutedRun RouteStream(size_t fan_out, bool sequencing, size_t batch_size) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  Router* router = g.Add<Router>("route", Router::HashAttr(0));
  router->SetSequencing(sequencing);
  EXPECT_TRUE(g.Connect(src, router).ok());
  std::vector<BatchCountingSink*> sinks;
  for (size_t i = 0; i < fan_out; ++i) {
    sinks.push_back(g.Add<BatchCountingSink>("sink" + std::to_string(i)));
    EXPECT_TRUE(g.Connect(router, sinks.back()).ok());
  }
  src->SetBatchSize(batch_size);
  for (int i = 0; i < 64; ++i) {
    src->Push(Tuple({Value(int64_t{i % 11}), Value("p" + std::to_string(i))},
                    i));
  }
  src->Close(64);
  RoutedRun run;
  for (BatchCountingSink* sink : sinks) {
    run.outputs.push_back(sink->TakeResults());
    run.batches += sink->batches;
  }
  return run;
}

TEST(RouterTest, ColumnarScatterMatchesPerTupleRouting) {
  for (size_t fan_out : {size_t{1}, size_t{4}}) {
    for (bool sequencing : {false, true}) {
      SCOPED_TRACE("fan_out=" + std::to_string(fan_out) +
                   " sequencing=" + std::to_string(sequencing));
      const RoutedRun rows = RouteStream(fan_out, sequencing, 1);
      const RoutedRun cols = RouteStream(fan_out, sequencing, 8);
      EXPECT_EQ(rows.batches, 0);
      // 8 source batches; each scatters into at most fan_out runs.
      EXPECT_GE(cols.batches, 8);
      EXPECT_LE(cols.batches, static_cast<int>(8 * fan_out));
      ASSERT_EQ(cols.outputs.size(), rows.outputs.size());
      uint64_t min_seq = ~0ull;
      for (const std::vector<Tuple>& out : cols.outputs) {
        for (const Tuple& t : out) min_seq = std::min(min_seq, t.seq());
      }
      size_t total = 0;
      for (size_t s = 0; s < fan_out; ++s) {
        const std::vector<Tuple>& want = rows.outputs[s];
        const std::vector<Tuple>& got = cols.outputs[s];
        ASSERT_EQ(got.size(), want.size()) << "subscriber " << s;
        total += got.size();
        for (size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].IntAt(0), want[i].IntAt(0));
          EXPECT_EQ(got[i].StringAt(1), want[i].StringAt(1));
          EXPECT_EQ(got[i].timestamp(), want[i].timestamp());
          if (sequencing) {
            // One bulk reservation per batch: stamps are the arrival
            // index relative to the first stamp, as on the per-tuple path.
            EXPECT_EQ(got[i].seq() - min_seq,
                      static_cast<uint64_t>(got[i].timestamp()));
          } else {
            EXPECT_EQ(got[i].seq(), 0u);
          }
        }
      }
      EXPECT_EQ(total, 64u);
    }
  }
}

struct UnaryRig {
  QueryGraph graph;
  Source* src;
  CollectingSink* sink;

  template <typename T, typename... Args>
  T* Wire(Args&&... args) {
    src = graph.Add<Source>("src");
    T* op = graph.Add<T>(std::forward<Args>(args)...);
    sink = graph.Add<CollectingSink>("sink");
    EXPECT_TRUE(graph.Connect(src, op).ok());
    EXPECT_TRUE(graph.Connect(op, sink).ok());
    return op;
  }
};

TEST(DistinctTest, SuppressesDuplicatesInWindow) {
  UnaryRig rig;
  rig.Wire<Distinct>("d", /*window=*/100);
  rig.src->Push(Tuple::OfInt(1, 0));
  rig.src->Push(Tuple::OfInt(1, 10));   // duplicate in window
  rig.src->Push(Tuple::OfInt(2, 20));
  rig.src->Push(Tuple::OfInt(1, 200));  // first copy expired: re-emitted
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].timestamp(), 0);
  EXPECT_EQ(results[1].IntAt(0), 2);
  EXPECT_EQ(results[2].timestamp(), 200);
}

TEST(DistinctTest, KeyAttrsCompareSubset) {
  UnaryRig rig;
  rig.Wire<Distinct>("d", /*window=*/1000, std::vector<size_t>{0});
  rig.src->Push(Tuple({Value(1), Value("a")}, 1));
  rig.src->Push(Tuple({Value(1), Value("b")}, 2));  // same key attr 0
  rig.src->Push(Tuple({Value(2), Value("a")}, 3));
  EXPECT_EQ(rig.sink->size(), 2u);
}

TEST(DistinctTest, SuppressedDuplicatesStillOccupyWindow) {
  UnaryRig rig;
  Distinct* d = rig.Wire<Distinct>("d", /*window=*/100);
  rig.src->Push(Tuple::OfInt(1, 0));
  rig.src->Push(Tuple::OfInt(1, 90));  // suppressed but windowed
  rig.src->Push(Tuple::OfInt(1, 150));
  // At ts 150 the first copy (ts 0) expired but the second (ts 90) is
  // alive, so 150 is still a duplicate.
  EXPECT_EQ(rig.sink->size(), 1u);
  EXPECT_EQ(d->window_size(), 2u);
}

TEST(DistinctTest, ResetClears) {
  UnaryRig rig;
  rig.Wire<Distinct>("d", /*window=*/100);
  rig.src->Push(Tuple::OfInt(1, 0));
  EXPECT_EQ(rig.sink->size(), 1u);
  rig.graph.ResetAll();  // also clears the collecting sink
  rig.src->Push(Tuple::OfInt(1, 1));
  EXPECT_EQ(rig.sink->size(), 1u)
      << "after reset the key is new again and is re-emitted";
}

TEST(TumblingAggregateTest, EmitsOncePerWindow) {
  TumblingAggregate::Options opt;
  opt.kind = AggregateKind::kSum;
  opt.window_micros = 100;
  UnaryRig rig;
  rig.Wire<TumblingAggregate>("t", opt);
  rig.src->Push(Tuple::OfInt(10, 0));
  rig.src->Push(Tuple::OfInt(20, 50));
  EXPECT_EQ(rig.sink->size(), 0u) << "window 0 still open";
  rig.src->Push(Tuple::OfInt(5, 120));  // opens window 1 -> flush window 0
  auto results = rig.sink->Results();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].DoubleAt(0), 30.0);
  EXPECT_EQ(results[0].timestamp(), 100) << "stamped with window end";
  rig.src->Close(200);  // flush final window
  results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[1].DoubleAt(0), 5.0);
  EXPECT_TRUE(rig.sink->closed());
}

TEST(TumblingAggregateTest, SkippedWindowsEmitNothing) {
  TumblingAggregate::Options opt;
  opt.kind = AggregateKind::kCount;
  opt.window_micros = 10;
  UnaryRig rig;
  rig.Wire<TumblingAggregate>("t", opt);
  rig.src->Push(Tuple::OfInt(1, 5));
  rig.src->Push(Tuple::OfInt(1, 95));  // windows 1..8 empty
  rig.src->Close(100);
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].DoubleAt(0), 1.0);
  EXPECT_EQ(results[1].DoubleAt(0), 1.0);
}

TEST(TumblingAggregateTest, GroupByEmitsPerGroupDeterministically) {
  TumblingAggregate::Options opt;
  opt.kind = AggregateKind::kAvg;
  opt.value_attr = 1;
  opt.group_attr = 0;
  opt.window_micros = 100;
  UnaryRig rig;
  rig.Wire<TumblingAggregate>("t", opt);
  rig.src->Push(Tuple({Value(1), Value(10)}, 0));
  rig.src->Push(Tuple({Value(2), Value(40)}, 10));
  rig.src->Push(Tuple({Value(1), Value(20)}, 20));
  rig.src->Close(100);
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].IntAt(0), 1);
  EXPECT_EQ(results[0].DoubleAt(1), 15.0);
  EXPECT_EQ(results[1].IntAt(0), 2);
  EXPECT_EQ(results[1].DoubleAt(1), 40.0);
}

TEST(TumblingAggregateTest, MinMax) {
  TumblingAggregate::Options opt;
  opt.kind = AggregateKind::kMin;
  opt.window_micros = 100;
  UnaryRig rig;
  rig.Wire<TumblingAggregate>("t", opt);
  rig.src->Push(Tuple::OfInt(5, 0));
  rig.src->Push(Tuple::OfInt(-3, 10));
  rig.src->Push(Tuple::OfInt(7, 20));
  rig.src->Close(100);
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].DoubleAt(0), -3.0);
}

TEST(TumblingAggregateTest, WindowStartStampOption) {
  TumblingAggregate::Options opt;
  opt.kind = AggregateKind::kCount;
  opt.window_micros = 100;
  opt.stamp_window_start = true;
  UnaryRig rig;
  rig.Wire<TumblingAggregate>("t", opt);
  rig.src->Push(Tuple::OfInt(1, 150));
  rig.src->Close(200);
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].timestamp(), 100);
}

TEST(CountWindowAggregateTest, LastNSemantics) {
  CountWindowAggregate::Options opt;
  opt.kind = AggregateKind::kSum;
  opt.window_rows = 3;
  UnaryRig rig;
  rig.Wire<CountWindowAggregate>("c", opt);
  for (int i = 1; i <= 5; ++i) rig.src->Push(Tuple::OfInt(i, i));
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0].DoubleAt(0), 1.0);         // {1}
  EXPECT_EQ(results[2].DoubleAt(0), 6.0);         // {1,2,3}
  EXPECT_EQ(results[4].DoubleAt(0), 4.0 + 5 + 3);  // {3,4,5}
}

TEST(CountWindowAggregateTest, MinTracksEviction) {
  CountWindowAggregate::Options opt;
  opt.kind = AggregateKind::kMin;
  opt.window_rows = 2;
  UnaryRig rig;
  rig.Wire<CountWindowAggregate>("c", opt);
  rig.src->Push(Tuple::OfInt(1, 1));
  rig.src->Push(Tuple::OfInt(5, 2));
  rig.src->Push(Tuple::OfInt(9, 3));  // 1 evicted -> min {5,9} = 5
  auto results = rig.sink->TakeResults();
  EXPECT_EQ(results[2].DoubleAt(0), 5.0);
}

// Property: count-window sum equals brute-force over random streams.
class CountWindowPropertyTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CountWindowPropertyTest, SumMatchesBruteForce) {
  const size_t rows = GetParam();
  CountWindowAggregate::Options opt;
  opt.kind = AggregateKind::kSum;
  opt.window_rows = rows;
  UnaryRig rig;
  rig.Wire<CountWindowAggregate>("c", opt);
  Rng rng(rows);
  std::deque<int64_t> oracle;
  std::vector<double> expected;
  for (int i = 0; i < 300; ++i) {
    const int64_t v = rng.UniformInt(-50, 50);
    oracle.push_back(v);
    if (oracle.size() > rows) oracle.pop_front();
    double sum = 0;
    for (int64_t x : oracle) sum += static_cast<double>(x);
    expected.push_back(sum);
    rig.src->Push(Tuple::OfInt(v, i));
  }
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(results[i].DoubleAt(0), expected[i], 1e-9) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CountWindowPropertyTest,
                         ::testing::Values(1, 2, 7, 64, 1000));

}  // namespace
}  // namespace flexstream
