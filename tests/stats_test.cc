// EWMA, OpStats, the capacity model and rate propagation.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>

#include "graph/query_graph.h"
#include "graph/random_dag.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/union_op.h"
#include "stats/capacity.h"
#include "stats/ewma.h"
#include "stats/op_stats.h"
#include "util/busy_work.h"

namespace flexstream {
namespace {

TEST(EwmaTest, FirstSampleSetsValue) {
  Ewma e(0.1);
  e.Add(10.0);
  EXPECT_EQ(e.value(), 10.0);
  EXPECT_EQ(e.count(), 1);
}

TEST(EwmaTest, ConvergesToConstant) {
  Ewma e(0.2);
  e.Add(0.0);
  for (int i = 0; i < 100; ++i) e.Add(5.0);
  EXPECT_NEAR(e.value(), 5.0, 1e-6);
}

TEST(EwmaTest, RecencyWeighting) {
  Ewma slow(0.01);
  Ewma fast(0.9);
  slow.Add(0.0);
  fast.Add(0.0);
  slow.Add(100.0);
  fast.Add(100.0);
  EXPECT_LT(slow.value(), fast.value());
}

TEST(EwmaTest, MeanIsArithmetic) {
  Ewma e(0.5);
  e.Add(1.0);
  e.Add(3.0);
  EXPECT_EQ(e.mean(), 2.0);
}

TEST(EwmaTest, ResetClears) {
  Ewma e(0.5);
  e.Add(7.0);
  e.Reset();
  EXPECT_TRUE(e.empty());
  EXPECT_EQ(e.value(), 0.0);
}

TEST(OpStatsTest, CostTracksProcessingSamples) {
  OpStats s;
  s.RecordProcessed(10.0);
  s.RecordProcessed(10.0);
  EXPECT_NEAR(s.CostMicros(), 10.0, 1e-9);
  EXPECT_EQ(s.processed(), 2);
  EXPECT_NEAR(s.BusyMicros(), 20.0, 1e-9);
}

TEST(OpStatsTest, InterarrivalInfiniteBeforeTwoArrivals) {
  OpStats s;
  EXPECT_TRUE(std::isinf(s.InterarrivalMicros()));
  const TimePoint t0 = Now();
  s.RecordArrival(t0);
  EXPECT_TRUE(std::isinf(s.InterarrivalMicros()));
  s.RecordArrival(t0 + FromMicros(100));
  EXPECT_NEAR(s.InterarrivalMicros(), 100.0, 1.0);
}

TEST(OpStatsTest, SubMicrosecondGapsAreNotTruncated) {
  OpStats s;
  const TimePoint t0 = Now();
  s.RecordArrival(t0);
  s.RecordArrival(t0 + std::chrono::nanoseconds(400));
  EXPECT_NEAR(s.InterarrivalMicros(), 0.4, 1e-6);
}

TEST(OpStatsTest, SubMicrosecondCostIsNotTruncated) {
  // Self time is measured in fractional microseconds: a 0.3 us per-tuple
  // cost must not read as 0 (c(v) feeds the Chain and Segment strategies).
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  Selection* sel = g.Add<Selection>("sel", [](const Tuple&) { return true; });
  CountingSink* sink = g.Add<CountingSink>("sink");
  ASSERT_TRUE(g.Connect(src, sel).ok());
  ASSERT_TRUE(g.Connect(sel, sink).ok());
  sel->SetSimulatedCostMicros(0.3);
  BurnMicros(0.3);  // calibrates the burn loop outside the measured runs
  for (int i = 0; i < 200; ++i) src->Push(Tuple::OfInt(i, i));
  src->Close(200);
  EXPECT_EQ(sink->count(), 200);
  EXPECT_GE(sel->stats().CostMicros(), 0.2);
  EXPECT_GT(sel->stats().BusyMicros(), 0.0);
}

TEST(OpStatsTest, SelectivityRatio) {
  OpStats s;
  EXPECT_EQ(s.Selectivity(), 1.0) << "no data => neutral selectivity";
  for (int i = 0; i < 4; ++i) s.RecordProcessed(1.0);
  s.RecordEmitted(1);
  EXPECT_NEAR(s.Selectivity(), 0.25, 1e-9);
}

TEST(OpStatsTest, ResetClearsEverything) {
  OpStats s;
  s.RecordArrival(Now());
  s.RecordProcessed(5.0);
  s.RecordEmitted(2);
  s.Reset();
  EXPECT_EQ(s.processed(), 0);
  EXPECT_EQ(s.emitted(), 0);
  EXPECT_EQ(s.arrivals(), 0);
  EXPECT_EQ(s.CostMicros(), 0.0);
}

TEST(CapacityTest, SingleNode) {
  CapacityAccumulator acc;
  acc.AddNode(/*cost=*/30.0, /*d=*/100.0);
  EXPECT_EQ(acc.CombinedCost(), 30.0);
  EXPECT_NEAR(acc.CombinedInterarrival(), 100.0, 1e-9);
  EXPECT_NEAR(acc.Capacity(), 70.0, 1e-9);
}

TEST(CapacityTest, CombinationFormulas) {
  // c(P) = sum; d(P) = 1 / sum(1/d): two nodes at d=100 -> d(P)=50.
  CapacityAccumulator acc;
  acc.AddNode(10.0, 100.0);
  acc.AddNode(20.0, 100.0);
  EXPECT_EQ(acc.CombinedCost(), 30.0);
  EXPECT_NEAR(acc.CombinedInterarrival(), 50.0, 1e-9);
  EXPECT_NEAR(acc.Capacity(), 20.0, 1e-9);
}

TEST(CapacityTest, InfiniteInterarrivalIgnored) {
  CapacityAccumulator acc;
  acc.AddNode(5.0, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(acc.CombinedInterarrival()));
  EXPECT_TRUE(std::isinf(acc.Capacity()));
  acc.AddNode(5.0, 100.0);
  EXPECT_NEAR(acc.CombinedInterarrival(), 100.0, 1e-9);
  EXPECT_NEAR(acc.Capacity(), 90.0, 1e-9);
}

TEST(CapacityTest, MergeEqualsAddingAll) {
  CapacityAccumulator a;
  a.AddNode(1.0, 10.0);
  CapacityAccumulator b;
  b.AddNode(2.0, 20.0);
  a.Merge(b);
  CapacityAccumulator both;
  both.AddNode(1.0, 10.0);
  both.AddNode(2.0, 20.0);
  EXPECT_NEAR(a.Capacity(), both.Capacity(), 1e-12);
  EXPECT_EQ(a.size(), 2u);
}

TEST(CapacityTest, CapacityOfNodesReadsMetadata) {
  QueryGraph g;
  Selection* s1 = g.Add<Selection>("a", [](const Tuple&) { return true; });
  Selection* s2 = g.Add<Selection>("b", [](const Tuple&) { return true; });
  s1->SetCostMicros(10.0);
  s1->SetInterarrivalMicros(100.0);
  s2->SetCostMicros(20.0);
  s2->SetInterarrivalMicros(100.0);
  EXPECT_NEAR(CapacityOfNodes({s1, s2}), 20.0, 1e-9);
}

TEST(PropagateRatesTest, ChainWithSelectivity) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  Selection* s1 = g.Add<Selection>("s1", [](const Tuple&) { return true; });
  Selection* s2 = g.Add<Selection>("s2", [](const Tuple&) { return true; });
  ASSERT_TRUE(g.Connect(src, s1).ok());
  ASSERT_TRUE(g.Connect(s1, s2).ok());
  src->SetInterarrivalMicros(100.0);  // 10k elements/sec
  src->SetSelectivity(1.0);
  s1->SetSelectivity(0.5);
  s2->SetSelectivity(1.0);
  ASSERT_TRUE(PropagateRates(&g).ok());
  EXPECT_NEAR(s1->InterarrivalMicros(), 100.0, 1e-9);
  EXPECT_NEAR(s2->InterarrivalMicros(), 200.0, 1e-9)
      << "selectivity 0.5 halves the downstream rate";
}

TEST(PropagateRatesTest, FanInSumsRates) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  UnionOp* u = g.Add<UnionOp>("u");
  ASSERT_TRUE(g.Connect(a, u).ok());
  ASSERT_TRUE(g.Connect(b, u).ok());
  a->SetInterarrivalMicros(100.0);
  b->SetInterarrivalMicros(50.0);
  a->SetSelectivity(1.0);
  b->SetSelectivity(1.0);
  u->SetSelectivity(1.0);
  ASSERT_TRUE(PropagateRates(&g).ok());
  // rates: 0.01 + 0.02 = 0.03 per us -> d = 33.3 us.
  EXPECT_NEAR(u->InterarrivalMicros(), 1.0 / 0.03, 1e-6);
}

TEST(PropagateRatesTest, FailsWithoutSourceMetadata) {
  QueryGraph g;
  Source* src = g.Add<Source>("src");
  Selection* s = g.Add<Selection>("s", [](const Tuple&) { return true; });
  ASSERT_TRUE(g.Connect(src, s).ok());
  EXPECT_EQ(PropagateRates(&g).code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace flexstream
