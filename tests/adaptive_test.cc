// Runtime adaptation: measured-statistics queue re-placement (the paper's
// Section 5.1.3 runtime placement mechanism).

#include <gtest/gtest.h>

#include <thread>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "core/adaptive_placement.h"
#include "util/busy_work.h"

namespace flexstream {
namespace {

TEST(SnapshotMeasuredStatsTest, CopiesMeasurementsIntoOverrides) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  Node* sel = qb.Select(src, "sel", Selection::IntAttrLessThan(50));
  qb.CountSink(sel, "sink");
  for (int i = 0; i < 100; ++i) src->Push(Tuple::OfInt(i % 100, i));
  EXPECT_FALSE(sel->has_selectivity_override());
  SnapshotMeasuredStats(&graph, /*min_samples=*/16);
  EXPECT_TRUE(sel->has_selectivity_override());
  EXPECT_NEAR(sel->Selectivity(), 0.5, 0.01);
  EXPECT_TRUE(sel->has_cost_override());
}

TEST(SnapshotMeasuredStatsTest, SkipsUnderSampledNodes) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  Node* sel = qb.Select(src, "sel", Selection::IntAttrLessThan(50));
  qb.CountSink(sel, "sink");
  for (int i = 0; i < 5; ++i) src->Push(Tuple::OfInt(i, i));
  SnapshotMeasuredStats(&graph, /*min_samples=*/16);
  EXPECT_FALSE(sel->has_selectivity_override());
}

TEST(AdaptivePlacementTest, StallingPartitionsDetectedFromMetadata) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  src->SetInterarrivalMicros(100.0);
  Node* cheap = qb.Select(src, "cheap", Selection::IntAttrLessThan(1000));
  cheap->SetCostMicros(1.0);
  cheap->SetSelectivity(1.0);
  qb.CountSink(cheap, "sink");
  StreamEngine engine(&graph);
  EngineOptions options;
  options.mode = ExecutionMode::kHmts;
  ASSERT_TRUE(engine.Configure(options).ok());
  EXPECT_TRUE(StallingPartitions(engine).empty());
  // Make the operator look overloaded and re-check.
  cheap->SetCostMicros(10'000.0);
  EXPECT_FALSE(StallingPartitions(engine).empty());
}

TEST(AdaptivePlacementTest, ReplaceRequiresHmts) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  qb.CountSink(src, "sink");
  StreamEngine engine(&graph);
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  ASSERT_TRUE(engine.Configure(options).ok());
  EXPECT_EQ(ReplaceFromMeasuredStats(&engine).code(),
            StatusCode::kFailedPrecondition);
}

TEST(AdaptivePlacementTest, ReplacementIsolatesNewlyExpensiveOperator) {
  // Start with metadata claiming everything is cheap -> one partition.
  // Then run traffic that reveals an expensive operator; re-placement
  // from measured statistics must decouple it.
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  src->SetInterarrivalMicros(500.0);  // 2000 elements/s
  Node* cheap = qb.Select(src, "cheap", Selection::IntAttrLessThan(1'000'000));
  cheap->SetCostMicros(1.0);
  cheap->SetSelectivity(1.0);
  // Actually burns 2 ms/element, but the initial metadata lies.
  Node* hidden = qb.Select(
      cheap, "hidden_expensive", [](const Tuple&) { return true; },
      /*cost=*/2000.0);
  hidden->SetCostMicros(1.0);
  hidden->SetSelectivity(1.0);
  CountingSink* sink = qb.CountSink(hidden, "sink");
  (void)sink;
  (void)cheap;

  StreamEngine engine(&graph);
  EngineOptions options;
  options.mode = ExecutionMode::kHmts;
  ASSERT_TRUE(engine.Configure(options).ok());
  // With the (wrong) cheap metadata, the operators share one partition.
  EXPECT_EQ(engine.partitioning()->GroupOf(cheap),
            engine.partitioning()->GroupOf(hidden));
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < 50; ++i) src->Push(Tuple::OfInt(i, i * 500));
  // Let the partition process (50 x 2 ms = 100 ms of work).
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  // Sources paused: re-place from measurements.
  ASSERT_TRUE(ReplaceFromMeasuredStats(&engine).ok());
  EXPECT_NE(engine.partitioning()->GroupOf(cheap),
            engine.partitioning()->GroupOf(hidden))
      << "measured 2 ms cost must decouple the expensive operator";
  // The stream still completes correctly after the switch.
  for (int i = 50; i < 100; ++i) src->Push(Tuple::OfInt(i, i * 500));
  src->Close(100 * 500);
  engine.WaitUntilFinished();
  EXPECT_EQ(sink->count(), 100);
}

}  // namespace
}  // namespace flexstream
