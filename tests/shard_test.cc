// Key-partitioned operator sharding (src/api/shard.h, DESIGN.md §13):
// the hardened Router hash, punctuation broadcast across Router fan-out,
// the ordered Merge release rule and its edge cases, the ShardOperator
// graph rewrite, sharded-vs-unsharded equivalence, and restore-time
// snapshot repartitioning when the replica count changes.
//
// Runs under the `check-shard` CMake target
// (ctest -R "Shard|OrderedMerge|RouterHash|RouterPunctuation").

#include <algorithm>
#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/query_builder.h"
#include "api/shard.h"
#include "api/stream_engine.h"
#include "graph/query_graph.h"
#include "operators/aggregate.h"
#include "operators/merge.h"
#include "operators/router.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/symmetric_hash_join.h"
#include "operators/symmetric_nl_join.h"
#include "recovery/state_snapshot.h"
#include "stats/report.h"
#include "tuple/batch_pool.h"
#include "tuple/tuple.h"
#include "util/random.h"

namespace flexstream {
namespace {

constexpr auto kWait = std::chrono::seconds(60);
constexpr AppTime kHugeWindow = 1'000'000'000'000;

// ---------------------------------------------------------------------------
// Router hash hardening (satellite: splitmix64 finalizer over Value::Hash).

std::array<int, 4> BucketCounts(const std::vector<int64_t>& keys) {
  std::array<int, 4> buckets{};
  for (int64_t key : keys) {
    buckets[Router::HashValue(Value(key)) % buckets.size()]++;
  }
  return buckets;
}

void ExpectBalanced(const std::array<int, 4>& buckets, int total,
                    double min_share, double max_share) {
  for (size_t i = 0; i < buckets.size(); ++i) {
    const double share = static_cast<double>(buckets[i]) / total;
    EXPECT_GE(share, min_share) << "bucket " << i << " starved";
    EXPECT_LE(share, max_share) << "bucket " << i << " overloaded";
  }
}

TEST(RouterHashTest, SequentialKeysBalance) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 10000; ++i) keys.push_back(i);
  // Raw integer hashes are frequently identity-like; sequential keys would
  // then stripe perfectly... into whatever pattern `% n` makes of them.
  // The splitmix64 finalizer must spread them uniformly regardless.
  ExpectBalanced(BucketCounts(keys), 10000, 0.15, 0.35);
}

TEST(RouterHashTest, StridedKeysBalance) {
  // Power-of-two strides are the classic degenerate case for weak hashes
  // combined with power-of-two bucket counts.
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 10000; ++i) keys.push_back(i * 1024);
  ExpectBalanced(BucketCounts(keys), 10000, 0.15, 0.35);
}

TEST(RouterHashTest, ZipfKeysBalance) {
  // Skewed key popularity: the heaviest key of Zipf(1000, 0.8) carries
  // ~5% of the mass, so 4 buckets can stay reasonably balanced as long as
  // distinct keys spread well.
  Rng rng(42);
  std::vector<int64_t> keys;
  for (int i = 0; i < 20000; ++i) keys.push_back(rng.Zipf(1000, 0.8));
  ExpectBalanced(BucketCounts(keys), 20000, 0.10, 0.45);
}

TEST(RouterHashTest, MixHashScramblesAndIsDeterministic) {
  EXPECT_NE(Router::MixHash(0), 0u);
  EXPECT_NE(Router::MixHash(1), Router::MixHash(2));
  EXPECT_EQ(Router::MixHash(7), Router::MixHash(7));
  // Neighboring inputs must disagree in roughly half their bits.
  const uint64_t diff = Router::MixHash(1000) ^ Router::MixHash(1001);
  EXPECT_GE(__builtin_popcountll(diff), 16);
}

// ---------------------------------------------------------------------------
// Punctuation broadcast across a Router fan-out (satellite: regression for
// routing EOS/barriers to a single subscriber). If punctuations followed
// the route function, one branch would never close (the run would hang)
// and barrier alignment downstream would stall every commit.

TEST(RouterPunctuationTest, BroadcastsEosAndBarriersAcrossFanOut) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  // Destinations are built unconnected; Route() wires them to the router.
  auto pass = [](const Tuple&) { return true; };
  Selection* even = graph.Add<Selection>("even", pass);
  Selection* odd = graph.Add<Selection>("odd", pass);
  qb.Route(src, "route", Router::HashAttr(0), {even, odd});
  CollectingSink* even_sink = qb.CollectSink(even, "even_sink");
  CollectingSink* odd_sink = qb.CollectSink(odd, "odd_sink");

  StreamEngine engine(&graph);
  EngineOptions options;
  options.mode = ExecutionMode::kGts;
  options.checkpoint_epoch_interval = 10;
  ASSERT_TRUE(engine.Configure(options).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (int i = 0; i < 100; ++i) {
    src->Push(Tuple::OfInt(i, i + 1));
  }
  src->Close(101);
  // Hangs here (timeout) if EOS went to only one branch.
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();

  // Both branches closed and between them saw the full stream.
  const std::vector<Tuple> even_out = even_sink->TakeResults();
  const std::vector<Tuple> odd_out = odd_sink->TakeResults();
  EXPECT_EQ(even_out.size() + odd_out.size(), 100u);
  EXPECT_GT(even_out.size(), 0u);
  EXPECT_GT(odd_out.size(), 0u);
  // Barriers crossed the fan-out too: epochs committed on both branches.
  ASSERT_NE(engine.recovery(), nullptr);
  EXPECT_GT(engine.recovery()->coordinator().committed_epoch(), 0u);
}

// ---------------------------------------------------------------------------
// Ordered merge edge cases (satellite). A LaneFeeder drives one merge lane
// directly, standing in for a shard replica: it emits pre-stamped tuples.

class LaneFeeder : public Operator {
 public:
  explicit LaneFeeder(std::string name)
      : Operator(Kind::kOperator, std::move(name), /*input_arity=*/1) {}

  /// Emits one data element stamped with arrival sequence `seq`.
  void Feed(int64_t value, uint64_t seq) {
    Tuple tuple = Tuple::OfInt(value, static_cast<AppTime>(seq) + 1);
    tuple.set_seq(seq);
    EmitMove(std::move(tuple));
  }

  /// Emits a whole pre-stamped batch (batch-delivery path).
  void FeedBatch(std::vector<std::pair<int64_t, uint64_t>> elements) {
    ColumnarBatchPtr batch =
        columnar::AcquireBatch(MakeSchema({Value::Type::kInt64}));
    for (auto& [value, seq] : elements) {
      Tuple tuple = Tuple::OfInt(value, static_cast<AppTime>(seq) + 1);
      tuple.set_seq(seq);
      EXPECT_TRUE(batch->AppendTuple(tuple));
    }
    EmitColumnar(std::move(batch));
  }

  void CloseLane(AppTime timestamp = 0) { EmitEos(timestamp); }
  void Barrier(uint64_t epoch) { EmitBarrier(Tuple::EpochBarrier(epoch)); }

 protected:
  void Process(const Tuple&, int) override {}
};

struct MergeRig {
  QueryGraph graph;
  LaneFeeder* lane0 = nullptr;
  LaneFeeder* lane1 = nullptr;
  MergeOperator* merge = nullptr;
  CollectingSink* sink = nullptr;

  explicit MergeRig(MergeOperator::Order order = MergeOperator::Order::kSequence) {
    lane0 = graph.Add<LaneFeeder>("lane0");
    lane1 = graph.Add<LaneFeeder>("lane1");
    merge = graph.Add<MergeOperator>("merge", order);
    sink = graph.Add<CollectingSink>("sink");
    EXPECT_TRUE(graph.Connect(lane0, merge, 0).ok());
    EXPECT_TRUE(graph.Connect(lane1, merge, 0).ok());
    EXPECT_TRUE(graph.Connect(merge, sink, 0).ok());
  }

  std::vector<int64_t> TakeValues() {
    std::vector<int64_t> values;
    for (const Tuple& t : sink->TakeResults()) values.push_back(t.IntAt(0));
    return values;
  }
};

TEST(OrderedMergeTest, RestoresGlobalSequenceAcrossLanes) {
  MergeRig rig;
  rig.lane0->Feed(0, 0);
  rig.lane0->Feed(2, 2);  // lane1 empty: both buffered
  EXPECT_EQ(rig.sink->size(), 0u);
  rig.lane1->Feed(1, 1);  // releases 0, 1; 2 waits on lane1 again
  EXPECT_EQ(rig.TakeValues(), (std::vector<int64_t>{0, 1}));
  // Releases 2 only: lane0 is now open and empty, so 3 could still be
  // undercut by a future lane0 element as far as the merge knows.
  rig.lane1->Feed(3, 3);
  EXPECT_EQ(rig.TakeValues(), (std::vector<int64_t>{2}));
  rig.lane0->CloseLane();  // lane0 stops gating: 3 flushes
  rig.lane1->Feed(4, 4);   // closed lane0 never blocks
  EXPECT_EQ(rig.TakeValues(), (std::vector<int64_t>{3, 4}));
  rig.lane1->CloseLane();
  EXPECT_TRUE(rig.merge->closed());
  EXPECT_TRUE(rig.sink->closed());
}

TEST(OrderedMergeTest, EmptyReplicaReleasesOnlyAtEos) {
  // One replica never receives a single element (all keys hash away from
  // it): the merge must hold everything until that lane closes, then
  // release the full stream in order.
  MergeRig rig;
  for (uint64_t seq = 0; seq < 5; ++seq) {
    rig.lane0->Feed(static_cast<int64_t>(seq), seq);
  }
  EXPECT_EQ(rig.sink->size(), 0u);
  EXPECT_EQ(rig.merge->PendingCount(), 5u);
  rig.lane1->CloseLane();
  EXPECT_EQ(rig.TakeValues(), (std::vector<int64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(rig.merge->PendingCount(), 0u);
  rig.lane0->CloseLane();
  EXPECT_TRUE(rig.sink->closed());
}

TEST(OrderedMergeTest, EarlyEosLaneStopsGatingReleases) {
  // A replica that closes early (EOS while the others stream on) must not
  // delay the surviving lanes by a single element.
  MergeRig rig;
  rig.lane1->Feed(0, 0);
  rig.lane1->CloseLane();
  // 0 is still gated: the open lane0 could yet deliver a smaller stamp.
  EXPECT_EQ(rig.sink->size(), 0u);
  rig.lane0->Feed(1, 1);  // releases 0 and 1 together
  EXPECT_EQ(rig.TakeValues(), (std::vector<int64_t>{0, 1}));
  // From here the closed lane1 never delays the surviving lane again:
  // every element releases the moment it arrives.
  for (uint64_t seq = 2; seq <= 4; ++seq) {
    rig.lane0->Feed(static_cast<int64_t>(seq), seq);
    EXPECT_EQ(rig.TakeValues(), (std::vector<int64_t>{
                                    static_cast<int64_t>(seq)}));
  }
  rig.lane0->CloseLane();
  EXPECT_TRUE(rig.sink->closed());
}

TEST(OrderedMergeTest, BarrierOnlyRunAlignsWithNothingPending) {
  MergeRig rig;
  rig.lane0->Barrier(1);
  EXPECT_EQ(rig.merge->aligned_epoch(), 0u);  // lane1 not aligned yet
  rig.lane1->Barrier(1);
  EXPECT_EQ(rig.merge->aligned_epoch(), 1u);
  EXPECT_EQ(rig.sink->size(), 0u);
  rig.lane0->CloseLane();
  rig.lane1->CloseLane();
  EXPECT_TRUE(rig.sink->closed());
  EXPECT_EQ(rig.sink->size(), 0u);
}

TEST(OrderedMergeTest, BarrierAlignmentFlushesPendingInOrder) {
  // At alignment every lane has delivered its full pre-barrier prefix, so
  // the merge may (and must) flush elements an open-but-empty lane was
  // blocking — ahead of the outgoing barrier.
  MergeRig rig;
  rig.lane0->Feed(0, 0);
  rig.lane1->Feed(1, 1);  // releases 0, 1
  rig.lane0->Feed(2, 2);
  rig.lane0->Feed(3, 3);  // blocked: lane1 open and empty
  EXPECT_EQ(rig.merge->PendingCount(), 2u);
  rig.lane0->Barrier(1);
  EXPECT_EQ(rig.merge->PendingCount(), 2u);  // not aligned yet
  rig.lane1->Barrier(1);
  EXPECT_EQ(rig.merge->PendingCount(), 0u);
  EXPECT_EQ(rig.TakeValues(), (std::vector<int64_t>{0, 1, 2, 3}));
  rig.lane0->CloseLane();
  rig.lane1->CloseLane();
}

TEST(OrderedMergeTest, BatchAndPerTupleDeliverIdenticalSequences) {
  MergeRig per_tuple;
  per_tuple.lane0->Feed(0, 0);
  per_tuple.lane0->Feed(2, 2);
  per_tuple.lane0->Feed(5, 5);
  per_tuple.lane1->Feed(1, 1);
  per_tuple.lane1->Feed(3, 3);
  per_tuple.lane1->Feed(4, 4);
  per_tuple.lane0->CloseLane();
  per_tuple.lane1->CloseLane();

  MergeRig batched;
  batched.lane0->FeedBatch({{0, 0}, {2, 2}, {5, 5}});
  batched.lane1->FeedBatch({{1, 1}, {3, 3}, {4, 4}});
  batched.lane0->CloseLane();
  batched.lane1->CloseLane();

  const std::vector<int64_t> want{0, 1, 2, 3, 4, 5};
  EXPECT_EQ(per_tuple.TakeValues(), want);
  EXPECT_EQ(batched.TakeValues(), want);
}

TEST(OrderedMergeTest, ArrivalOrderMergeIsPassThrough) {
  MergeRig rig(MergeOperator::Order::kArrival);
  rig.lane0->Feed(7, 9);  // stamps are ignored entirely
  rig.lane1->Feed(8, 1);
  EXPECT_EQ(rig.TakeValues(), (std::vector<int64_t>{7, 8}));
  EXPECT_EQ(rig.merge->PendingCount(), 0u);
  rig.lane0->CloseLane();
  rig.lane1->CloseLane();
  EXPECT_TRUE(rig.sink->closed());
}

// ---------------------------------------------------------------------------
// ShardOperator: the graph rewrite and end-to-end equivalence.

TEST(ShardOperatorTest, RewritesTopologyAroundTheOriginal) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  WindowedAggregate::Options agg_options;
  agg_options.kind = AggregateKind::kSum;
  agg_options.group_attr = 0;
  agg_options.value_attr = 1;
  agg_options.window_micros = kHugeWindow;
  WindowedAggregate* agg = qb.Aggregate(src, "agg", agg_options);
  CollectingSink* sink = qb.CollectSink(agg, "sink");

  ShardOptions options;
  options.shards = 3;
  Result<ShardHandle> sharded = ShardOperator(&graph, agg, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  const ShardHandle& handle = *sharded;
  ASSERT_EQ(handle.splits.size(), 1u);
  ASSERT_EQ(handle.replicas.size(), 3u);
  EXPECT_EQ(handle.original, agg);
  EXPECT_EQ(handle.merge->order(), MergeOperator::Order::kSequence);
  EXPECT_TRUE(handle.splits[0]->sequencing());

  // The prototype is fully detached; split/replicas/merge carry the flow.
  EXPECT_EQ(agg->fan_in(), 0u);
  EXPECT_EQ(agg->fan_out(), 0u);
  EXPECT_EQ(handle.splits[0]->fan_out(), 3u);
  for (Operator* replica : handle.replicas) {
    EXPECT_TRUE(replica->stamp_emit_seq());
    EXPECT_TRUE(replica->placement_solo());
    EXPECT_EQ(replica->shard_group(), "agg");
    EXPECT_EQ(replica->fan_in(), 1u);
    EXPECT_EQ(replica->fan_out(), 1u);
  }
  EXPECT_EQ(handle.merge->fan_in(), 3u);
  EXPECT_EQ(static_cast<Node*>(sink)->inputs()[0].source, handle.merge);
  EXPECT_TRUE(graph.Validate().ok());
}

TEST(ShardOperatorTest, RejectsInvalidTargetsWithoutTouchingTheGraph) {
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  Source* src2 = qb.AddSource("src2");
  SymmetricNlJoin* nl = qb.NlJoin(src, src2, "nl", kHugeWindow,
                                  [](const Tuple&, const Tuple&) {
                                    return true;
                                  });
  qb.CollectSink(nl, "sink");
  const size_t nodes_before = graph.nodes().size();

  // Sources cannot shard.
  EXPECT_EQ(ShardOperator(&graph, src, {}).status().code(),
            StatusCode::kInvalidArgument);
  // Ordered sharding of a multi-input operator is rejected (no per-lane
  // monotone stamp exists when ports drain in scheduler order).
  ShardOptions ordered;
  ordered.ordered = true;
  EXPECT_EQ(ShardOperator(&graph, nl, ordered).status().code(),
            StatusCode::kInvalidArgument);
  // SymmetricNlJoin has no CloneFresh: Unimplemented, graph unchanged.
  ShardOptions unordered;
  unordered.ordered = false;
  unordered.key_attrs = {0, 0};
  EXPECT_EQ(ShardOperator(&graph, nl, unordered).status().code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(graph.nodes().size(), nodes_before);
  EXPECT_EQ(nl->fan_in(), 2u);
  EXPECT_TRUE(graph.Validate().ok());
}

std::vector<Tuple> KeyedStream(int count) {
  std::vector<Tuple> stream;
  for (int i = 0; i < count; ++i) {
    stream.push_back(Tuple({Value(int64_t{i % 8}),
                            Value(static_cast<double>(i % 5))},
                           i + 1));
  }
  return stream;
}

TEST(ShardOperatorTest, OrderedShardedAggregateMatchesUnshardedExactly) {
  // Golden: single-threaded DI, unsharded.
  std::vector<Tuple> golden;
  {
    QueryGraph graph;
    QueryBuilder qb(&graph);
    Source* src = qb.AddSource("src");
    WindowedAggregate::Options agg_options;
    agg_options.kind = AggregateKind::kSum;
    agg_options.group_attr = 0;
    agg_options.value_attr = 1;
    agg_options.window_micros = kHugeWindow;
    WindowedAggregate* agg = qb.Aggregate(src, "agg", agg_options);
    CollectingSink* sink = qb.CollectSink(agg, "sink");
    for (const Tuple& t : KeyedStream(300)) src->Push(t);
    src->Close(1000);
    golden = sink->TakeResults();
  }
  ASSERT_EQ(golden.size(), 300u);

  // Candidate: 3 ordered shards under OTS (one thread per replica).
  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* src = qb.AddSource("src");
  WindowedAggregate::Options agg_options;
  agg_options.kind = AggregateKind::kSum;
  agg_options.group_attr = 0;
  agg_options.value_attr = 1;
  agg_options.window_micros = kHugeWindow;
  WindowedAggregate* agg = qb.Aggregate(src, "agg", agg_options);
  CollectingSink* sink = qb.CollectSink(agg, "sink");
  ShardOptions options;
  options.shards = 3;
  ASSERT_TRUE(ShardOperator(&graph, agg, options).ok());

  StreamEngine engine(&graph);
  EngineOptions engine_options;
  engine_options.mode = ExecutionMode::kOts;
  ASSERT_TRUE(engine.Configure(engine_options).ok());
  ASSERT_TRUE(engine.Start().ok());
  for (const Tuple& t : KeyedStream(300)) src->Push(t);
  src->Close(1000);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();

  // Exact sequence, not just multiset: the ordered merge restores the
  // split-point arrival order.
  EXPECT_EQ(sink->TakeResults(), golden);

  // Per-replica statistics surfaced (satellite: stats plumbing).
  Table shard_table = BuildShardTable(graph);
  EXPECT_EQ(shard_table.row_count(), 3u);
  const std::string summary = ShardImbalanceSummary(graph);
  EXPECT_NE(summary.find("shard group 'agg'"), std::string::npos);
  EXPECT_NE(summary.find("3 replicas"), std::string::npos);
  EXPECT_NE(summary.find("300 routed"), std::string::npos);
}

TEST(ShardOperatorTest, UnorderedShardedJoinMatchesUnshardedMultiset) {
  auto feed = [](Source* left, Source* right) {
    for (int i = 0; i < 200; ++i) {
      // Consecutive elements share a key and alternate sides, so both
      // join inputs see every key.
      Tuple t({Value(int64_t{(i / 2) % 6}), Value(int64_t{i})}, i + 1);
      if (i % 2 == 0) {
        left->Push(std::move(t));
      } else {
        right->Push(std::move(t));
      }
    }
    left->Close(1000);
    right->Close(1000);
  };

  std::vector<Tuple> golden;
  {
    QueryGraph graph;
    QueryBuilder qb(&graph);
    Source* left = qb.AddSource("left");
    Source* right = qb.AddSource("right");
    SymmetricHashJoin* join = qb.HashJoin(left, right, "join", kHugeWindow);
    CollectingSink* sink = qb.CollectSink(join, "sink");
    feed(left, right);
    golden = sink->TakeResults();
    std::sort(golden.begin(), golden.end());
  }
  ASSERT_GT(golden.size(), 0u);

  QueryGraph graph;
  QueryBuilder qb(&graph);
  Source* left = qb.AddSource("left");
  Source* right = qb.AddSource("right");
  SymmetricHashJoin* join = qb.HashJoin(left, right, "join", kHugeWindow);
  CollectingSink* sink = qb.CollectSink(join, "sink");
  ShardOptions options;
  options.shards = 2;
  options.ordered = false;  // multi-input operators merge in arrival order
  Result<ShardHandle> sharded = ShardOperator(&graph, join, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().message();
  ASSERT_EQ(sharded->splits.size(), 2u);  // one split per input port

  StreamEngine engine(&graph);
  EngineOptions engine_options;
  engine_options.mode = ExecutionMode::kOts;
  ASSERT_TRUE(engine.Configure(engine_options).ok());
  ASSERT_TRUE(engine.Start().ok());
  feed(left, right);
  ASSERT_TRUE(engine.WaitUntilFinishedFor(kWait));
  engine.Stop();
  EXPECT_TRUE(engine.RunResult().ok()) << engine.RunResult().message();

  std::vector<Tuple> got = sink->TakeResults();
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, golden);
}

// ---------------------------------------------------------------------------
// Restore-time snapshot repartitioning (N changes across a restore).

TEST(ShardSnapshotTest, RepartitionsAggregateStateAcrossNewShardCount) {
  WindowedAggregate::Options agg_options;
  agg_options.kind = AggregateKind::kSum;
  agg_options.group_attr = 0;
  agg_options.value_attr = 1;
  agg_options.window_micros = kHugeWindow;
  WindowedAggregate prototype("agg", agg_options);

  // Two live replicas, key-routed exactly like a Router would.
  std::array<std::unique_ptr<Operator>, 2> replicas = {
      prototype.CloneFresh("agg.shard0"), prototype.CloneFresh("agg.shard1")};
  std::vector<double> expected_sum(5, 0.0);
  for (int i = 0; i < 20; ++i) {
    const int64_t key = i % 5;
    const double value = static_cast<double>(i);
    expected_sum[key] += value;
    Tuple t({Value(key), Value(value)}, i + 1);
    replicas[Router::HashValue(Value(key)) % 2]->Receive(t, 0);
  }
  std::vector<OperatorSnapshot> snapshots;
  for (auto& replica : replicas) {
    snapshots.push_back(
        dynamic_cast<StatefulOperator*>(replica.get())->SnapshotState());
  }

  // Restore into THREE replicas.
  Result<std::vector<OperatorSnapshot>> repartitioned =
      RepartitionShardSnapshots(prototype, snapshots, 3);
  ASSERT_TRUE(repartitioned.ok()) << repartitioned.status().message();
  ASSERT_EQ(repartitioned->size(), 3u);
  int64_t elements = 0;
  for (const OperatorSnapshot& snap : *repartitioned) {
    elements += snap.element_count;
  }
  EXPECT_EQ(elements, 20);

  QueryGraph graph;
  std::array<WindowedAggregate*, 3> restored{};
  std::array<CollectingSink*, 3> sinks{};
  for (int i = 0; i < 3; ++i) {
    Operator* op = graph.Adopt(
        prototype.CloneFresh("new.shard" + std::to_string(i)));
    restored[i] = dynamic_cast<WindowedAggregate*>(op);
    ASSERT_NE(restored[i], nullptr);
    restored[i]->RestoreState((*repartitioned)[i]);
    sinks[i] = graph.Add<CollectingSink>("sink" + std::to_string(i));
    ASSERT_TRUE(graph.Connect(restored[i], sinks[i], 0).ok());
  }

  // Probe every group where a Router would now deliver it: the continued
  // sum must include the pre-repartition history.
  for (int64_t key = 0; key < 5; ++key) {
    const size_t shard = Router::HashValue(Value(key)) % 3;
    restored[shard]->Receive(Tuple({Value(key), Value(100.0)}, 1000), 0);
    const std::vector<Tuple> out = sinks[shard]->TakeResults();
    ASSERT_EQ(out.size(), 1u) << "key " << key;
    EXPECT_EQ(out[0].IntAt(0), key);
    EXPECT_DOUBLE_EQ(out[0].DoubleAt(1), expected_sum[key] + 100.0);
  }
}

TEST(ShardSnapshotTest, RepartitionsJoinStateAcrossNewShardCount) {
  SymmetricHashJoin prototype("join", kHugeWindow);
  std::array<std::unique_ptr<Operator>, 2> replicas = {
      prototype.CloneFresh("join.shard0"), prototype.CloneFresh("join.shard1")};
  // Store left-side history only, co-partitioned on the key.
  std::vector<std::vector<Tuple>> left_by_key(4);
  for (int i = 0; i < 16; ++i) {
    const int64_t key = i % 4;
    Tuple t({Value(key), Value(int64_t{i})}, i + 1);
    left_by_key[key].push_back(t);
    replicas[Router::HashValue(Value(key)) % 2]->Receive(
        t, SymmetricHashJoin::kLeftPort);
  }
  std::vector<OperatorSnapshot> snapshots;
  for (auto& replica : replicas) {
    snapshots.push_back(
        dynamic_cast<StatefulOperator*>(replica.get())->SnapshotState());
  }

  Result<std::vector<OperatorSnapshot>> repartitioned =
      RepartitionShardSnapshots(prototype, snapshots, 3);
  ASSERT_TRUE(repartitioned.ok()) << repartitioned.status().message();
  ASSERT_EQ(repartitioned->size(), 3u);
  int64_t elements = 0;
  for (const OperatorSnapshot& snap : *repartitioned) {
    elements += snap.element_count;
  }
  EXPECT_EQ(elements, 16);

  QueryGraph graph;
  std::array<SymmetricHashJoin*, 3> restored{};
  std::array<CollectingSink*, 3> sinks{};
  for (int i = 0; i < 3; ++i) {
    Operator* op = graph.Adopt(
        prototype.CloneFresh("new.shard" + std::to_string(i)));
    restored[i] = dynamic_cast<SymmetricHashJoin*>(op);
    ASSERT_NE(restored[i], nullptr);
    restored[i]->RestoreState((*repartitioned)[i]);
    sinks[i] = graph.Add<CollectingSink>("sink" + std::to_string(i));
    ASSERT_TRUE(graph.Connect(restored[i], sinks[i], 0).ok());
  }

  // Probing the right side at the new routing must find the full stored
  // left history for that key — every tuple landed where probes look.
  for (int64_t key = 0; key < 4; ++key) {
    const size_t shard = Router::HashValue(Value(key)) % 3;
    const Tuple probe({Value(key), Value(int64_t{999})}, 500);
    restored[shard]->Receive(probe, SymmetricHashJoin::kRightPort);
    std::vector<Tuple> got = sinks[shard]->TakeResults();
    std::vector<Tuple> want;
    for (const Tuple& left : left_by_key[key]) {
      want.push_back(Tuple::Concat(left, probe));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "key " << key;
  }
}

TEST(ShardSnapshotTest, NonGroupedAggregateCannotRepartition) {
  WindowedAggregate::Options agg_options;
  agg_options.kind = AggregateKind::kCount;  // no group_attr
  WindowedAggregate prototype("agg", agg_options);
  std::vector<OperatorSnapshot> snapshots(2);
  EXPECT_EQ(RepartitionShardSnapshots(prototype, snapshots, 3).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ShardSnapshotTest, UnsupportedOperatorIsUnimplemented) {
  Selection prototype("sel", [](const Tuple&) { return true; });
  std::vector<OperatorSnapshot> snapshots(2);
  EXPECT_EQ(RepartitionShardSnapshots(prototype, snapshots, 2).status().code(),
            StatusCode::kUnimplemented);
}

}  // namespace
}  // namespace flexstream
