// Join semantics: SHJ and SNJ against a brute-force oracle, SHJ == SNJ on
// equi-joins, multiway join against pairwise composition.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "graph/query_graph.h"
#include "operators/multiway_join.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/symmetric_hash_join.h"
#include "operators/symmetric_nl_join.h"
#include "util/random.h"

namespace flexstream {
namespace {

struct Event {
  int side;  // 0 = left, 1 = right
  Tuple tuple;
};

/// Interleaved monotone two-stream workload.
std::vector<Event> MakeWorkload(uint64_t seed, int n, int64_t key_range) {
  Rng rng(seed);
  std::vector<Event> events;
  AppTime ts = 0;
  for (int i = 0; i < n; ++i) {
    ts += rng.UniformInt(0, 30);
    events.push_back(
        {static_cast<int>(rng.NextU64(2)),
         Tuple({Value(rng.UniformInt(0, key_range)), Value(int64_t{i})},
               ts)});
  }
  return events;
}

/// Brute-force sliding-window equi-join oracle.
std::vector<Tuple> OracleJoin(const std::vector<Event>& events,
                              AppTime window) {
  std::vector<Tuple> results;
  std::vector<Tuple> sides[2];
  for (const Event& e : events) {
    const auto& other = sides[1 - e.side];
    for (const Tuple& cand : other) {
      if (cand.timestamp() < e.tuple.timestamp() - window) continue;
      if (cand.at(0) != e.tuple.at(0)) continue;
      results.push_back(e.side == 0 ? Tuple::Concat(e.tuple, cand)
                                    : Tuple::Concat(cand, e.tuple));
    }
    sides[e.side].push_back(e.tuple);
  }
  return results;
}

std::vector<Tuple> Sorted(std::vector<Tuple> v) {
  std::sort(v.begin(), v.end());
  return v;
}

struct JoinRig {
  QueryGraph graph;
  Source* left;
  Source* right;
  CollectingSink* sink;

  template <typename JoinT, typename... Args>
  JoinT* Wire(Args&&... args) {
    left = graph.Add<Source>("left");
    right = graph.Add<Source>("right");
    JoinT* join = graph.Add<JoinT>(std::forward<Args>(args)...);
    sink = graph.Add<CollectingSink>("sink");
    EXPECT_TRUE(graph.Connect(left, join, 0).ok());
    EXPECT_TRUE(graph.Connect(right, join, 1).ok());
    EXPECT_TRUE(graph.Connect(join, sink).ok());
    return join;
  }

  void Feed(const std::vector<Event>& events) {
    for (const Event& e : events) {
      (e.side == 0 ? left : right)->Push(e.tuple);
    }
  }
};

TEST(ShjTest, BasicMatchProducesConcatenation) {
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", 1000);
  rig.left->Push(Tuple({Value(7), Value(100)}, 1));
  rig.right->Push(Tuple({Value(7), Value(200)}, 2));
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0], Tuple({Value(7), Value(100), Value(7), Value(200)},
                              2));
}

TEST(ShjTest, NoMatchOnDifferentKeys) {
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", 1000);
  rig.left->Push(Tuple::OfInt(1, 1));
  rig.right->Push(Tuple::OfInt(2, 2));
  EXPECT_EQ(rig.sink->size(), 0u);
}

TEST(ShjTest, WindowExpiresOldTuples) {
  JoinRig rig;
  SymmetricHashJoin* join = rig.Wire<SymmetricHashJoin>("j", 100);
  rig.left->Push(Tuple::OfInt(7, 0));
  rig.right->Push(Tuple::OfInt(7, 50));   // match
  rig.right->Push(Tuple::OfInt(7, 150));  // left@0 expired (150-100=50 > 0)
  auto results = rig.sink->TakeResults();
  EXPECT_EQ(results.size(), 1u);
  EXPECT_LE(join->StateSize(), 3u);
}

TEST(ShjTest, StateSizeTracksStoredTuples) {
  JoinRig rig;
  SymmetricHashJoin* join = rig.Wire<SymmetricHashJoin>("j", 1000);
  EXPECT_EQ(join->StateSize(), 0u);
  rig.left->Push(Tuple::OfInt(1, 1));
  rig.right->Push(Tuple::OfInt(2, 2));
  EXPECT_EQ(join->StateSize(), 2u);
  rig.graph.ResetAll();
  EXPECT_EQ(join->StateSize(), 0u);
}

TEST(ShjTest, DifferentKeyAttributesPerSide) {
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", 1000, /*left_key=*/1, /*right_key=*/0);
  rig.left->Push(Tuple({Value(99), Value(5)}, 1));
  rig.right->Push(Tuple({Value(5), Value(88)}, 2));
  EXPECT_EQ(rig.sink->size(), 1u);
}

TEST(ShjTest, ScheduleIndependentWindowBand) {
  // When one input runs far ahead of the other (possible whenever the two
  // queues are drained by different threads), a stored tuple from "the
  // future" must not join with a late-processed old tuple: the pair's
  // timestamp distance exceeds the window no matter the processing order.
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", 100);
  rig.right->Push(Tuple::OfInt(7, 1000));  // right side far ahead
  rig.left->Push(Tuple::OfInt(7, 10));     // old left tuple arrives late
  EXPECT_EQ(rig.sink->size(), 0u)
      << "|1000 - 10| > 100: no match regardless of processing order";
  // Within the band it does match.
  rig.left->Push(Tuple::OfInt(7, 950));
  EXPECT_EQ(rig.sink->size(), 1u);
}

/// Brute-force count of key-equal cross-side pairs within the window band.
size_t BandPairs(const std::vector<Tuple>& left,
                 const std::vector<Tuple>& right, AppTime window) {
  size_t pairs = 0;
  for (const Tuple& l : left) {
    for (const Tuple& r : right) {
      const AppTime delta = l.timestamp() - r.timestamp();
      if (l.at(0) == r.at(0) && delta <= window && -delta <= window) ++pairs;
    }
  }
  return pairs;
}

TEST(ShjTest, CrossingInputsKeepEveryPairInTheBand) {
  // The left input runs a whole stream ahead of the right one (as when the
  // two queues are drained by different threads): every right element
  // arrives after left elements far newer than itself. Each side is
  // timestamp-ordered, so the join must still find every pair in the
  // window band — per tuple and with columnar batches alike.
  constexpr AppTime kWindow = 10;
  std::vector<Tuple> left;
  std::vector<Tuple> right;
  for (int i = 0; i < 100; ++i) {
    left.push_back(Tuple::OfInt(i % 5, i));
    right.push_back(Tuple::OfInt(i % 7 % 5, i + 3));
  }
  const size_t want = BandPairs(left, right, kWindow);
  ASSERT_GT(want, 0u);
  for (size_t batch : {size_t{1}, size_t{8}}) {
    SCOPED_TRACE("batch=" + std::to_string(batch));
    JoinRig rig;
    rig.Wire<SymmetricHashJoin>("j", kWindow);
    rig.left->SetBatchSize(batch);
    rig.right->SetBatchSize(batch);
    // Interleave in chunks with the left stream 60 elements ahead.
    for (int i = 0; i < 100; i += 20) {
      for (int j = i; j < i + 20; ++j) rig.left->Push(left[j]);
      for (int j = std::max(i - 60, 0); j < i - 40; ++j) {
        rig.right->Push(right[j]);
      }
    }
    rig.left->Close(200);
    for (int j = 40; j < 100; ++j) rig.right->Push(right[j]);
    rig.right->Close(200);
    EXPECT_EQ(rig.sink->size(), want);
  }
}

TEST(SnjTest, ScheduleIndependentWindowBand) {
  JoinRig rig;
  rig.Wire<SymmetricNlJoin>("j", 100, SymmetricNlJoin::EqualAttr(0, 0));
  rig.right->Push(Tuple::OfInt(7, 1000));
  rig.left->Push(Tuple::OfInt(7, 10));
  EXPECT_EQ(rig.sink->size(), 0u);
  rig.left->Push(Tuple::OfInt(7, 1001));
  EXPECT_EQ(rig.sink->size(), 1u);
}

TEST(SnjTest, ArbitraryPredicate) {
  JoinRig rig;
  rig.Wire<SymmetricNlJoin>("j", 1000,
                            [](const Tuple& l, const Tuple& r) {
                              return l.IntAt(0) < r.IntAt(0);
                            });
  rig.left->Push(Tuple::OfInt(5, 1));
  rig.right->Push(Tuple::OfInt(10, 2));  // 5 < 10: match
  rig.right->Push(Tuple::OfInt(3, 3));   // 5 < 3: no
  EXPECT_EQ(rig.sink->size(), 1u);
}

TEST(SnjTest, OutputAlwaysLeftThenRight) {
  JoinRig rig;
  rig.Wire<SymmetricNlJoin>("j", 1000, SymmetricNlJoin::EqualAttr(0, 0));
  rig.right->Push(Tuple({Value(1), Value("R")}, 1));
  rig.left->Push(Tuple({Value(1), Value("L")}, 2));
  auto results = rig.sink->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].StringAt(1), "L");
  EXPECT_EQ(results[0].StringAt(3), "R");
}

class JoinOracleTest : public ::testing::TestWithParam<
                           std::tuple<uint64_t, int64_t, AppTime>> {};

TEST_P(JoinOracleTest, ShjMatchesOracle) {
  const auto [seed, key_range, window] = GetParam();
  const auto events = MakeWorkload(seed, 400, key_range);
  JoinRig rig;
  rig.Wire<SymmetricHashJoin>("j", window);
  rig.Feed(events);
  EXPECT_EQ(Sorted(rig.sink->TakeResults()),
            Sorted(OracleJoin(events, window)));
}

TEST_P(JoinOracleTest, SnjMatchesOracleOnEquiJoin) {
  const auto [seed, key_range, window] = GetParam();
  const auto events = MakeWorkload(seed, 400, key_range);
  JoinRig rig;
  rig.Wire<SymmetricNlJoin>("j", window, SymmetricNlJoin::EqualAttr(0, 0));
  rig.Feed(events);
  EXPECT_EQ(Sorted(rig.sink->TakeResults()),
            Sorted(OracleJoin(events, window)));
}

TEST_P(JoinOracleTest, ShjAndSnjAgree) {
  const auto [seed, key_range, window] = GetParam();
  const auto events = MakeWorkload(seed, 400, key_range);
  JoinRig hash_rig;
  hash_rig.Wire<SymmetricHashJoin>("j", window);
  hash_rig.Feed(events);
  JoinRig nl_rig;
  nl_rig.Wire<SymmetricNlJoin>("j", window,
                               SymmetricNlJoin::EqualAttr(0, 0));
  nl_rig.Feed(events);
  EXPECT_EQ(Sorted(hash_rig.sink->TakeResults()),
            Sorted(nl_rig.sink->TakeResults()));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, JoinOracleTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u),
                       ::testing::Values(int64_t{5}, int64_t{50}),
                       ::testing::Values(AppTime{100}, AppTime{5000})));

TEST(MultiwayJoinTest, ThreeWayMatch) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  Source* c = g.Add<Source>("c");
  MultiwayJoin* join =
      g.Add<MultiwayJoin>("mj", 1000, std::vector<size_t>{0, 0, 0});
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(a, join, 0).ok());
  ASSERT_TRUE(g.Connect(b, join, 1).ok());
  ASSERT_TRUE(g.Connect(c, join, 2).ok());
  ASSERT_TRUE(g.Connect(join, sink).ok());
  a->Push(Tuple({Value(1), Value("A")}, 1));
  b->Push(Tuple({Value(1), Value("B")}, 2));
  EXPECT_EQ(sink->size(), 0u) << "needs all three inputs";
  c->Push(Tuple({Value(1), Value("C")}, 3));
  auto results = sink->TakeResults();
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].arity(), 6u);
  EXPECT_EQ(results[0].StringAt(1), "A");
  EXPECT_EQ(results[0].StringAt(3), "B");
  EXPECT_EQ(results[0].StringAt(5), "C");
  EXPECT_EQ(results[0].timestamp(), 3);
}

TEST(MultiwayJoinTest, EmitsAllCombinations) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  MultiwayJoin* join =
      g.Add<MultiwayJoin>("mj", 1000, std::vector<size_t>{0, 0});
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(a, join, 0).ok());
  ASSERT_TRUE(g.Connect(b, join, 1).ok());
  ASSERT_TRUE(g.Connect(join, sink).ok());
  a->Push(Tuple::OfInt(1, 1));
  a->Push(Tuple::OfInt(1, 2));
  b->Push(Tuple::OfInt(1, 3));
  EXPECT_EQ(sink->size(), 2u);
}

TEST(MultiwayJoinTest, TwoWayAgreesWithShj) {
  const auto events = MakeWorkload(99, 300, 10);
  JoinRig shj_rig;
  shj_rig.Wire<SymmetricHashJoin>("j", 500);
  shj_rig.Feed(events);

  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  MultiwayJoin* join =
      g.Add<MultiwayJoin>("mj", 500, std::vector<size_t>{0, 0});
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(a, join, 0).ok());
  ASSERT_TRUE(g.Connect(b, join, 1).ok());
  ASSERT_TRUE(g.Connect(join, sink).ok());
  for (const Event& e : events) (e.side == 0 ? a : b)->Push(e.tuple);

  // Timestamps of results can differ (MJoin takes max over parts; SHJ max
  // over the pair) — compare attribute content only.
  auto strip = [](std::vector<Tuple> v) {
    for (Tuple& t : v) t.set_timestamp(0);
    std::sort(v.begin(), v.end());
    return v;
  };
  EXPECT_EQ(strip(sink->TakeResults()),
            strip(shj_rig.sink->TakeResults()));
}

TEST(MultiwayJoinTest, WindowExpiration) {
  QueryGraph g;
  Source* a = g.Add<Source>("a");
  Source* b = g.Add<Source>("b");
  MultiwayJoin* join =
      g.Add<MultiwayJoin>("mj", 100, std::vector<size_t>{0, 0});
  CollectingSink* sink = g.Add<CollectingSink>("sink");
  ASSERT_TRUE(g.Connect(a, join, 0).ok());
  ASSERT_TRUE(g.Connect(b, join, 1).ok());
  ASSERT_TRUE(g.Connect(join, sink).ok());
  a->Push(Tuple::OfInt(1, 0));
  b->Push(Tuple::OfInt(1, 300));
  EXPECT_EQ(sink->size(), 0u);
  EXPECT_EQ(join->StateSize(), 1u);
}

}  // namespace
}  // namespace flexstream
