// Columnar batch layer units (DESIGN.md §17): schema inference and
// matching, ColumnarBatch round-trips (append -> materialize must be
// byte-exact, including timestamps, router seq stamps, and string
// payloads), the kernel primitives (CompactRows, ProjectColumns), pool
// recycling, and the allocation-discipline satellites: Value's
// small-string optimization (short strings never heap-allocate) and
// allocation-free refills of recycled batches.

#include "tuple/columnar_batch.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "graph/query_graph.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "tuple/batch_pool.h"
#include "tuple/schema.h"

namespace {
std::atomic<int64_t> g_heap_allocs{0};
int64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace

// Counting global allocator: the allocation-discipline tests below assert
// exact heap traffic inside tight regions. Counts every operator new in
// this binary; tests only ever compare deltas across regions they control.
// GCC's -Wmismatched-new-delete fires on the malloc/free implementation
// under LTO even though new/delete are replaced as a matched pair.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace flexstream {
namespace {

SchemaPtr MixedSchema() {
  return MakeSchema({Value::Type::kInt64, Value::Type::kString,
                     Value::Type::kDouble});
}

Tuple MixedTuple(int64_t i, const std::string& s, double d, AppTime ts) {
  return Tuple({Value(i), Value(s), Value(d)}, ts);
}

// -- Schema -----------------------------------------------------------------

TEST(ColumnarSchemaTest, InferMatchAndCompare) {
  const Tuple t = MixedTuple(1, "abc", 2.5, 7);
  const Schema inferred = Schema::InferFrom(t);
  EXPECT_EQ(inferred.arity(), 3u);
  EXPECT_EQ(inferred.type(0), Value::Type::kInt64);
  EXPECT_EQ(inferred.type(1), Value::Type::kString);
  EXPECT_EQ(inferred.type(2), Value::Type::kDouble);
  EXPECT_TRUE(inferred.Matches(t));
  EXPECT_EQ(inferred, *MixedSchema());

  EXPECT_FALSE(inferred.Matches(Tuple::OfInt(1, 1))) << "arity mismatch";
  EXPECT_FALSE(inferred.Matches(Tuple::EndOfStream(9)))
      << "punctuations never match";
  const Schema ints(std::vector<Value::Type>{Value::Type::kInt64});
  EXPECT_NE(inferred, ints);
  EXPECT_TRUE(ints.Matches(Tuple::OfInt(5, 0)));
}

// -- Round-trip: append -> materialize is byte-exact ------------------------

TEST(ColumnarRoundTripTest, MaterializeReproducesRowsExactly) {
  ColumnarBatch batch;
  batch.ResetSchema(MixedSchema());
  std::vector<Tuple> originals;
  for (int i = 0; i < 10; ++i) {
    // Mix of empty, short (SSO), and long (heap) string payloads.
    std::string s;
    if (i % 3 == 1) s = "short";
    if (i % 3 == 2) s = std::string(100, static_cast<char>('a' + i));
    Tuple t = MixedTuple(i, s, i / 2.0, 1000 + i);
    if (i >= 5) t.set_seq(static_cast<uint64_t>(i));
    ASSERT_TRUE(batch.AppendTuple(t));
    originals.push_back(std::move(t));
  }
  ASSERT_EQ(batch.size(), originals.size());
  EXPECT_TRUE(batch.has_seqs());

  const std::vector<Tuple> rows = batch.Materialize();
  ASSERT_EQ(rows.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_EQ(rows[i], originals[i]) << "row " << i;
    EXPECT_EQ(rows[i].timestamp(), originals[i].timestamp());
    EXPECT_EQ(rows[i].seq(), originals[i].seq()) << "seq stamp lost";
  }
}

TEST(ColumnarRoundTripTest, AppendRejectsMismatchLeavingBatchUntouched) {
  ColumnarBatch batch;
  batch.ResetSchema(MakeSchema({Value::Type::kInt64}));
  ASSERT_TRUE(batch.AppendTuple(Tuple::OfInt(1, 1)));
  EXPECT_FALSE(batch.AppendTuple(Tuple({Value("str")}, 2)))
      << "type drift must be rejected";
  EXPECT_FALSE(batch.AppendTuple(MixedTuple(1, "x", 2.0, 3)))
      << "arity drift must be rejected";
  EXPECT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.Materialize()[0], Tuple::OfInt(1, 1));
}

TEST(ColumnarRoundTripTest, SeqColumnBackfillsWhenStampsStartLate) {
  // First rows unstamped, later rows stamped: earlier rows must read seq 0.
  ColumnarBatch batch;
  batch.ResetSchema(MakeSchema({Value::Type::kInt64}));
  ASSERT_TRUE(batch.AppendTuple(Tuple::OfInt(0, 0)));
  Tuple stamped = Tuple::OfInt(1, 1);
  stamped.set_seq(42);
  ASSERT_TRUE(batch.AppendTuple(stamped));
  EXPECT_EQ(batch.SeqAt(0), 0u);
  EXPECT_EQ(batch.SeqAt(1), 42u);
  const std::vector<Tuple> rows = batch.Materialize();
  EXPECT_EQ(rows[0].seq(), 0u);
  EXPECT_EQ(rows[1].seq(), 42u);
}

// -- Kernel primitives ------------------------------------------------------

TEST(ColumnarKernelTest, CompactRowsKeepsSurvivorsInOrder) {
  ColumnarBatch batch;
  batch.ResetSchema(MixedSchema());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(batch.AppendTuple(
        MixedTuple(i, "s" + std::to_string(i), i * 1.5, i)));
  }
  const std::vector<uint32_t> keep = {1, 4, 7};
  batch.CompactRows(keep.data(), keep.size());
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < keep.size(); ++i) {
    const int64_t v = static_cast<int64_t>(keep[i]);
    EXPECT_EQ(batch.Ints(0)[i], v);
    EXPECT_EQ(batch.StringAt(1, i), "s" + std::to_string(v));
    EXPECT_EQ(batch.Doubles(2)[i], v * 1.5);
    EXPECT_EQ(batch.Timestamps()[i], v);
  }
}

TEST(ColumnarKernelTest, ProjectColumnsHandlesDuplicatesAndSharedArena) {
  ColumnarBatch batch;
  batch.ResetSchema(MixedSchema());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(batch.AppendTuple(
        MixedTuple(i, "payload" + std::to_string(i), i + 0.5, i)));
  }
  // Output (string, string, int): the repeated column must be copied, not
  // read from a moved-from vector.
  batch.ProjectColumns({1, 1, 0},
                       MakeSchema({Value::Type::kString, Value::Type::kString,
                                   Value::Type::kInt64}));
  ASSERT_EQ(batch.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(batch.StringAt(0, i), "payload" + std::to_string(i));
    EXPECT_EQ(batch.StringAt(1, i), "payload" + std::to_string(i));
    EXPECT_EQ(batch.Ints(2)[i], i);
  }
}

// -- Pool recycling ---------------------------------------------------------

TEST(ColumnarPoolTest, ReleaseThenAcquireRecyclesStorage) {
  columnar::ResetPoolStatsForTest();
  SchemaPtr schema = MakeSchema({Value::Type::kInt64});
  ColumnarBatchPtr batch = columnar::AcquireBatch(schema);
  ASSERT_NE(batch, nullptr);
  ASSERT_TRUE(batch->AppendTuple(Tuple::OfInt(1, 1)));
  columnar::ReleaseBatch(std::move(batch));

  ColumnarBatchPtr again = columnar::AcquireBatch(schema);
  ASSERT_NE(again, nullptr);
  EXPECT_TRUE(again->empty()) << "recycled batches come back clean";
  EXPECT_EQ(again->schema_ptr(), schema);
  const columnar::PoolStats stats = columnar::GetPoolStats();
  EXPECT_EQ(stats.acquires, 2u);
  EXPECT_EQ(stats.releases, 1u);
  EXPECT_EQ(stats.pool_hits, 1u) << "second acquire must hit the free list";
  columnar::ReleaseBatch(std::move(again));
}

TEST(ColumnarPoolTest, MaterializeAndReleaseRecyclesInOneStep) {
  columnar::ResetPoolStatsForTest();
  ColumnarBatchPtr batch = columnar::AcquireBatch(MixedSchema());
  const Tuple t = MixedTuple(9, "nine", 9.5, 99);
  ASSERT_TRUE(batch->AppendTuple(t));
  const std::vector<Tuple> rows = columnar::MaterializeAndRelease(std::move(batch));
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], t);
  EXPECT_EQ(columnar::GetPoolStats().releases, 1u);
}

// -- Satellite: Value small-string optimization ------------------------------

TEST(ColumnarValueSboTest, ShortStringsLiveInsideTheValue) {
  // libstdc++/libc++ keep strings up to 15 bytes inline; a Value holds its
  // std::string by value inside the variant, so a short payload's bytes
  // must lie within the Value object itself — no heap allocation.
  const Value v(std::string("0123456789abcde"));  // exactly 15 bytes
  const char* data = v.AsString().data();
  const char* lo = reinterpret_cast<const char*>(&v);
  EXPECT_TRUE(data >= lo && data < lo + sizeof(Value))
      << "15-byte string escaped the Value footprint (heap-allocated)";
}

TEST(ColumnarValueSboTest, ShortStringValueConstructionDoesNotAllocate) {
  std::string s = "tiny";
  const int64_t before = HeapAllocs();
  const Value v(std::move(s));
  const int64_t after = HeapAllocs();
  EXPECT_EQ(after - before, 0) << "short-string Value hit the heap";
  EXPECT_EQ(v.AsString(), "tiny");
}

TEST(ColumnarValueSboTest, LongStringBufferMovesWithTheValue) {
  // The move-probe: a heap payload's buffer address must survive moving
  // the Value (mirrors the batch-path EmitMove probe).
  Value v(std::string(96, 'z'));
  const void* buffer = v.AsString().data();
  const int64_t before = HeapAllocs();
  const Value moved(std::move(v));
  const int64_t after = HeapAllocs();
  EXPECT_EQ(after - before, 0) << "moving a Value must not allocate";
  EXPECT_EQ(static_cast<const void*>(moved.AsString().data()), buffer)
      << "move copied the heap buffer";
}

// -- Satellite: allocation-free batch refill ----------------------------------

TEST(ColumnarBatchFillTest, ReservedFillDoesNotReallocate) {
  // A recycled batch keeps its column capacity, so refilling it to the
  // same size never touches the heap.
  constexpr size_t kN = 64;
  const SchemaPtr schema = MakeSchema({Value::Type::kInt64});
  std::vector<Tuple> tuples;
  tuples.reserve(kN);
  for (size_t i = 0; i < kN; ++i) {
    tuples.push_back(Tuple::OfInt(static_cast<int64_t>(i), i));
  }
  ColumnarBatchPtr batch = columnar::AcquireBatch(schema);
  for (const Tuple& t : tuples) ASSERT_TRUE(batch->AppendTuple(t));
  columnar::ReleaseBatch(std::move(batch));

  ColumnarBatchPtr again = columnar::AcquireBatch(schema);
  const int64_t before = HeapAllocs();
  for (const Tuple& t : tuples) ASSERT_TRUE(again->AppendTuple(t));
  const int64_t after = HeapAllocs();
  EXPECT_EQ(after - before, 0)
      << "refilling a recycled batch must not touch the heap";
  EXPECT_EQ(again->size(), kN);
  columnar::ReleaseBatch(std::move(again));
}

TEST(ColumnarBatchFillTest, SourceEmitHintMakesBatchFillSingleAllocation) {
  // The source scatters into a pooled batch and the sink recycles it, so
  // once the pool is warm a full fill-and-flush cycle stays within its
  // one-allocation budget — in fact it allocates nothing at all.
  constexpr size_t kBatch = 64;
  QueryGraph g;
  Source* src = g.Add<Source>("s");
  CountingSink* sink = g.Add<CountingSink>("out");
  ASSERT_TRUE(g.Connect(src, sink).ok());
  src->SetBatchSize(kBatch);

  std::vector<Tuple> tuples;
  tuples.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    tuples.push_back(Tuple::OfInt(static_cast<int64_t>(i), i));
  }
  for (const Tuple& t : tuples) src->Push(t);  // warms the pool
  const int64_t before = HeapAllocs();
  for (const Tuple& t : tuples) src->Push(t);
  const int64_t after = HeapAllocs();
  EXPECT_EQ(after - before, 0)
      << "a warm batch fill + flush cycle must not allocate";
  EXPECT_EQ(sink->count(), static_cast<int64_t>(2 * kBatch));
  src->Close(kBatch);
}

}  // namespace
}  // namespace flexstream
