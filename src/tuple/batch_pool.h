// Recycling pool for ColumnarBatch storage.
//
// A columnar batch's value is its pre-grown column vectors and arena;
// freeing them at every sink and re-growing them at every source would put
// the allocator right back on the hot path. The pool keeps dead batches on
// a small per-thread free list (no synchronization in steady state) backed
// by a bounded global overflow list, so storage produced on one thread and
// consumed on another still finds its way back to a producer. Batches are
// recycled whole — box and columns together — at batch granularity, so
// even the global list's mutex is touched at most once per batch, not per
// tuple.
//
// Ownership convention: whoever consumes a batch without forwarding it
// (a sink, a materializing fallback, a dropped fan-out copy) releases it.
// Forgetting to release is never a correctness bug — the unique_ptr frees
// the storage — it only forfeits recycling.

#ifndef FLEXSTREAM_TUPLE_BATCH_POOL_H_
#define FLEXSTREAM_TUPLE_BATCH_POOL_H_

#include <cstdint>
#include <vector>

#include "tuple/columnar_batch.h"

namespace flexstream {
namespace columnar {

/// A batch bound to `schema`, with recycled column storage when available.
ColumnarBatchPtr AcquireBatch(SchemaPtr schema);

/// Returns a dead batch's storage to the pool. Accepts null (no-op).
void ReleaseBatch(ColumnarBatchPtr batch);

/// Materializes every row and recycles the columnar storage in one step —
/// for consumers that keep the rows (bounded queues, collecting sinks).
std::vector<Tuple> MaterializeAndRelease(ColumnarBatchPtr batch);

/// Pool telemetry for tests and benches (process-wide counters).
struct PoolStats {
  uint64_t acquires = 0;
  uint64_t pool_hits = 0;  // acquires served from a free list
  uint64_t releases = 0;
};
PoolStats GetPoolStats();
void ResetPoolStatsForTest();

}  // namespace columnar
}  // namespace flexstream

#endif  // FLEXSTREAM_TUPLE_BATCH_POOL_H_
