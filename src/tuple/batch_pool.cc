#include "tuple/batch_pool.h"

#include <atomic>
#include <mutex>
#include <utility>
#include <vector>

namespace flexstream {
namespace columnar {
namespace {

// Per-thread free list: enough depth to cover a producer/consumer pair's
// in-flight window without touching the global list.
constexpr size_t kLocalCap = 8;
// Global overflow shared by all threads, bounding worst-case retention.
constexpr size_t kGlobalCap = 256;

std::atomic<uint64_t> g_acquires{0};
std::atomic<uint64_t> g_pool_hits{0};
std::atomic<uint64_t> g_releases{0};

struct GlobalPool {
  std::mutex mu;
  std::vector<ColumnarBatchPtr> free_list;
};

GlobalPool& Global() {
  static GlobalPool* pool = new GlobalPool();
  return *pool;
}

std::vector<ColumnarBatchPtr>& Local() {
  thread_local std::vector<ColumnarBatchPtr> free_list;
  return free_list;
}

}  // namespace

ColumnarBatchPtr AcquireBatch(SchemaPtr schema) {
  g_acquires.fetch_add(1, std::memory_order_relaxed);
  std::vector<ColumnarBatchPtr>& local = Local();
  ColumnarBatchPtr batch;
  if (!local.empty()) {
    batch = std::move(local.back());
    local.pop_back();
  } else {
    GlobalPool& global = Global();
    std::lock_guard<std::mutex> lock(global.mu);
    if (!global.free_list.empty()) {
      batch = std::move(global.free_list.back());
      global.free_list.pop_back();
    }
  }
  if (batch != nullptr) {
    g_pool_hits.fetch_add(1, std::memory_order_relaxed);
  } else {
    batch = std::make_unique<ColumnarBatch>();
  }
  batch->ResetSchema(std::move(schema));
  return batch;
}

void ReleaseBatch(ColumnarBatchPtr batch) {
  if (batch == nullptr) return;
  g_releases.fetch_add(1, std::memory_order_relaxed);
  batch->Clear();
  std::vector<ColumnarBatchPtr>& local = Local();
  if (local.size() < kLocalCap) {
    local.push_back(std::move(batch));
    return;
  }
  GlobalPool& global = Global();
  std::lock_guard<std::mutex> lock(global.mu);
  if (global.free_list.size() < kGlobalCap) {
    global.free_list.push_back(std::move(batch));
  }
  // Else: drop on the floor; the unique_ptr frees the storage.
}

std::vector<Tuple> MaterializeAndRelease(ColumnarBatchPtr batch) {
  if (batch == nullptr) return {};
  std::vector<Tuple> rows = batch->Materialize();
  ReleaseBatch(std::move(batch));
  return rows;
}

PoolStats GetPoolStats() {
  PoolStats s;
  s.acquires = g_acquires.load(std::memory_order_relaxed);
  s.pool_hits = g_pool_hits.load(std::memory_order_relaxed);
  s.releases = g_releases.load(std::memory_order_relaxed);
  return s;
}

void ResetPoolStatsForTest() {
  g_acquires.store(0, std::memory_order_relaxed);
  g_pool_hits.store(0, std::memory_order_relaxed);
  g_releases.store(0, std::memory_order_relaxed);
}

}  // namespace columnar
}  // namespace flexstream
