// Columnar kernel microbench (DESIGN.md §17): each hot-path kernel —
// selection, map, projection, grouped tumbling aggregate, and the
// three-operator chain — measured per-tuple vs columnar on the same graph,
// same pre-materialized input, same kDirect single-thread engine. The
// only variable is EngineOptions::emit_batch_size: sources either push
// every element downstream on its own (per-tuple, size 1) or scatter 64
// into a typed, arena-backed ColumnarBatch that the typed kernels consume
// in place (columnar).
//
// Besides throughput, every run reports *allocations per tuple*: a
// counting global operator new measures heap traffic across the feed
// (kDirect runs the whole chain in the pushing thread, so the delta is
// exactly the hot path's). The columnar claim is as much about allocation
// discipline — no per-tuple Value vectors, strings in a per-batch arena,
// batches recycled through the pool — as about cycles.
//
// Payloads: small = {int64, int64}; string = {int64, 26-byte string}
// (past Value's SSO buffer, so the per-tuple path pays a real heap string
// per copy and the columnar path pays an arena append).
//
// Results go to stdout and BENCH_columnar.json (override: --out <path>).

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "bench_smoke.h"
#include "graph/query_graph.h"
#include "operators/map_op.h"
#include "operators/selection.h"
#include "operators/sink.h"
#include "operators/source.h"
#include "operators/tumbling_aggregate.h"
#include "tuple/batch_pool.h"
#include "tuple/schema.h"
#include "tuple/tuple.h"
#include "util/clock.h"
#include "util/logging.h"
#include "util/table.h"

namespace {
std::atomic<int64_t> g_heap_allocs{0};
int64_t HeapAllocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}
}  // namespace

// Counting global allocator: allocations-per-tuple is measured as the
// delta across the timed feed region. GCC's -Wmismatched-new-delete
// fires on the malloc/free implementation under LTO even though
// new/delete are replaced as a matched pair.
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

constexpr size_t kBatch = 64;
constexpr AppTime kWindowMicros = 10'000;

enum class Kernel { kSelection, kMap, kProjection, kAggregate, kChain };

const char* KernelName(Kernel k) {
  switch (k) {
    case Kernel::kSelection: return "selection";
    case Kernel::kMap: return "map";
    case Kernel::kProjection: return "projection";
    case Kernel::kAggregate: return "aggregate";
    case Kernel::kChain: return "chain";
  }
  return "?";
}

struct Pipeline {
  QueryGraph graph;
  Source* src = nullptr;
  CountingSink* sink = nullptr;
};

/// src -> kernel(s) -> counting sink. Every operator is built in its
/// typed-column form, so the per-tuple runs exercise the synthesized row
/// wrappers and the columnar runs exercise the vectorized kernels, with
/// identical answers.
void BuildPipeline(Pipeline* p, Kernel kernel, bool string_payload) {
  QueryBuilder qb(&p->graph);
  p->src = qb.AddSource("src");
  p->src->DeclareOutputSchema(
      string_payload ? MakeSchema({Value::Type::kInt64, Value::Type::kString})
                     : MakeSchema({Value::Type::kInt64, Value::Type::kInt64}));
  Node* tail = p->src;
  const auto select = [&](Node* in, const char* name) {
    return qb.Select(in, name,
                     Int64ColumnPredicate{
                         0, [](int64_t v) { return v % 4 != 0; }});
  };
  const auto map = [&](Node* in, const char* name) {
    return qb.Map(in, name,
                  Int64ColumnMap{0, [](int64_t v) { return v * 31 + 7; }});
  };
  switch (kernel) {
    case Kernel::kSelection:
      tail = select(tail, "sel");
      break;
    case Kernel::kMap:
      tail = map(tail, "map");
      break;
    case Kernel::kProjection:
      // Keeps the int key, drops the payload column.
      tail = qb.Project(tail, "proj", {0});
      break;
    case Kernel::kAggregate: {
      TumblingAggregate::Options agg;
      agg.kind = AggregateKind::kSum;
      agg.value_attr = 0;
      agg.group_attr = 1;
      agg.window_micros = kWindowMicros;
      tail = qb.Tumbling(tail, "agg", agg);
      break;
    }
    case Kernel::kChain:
      tail = qb.Project(map(select(tail, "sel"), "map"), "proj", {0});
      break;
  }
  p->sink = qb.CountSink(tail, "out");
}

std::vector<Tuple> MakeInput(bool string_payload, int64_t total) {
  std::vector<Tuple> input;
  input.reserve(static_cast<size_t>(total));
  for (int64_t i = 0; i < total; ++i) {
    if (string_payload) {
      input.push_back(Tuple({Value(i % 997),
                             Value(std::string("payload-") +
                                   std::to_string(i % 97) +
                                   "-0123456789abcdef")},
                            i));
    } else {
      input.push_back(Tuple({Value(i % 997), Value(i % 50)}, i));
    }
  }
  return input;
}

struct RunResult {
  std::string scenario;
  std::string kernel;
  std::string payload;
  bool columnar = false;
  int64_t tuples = 0;
  int64_t sink_count = 0;
  double seconds = 0.0;
  double tuples_per_sec = 0.0;
  double allocs_per_tuple = 0.0;
  double pool_hit_rate = 0.0;  // columnar runs only
};

RunResult RunOnce(Kernel kernel, bool string_payload, bool columnar,
                  int64_t total) {
  Pipeline p;
  BuildPipeline(&p, kernel, string_payload);
  std::vector<Tuple> input = MakeInput(string_payload, total);

  StreamEngine engine(&p.graph);
  EngineOptions options;
  options.mode = ExecutionMode::kDirect;
  options.emit_batch_size = columnar ? kBatch : 1;
  CHECK_OK(engine.Configure(options));
  CHECK_OK(engine.Start());

  columnar::ResetPoolStatsForTest();
  const int64_t allocs_before = HeapAllocs();
  Stopwatch sw;
  for (Tuple& tuple : input) p.src->Push(std::move(tuple));
  p.src->Close(total);
  CHECK(engine.WaitUntilFinishedFor(std::chrono::seconds(300)));
  const double seconds = sw.ElapsedSeconds();
  const int64_t allocs = HeapAllocs() - allocs_before;
  const columnar::PoolStats pool = columnar::GetPoolStats();
  CHECK_OK(engine.RunResult());
  engine.Stop();

  RunResult r;
  r.kernel = KernelName(kernel);
  r.payload = string_payload ? "string" : "small";
  r.columnar = columnar;
  r.scenario = r.kernel + "_" + r.payload + (columnar ? "_col" : "_tuple");
  r.tuples = total;
  r.sink_count = p.sink->count();
  r.seconds = seconds;
  r.tuples_per_sec = static_cast<double>(total) / seconds;
  r.allocs_per_tuple =
      static_cast<double>(allocs) / static_cast<double>(total);
  r.pool_hit_rate = pool.acquires == 0
                        ? 0.0
                        : static_cast<double>(pool.pool_hits) /
                              static_cast<double>(pool.acquires);
  return r;
}

}  // namespace
}  // namespace flexstream

int main(int argc, char** argv) {
  using namespace flexstream;

  int64_t total = bench::SmokeScaled<int64_t>(400'000, 20'000);
  int reps = bench::SmokeScaled(3, 1);
  std::string out_path = "BENCH_columnar.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      total = 20'000;
      reps = 1;
    } else if (arg == "--count" && i + 1 < argc) {
      total = std::stoll(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::stoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--quick] [--count <n>] [--reps <n>] [--out <path>]\n";
      return 1;
    }
  }

  SetStatsCollectionEnabled(false);

  struct Scenario {
    Kernel kernel;
    bool string_payload;
  };
  // The grouped aggregate runs small-only: its value/group columns are
  // ints and a string column would sit unread beside them.
  const std::vector<Scenario> scenarios = {
      {Kernel::kSelection, false}, {Kernel::kSelection, true},
      {Kernel::kMap, false},       {Kernel::kMap, true},
      {Kernel::kProjection, false}, {Kernel::kProjection, true},
      {Kernel::kAggregate, false},
      {Kernel::kChain, false},     {Kernel::kChain, true},
  };

  // Best-of-N, per-tuple/columnar interleaved per rep so drifting
  // background load on a shared box hits both variants alike. Allocation
  // counts are deterministic — taken from the first rep and sanity-checked
  // stable.
  std::vector<RunResult> results;
  for (const Scenario& s : scenarios) {
    RunResult best_tuple, best_col;
    for (int rep = 0; rep < reps; ++rep) {
      RunResult tuple = RunOnce(s.kernel, s.string_payload, false, total);
      RunResult col = RunOnce(s.kernel, s.string_payload, true, total);
      if (rep == 0 || tuple.tuples_per_sec > best_tuple.tuples_per_sec) {
        best_tuple = tuple;
      }
      if (rep == 0 || col.tuples_per_sec > best_col.tuples_per_sec) {
        best_col = col;
      }
    }
    // Same input, same operators: the delivery unit must not change the
    // answer.
    CHECK(best_tuple.sink_count == best_col.sink_count)
        << best_tuple.scenario << ": per-tuple " << best_tuple.sink_count
        << " vs columnar " << best_col.sink_count;
    results.push_back(best_tuple);
    results.push_back(best_col);
  }

  Table t({"scenario", "tuples", "wall_s", "tuples_per_sec",
           "allocs_per_tuple", "pool_hit"});
  for (const RunResult& r : results) {
    t.AddRow({r.scenario, Table::Int(r.tuples), Table::Num(r.seconds, 3),
              Table::Int(static_cast<int64_t>(r.tuples_per_sec)),
              Table::Num(r.allocs_per_tuple, 3),
              r.columnar ? Table::Num(r.pool_hit_rate, 2) : "-"});
  }
  t.Print(std::cout);

  std::vector<std::pair<std::string, double>> ratios;
  for (size_t i = 0; i + 1 < results.size(); i += 2) {
    const RunResult& tuple = results[i];
    const RunResult& col = results[i + 1];
    ratios.emplace_back(col.kernel + "_" + col.payload,
                        col.tuples_per_sec / tuple.tuples_per_sec);
  }
  std::cout << "\n-- columnar / per-tuple throughput ratios --\n";
  for (const auto& [name, value] : ratios) {
    std::cout << "  " << name << ": " << Table::Num(value, 2) << "x\n";
  }

  std::ofstream out(out_path);
  CHECK(out.good()) << "cannot write " << out_path;
  out << "{\n  \"bench\": \"columnar\",\n  \"batch\": " << kBatch
      << ",\n  \"runs\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    out << "    {\"scenario\": \"" << r.scenario << "\", \"kernel\": \""
        << r.kernel << "\", \"payload\": \"" << r.payload
        << "\", \"columnar\": " << (r.columnar ? 1 : 0)
        << ", \"tuples\": " << r.tuples << ", \"sink_count\": "
        << r.sink_count << ", \"seconds\": " << r.seconds
        << ", \"tuples_per_sec\": "
        << static_cast<int64_t>(r.tuples_per_sec)
        << ", \"allocs_per_tuple\": " << Table::Num(r.allocs_per_tuple, 4)
        << ", \"pool_hit_rate\": " << Table::Num(r.pool_hit_rate, 4) << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"ratios\": {\n";
  for (size_t i = 0; i < ratios.size(); ++i) {
    out << "    \"" << ratios[i].first << "\": "
        << Table::Num(ratios[i].second, 2)
        << (i + 1 < ratios.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}
