#include "chain.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

#include "api/query_builder.h"
#include "operators/operator.h"
#include "tuple/batch_pool.h"
#include "tuple/schema.h"
#include "util/random.h"

namespace perfbench {
namespace {

using flexstream::AppTime;
using flexstream::Tuple;
using flexstream::Value;

constexpr size_t kChainQueueBound = 1024;
constexpr uint64_t kChainEpochInterval = 10'000;
// Elements generated, then pushed, at once: one source batch, so no element
// waits in the source for longer than it takes to build the next 64.
constexpr int64_t kBlock = 64;

AppTime ChainTimestamp(int64_t i) { return kChainWindow + i; }

/// The input definition shared by the generator and the reference.
void DrawChainElement(flexstream::Rng* rng, int64_t* value, int64_t* aux) {
  *value = rng->UniformInt(0, 999);
  *aux = rng->UniformInt(0, 1 << 20);
}

struct ChainGraph {
  flexstream::QueryGraph graph;
  flexstream::Source* src = nullptr;
  flexstream::CollectingSink* out = nullptr;
  /// Rows reaching the latency sink: (window end, arrival MonoNs).
  std::mutex rows_mutex;
  std::vector<std::pair<int64_t, int64_t>> arrivals;
  std::atomic<int64_t> windows_out{0};
};

void BuildChain(ChainGraph* g) {
  using namespace flexstream;
  QueryBuilder qb(&g->graph);
  g->src = qb.AddSource("src");
  g->src->DeclareOutputSchema(
      MakeSchema({Value::Type::kInt64, Value::Type::kInt64}));
  Node* sel = qb.Select(g->src, "sel",
                        Int64ColumnPredicate{
                            0, [](int64_t v) { return v % 4 != 0; }});
  Node* proj = qb.Project(sel, "proj", {0});
  Node* map =
      qb.Map(proj, "map", Int64ColumnMap{0, [](int64_t v) { return 3 * v + 1; }});
  TumblingAggregate::Options agg;
  agg.kind = AggregateKind::kSum;
  agg.value_attr = 0;
  agg.window_micros = kChainWindow;
  Node* sum = qb.Tumbling(map, "agg", agg);
  g->out = qb.CollectSink(sum, "out");
  qb.Callback(sum, "lat", [g](const Tuple& t, int) {
    const int64_t now = MonoNs();
    {
      std::lock_guard<std::mutex> lock(g->rows_mutex);
      g->arrivals.emplace_back(t.timestamp(), now);
    }
    g->windows_out.fetch_add(1, std::memory_order_release);
  });
}

flexstream::EngineOptions ChainOptions(const ChainConfig& cfg,
                                       const std::string& durable_dir) {
  flexstream::EngineOptions o;
  o.mode = cfg.mode;
  o.emit_batch_size = 64;
  o.columnar = true;
  if (cfg.bounded) {
    o.queue_max_elements = kChainQueueBound;
    o.overload_policy = flexstream::OverloadPolicy::kBlock;
  }
  if (cfg.checkpoint) o.checkpoint_epoch_interval = kChainEpochInterval;
  if (cfg.durable) o.durable_checkpoint_dir = durable_dir;
  return o;
}

struct FeedStats {
  int64_t gen_ns = 0;   // building elements
  int64_t wait_ns = 0;  // waiting for credits (spinning on the CPU)
  int64_t push_ns = 0;  // inside Push and Close
  /// MonoNs() after the push of each window's last element.
  std::vector<int64_t> window_pushed_ns;
};

/// Generates and pushes the seeded input, then closes the source. With
/// `windows_out` set, the loop is closed: at most kChainCredits windows
/// may be pushed ahead of the rows the sink has seen.
void Feed(flexstream::Source* src, const std::atomic<int64_t>* windows_out,
          const ChainInput& input, Tracer* tracer, uint32_t parent,
          FeedStats* stats) {
  flexstream::Rng rng(input.seed);
  std::vector<Tuple> block;
  block.reserve(kBlock);
  stats->window_pushed_ns.reserve(input.tuples / kChainWindow + 1);
  for (int64_t i = 0; i < input.tuples; i += kBlock) {
    const int64_t m = std::min(kBlock, input.tuples - i);
    const int64_t a = MonoNs();
    if (windows_out != nullptr) {
      const int64_t window = ChainTimestamp(i) / kChainWindow;
      while (window - windows_out->load(std::memory_order_acquire) >
             kChainCredits) {
        std::this_thread::yield();
      }
    }
    const int64_t b = MonoNs();
    for (int64_t j = 0; j < m; ++j) {
      int64_t value, aux;
      DrawChainElement(&rng, &value, &aux);
      block.push_back(Tuple({Value(value), Value(aux)}, ChainTimestamp(i + j)));
    }
    const int64_t c = MonoNs();
    const uint32_t span = tracer->Begin("source.push", parent);
    for (Tuple& t : block) {
      const AppTime ts = t.timestamp();
      src->Push(std::move(t));
      if (ts % kChainWindow == kChainWindow - 1) {
        stats->window_pushed_ns.push_back(MonoNs());
      }
    }
    tracer->End(span, m);
    block.clear();
    stats->wait_ns += b - a;
    stats->gen_ns += c - b;
    stats->push_ns += MonoNs() - c;
  }
  const int64_t c = MonoNs();
  {
    Scope close(tracer, "source.close", parent);
    src->Close(ChainTimestamp(input.tuples));
  }
  stats->push_ns += MonoNs() - c;
}

std::vector<SumRow> TakeSums(flexstream::CollectingSink* sink) {
  std::vector<SumRow> rows;
  for (const Tuple& t : sink->TakeResults()) {
    rows.emplace_back(t.timestamp(), t.DoubleAt(0));
  }
  return rows;
}

std::string FreshDir(const RunArgs& args) {
  static int counter = 0;
  const std::filesystem::path dir =
      std::filesystem::path(args.out_dir) /
      ("durable-" + std::to_string(::getpid()) + "-" +
       std::to_string(counter++));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir.string();
}

/// A fresh engine restores the store `dir` left behind, re-drives the full
/// input and must reproduce the reference result.
void ColdRestartCheck(const ChainConfig& cfg, ChainInput& input,
                      const std::string& dir, Tracer* tracer, uint32_t parent,
                      ChainRun* run, Report* report) {
  Scope scope(tracer, "recovery.cold_restart", parent);
  ChainGraph g;
  BuildChain(&g);
  flexstream::StreamEngine engine(&g.graph);
  const flexstream::Status configured = engine.Configure(ChainOptions(cfg, dir));
  if (!configured.ok()) {
    report->Fail("cold restart: " + configured.ToString());
    return;
  }
  const int64_t t0 = MonoNs();
  flexstream::Result<uint64_t> restored = engine.ColdRestart();
  run->cold_restart_ms.push_back((MonoNs() - t0) / 1e6);
  if (!restored.ok() || *restored == 0) {
    report->Fail("cold restart: no epoch restored from " + dir);
    return;
  }
  EngineCpus();
  const bool started = engine.Start().ok();
  GeneratorCpu();
  if (!started) {
    report->Fail("cold restart: Start failed");
    return;
  }
  FeedStats feed;
  Feed(g.src, nullptr, input, tracer, scope.id(), &feed);
  engine.WaitUntilFinished();
  if (!engine.RunResult().ok()) {
    report->Fail("cold restart: " + engine.RunResult().ToString());
    return;
  }
  const std::string error = CheckWindowSums(input.Reference(), TakeSums(g.out));
  if (!error.empty()) report->Fail("after cold restart: " + error);
  if (engine.recovery()->any_buffer_truncated()) {
    report->Fail("cold restart: a replay buffer was truncated");
  }
}

}  // namespace

ChainConfig ChainCol64() { return ChainConfig{"chain_col64"}; }

ChainConfig ChainDurable() {
  ChainConfig c{"chain_durable"};
  c.bounded = c.checkpoint = c.durable = true;
  return c;
}

ChainInput MakeChainInput(uint64_t seed, int64_t tuples) {
  ChainInput input;
  input.seed = seed;
  input.tuples = tuples;
  return input;
}

const WindowSums& ChainInput::Reference() {
  if (reference.empty()) {
    flexstream::Rng rng(seed);
    std::vector<int64_t> values(tuples);
    for (int64_t i = 0; i < tuples; ++i) {
      int64_t aux;
      DrawChainElement(&rng, &values[i], &aux);
    }
    reference = ChainReference(values, kChainWindow, ChainTimestamp(0));
  }
  return reference;
}

void ChainRound(const ChainConfig& cfg, ChainInput* input,
                const RunArgs& args, Tracer* tracer, uint32_t parent,
                ChainRun* run, Report* report) {
  flexstream::SetStatsCollectionEnabled(cfg.stats);
  Scope round(tracer, "chain.round", parent);
  ChainGraph g;
  BuildChain(&g);
  const std::string dir = cfg.durable ? FreshDir(args) : "";
  flexstream::StreamEngine engine(&g.graph);
  {
    Scope s(tracer, "engine.configure", round.id());
    if (!engine.Configure(ChainOptions(cfg, dir)).ok()) {
      report->Fail(cfg.name + ": Configure failed");
      return;
    }
  }
  {
    Scope s(tracer, "engine.start", round.id());
    EngineCpus();
    const bool started = engine.Start().ok();
    GeneratorCpu();
    if (!started) {
      report->Fail(cfg.name + ": Start failed");
      return;
    }
  }
  if (run->rounds == 0) run->setup_end_ns = MonoNs();

  std::atomic<int64_t> peak_queued{0};
  std::unique_ptr<Sampler> sampler;
  if (tracer->enabled()) {
    sampler = std::make_unique<Sampler>(std::chrono::microseconds(1000), [&] {
      const int64_t q = static_cast<int64_t>(engine.QueuedElements());
      tracer->Sample("queue.queued_elements", static_cast<double>(q));
      if (q > peak_queued.load()) peak_queued.store(q);
    });
  }

  const flexstream::columnar::PoolStats pool0 =
      flexstream::columnar::GetPoolStats();
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t t0 = MonoNs();
  FeedStats feed;
  Feed(g.src, &g.windows_out, *input, tracer, round.id(), &feed);
  {
    Scope s(tracer, "engine.wait", round.id());
    engine.WaitUntilFinished();
  }
  const int64_t t1 = MonoNs();
  // The generator has a CPU to itself, so its building and credit-waiting
  // wall time is CPU time spent outside calls into the engine.
  const int64_t engine_cpu =
      ProcessCpuNs() - cpu0 - feed.gen_ns - feed.wait_ns;
  sampler.reset();
  const flexstream::columnar::PoolStats pool1 =
      flexstream::columnar::GetPoolStats();

  if (!engine.RunResult().ok()) {
    report->Fail(cfg.name + ": " + engine.RunResult().ToString());
    return;
  }
  const double n = static_cast<double>(input->tuples);
  const double wall_s = (t1 - t0) / 1e9;
  ++run->rounds;
  run->tps.push_back(n / wall_s);
  run->cpu_us_per_tuple.push_back(engine_cpu / 1e3 / n);
  run->engine_ns_per_tuple.push_back((t1 - t0 - feed.gen_ns) / n);
  run->gen_ns += feed.gen_ns;
  run->push_ns += feed.push_ns;
  run->layers.tuples += input->tuples;
  run->layers.AddRun(engine, g.graph, {"sel", "proj", "map", "agg"});
  run->peak_queued = std::max(run->peak_queued, peak_queued.load());
  run->pool_acquires += pool1.acquires - pool0.acquires;
  run->pool_hits += pool1.pool_hits - pool0.pool_hits;
  std::vector<double> latencies;
  for (const auto& [end, arrived_ns] : g.arrivals) {
    const int64_t pos = end / kChainWindow - 2;  // see Feed's window order
    if (pos >= 0 && pos < static_cast<int64_t>(feed.window_pushed_ns.size())) {
      latencies.push_back((arrived_ns - feed.window_pushed_ns[pos]) / 1e3);
    }
  }
  run->latency_p50_us.push_back(Quantile(&latencies, 0.50));
  run->latency_p99_us.push_back(Quantile(&latencies, 0.99));

  Scope check(tracer, "check", round.id());
  report->Expect(CheckWindowSums(input->Reference(), TakeSums(g.out)));
  if (cfg.stats) {
    report->Expect(CheckConservation(FlowModel(g.graph),
                                     {{"src", input->tuples}},
                                     engine.WorkerThreadCount(), wall_s));
  }
  if (flexstream::RecoveryManager* rm = engine.recovery()) {
    run->epochs_committed += rm->coordinator().epochs_committed();
    run->replay_peak_depth = std::max<int64_t>(
        run->replay_peak_depth, static_cast<int64_t>(rm->replay_peak_depth()));
    if (rm->any_buffer_truncated()) {
      report->Fail(cfg.name + ": a replay buffer was truncated");
    }
    if (const flexstream::SnapshotStore* store = rm->snapshot_store()) {
      run->epochs_written += store->stats().epochs_written;
      run->bytes_written += store->stats().bytes_written;
    }
  }
  engine.Stop();
  if (cfg.durable) {
    ColdRestartCheck(cfg, *input, dir, tracer, round.id(), run, report);
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
}

ChainRun RunChain(const ChainConfig& cfg, ChainInput* input,
                  const RunArgs& args, double seconds, Tracer* tracer,
                  Report* report) {
  ChainRun run;
  Scope scope(tracer, "chain.run");
  const int64_t start = MonoNs();
  do {
    ChainRound(cfg, input, args, tracer, scope.id(), &run, report);
    report->attempted += input->tuples;
  } while (report->correct && (MonoNs() - start) / 1e9 < seconds);
  flexstream::SetStatsCollectionEnabled(true);
  return run;
}

void ChainMetrics(const ChainRun& run, const RunArgs& args, Report* report) {
  auto& m = report->metrics;
  const double tuples = static_cast<double>(run.layers.tuples);
  m["setup_s"] = (run.setup_end_ns - args.t0_ns) / 1e9;
  m["throughput_tps"] = Median(run.tps);
  m["cpu_us_per_tuple"] = Median(run.cpu_us_per_tuple);
  m["latency_p50_us"] = Median(run.latency_p50_us);
  m["latency_p99_us"] = Median(run.latency_p99_us);
  m["peak_rss_mb"] = PeakRssMb();

  m["gen.ns_per_tuple"] = run.gen_ns / tuples;
  m["source.push_ns_per_tuple"] = run.push_ns / tuples;
  m["queue.peak_queued_elements"] = static_cast<double>(run.peak_queued);
  m["core.waiting_partitions_mean"] = 0.0;  // GTS has no level-3 scheduler
  m["pool.hit_rate"] =
      run.pool_acquires == 0
          ? 0.0
          : static_cast<double>(run.pool_hits) / run.pool_acquires;
  run.layers.Emit(&m);
  if (run.epochs_written > 0) {
    m["recovery.epochs_committed"] =
        static_cast<double>(run.epochs_committed) / run.rounds;
    m["recovery.replay_peak_depth"] = static_cast<double>(run.replay_peak_depth);
    m["durable.bytes_per_epoch"] =
        static_cast<double>(run.bytes_written) / run.epochs_written;
    m["recovery.cold_restart_ms"] = Median(run.cold_restart_ms);
  }
}

void RunChainAblations(ChainInput* input, const RunArgs& args,
                       int rounds, Report* report,
                       std::map<std::string, ChainRun>* baseline) {
  using flexstream::ExecutionMode;
  ChainConfig direct_off{"kernels_source_driven_stats_off",
                         ExecutionMode::kSourceDriven, false};
  ChainConfig gts_off{"gts_stats_off", ExecutionMode::kGts, false};
  ChainConfig gts_on = ChainCol64();
  ChainConfig bounded = ChainCol64();
  bounded.name = "bounded";
  bounded.bounded = true;
  ChainConfig checkpoint = bounded;
  checkpoint.name = "bounded_checkpoint";
  checkpoint.checkpoint = true;
  ChainConfig durable = ChainDurable();
  const std::vector<ChainConfig> configs = {direct_off, gts_off,    gts_on,
                                            bounded,    checkpoint, durable};
  Tracer off(false);
  for (int r = 0; r < rounds && report->correct; ++r) {
    for (const ChainConfig& cfg : configs) {
      ChainRound(cfg, input, args, &off, 0, &(*baseline)[cfg.name], report);
    }
  }
  flexstream::SetStatsCollectionEnabled(true);
  if (!report->correct) return;
  auto cost = [&](const ChainConfig& cfg) {
    return Median((*baseline)[cfg.name].engine_ns_per_tuple);
  };
  auto& m = report->metrics;
  m["kernels.ns_per_tuple"] = cost(direct_off);
  m["transfer.ns_per_tuple"] = cost(gts_off) - cost(direct_off);
  m["stats.ns_per_tuple"] = cost(gts_on) - cost(gts_off);
  m["bound.ns_per_tuple"] = cost(bounded) - cost(gts_on);
  m["checkpoint.ns_per_tuple"] = cost(checkpoint) - cost(bounded);
  m["durable.ns_per_tuple"] = cost(durable) - cost(checkpoint);
}

}  // namespace perfbench
