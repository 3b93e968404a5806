#include "nexmark_hmts.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "api/query_builder.h"
#include "api/shard.h"
#include "checks.h"
#include "layers.h"
#include "tuple/batch_pool.h"
#include "util/random.h"
#include "workload/nexmark.h"

namespace perfbench {
namespace {

using flexstream::AppTime;
using flexstream::Tuple;
using flexstream::Value;
namespace nx = flexstream::nexmark;

constexpr int64_t kFilterModulus = 8;
constexpr AppTime kHotWindow = 10'000;
constexpr AppTime kJoinWindow = 50'000;
// Bids and auctions carry their generator index after the NEXMark fields.
constexpr size_t kBidIndex = nx::kBidArity;
constexpr size_t kAuctionIndex = nx::kAuctionArity;

/// One result's latency, with the time it reached its sink.
struct Sample {
  int64_t arrival_ns;
  double latency_us;
};

/// What one query's sink saw. Each sink is fed by one thread at a time;
/// the mutex only orders those threads.
struct QuerySink {
  std::mutex mu;
  std::vector<Sample> latency;
  std::vector<std::pair<int64_t, double>> currency;  // (bid index, price)
  std::vector<int64_t> filter;                        // bid index
  HotCounts hot;
  std::vector<JoinPair> join;
};

struct NexmarkGraph {
  flexstream::QueryGraph graph;
  flexstream::Source* bids = nullptr;
  flexstream::Source* auctions = nullptr;
  flexstream::ShardHandle hot_shards;
  std::atomic<int64_t> origin_ns{0};  // due time 0, in MonoNs()
  QuerySink currency, filter, hot, join;
};

Sample Latency(const NexmarkGraph* g, AppTime ts) {
  const int64_t now = MonoNs();
  return Sample{now, (now - g->origin_ns.load(std::memory_order_relaxed)) /
                             1e3 -
                         static_cast<double>(ts)};
}

void BuildNexmark(NexmarkGraph* g, const NexmarkSetup& setup,
                  const nx::NexmarkConfig& cfg, Report* report) {
  using namespace flexstream;
  QueryBuilder qb(&g->graph);
  g->bids = qb.AddSource("bids");
  g->auctions = qb.AddSource("auctions");
  // Placement hints for Algorithm 1 until measured rates take over.
  g->bids->SetInterarrivalMicros(1e6 / setup.bid_rate);
  g->auctions->SetInterarrivalMicros(1e6 / setup.auction_rate);

  const double rate = cfg.exchange_rate;
  MapOp* currency = qb.Map(g->bids, "q1_currency", [rate](const Tuple& t) {
    Tuple out = t;
    out.at(nx::kBidPrice) =
        Value(static_cast<double>(t.IntAt(nx::kBidPrice)) * rate);
    return out;
  });
  qb.Callback(currency, "q1_out", [g](const Tuple& t, int) {
    const Sample lat = Latency(g, t.timestamp());
    std::lock_guard<std::mutex> lock(g->currency.mu);
    g->currency.latency.push_back(lat);
    g->currency.currency.emplace_back(t.IntAt(kBidIndex),
                                      t.DoubleAt(nx::kBidPrice));
  });

  Selection* filter = qb.Select(
      g->bids, "q2_filter",
      Int64ColumnPredicate{nx::kBidAuction, [](int64_t auction) {
                             return auction % kFilterModulus == 0;
                           }});
  qb.Callback(filter, "q2_out", [g](const Tuple& t, int) {
    const Sample lat = Latency(g, t.timestamp());
    std::lock_guard<std::mutex> lock(g->filter.mu);
    g->filter.latency.push_back(lat);
    g->filter.filter.push_back(t.IntAt(kBidIndex));
  });

  TumblingAggregate::Options agg;
  agg.kind = AggregateKind::kCount;
  agg.group_attr = nx::kBidAuction;
  agg.window_micros = kHotWindow;
  TumblingAggregate* hot = qb.Tumbling(g->bids, "q5_hot_items", agg);
  qb.Callback(hot, "q5_out", [g](const Tuple& t, int) {
    const Sample lat = Latency(g, t.timestamp());
    std::lock_guard<std::mutex> lock(g->hot.mu);
    g->hot.latency.push_back(lat);
    g->hot.hot[{t.timestamp(), t.IntAt(0)}] +=
        static_cast<int64_t>(t.DoubleAt(1));
  });

  SymmetricHashJoin* join = qb.HashJoin(g->auctions, g->bids, "q8_join",
                                        kJoinWindow, nx::kAuctionId,
                                        nx::kBidAuction);
  qb.Callback(join, "q8_out", [g](const Tuple& t, int) {
    const Sample lat = Latency(g, t.timestamp());
    const size_t bid = nx::kAuctionArity + 1;  // the bid's first attribute
    std::lock_guard<std::mutex> lock(g->join.mu);
    g->join.latency.push_back(lat);
    g->join.join.push_back(JoinPair{t.IntAt(kAuctionIndex),
                                    t.IntAt(bid + kBidIndex),
                                    t.IntAt(nx::kAuctionId),
                                    t.IntAt(bid + nx::kBidAuction),
                                    t.timestamp()});
  });

  if (setup.hot_items_shards > 1) {
    ShardOptions so;
    so.shards = setup.hot_items_shards;
    so.key_attrs = {nx::kBidAuction};
    so.ordered = true;
    Result<ShardHandle> sharded = ShardOperator(&g->graph, hot, so);
    if (!sharded.ok()) {
      report->Fail("nexmark: sharding failed: " + sharded.status().ToString());
      return;
    }
    g->hot_shards = *sharded;
  }
}

/// The three merged arrival schedules, in due-time order (nanoseconds
/// from the run's origin).
class Schedule {
 public:
  Schedule(const NexmarkSetup& setup, uint64_t seed)
      : setup_(setup), bid_gaps_(seed * 4 + 1), auction_gaps_(seed * 4 + 2) {
    next_bid_ = bid_gaps_.Exponential(1e9 / setup_.bid_rate);
    next_auction_ = auction_gaps_.Exponential(1e9 / setup_.auction_rate);
    next_burst_ = setup_.burst_period_s * 0.5e9;  // mid-period
  }

  /// Due time of the next element; sets `*is_bid`.
  double Next(bool* is_bid) {
    const double burst_due =
        next_burst_ + burst_index_ * (1e9 / setup_.burst_rate);
    if (next_auction_ <= next_bid_ && next_auction_ <= burst_due) {
      *is_bid = false;
      const double due = next_auction_;
      next_auction_ += auction_gaps_.Exponential(1e9 / setup_.auction_rate);
      return due;
    }
    *is_bid = true;
    if (next_bid_ <= burst_due) {
      const double due = next_bid_;
      next_bid_ += bid_gaps_.Exponential(1e9 / setup_.bid_rate);
      return due;
    }
    if (++burst_index_ == setup_.burst_bids) {
      burst_index_ = 0;
      next_burst_ += setup_.burst_period_s * 1e9;
    }
    return burst_due;
  }

 private:
  const NexmarkSetup& setup_;
  flexstream::Rng bid_gaps_;
  flexstream::Rng auction_gaps_;
  double next_bid_ = 0.0;
  double next_auction_ = 0.0;
  double next_burst_ = 0.0;
  int64_t burst_index_ = 0;
};

void WaitUntil(int64_t deadline_ns) {
  int64_t now = MonoNs();
  if (deadline_ns - now > 200'000) {
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(deadline_ns - now - 100'000));
  }
  while (MonoNs() < deadline_ns) {
  }
}

/// The median, over the burst periods of the run (by arrival time at the
/// sink), of each period's q-quantile of result latency. Every period holds
/// one burst and its drain, so a period is one repetition of the load
/// pattern; the median keeps a period disturbed by the machine's other
/// work from moving the figure.
double PeriodQuantile(const std::vector<const QuerySink*>& sinks,
                      int64_t origin_ns, double period_s, size_t count,
                      double q) {
  std::vector<std::vector<double>> periods(count);
  for (const QuerySink* sink : sinks) {
    for (const Sample& s : sink->latency) {
      const size_t p = static_cast<size_t>(
          std::max<int64_t>(0, s.arrival_ns - origin_ns) / (period_s * 1e9));
      // Rows flushed by the final end-of-stream fall past the last period.
      if (p < count) periods[p].push_back(s.latency_us);
    }
  }
  std::vector<double> per_period;
  for (std::vector<double>& v : periods) {
    if (!v.empty()) per_period.push_back(Quantile(&v, q));
  }
  return Median(per_period);
}

}  // namespace

void RunNexmark(const NexmarkSetup& setup, const RunArgs& args,
                double seconds, Tracer* tracer, Report* report) {
  Scope run_span(tracer, "nexmark.run");
  const nx::NexmarkConfig cfg;
  NexmarkGraph g;
  flexstream::StreamEngine engine(&g.graph);
  {
    Scope s(tracer, "graph.build", run_span.id());
    BuildNexmark(&g, setup, cfg, report);
  }
  if (!report->correct) return;
  flexstream::EngineOptions options;
  options.mode = setup.mode;
  options.emit_batch_size = setup.emit_batch_size;
  options.columnar = setup.emit_batch_size > 1;
  {
    Scope s(tracer, "engine.configure", run_span.id());
    const flexstream::Status st = engine.Configure(options);
    if (!st.ok()) return report->Fail("nexmark: " + st.ToString());
  }
  {
    Scope s(tracer, "engine.start", run_span.id());
    EngineCpus();
    const flexstream::Status st = engine.Start();
    GeneratorCpu();
    if (!st.ok()) return report->Fail("nexmark: " + st.ToString());
  }
  report->metrics["setup_s"] = (MonoNs() - args.t0_ns) / 1e9;

  std::atomic<int64_t> peak_queued{0};
  std::atomic<int64_t> waiting_sum{0}, waiting_samples{0};
  std::unique_ptr<Sampler> sampler;
  if (tracer->enabled()) {
    sampler = std::make_unique<Sampler>(std::chrono::microseconds(1000), [&] {
      const int64_t q = static_cast<int64_t>(engine.QueuedElements());
      const int64_t waiting =
          engine.hmts() != nullptr
              ? engine.hmts()->thread_scheduler().waiting_count()
              : 0;
      tracer->Sample("queue.queued_elements", static_cast<double>(q));
      tracer->Sample("core.waiting_partitions", static_cast<double>(waiting));
      if (q > peak_queued.load()) peak_queued.store(q);
      waiting_sum += waiting;
      ++waiting_samples;
    });
  }

  std::vector<BidRecord> bids;
  std::vector<AuctionRecord> auctions;
  std::vector<double> lag_us;
  const double horizon_ns = seconds * 1e9;
  bids.reserve(static_cast<size_t>(
      seconds * (setup.bid_rate + setup.burst_bids / setup.burst_period_s) *
      1.1));
  lag_us.reserve(bids.capacity());
  Schedule schedule(setup, args.seed);
  flexstream::Rng bid_rng(args.seed * 4 + 3);
  flexstream::Rng auction_rng(args.seed * 4 + 4);
  const flexstream::columnar::PoolStats pool0 =
      flexstream::columnar::GetPoolStats();
  int64_t gen_ns = 0, push_ns = 0;

  const int64_t origin = MonoNs() + 1'000'000;
  g.origin_ns.store(origin);
  const int64_t cpu0 = ProcessCpuNs();
  const int64_t gen_cpu0 = ThreadCpuNs();
  for (;;) {
    bool is_bid = false;
    const double due = schedule.Next(&is_bid);
    if (due >= horizon_ns) break;
    const int64_t due_ns = origin + static_cast<int64_t>(due);
    WaitUntil(due_ns);
    const int64_t a = MonoNs();
    lag_us.push_back((a - due_ns) / 1e3);
    const AppTime ts = static_cast<AppTime>(due / 1e3);
    Tuple t;
    flexstream::Source* src;
    if (is_bid) {
      const int64_t index = static_cast<int64_t>(bids.size());
      t = nx::MakeBid(cfg, index, ts, &bid_rng);
      bids.push_back(BidRecord{t.IntAt(nx::kBidAuction),
                               t.IntAt(nx::kBidBidder),
                               t.IntAt(nx::kBidPrice), ts});
      t.Append(Value(index));
      src = g.bids;
    } else {
      const int64_t index = static_cast<int64_t>(auctions.size());
      t = nx::MakeAuction(cfg, index, ts, &auction_rng);
      auctions.push_back(AuctionRecord{t.IntAt(nx::kAuctionId), ts});
      t.Append(Value(index));
      src = g.auctions;
    }
    const int64_t b = MonoNs();
    const uint32_t span = tracer->Begin("source.push", run_span.id());
    src->Push(std::move(t));
    tracer->End(span, 1);
    gen_ns += b - a;
    push_ns += MonoNs() - b;
  }
  // Close at a hot_items window boundary that is already due, so every
  // window's row is emitted after its end and carries a real latency.
  const AppTime end_ts =
      (static_cast<AppTime>(horizon_ns / 1e3) / kHotWindow + 1) * kHotWindow;
  WaitUntil(origin + end_ts * 1000);
  {
    const int64_t b = MonoNs();
    Scope s(tracer, "source.close", run_span.id());
    g.bids->Close(end_ts);
    g.auctions->Close(end_ts);
    push_ns += MonoNs() - b;
  }
  bool finished;
  {
    Scope s(tracer, "engine.wait", run_span.id());
    finished = engine.WaitUntilFinishedFor(std::chrono::seconds(60));
  }
  const int64_t t1 = MonoNs();
  const int64_t gen_cpu = ThreadCpuNs() - gen_cpu0 - push_ns;
  const int64_t engine_cpu = ProcessCpuNs() - cpu0 - gen_cpu;
  sampler.reset();
  const flexstream::columnar::PoolStats pool1 =
      flexstream::columnar::GetPoolStats();
  engine.Stop();

  const int64_t attempted =
      static_cast<int64_t>(bids.size() + auctions.size());
  report->attempted += attempted;
  if (!finished) return report->Fail("nexmark: run did not finish in 60 s");
  if (!engine.RunResult().ok()) {
    return report->Fail("nexmark: " + engine.RunResult().ToString());
  }

  // -- Checks against computations made directly from the inputs --------
  Scope check(tracer, "check", run_span.id());
  report->Expect(CheckCurrency(bids, cfg.exchange_rate, g.currency.currency));
  report->Expect(CheckFilter(bids, kFilterModulus, g.filter.filter));
  report->Expect(CheckHotItems(HotItemsReference(bids, kHotWindow), g.hot.hot));
  int64_t brute_force = 0;
  report->Expect(
      CheckJoin(auctions, bids, kJoinWindow, g.join.join, &brute_force));
  const double wall_s = (t1 - origin) / 1e9;
  report->Expect(CheckConservation(
      FlowModel(g.graph),
      {{"bids", static_cast<int64_t>(bids.size())},
       {"auctions", static_cast<int64_t>(auctions.size())}},
      engine.WorkerThreadCount(), wall_s));

  // -- Metrics --------------------------------------------------------------
  auto& m = report->metrics;
  const double n = static_cast<double>(attempted);
  auto latency = [&](std::vector<const QuerySink*> sinks, double q) {
    return PeriodQuantile(sinks, origin, setup.burst_period_s,
                          static_cast<size_t>(seconds / setup.burst_period_s),
                          q);
  };
  const std::vector<const QuerySink*> all = {&g.currency, &g.filter, &g.hot,
                                             &g.join};
  m["throughput_tps"] = n / wall_s;
  m["cpu_us_per_tuple"] = engine_cpu / 1e3 / n;
  m["latency_p50_us"] = latency(all, 0.50);
  m["latency_p99_us"] = latency(all, 0.99);
  m["peak_rss_mb"] = PeakRssMb();

  m["gen.ns_per_tuple"] = gen_ns / n;
  m["gen.lag_p99_us"] = Quantile(&lag_us, 0.99);
  m["source.push_ns_per_tuple"] = push_ns / n;
  m["queue.peak_queued_elements"] = static_cast<double>(peak_queued.load());
  m["core.waiting_partitions_mean"] =
      waiting_samples.load() == 0
          ? 0.0
          : static_cast<double>(waiting_sum.load()) / waiting_samples.load();
  const int64_t acquires = pool1.acquires - pool0.acquires;
  m["pool.hit_rate"] =
      acquires == 0
          ? 0.0
          : static_cast<double>(pool1.pool_hits - pool0.pool_hits) / acquires;
  LayerCounters layers;
  layers.tuples = attempted;
  layers.AddRun(engine, g.graph,
                {"q1_currency", "q2_filter", "q5_hot_items", "q8_join"});
  layers.Emit(&m);

  if (!g.hot_shards.replicas.empty()) {
    double max_load = 0.0, sum_load = 0.0;
    for (const flexstream::Operator* r : g.hot_shards.replicas) {
      const double load = static_cast<double>(r->stats().arrivals());
      max_load = std::max(max_load, load);
      sum_load += load;
    }
    m["shard.imbalance"] =
        sum_load == 0.0 ? 0.0
                        : max_load / (sum_load / g.hot_shards.replicas.size());
    const flexstream::OpStats& merge = g.hot_shards.merge->stats();
    m["shard.merge_busy_ns_per_tuple"] =
        merge.BusyMicros() * 1e3 /
        std::max<double>(1.0, static_cast<double>(merge.arrivals()));
  } else {
    m["shard.imbalance"] = 1.0;
    m["shard.merge_busy_ns_per_tuple"] = 0.0;
  }
  m["query.currency.latency_p99_us"] = latency({&g.currency}, 0.99);
  m["query.filter.latency_p99_us"] = latency({&g.filter}, 0.99);
  m["query.hot_items.latency_p99_us"] = latency({&g.hot}, 0.99);
  m["query.join.latency_p99_us"] = latency({&g.join}, 0.99);
  m["query.join.missing_pairs"] =
      static_cast<double>(brute_force - static_cast<int64_t>(g.join.join.size()));
}

}  // namespace perfbench
