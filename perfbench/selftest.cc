#include "selftest.h"

#include <cstdio>
#include <string>
#include <vector>

#include "api/query_builder.h"
#include "api/stream_engine.h"
#include "chain.h"
#include "checks.h"
#include "nexmark_hmts.h"
#include "trace.h"
#include "util/random.h"
#include "workload/nexmark.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void ExpectPass(const std::string& error, const std::string& what) {
  Expect(error.empty(), what + (error.empty() ? "" : ": " + error));
}

void ExpectFail(const std::string& error, const std::string& what) {
  Expect(!error.empty(), what + " is caught" +
                             (error.empty() ? "" : " (" + error + ")"));
}

void ChainChecks() {
  // Hand-computed: values 1, 4, 5 at timestamps 1, 2, 3; the selection
  // drops 4, the map gives 4 and 16, so the window [0, 1000) sums to 20.
  const WindowSums tiny = ChainReference({1, 4, 5}, 1000, 1);
  Expect(tiny.size() == 1 && tiny.begin()->first == 1000 &&
             tiny.begin()->second == 20.0,
         "chain reference: hand-computed window sum");

  flexstream::Rng rng(3);
  std::vector<int64_t> values(5000);
  for (int64_t& v : values) v = rng.UniformInt(0, 999);
  const WindowSums ref = ChainReference(values, 1000, 1);
  const std::vector<SumRow> rows(ref.begin(), ref.end());
  ExpectPass(CheckWindowSums(ref, rows), "chain: exact result");
  std::vector<SumRow> dropped = rows;
  dropped.erase(dropped.begin() + 2);
  ExpectFail(CheckWindowSums(ref, dropped), "chain: one dropped window");
  std::vector<SumRow> wrong = rows;
  wrong[3].second += 1.0;
  ExpectFail(CheckWindowSums(ref, wrong), "chain: one wrong sum");
  std::vector<SumRow> moved = rows;
  moved[1].first += 1000 * 100;
  ExpectFail(CheckWindowSums(ref, moved), "chain: one misplaced window");
}

void NexmarkChecks() {
  namespace nx = flexstream::nexmark;
  const nx::NexmarkConfig cfg;
  flexstream::Rng bid_rng(5), auction_rng(6);
  std::vector<BidRecord> bids;
  std::vector<AuctionRecord> auctions;
  for (int64_t i = 0; i < 3000; ++i) {
    const flexstream::Tuple t = nx::MakeBid(cfg, i, i * 37, &bid_rng);
    bids.push_back(BidRecord{t.IntAt(nx::kBidAuction), t.IntAt(nx::kBidBidder),
                             t.IntAt(nx::kBidPrice), i * 37});
  }
  for (int64_t i = 0; i < 2000; ++i) {
    const flexstream::Tuple t = nx::MakeAuction(cfg, i, i * 53, &auction_rng);
    auctions.push_back(AuctionRecord{t.IntAt(nx::kAuctionId), i * 53});
  }

  std::vector<std::pair<int64_t, double>> prices;
  for (size_t i = 0; i < bids.size(); ++i) {
    prices.emplace_back(i, static_cast<double>(bids[i].price) *
                               cfg.exchange_rate);
  }
  ExpectPass(CheckCurrency(bids, cfg.exchange_rate, prices),
             "currency: exact result");
  std::vector<std::pair<int64_t, double>> bad_price = prices;
  bad_price[10].second += 0.5;
  ExpectFail(CheckCurrency(bids, cfg.exchange_rate, bad_price),
             "currency: one wrong price");
  bad_price = prices;
  bad_price.pop_back();
  ExpectFail(CheckCurrency(bids, cfg.exchange_rate, bad_price),
             "currency: one dropped row");

  std::vector<int64_t> survivors;
  for (size_t i = 0; i < bids.size(); ++i) {
    if (bids[i].auction % 8 == 0) survivors.push_back(i);
  }
  ExpectPass(CheckFilter(bids, 8, survivors), "filter: exact result");
  std::vector<int64_t> fewer(survivors.begin() + 1, survivors.end());
  ExpectFail(CheckFilter(bids, 8, fewer), "filter: one dropped survivor");
  std::vector<int64_t> swapped = survivors;
  for (size_t i = 0; i < bids.size(); ++i) {
    if (bids[i].auction % 8 != 0) {
      swapped[0] = i;
      break;
    }
  }
  ExpectFail(CheckFilter(bids, 8, swapped), "filter: one wrong survivor");

  const HotCounts hot = HotItemsReference(bids, 10'000);
  ExpectPass(CheckHotItems(hot, hot), "hot_items: exact result");
  HotCounts off = hot;
  off.begin()->second += 1;
  ExpectFail(CheckHotItems(hot, off), "hot_items: one wrong count");
  off = hot;
  off.erase(std::next(off.begin(), 5));
  ExpectFail(CheckHotItems(hot, off), "hot_items: one dropped (window, item)");

  const int64_t window = 50'000;
  std::vector<JoinPair> pairs;
  for (size_t a = 0; a < auctions.size(); ++a) {
    for (size_t b = 0; b < bids.size(); ++b) {
      if (auctions[a].id == bids[b].auction &&
          std::abs(auctions[a].due - bids[b].due) <= window) {
        pairs.push_back(JoinPair{static_cast<int64_t>(a),
                                 static_cast<int64_t>(b), auctions[a].id,
                                 bids[b].auction,
                                 std::max(auctions[a].due, bids[b].due)});
      }
    }
  }
  int64_t brute = 0;
  ExpectPass(CheckJoin(auctions, bids, window, pairs, &brute),
             "join: exact result");
  Expect(brute == static_cast<int64_t>(pairs.size()) && brute > 0,
         "join: brute-force count equals the nested-loop pairs");
  std::vector<JoinPair> fewer_pairs(pairs.begin() + 1, pairs.end());
  ExpectPass(CheckJoin(auctions, bids, window, fewer_pairs, &brute),
             "join: a missing pair stays within the brute-force bound");
  std::vector<JoinPair> bad = pairs;
  bad[0].right_key += 1;
  ExpectFail(CheckJoin(auctions, bids, window, bad, &brute),
             "join: one pair with unequal keys");
  bad = pairs;
  for (size_t b = 0; b < bids.size(); ++b) {
    const AuctionRecord& a = auctions[bad[0].auction_index];
    if (bids[b].auction == a.id && std::abs(bids[b].due - a.due) > window) {
      bad[0].bid_index = b;
      bad[0].timestamp = std::max(a.due, bids[b].due);
      break;
    }
  }
  ExpectFail(CheckJoin(auctions, bids, window, bad, &brute),
             "join: one pair outside the window");
  bad = pairs;
  bad.push_back(pairs[0]);
  ExpectFail(CheckJoin(auctions, bids, window, bad, &brute),
             "join: one duplicated pair");
}

void ConservationChecks() {
  // A real run: src -> select -> sink under GTS, with stats on.
  flexstream::QueryGraph graph;
  flexstream::QueryBuilder qb(&graph);
  flexstream::Source* src = qb.AddSource("src");
  flexstream::Node* sel = qb.Select(src, "sel", [](const flexstream::Tuple& t) {
    return t.IntAt(0) % 3 != 0;
  });
  qb.CountSink(sel, "out");
  flexstream::StreamEngine engine(&graph);
  flexstream::EngineOptions options;
  options.mode = flexstream::ExecutionMode::kGts;
  const int64_t start = MonoNs();
  if (!engine.Configure(options).ok() || !engine.Start().ok()) {
    Expect(false, "conservation: engine starts");
    return;
  }
  for (int64_t i = 0; i < 3000; ++i) src->Push(flexstream::Tuple::OfInt(i, i));
  src->Close(3000);
  engine.WaitUntilFinished();
  const double wall = (MonoNs() - start) / 1e9;
  const std::vector<FlowNode> nodes = FlowModel(graph);
  const std::map<std::string, int64_t> generated = {{"src", 3000}};
  ExpectPass(CheckConservation(nodes, generated, 1, wall),
             "conservation: a real GTS run");
  Expect(nodes.size() == 4,
         "conservation: the model has src, the queue before sel, sel and out");

  ExpectFail(CheckConservation(nodes, {{"src", 2999}}, 1, wall),
             "conservation: source count differs from the generator's");
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].is_source) continue;
    std::vector<FlowNode> lost = nodes;
    lost[i].arrivals -= 1;
    ExpectFail(CheckConservation(lost, generated, 1, wall),
               "conservation: one element lost before " + nodes[i].name);
  }
  std::vector<FlowNode> busy = nodes;
  busy[0].busy_micros = 3e6 * wall;
  ExpectFail(CheckConservation(busy, generated, 1, wall),
             "conservation: busy time beyond threads x wall");

  // A router group: two destinations must together receive what the
  // router emitted.
  std::vector<FlowNode> routed(4);
  routed[0] = FlowNode{"src", true, false, 10, 10, 0.0, {}};
  routed[1] = FlowNode{"split", false, true, 10, 10, 0.0, {0}};
  routed[2] = FlowNode{"r0", false, false, 4, 4, 0.0, {1}};
  routed[3] = FlowNode{"r1", false, false, 6, 6, 0.0, {1}};
  ExpectPass(CheckConservation(routed, {{"src", 10}}, 1, 1.0),
             "conservation: router group");
  routed[3].arrivals = 5;
  ExpectFail(CheckConservation(routed, {{"src", 10}}, 1, 1.0),
             "conservation: one element lost behind a router");
}

void TinyWorkloads(const RunArgs& base) {
  const RunArgs& args = base;
  Tracer off(false);
  for (const ChainConfig& cfg : {ChainCol64(), ChainDurable()}) {
    Report report;
    ChainInput input = MakeChainInput(11, 20'000);
    const ChainRun run = RunChain(cfg, &input, args, 0.2, &off, &report);
    ExpectPass(report.error, cfg.name + ": tiny run passes its checks");
    Expect(run.rounds >= 1 && run.latency_p99_us.front() > 0.0,
           cfg.name + ": tiny run measured windows");
  }
  {
    Report report;
    ChainInput input = MakeChainInput(12, 20'000);
    std::map<std::string, ChainRun> baseline;
    RunChainAblations(&input, args, 1, &report, &baseline);
    ExpectPass(report.error, "chain ablations: tiny runs pass their checks");
    Expect(report.metrics.count("durable.ns_per_tuple") == 1,
           "chain ablations: ledger written");
  }
  {
    NexmarkSetup setup;
    setup.bid_rate = 5'000;
    setup.auction_rate = 500;
    setup.burst_bids = 300;
    Report report;
    Tracer traced(true);
    RunNexmark(setup, args, 1.0, &traced, &report);
    ExpectPass(report.error, "nexmark_hmts: tiny traced run passes its checks");
    Expect(report.metrics.count("shard.imbalance") == 1 &&
               report.metrics["queue.peak_queued_elements"] >= 0.0,
           "nexmark_hmts: per-layer metrics written");
  }
}

}  // namespace

int RunSelfTest(const RunArgs& args) {
  ChainChecks();
  NexmarkChecks();
  ConservationChecks();
  TinyWorkloads(args);
  std::printf("%s: %d failure(s)\n", failures == 0 ? "OK" : "FAILED", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
