#include "checks.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>

#include "graph/query_graph.h"
#include "operators/router.h"

namespace perfbench {
namespace {

template <typename... Parts>
std::string Describe(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

}  // namespace

WindowSums ChainReference(const std::vector<int64_t>& values,
                          int64_t window_micros, int64_t first_ts) {
  WindowSums sums;
  for (size_t i = 0; i < values.size(); ++i) {
    const int64_t v = values[i];
    if (v % 4 == 0) continue;  // the selection keeps v % 4 != 0
    const int64_t ts = first_ts + static_cast<int64_t>(i);
    const int64_t end = (ts / window_micros + 1) * window_micros;
    sums[end] += static_cast<double>(3 * v + 1);  // the map
  }
  return sums;
}

std::string CheckWindowSums(const WindowSums& expected,
                            const std::vector<SumRow>& actual) {
  if (actual.size() != expected.size()) {
    return Describe("chain: sink saw ", actual.size(), " windows, expected ",
                    expected.size());
  }
  std::vector<SumRow> sorted = actual;
  std::sort(sorted.begin(), sorted.end());
  auto it = expected.begin();
  for (const SumRow& row : sorted) {
    if (row.first != it->first) {
      return Describe("chain: window ending ", row.first,
                      " not expected (next expected ", it->first, ")");
    }
    if (row.second != it->second) {
      return Describe("chain: window ending ", row.first, " sums to ",
                      row.second, ", expected ", it->second);
    }
    ++it;
  }
  return "";
}

std::string CheckCurrency(
    const std::vector<BidRecord>& bids, double rate,
    const std::vector<std::pair<int64_t, double>>& rows) {
  if (rows.size() != bids.size()) {
    return Describe("currency: ", rows.size(), " rows for ", bids.size(),
                    " bids");
  }
  std::vector<bool> seen(bids.size(), false);
  for (const auto& [index, price] : rows) {
    if (index < 0 || index >= static_cast<int64_t>(bids.size()) ||
        seen[index]) {
      return Describe("currency: unexpected or repeated bid index ", index);
    }
    seen[index] = true;
    const double want = static_cast<double>(bids[index].price) * rate;
    if (price != want) {
      return Describe("currency: bid ", index, " priced ", price,
                      ", expected ", want);
    }
  }
  return "";
}

std::string CheckFilter(const std::vector<BidRecord>& bids, int64_t modulus,
                        const std::vector<int64_t>& survivors) {
  int64_t expected = 0;
  for (const BidRecord& b : bids) {
    if (b.auction % modulus == 0) ++expected;
  }
  if (static_cast<int64_t>(survivors.size()) != expected) {
    return Describe("filter: ", survivors.size(), " survivors, predicate ",
                    "count is ", expected);
  }
  std::set<int64_t> seen;
  for (int64_t index : survivors) {
    if (index < 0 || index >= static_cast<int64_t>(bids.size()) ||
        bids[index].auction % modulus != 0 || !seen.insert(index).second) {
      return Describe("filter: bid ", index, " should not survive");
    }
  }
  return "";
}

HotCounts HotItemsReference(const std::vector<BidRecord>& bids,
                            int64_t window_micros) {
  HotCounts counts;
  for (const BidRecord& b : bids) {
    const int64_t end = (b.due / window_micros + 1) * window_micros;
    ++counts[{end, b.auction}];
  }
  return counts;
}

std::string CheckHotItems(const HotCounts& expected, const HotCounts& actual) {
  if (actual.size() != expected.size()) {
    return Describe("hot_items: ", actual.size(), " (window, auction) rows, ",
                    "expected ", expected.size());
  }
  for (const auto& [key, count] : expected) {
    auto it = actual.find(key);
    if (it == actual.end() || it->second != count) {
      return Describe("hot_items: window ", key.first, " auction ",
                      key.second, " counted ",
                      it == actual.end() ? 0 : it->second, ", expected ",
                      count);
    }
  }
  return "";
}

std::string CheckJoin(const std::vector<AuctionRecord>& auctions,
                      const std::vector<BidRecord>& bids,
                      int64_t window_micros,
                      const std::vector<JoinPair>& pairs,
                      int64_t* brute_force) {
  // Brute force: for every bid, the auctions with its id whose due time
  // lies within the window (auction due times per id are sorted).
  std::unordered_map<int64_t, std::vector<int64_t>> due_by_id;
  for (const AuctionRecord& a : auctions) due_by_id[a.id].push_back(a.due);
  int64_t total = 0;
  for (const BidRecord& b : bids) {
    auto it = due_by_id.find(b.auction);
    if (it == due_by_id.end()) continue;
    const std::vector<int64_t>& dues = it->second;
    total += std::upper_bound(dues.begin(), dues.end(),
                              b.due + window_micros) -
             std::lower_bound(dues.begin(), dues.end(),
                              b.due - window_micros);
  }
  *brute_force = total;

  std::set<std::pair<int64_t, int64_t>> seen;
  for (const JoinPair& p : pairs) {
    if (p.auction_index < 0 ||
        p.auction_index >= static_cast<int64_t>(auctions.size()) ||
        p.bid_index < 0 || p.bid_index >= static_cast<int64_t>(bids.size())) {
      return Describe("join: pair references unknown input (auction ",
                      p.auction_index, ", bid ", p.bid_index, ")");
    }
    const AuctionRecord& a = auctions[p.auction_index];
    const BidRecord& b = bids[p.bid_index];
    if (p.left_key != p.right_key || p.left_key != a.id ||
        p.right_key != b.auction) {
      return Describe("join: pair (auction ", p.auction_index, ", bid ",
                      p.bid_index, ") has keys ", p.left_key, "/",
                      p.right_key, ", inputs have ", a.id, "/", b.auction);
    }
    if (std::abs(a.due - b.due) > window_micros) {
      return Describe("join: pair (auction ", p.auction_index, ", bid ",
                      p.bid_index, ") lies ", std::abs(a.due - b.due),
                      " us apart, window is ", window_micros);
    }
    if (p.timestamp != std::max(a.due, b.due)) {
      return Describe("join: pair (auction ", p.auction_index, ", bid ",
                      p.bid_index, ") stamped ", p.timestamp);
    }
    if (!seen.insert({p.auction_index, p.bid_index}).second) {
      return Describe("join: pair (auction ", p.auction_index, ", bid ",
                      p.bid_index, ") emitted twice");
    }
  }
  if (static_cast<int64_t>(pairs.size()) > total) {
    return Describe("join: ", pairs.size(), " pairs exceed the brute-force ",
                    "count ", total);
  }
  return "";
}

std::vector<FlowNode> FlowModel(const flexstream::QueryGraph& graph) {
  std::vector<FlowNode> nodes;
  std::unordered_map<const flexstream::Node*, size_t> index;
  for (const flexstream::Node* n : graph.nodes()) {
    // Detached nodes (a sharded operator's prototype) carry no traffic.
    if (n->fan_in() == 0 && n->fan_out() == 0) continue;
    index[n] = nodes.size();
    FlowNode f;
    f.name = n->name();
    f.is_source = n->is_source();
    f.is_router = dynamic_cast<const flexstream::Router*>(n) != nullptr;
    f.arrivals = n->stats().arrivals();
    f.emitted = n->stats().emitted();
    f.busy_micros = n->stats().BusyMicros();
    nodes.push_back(std::move(f));
  }
  for (const flexstream::Node* n : graph.nodes()) {
    auto self = index.find(n);
    if (self == index.end()) continue;
    for (const auto& in : n->inputs()) {
      nodes[self->second].inputs.push_back(index.at(in.source));
    }
  }
  return nodes;
}

std::string CheckConservation(const std::vector<FlowNode>& nodes,
                              const std::map<std::string, int64_t>& generated,
                              size_t worker_threads, double wall_seconds) {
  double busy = 0.0;
  int64_t routed_in = 0;   // received by nodes fed by routers
  int64_t routed_out = 0;  // emitted by routers
  for (const FlowNode& n : nodes) {
    busy += n.busy_micros;
    if (n.is_router) routed_out += n.emitted;
    if (n.is_source) {
      auto it = generated.find(n.name);
      const int64_t want = it == generated.end() ? 0 : it->second;
      if (n.arrivals != want || n.emitted != want) {
        return Describe("conservation: source ", n.name, " received ",
                        n.arrivals, " and emitted ", n.emitted,
                        ", generator produced ", want);
      }
      continue;
    }
    bool router_fed = false;
    int64_t upstream = 0;
    for (size_t u : n.inputs) {
      if (nodes[u].is_router) router_fed = true;
      upstream += nodes[u].emitted;
    }
    if (router_fed) {
      routed_in += n.arrivals;
      continue;
    }
    if (n.arrivals != upstream) {
      return Describe("conservation: ", n.name, " received ", n.arrivals,
                      ", upstream emitted ", upstream);
    }
  }
  if (routed_in != routed_out) {
    return Describe("conservation: routers emitted ", routed_out,
                    ", their destinations received ", routed_in);
  }
  const double capacity =
      static_cast<double>(worker_threads + 1) * wall_seconds * 1e6;
  if (busy > capacity) {
    return Describe("conservation: operators busy ", busy, " us, more than ",
                    worker_threads + 1, " threads x ", wall_seconds, " s");
  }
  return "";
}

}  // namespace perfbench
