// Correctness and conservation checks.
//
// Every check compares an engine result with a computation made directly
// from the seeded input, in plain loops that share no code with the
// engine's operators. Each returns an empty string on success, else a
// description of the first mismatch. They take plain data, so the
// self-test can feed them deliberately perturbed results.

#ifndef FLEXSTREAM_PERFBENCH_CHECKS_H_
#define FLEXSTREAM_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace flexstream {
class QueryGraph;
}

namespace perfbench {

// -- Chain: source -> selection -> projection -> map -> tumbling sum -------

/// Window end (application microseconds) -> sum of the window.
using WindowSums = std::map<int64_t, double>;
/// One aggregate row as it reached the sink: (timestamp, sum).
using SumRow = std::pair<int64_t, double>;

/// The chain's reference result, summed window by window from the input
/// values (element i carries values[i] at timestamp first_ts + i).
WindowSums ChainReference(const std::vector<int64_t>& values,
                          int64_t window_micros, int64_t first_ts);
/// The sink saw exactly one row per reference window, with its exact sum.
std::string CheckWindowSums(const WindowSums& expected,
                            const std::vector<SumRow>& actual);

// -- NEXMark ---------------------------------------------------------------

struct BidRecord {
  int64_t auction = 0;
  int64_t bidder = 0;
  int64_t price = 0;
  int64_t due = 0;  // application timestamp = due time, microseconds
};
struct AuctionRecord {
  int64_t id = 0;
  int64_t due = 0;
};

/// currency: one row per bid, (bid index, converted price); each price
/// must equal the bid's price times `rate`.
std::string CheckCurrency(const std::vector<BidRecord>& bids, double rate,
                          const std::vector<std::pair<int64_t, double>>& rows);

/// filter: the surviving bid indices must be exactly the bids whose
/// auction id is a multiple of `modulus`.
std::string CheckFilter(const std::vector<BidRecord>& bids, int64_t modulus,
                        const std::vector<int64_t>& survivors);

/// hot_items: (window end, auction) -> bid count.
using HotCounts = std::map<std::pair<int64_t, int64_t>, int64_t>;
HotCounts HotItemsReference(const std::vector<BidRecord>& bids,
                            int64_t window_micros);
std::string CheckHotItems(const HotCounts& expected, const HotCounts& actual);

/// join: one output pair as the sink saw it.
struct JoinPair {
  int64_t auction_index = 0;
  int64_t bid_index = 0;
  int64_t left_key = 0;   // the auction id attribute of the output
  int64_t right_key = 0;  // the bid's auction attribute of the output
  int64_t timestamp = 0;
};
/// Every pair must reference a generated auction and bid, have equal keys
/// matching those inputs, lie within the window (|dts| <= window), carry
/// the later of the two due times, and appear once; the total must not
/// exceed the brute-force count, which is returned in `*brute_force`.
std::string CheckJoin(const std::vector<AuctionRecord>& auctions,
                      const std::vector<BidRecord>& bids,
                      int64_t window_micros,
                      const std::vector<JoinPair>& pairs,
                      int64_t* brute_force);

// -- Conservation across the ledger ----------------------------------------

/// One node of the configured graph (operators and the engine's queues),
/// with the counters its OpStats published.
struct FlowNode {
  std::string name;
  bool is_source = false;
  bool is_router = false;
  int64_t arrivals = 0;
  int64_t emitted = 0;
  double busy_micros = 0.0;
  std::vector<size_t> inputs;  // indices of upstream nodes, one per edge
};

/// Reads the counters of every connected node of `graph`.
std::vector<FlowNode> FlowModel(const flexstream::QueryGraph& graph);

/// Each hop conserves elements: what a node received equals what its
/// upstream nodes emitted (a router's outputs are summed over its
/// destinations), and each source received exactly what the generator
/// produced for it. The operators' summed busy time must fit into the
/// threads that can run them: the engine's workers plus the generator
/// thread (which executes everything up to the first queue).
std::string CheckConservation(const std::vector<FlowNode>& nodes,
                              const std::map<std::string, int64_t>& generated,
                              size_t worker_threads, double wall_seconds);

}  // namespace perfbench

#endif  // FLEXSTREAM_PERFBENCH_CHECKS_H_
