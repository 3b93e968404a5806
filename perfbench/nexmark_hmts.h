// The NEXMark workload: four queries hosted in one engine, fed open-loop.
//
//   currency  bids -> map(price * rate)                 -> sink
//   filter    bids -> select(auction % 8 == 0)          -> sink
//   hot_items bids -> tumbling count per auction, 10 ms -> sink
//             (sharded four ways, ordered merge)
//   join      auctions x bids on auction id, 50 ms window -> sink
//
// One generator thread merges three seeded schedules in due-time order:
// steady Poisson bids, periodic bursts of bids far above the engine's
// saturation rate, and Poisson auctions at a tenth of the steady bid rate.
// It waits for each element's due time (sleeping, then spinning), builds
// it with nexmark::MakeBid / MakeAuction, appends its index, stamps it
// with its due time (microseconds from the run's origin) and pushes it
// whether or not it is late. A result's latency is its arrival time at the
// sink minus its timestamp: a bid's due time, the later due time of a
// joined pair, or a hot_items window's end.

#ifndef FLEXSTREAM_PERFBENCH_NEXMARK_HMTS_H_
#define FLEXSTREAM_PERFBENCH_NEXMARK_HMTS_H_

#include <string>

#include "api/stream_engine.h"
#include "common.h"
#include "trace.h"

namespace perfbench {

struct NexmarkSetup {
  flexstream::ExecutionMode mode = flexstream::ExecutionMode::kHmts;
  size_t emit_batch_size = 1;
  size_t hot_items_shards = 4;
  double bid_rate = 30'000.0;     // steady bids per second
  double auction_rate = 3'000.0;  // auctions per second
  double burst_period_s = 0.5;    // one burst every period...
  int64_t burst_bids = 2'000;     // ...of this many bids...
  double burst_rate = 1'000'000.0;  // ...due at this rate
};

/// Runs the workload for `seconds` of due time and writes its end-to-end
/// metrics and its generator, source, queue, scheduler, operator, shard
/// and per-query metrics into `report`.
void RunNexmark(const NexmarkSetup& setup, const RunArgs& args,
                double seconds, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // FLEXSTREAM_PERFBENCH_NEXMARK_HMTS_H_
