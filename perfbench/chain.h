// The canonical chain workloads: source -> selection -> projection -> map
// -> tumbling sum -> sink, fed closed-loop by a single generator thread.
//
// Element i carries (value, aux) drawn from Rng(seed) at application time
// kChainWindow + i; the selection keeps value % 4 != 0, the projection
// keeps the value, the map computes 3 * value + 1 and the aggregate sums
// each kChainWindow-long window. Every round replays the same seeded input
// through a freshly built engine, so rounds are identical operations.
//
// Closed loop: the generator lets at most kChainCredits windows be pushed
// whose aggregate row has not yet reached the sink. A window's latency is
// the time from the push of its last element to the arrival of its row.

#ifndef FLEXSTREAM_PERFBENCH_CHAIN_H_
#define FLEXSTREAM_PERFBENCH_CHAIN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/stream_engine.h"
#include "checks.h"
#include "common.h"
#include "layers.h"
#include "trace.h"

namespace perfbench {

// 250-element windows give each 500,000-element round 2,000 window rows,
// so a round's 99th percentile has 20 samples beyond it; the credits let
// 16,000 elements be in flight.
inline constexpr int64_t kChainWindow = 250;
inline constexpr int64_t kChainCredits = 64;

/// One engine configuration of the chain (a workload or an ablation).
struct ChainConfig {
  std::string name;
  flexstream::ExecutionMode mode = flexstream::ExecutionMode::kGts;
  bool stats = true;
  bool bounded = false;     // kBlock queues of kChainQueueBound elements
  bool checkpoint = false;  // epoch barriers every kChainEpochInterval
  bool durable = false;     // snapshots persisted, cold restart checked
};

/// chain_col64: GTS, one worker, columnar batch 64, stats on, unbounded.
ChainConfig ChainCol64();
/// chain_durable: chain_col64 plus bounded kBlock queues, epoch barriers
/// and durable snapshots.
ChainConfig ChainDurable();

/// The seeded input and its independently computed result, which is
/// computed on first use (after the first round has measured), so that
/// set-up time covers only graph build, Configure and Start.
struct ChainInput {
  uint64_t seed = 0;
  int64_t tuples = 0;
  WindowSums reference;
  const WindowSums& Reference();
};
ChainInput MakeChainInput(uint64_t seed, int64_t tuples);

/// Totals over the rounds of one configuration.
struct ChainRun {
  int rounds = 0;
  int64_t setup_end_ns = 0;  // MonoNs() when the first Start returned
  std::vector<double> tps;             // per round
  std::vector<double> cpu_us_per_tuple;  // per round
  std::vector<double> engine_ns_per_tuple;  // per round: wall minus gen
  std::vector<double> latency_p50_us;  // per round, over its windows
  std::vector<double> latency_p99_us;  // per round, over its windows
  int64_t gen_ns = 0;
  int64_t push_ns = 0;
  LayerCounters layers;
  int64_t peak_queued = 0;  // sampled (traced runs only)
  int64_t pool_acquires = 0;
  int64_t pool_hits = 0;
  int64_t epochs_committed = 0;
  int64_t replay_peak_depth = 0;
  int64_t epochs_written = 0;
  int64_t bytes_written = 0;
  std::vector<double> cold_restart_ms;
};

/// Runs one round of `cfg` on `input`, accumulating into `run`; failed
/// checks are recorded in `report`.
void ChainRound(const ChainConfig& cfg, ChainInput* input,
                const RunArgs& args, Tracer* tracer, uint32_t parent,
                ChainRun* run, Report* report);

/// Rounds until `seconds` have elapsed (at least one).
ChainRun RunChain(const ChainConfig& cfg, ChainInput* input,
                  const RunArgs& args, double seconds, Tracer* tracer,
                  Report* report);

/// The end-to-end metrics of a chain run, plus its generator, source,
/// queue, scheduler, operator, pool and recovery layer metrics.
void ChainMetrics(const ChainRun& run, const RunArgs& args, Report* report);

/// The ablation ledger on the chain input (kernels, transfer, stats,
/// bound, checkpoint, durable), interleaved round by round and untraced.
/// Writes the `<layer>.ns_per_tuple` differences into the report;
/// `baseline` receives each configuration's run, keyed by config name.
void RunChainAblations(ChainInput* input, const RunArgs& args,
                       int rounds, Report* report,
                       std::map<std::string, ChainRun>* baseline);

}  // namespace perfbench

#endif  // FLEXSTREAM_PERFBENCH_CHAIN_H_
