// Per-layer counters read from the engine's public accessors after a run:
// queues (QueueOp), level-2 partitions (Partition), the level-3 scheduler
// (HmtsExecutor) and per-operator OpStats. Summed across the rounds of a
// workload and turned into the `<module>.<what>` metrics.

#ifndef FLEXSTREAM_PERFBENCH_LAYERS_H_
#define FLEXSTREAM_PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace flexstream {
class QueryGraph;
class StreamEngine;
}

namespace perfbench {

struct OpTotals {
  double busy_micros = 0.0;
  int64_t arrivals = 0;
  int64_t emitted = 0;
};

struct LayerCounters {
  int64_t tuples = 0;  // input elements pushed by the generator
  int64_t queue_notifications = 0;
  int64_t queue_ring_pushes = 0;
  int64_t queue_locked_pushes = 0;
  int64_t queue_block_waits = 0;
  int64_t queue_peak_depth = 0;  // max over queues and rounds
  int64_t partition_wakeups = 0;
  int64_t partition_drained = 0;
  int64_t worker_threads = 0;  // max over rounds
  int64_t partitions = 0;      // max over rounds
  /// Keyed by operator name, shard replicas folded into their group.
  std::map<std::string, OpTotals> ops;

  /// Adds the counters of one finished engine run over `graph`; `ops`
  /// names the operators whose OpStats are kept.
  void AddRun(flexstream::StreamEngine& engine,
              const flexstream::QueryGraph& graph,
              const std::vector<std::string>& op_names);

  /// Writes the queue.*, sched.*, core.partitions and op.* metrics.
  void Emit(std::map<std::string, double>* metrics) const;
};

}  // namespace perfbench

#endif  // FLEXSTREAM_PERFBENCH_LAYERS_H_
