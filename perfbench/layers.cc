#include "layers.h"

#include <algorithm>

#include "api/stream_engine.h"
#include "graph/query_graph.h"

namespace perfbench {

void LayerCounters::AddRun(flexstream::StreamEngine& engine,
                           const flexstream::QueryGraph& graph,
                           const std::vector<std::string>& op_names) {
  for (const flexstream::QueueOp* q : engine.queues()) {
    queue_notifications += q->notifications();
    queue_ring_pushes += q->ring_pushes();
    queue_locked_pushes += q->locked_pushes();
    queue_block_waits += q->block_waits();
    queue_peak_depth =
        std::max<int64_t>(queue_peak_depth, static_cast<int64_t>(q->PeakSize()));
  }
  std::vector<flexstream::Partition*> partitions;
  if (engine.hmts() != nullptr) partitions = engine.hmts()->Partitions();
  if (engine.gts() != nullptr) partitions = engine.gts()->Partitions();
  for (const flexstream::Partition* p : partitions) {
    partition_wakeups += p->wakeups();
    partition_drained += p->drained();
  }
  worker_threads = std::max<int64_t>(
      worker_threads, static_cast<int64_t>(engine.WorkerThreadCount()));
  this->partitions =
      std::max<int64_t>(this->partitions, static_cast<int64_t>(partitions.size()));

  for (const flexstream::Node* n : graph.nodes()) {
    if (n->fan_in() == 0 && n->fan_out() == 0) continue;  // detached
    // Shard replicas are named "<op>.shard<i>"; fold them into "<op>".
    std::string name = n->name();
    const size_t shard = name.find(".shard");
    if (shard != std::string::npos) name.resize(shard);
    if (std::find(op_names.begin(), op_names.end(), name) == op_names.end()) {
      continue;
    }
    OpTotals& t = ops[name];
    t.busy_micros += n->stats().BusyMicros();
    t.arrivals += n->stats().arrivals();
    t.emitted += n->stats().emitted();
  }
}

void LayerCounters::Emit(std::map<std::string, double>* metrics) const {
  auto& m = *metrics;
  const double ktuples = std::max<double>(1.0, static_cast<double>(tuples)) / 1e3;
  m["queue.notifications_per_ktuple"] = queue_notifications / ktuples;
  const int64_t pushes = queue_ring_pushes + queue_locked_pushes;
  m["queue.locked_push_share"] =
      pushes == 0 ? 0.0 : static_cast<double>(queue_locked_pushes) / pushes;
  m["queue.block_waits_per_ktuple"] = queue_block_waits / ktuples;
  m["queue.peak_depth"] = static_cast<double>(queue_peak_depth);
  m["sched.wakeups_per_ktuple"] = partition_wakeups / ktuples;
  m["sched.drained_per_wakeup"] =
      partition_wakeups == 0
          ? 0.0
          : static_cast<double>(partition_drained) / partition_wakeups;
  m["sched.worker_threads"] = static_cast<double>(worker_threads);
  m["core.partitions"] = static_cast<double>(partitions);
  for (const auto& [name, t] : ops) {
    const double n = std::max<double>(1.0, static_cast<double>(t.arrivals));
    m["op." + name + ".busy_ns_per_tuple"] = t.busy_micros * 1e3 / n;
    m["op." + name + ".selectivity"] = static_cast<double>(t.emitted) / n;
  }
}

}  // namespace perfbench
