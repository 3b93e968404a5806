// Bindings from the abstract SLO-controller interfaces (slo_controller.h)
// to a live StreamEngine.
//
//   EngineMetricsProbe  merges the graph's LatencySink histograms, diffs
//                       them against the previous sample (Histogram::
//                       DeltaSince) for a per-interval p99, and derives
//                       the hottest-stage utilization rho = c(v)/d(v)
//                       from the measured per-node statistics EWMAs —
//                       the same numbers the placement algorithms use.
//   EngineActuator      maps the four ladder rungs onto the engine's live
//                       actuation hooks. Rung 3 (resharding) is not a
//                       single engine call — it needs a quiesce/
//                       deconfigure/ResizeShard/reconfigure choreography
//                       that only the run's owner can stage — so it is an
//                       injectable callback; without one the rung reports
//                       Unimplemented and the ladder skips over it.

#ifndef FLEXSTREAM_CONTROL_ENGINE_HOOKS_H_
#define FLEXSTREAM_CONTROL_ENGINE_HOOKS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "api/stream_engine.h"
#include "control/slo_controller.h"
#include "util/histogram.h"

namespace flexstream {

class LatencySink;
class QueryGraph;

class EngineMetricsProbe : public MetricsProbe {
 public:
  /// `engine` and `graph` must outlive the probe. When `sinks` is empty
  /// the graph is scanned for LatencySinks at each sample (they may not
  /// exist yet when the probe is constructed).
  EngineMetricsProbe(StreamEngine* engine, const QueryGraph* graph,
                     std::vector<const LatencySink*> sinks = {});

  ControlMetrics Sample() override;

 private:
  StreamEngine* const engine_;
  const QueryGraph* const graph_;
  std::vector<const LatencySink*> sinks_;
  Histogram previous_;  // lifetime-merged histogram at the last sample
  int64_t previous_dropped_ = 0;
  TimePoint last_sample_time_;
  bool first_sample_ = true;
};

class EngineActuator : public Actuator {
 public:
  explicit EngineActuator(StreamEngine* engine) : engine_(engine) {}

  /// Installs the rung-3 implementation (see file comment). The callback
  /// receives the requested shard count and performs the full pause/
  /// deconfigure/ResizeShard/reconfigure/resume sequence, returning the
  /// first refusal it hits.
  void SetResharder(std::function<Status(size_t)> resharder) {
    resharder_ = std::move(resharder);
  }

  bool recovering() const override { return engine_->recovering(); }
  Status SetMaxThreads(int max_running) override {
    return engine_->SetMaxRunningThreads(max_running);
  }
  Status SetBatchSize(size_t batch_size) override {
    return engine_->SetBatchSizeLive(batch_size);
  }
  Status SetShards(size_t shards) override {
    if (!resharder_) {
      return Status::Unimplemented(
          "rung 3 unavailable: no resharder installed "
          "(EngineActuator::SetResharder)");
    }
    return resharder_(shards);
  }
  Status SetShedding(bool enabled) override {
    return engine_->SetOverloadPolicyLive(enabled ? OverloadPolicy::kShedNewest
                                                  : OverloadPolicy::kBlock);
  }

 private:
  StreamEngine* const engine_;
  std::function<Status(size_t)> resharder_;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_CONTROL_ENGINE_HOOKS_H_
