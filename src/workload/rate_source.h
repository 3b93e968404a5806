// Rate-controlled autonomous sources.
//
// A RateSource drives a Source node from its own thread — the paper's
// "autonomous data sources" (Section 6.3) — emitting a configured number
// of elements at configured rates with constant or Poisson pacing
// ("the inter arrival rate between two successive elements followed a
// Poisson distribution", Section 6.2).
//
// Application timestamps are the *scheduled* logical arrival times, so
// window semantics depend only on the schedule; wall-clock pacing (which
// may be scaled or disabled) only affects when elements physically enter
// the graph.
//
// Backpressure observation: Push() is synchronous — with DI and no queue
// after the source, a slow downstream operator delays the source past its
// schedule. The per-bucket achieved-rate timeline exposes exactly the
// input-rate collapse of Figure 6.

#ifndef FLEXSTREAM_WORKLOAD_RATE_SOURCE_H_
#define FLEXSTREAM_WORKLOAD_RATE_SOURCE_H_

#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "operators/source.h"
#include "util/random.h"
#include "workload/phase.h"

namespace flexstream {

class RateSource {
 public:
  enum class Pacing { kConstant, kPoisson };

  struct Options {
    std::vector<Phase> phases;
    Pacing pacing = Pacing::kConstant;
    /// Wall-time speedup: 2.0 replays the schedule twice as fast as its
    /// logical rates (application timestamps are unaffected).
    double time_scale = 1.0;
    /// Record achieved emission rate per wall-time bucket.
    bool record_rate_timeline = false;
    double bucket_seconds = 1.0;
    /// RNG seed (Poisson pacing and generator randomness).
    uint64_t seed = 42;
    /// Appends the element's emission time — microseconds since
    /// `stamp_epoch` — as an extra trailing integer attribute, for
    /// LatencySink (operators/latency_sink.h). In paced phases this is the
    /// element's *due* time on the schedule, not the moment the generator
    /// got to it: a generator running late must not hide its lag from the
    /// measured latency (coordinated omission). Unpaced phases have no
    /// schedule and stamp the actual emission time.
    bool stamp_emit_offset = false;
    TimePoint stamp_epoch{};
  };

  /// Generator: (element index, scheduled app timestamp, rng) -> tuple.
  using Generator = std::function<Tuple(int64_t, AppTime, Rng*)>;

  /// `source` must outlive this driver. The driver closes the source after
  /// the last element.
  RateSource(Source* source, Options options, Generator generator);
  ~RateSource();

  RateSource(const RateSource&) = delete;
  RateSource& operator=(const RateSource&) = delete;

  /// Spawns the emission thread.
  void Start();

  /// Waits for the emission thread to finish (all elements + EOS pushed).
  void Join();

  /// Runs the schedule in the calling thread (blocking).
  void Run();

  int64_t emitted() const { return emitted_; }

  /// (bucket start seconds, achieved elements/second) samples.
  std::vector<std::pair<double, double>> TakeRateTimeline();

  /// Generator producing single-int64 tuples uniform in [lo, hi].
  static Generator UniformInt(int64_t lo, int64_t hi);

 private:
  Source* source_;
  Options options_;
  Generator generator_;
  Rng rng_;
  std::thread thread_;
  int64_t emitted_ = 0;
  std::vector<int64_t> bucket_counts_;
  double actual_duration_seconds_ = 0.0;
};

}  // namespace flexstream

#endif  // FLEXSTREAM_WORKLOAD_RATE_SOURCE_H_
