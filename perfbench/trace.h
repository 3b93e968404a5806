// In-memory span and counter recorder for the traced (per-layer) runs.
//
// Spans sit around the benchmark's own calls into the engine's layers
// (Configure/Start, Push, WaitUntilFinished, ColdRestart); counter samples
// come from a Sampler thread reading the engine's public counters. Both
// stay in memory while the run measures and are written out once, at
// exit, as compact JSON (see Write). With tracing off every call is a
// single branch.

#ifndef FLEXSTREAM_PERFBENCH_TRACE_H_
#define FLEXSTREAM_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span on the recording thread (spans are recorded by the
  /// generator thread only) and returns its id; 0 when tracing is off.
  /// `name` must outlive the tracer (a string literal).
  uint32_t Begin(const char* name, uint32_t parent = 0);
  /// Closes span `id`, attributing `count` elements to it.
  void End(uint32_t id, int64_t count = 0);

  /// Records a counter sample (any thread).
  void Sample(const char* name, double value);

  /// Writes every span and counter sample to `path`; returns false when
  /// the file cannot be written.
  bool Write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    uint32_t parent;
    int64_t start_ns;
    int64_t end_ns;
    int64_t count;
  };
  struct CounterSample {
    const char* name;
    int64_t t_ns;
    double value;
  };

  const bool enabled_;
  std::vector<Span> spans_;
  mutable std::mutex counters_mutex_;
  std::vector<CounterSample> counters_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint32_t parent = 0)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~Scope() { tracer_->End(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  uint32_t id() const { return id_; }

 private:
  Tracer* tracer_;
  uint32_t id_;
};

/// Calls `sample` every `period` on its own thread until destroyed (and
/// once more on the way out, so short runs get at least one sample).
class Sampler {
 public:
  Sampler(std::chrono::microseconds period, std::function<void()> sample);
  ~Sampler();
  Sampler(const Sampler&) = delete;
  Sampler& operator=(const Sampler&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

}  // namespace perfbench

#endif  // FLEXSTREAM_PERFBENCH_TRACE_H_
