#include "stats/op_stats.h"

#include <chrono>
#include <limits>

namespace flexstream {
namespace {

/// Fractional microseconds: sub-microsecond gaps must not truncate to 0.
double GapMicros(TimePoint from, TimePoint to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

}  // namespace

void OpStats::RecordArrival(TimePoint now) {
  arrivals_.fetch_add(1, std::memory_order_relaxed);
  if (has_last_arrival_) {
    const double gap = GapMicros(last_arrival_, now);
    gap_ewma_.Add(gap);
    interarrival_micros_.store(gap_ewma_.value(), std::memory_order_relaxed);
  }
  has_last_arrival_ = true;
  last_arrival_ = now;
}

void OpStats::RecordProcessed(double micros) {
  processed_.fetch_add(1, std::memory_order_relaxed);
  cost_ewma_.Add(micros);
  cost_micros_.store(cost_ewma_.value(), std::memory_order_relaxed);
  busy_micros_.store(busy_micros_.load(std::memory_order_relaxed) + micros,
                     std::memory_order_relaxed);
}

void OpStats::RecordArrivalBatch(TimePoint now, int64_t n) {
  if (n <= 0) return;
  arrivals_.fetch_add(n, std::memory_order_relaxed);
  if (has_last_arrival_) {
    // The batch arrived as one unit: spread the observed gap across its
    // elements so the EWMA keeps estimating a per-element inter-arrival.
    const double gap =
        GapMicros(last_arrival_, now) / static_cast<double>(n);
    gap_ewma_.Add(gap);
    interarrival_micros_.store(gap_ewma_.value(), std::memory_order_relaxed);
  }
  has_last_arrival_ = true;
  last_arrival_ = now;
}

void OpStats::RecordProcessedBatch(double total_micros, int64_t n) {
  if (n <= 0) return;
  processed_.fetch_add(n, std::memory_order_relaxed);
  cost_ewma_.Add(total_micros / static_cast<double>(n));
  cost_micros_.store(cost_ewma_.value(), std::memory_order_relaxed);
  busy_micros_.store(
      busy_micros_.load(std::memory_order_relaxed) + total_micros,
      std::memory_order_relaxed);
}

void OpStats::RecordEmitted(int64_t n) {
  emitted_.fetch_add(n, std::memory_order_relaxed);
}

double OpStats::InterarrivalMicros() const {
  const double v = interarrival_micros_.load(std::memory_order_relaxed);
  if (v <= 0.0) return std::numeric_limits<double>::infinity();
  return v;
}

double OpStats::Selectivity() const {
  const int64_t in = processed_.load(std::memory_order_relaxed);
  if (in == 0) return 1.0;
  return static_cast<double>(emitted_.load(std::memory_order_relaxed)) /
         static_cast<double>(in);
}

void OpStats::Reset() {
  cost_ewma_.Reset();
  gap_ewma_.Reset();
  has_last_arrival_ = false;
  cost_micros_.store(0.0, std::memory_order_relaxed);
  interarrival_micros_.store(0.0, std::memory_order_relaxed);
  busy_micros_.store(0.0, std::memory_order_relaxed);
  processed_.store(0, std::memory_order_relaxed);
  emitted_.store(0, std::memory_order_relaxed);
  arrivals_.store(0, std::memory_order_relaxed);
}

}  // namespace flexstream
