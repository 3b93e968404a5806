#include "workload/rate_source.h"

#include <cmath>

#include "util/clock.h"
#include "util/logging.h"

namespace flexstream {

RateSource::RateSource(Source* source, Options options, Generator generator)
    : source_(source),
      options_(std::move(options)),
      generator_(std::move(generator)),
      rng_(options_.seed) {
  CHECK(source_ != nullptr);
  CHECK(generator_ != nullptr);
  CHECK_GT(options_.time_scale, 0.0);
}

RateSource::~RateSource() {
  if (thread_.joinable()) thread_.join();
}

void RateSource::Start() {
  CHECK(!thread_.joinable()) << "RateSource already started";
  thread_ = std::thread([this] { Run(); });
}

void RateSource::Join() {
  if (thread_.joinable()) thread_.join();
}

void RateSource::Run() {
  const TimePoint wall_start = Now();
  AppTime app_time = 0;  // scheduled logical time in microseconds
  int64_t index = 0;
  for (const Phase& phase : options_.phases) {
    const double mean_gap_micros =
        phase.rate_per_sec > 0.0 ? 1e6 / phase.rate_per_sec : 0.0;
    for (int64_t i = 0; i < phase.count; ++i, ++index) {
      TimePoint due;
      if (mean_gap_micros > 0.0) {
        const double gap = options_.pacing == Pacing::kPoisson
                               ? rng_.Exponential(mean_gap_micros)
                               : mean_gap_micros;
        app_time += static_cast<AppTime>(std::llround(gap));
        // Pace against the wall clock (scaled). Push() below may overrun
        // the schedule when downstream processing is slow — that overrun
        // *is* the backpressure signal the experiments observe.
        const double wall_offset_micros =
            static_cast<double>(app_time) / options_.time_scale;
        due = wall_start + FromMicros(static_cast<int64_t>(wall_offset_micros));
        SleepUntil(due);
      } else {
        // Unpaced phase: logical time still advances by a nominal 1 us so
        // timestamps stay strictly monotone.
        app_time += 1;
      }
      Tuple tuple = generator_(index, app_time, &rng_);
      if (options_.stamp_emit_offset) {
        const TimePoint emitted = mean_gap_micros > 0.0 ? due : Now();
        tuple.Append(Value(ToMicros(emitted - options_.stamp_epoch)));
      }
      source_->Push(tuple);
      ++emitted_;
      if (options_.record_rate_timeline) {
        const double elapsed = ToSeconds(Now() - wall_start);
        const size_t bucket =
            static_cast<size_t>(elapsed / options_.bucket_seconds);
        if (bucket_counts_.size() <= bucket) {
          bucket_counts_.resize(bucket + 1, 0);
        }
        ++bucket_counts_[bucket];
      }
    }
  }
  actual_duration_seconds_ = ToSeconds(Now() - wall_start);
  source_->Close(app_time);
}

std::vector<std::pair<double, double>> RateSource::TakeRateTimeline() {
  std::vector<std::pair<double, double>> timeline;
  timeline.reserve(bucket_counts_.size());
  for (size_t i = 0; i < bucket_counts_.size(); ++i) {
    timeline.emplace_back(
        static_cast<double>(i) * options_.bucket_seconds,
        static_cast<double>(bucket_counts_[i]) / options_.bucket_seconds);
  }
  bucket_counts_.clear();
  return timeline;
}

RateSource::Generator RateSource::UniformInt(int64_t lo, int64_t hi) {
  return [lo, hi](int64_t index, AppTime ts, Rng* rng) {
    (void)index;
    return Tuple::OfInt(rng->UniformInt(lo, hi), ts);
  };
}

}  // namespace flexstream
