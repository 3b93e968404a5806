#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

uint32_t Tracer::Begin(const char* name, uint32_t parent) {
  if (!enabled_) return 0;
  spans_.push_back(Span{name, parent, MonoNs(), 0, 0});
  return static_cast<uint32_t>(spans_.size());
}

void Tracer::End(uint32_t id, int64_t count) {
  if (id == 0) return;
  Span& span = spans_[id - 1];
  span.end_ns = MonoNs();
  span.count = count;
}

void Tracer::Sample(const char* name, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(counters_mutex_);
  counters_.push_back(CounterSample{name, MonoNs(), value});
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  // Compact JSON: one array per span, [id, parent, name, start_ns, dur_ns,
  // count], and per counter sample, [name, t_ns, value]; times are
  // nanoseconds from the first span's start.
  std::fputs("{\"spans\": [", f);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n[%zu,%u,\"%s\",%lld,%lld,%lld]", i == 0 ? "" : ",",
                 i + 1, s.parent, s.name,
                 static_cast<long long>(s.start_ns - origin),
                 static_cast<long long>(s.end_ns - s.start_ns),
                 static_cast<long long>(s.count));
  }
  std::fputs("],\n\"counters\": [", f);
  {
    std::lock_guard<std::mutex> lock(counters_mutex_);
    for (size_t i = 0; i < counters_.size(); ++i) {
      const CounterSample& c = counters_[i];
      std::fprintf(f, "%s\n[\"%s\",%lld,%.6g]", i == 0 ? "" : ",", c.name,
                   static_cast<long long>(c.t_ns - origin), c.value);
    }
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

Sampler::Sampler(std::chrono::microseconds period,
                 std::function<void()> sample)
    : thread_([this, period, sample = std::move(sample)] {
        while (!stop_.load(std::memory_order_acquire)) {
          sample();
          std::this_thread::sleep_for(period);
        }
        sample();
      }) {}

Sampler::~Sampler() {
  stop_.store(true, std::memory_order_release);
  thread_.join();
}

}  // namespace perfbench
