// Shared helpers of the flexstream benchmark: clocks, process accounting,
// order statistics and the result record every workload fills in.

#ifndef FLEXSTREAM_PERFBENCH_COMMON_H_
#define FLEXSTREAM_PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds (the clock std::chrono::steady_clock and
/// Python's time.monotonic_ns read on Linux).
int64_t MonoNs();
/// CPU time of the whole process / of the calling thread, in nanoseconds.
int64_t ProcessCpuNs();
int64_t ThreadCpuNs();
/// Peak resident set size of the process (VmHWM), in megabytes.
double PeakRssMb();

/// The load generator runs apart from the engine it drives: with two or
/// more CPUs allowed, EngineCpus() confines the calling thread to all of
/// them but the first, so the engine's worker threads created by the next
/// StreamEngine::Start inherit that set, and GeneratorCpu() then moves the
/// calling (generator) thread onto the first one. With a single CPU both
/// are no-ops.
void EngineCpus();
void GeneratorCpu();

/// Exact order statistic of `values` at quantile q in [0, 1] (nearest
/// rank); 0 for an empty input. Reorders `values`.
double Quantile(std::vector<double>* values, double q);
double Median(std::vector<double> values);

/// What one run of one workload measured. `metrics` holds every value the
/// run produced (end-to-end and per-layer); main.cc prints the set the
/// --trace flag selects.
struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// First failed check, for the human-readable log.
  std::string error;
  std::map<std::string, double> metrics;

  void Fail(const std::string& what) {
    if (correct) error = what;
    correct = false;
  }
  /// Records `error` as a failure when non-empty; returns whether it was.
  bool Expect(const std::string& check_error) {
    if (check_error.empty()) return true;
    Fail(check_error);
    return false;
  }
};

/// The run's inputs: workload seed, measuring window and whether the
/// traced (per-layer) variant runs. `t0_ns` is the MonoNs() reading taken
/// just before the process was spawned; set-up time is measured from it.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int64_t t0_ns = 0;
  /// Directory (inside the checkout) for trace files and durable
  /// checkpoint stores.
  std::string out_dir = ".bench_out";
};

}  // namespace perfbench

#endif  // FLEXSTREAM_PERFBENCH_COMMON_H_
