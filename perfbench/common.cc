#include "common.h"

#include <sched.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

int64_t ReadClock(clockid_t id) {
  timespec ts;
  clock_gettime(id, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

}  // namespace

int64_t MonoNs() { return ReadClock(CLOCK_MONOTONIC); }
int64_t ProcessCpuNs() { return ReadClock(CLOCK_PROCESS_CPUTIME_ID); }
int64_t ThreadCpuNs() { return ReadClock(CLOCK_THREAD_CPUTIME_ID); }

namespace {

/// The CPUs the process was allowed to use when it started.
const cpu_set_t& AllowedCpus() {
  static const cpu_set_t allowed = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    sched_getaffinity(0, sizeof(set), &set);
    return set;
  }();
  return allowed;
}

int FirstCpu() {
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &AllowedCpus())) return cpu;
  }
  return -1;
}

}  // namespace

void EngineCpus() {
  if (CPU_COUNT(&AllowedCpus()) < 2) return;
  cpu_set_t set = AllowedCpus();
  CPU_CLR(FirstCpu(), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

void GeneratorCpu() {
  if (CPU_COUNT(&AllowedCpus()) < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(FirstCpu(), &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double Quantile(std::vector<double>* values, double q) {
  if (values->empty()) return 0.0;
  const size_t n = values->size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n) - 1;
  std::nth_element(values->begin(), values->begin() + rank, values->end());
  return (*values)[rank];
}

double Median(std::vector<double> values) { return Quantile(&values, 0.5); }

}  // namespace perfbench
