// flexbench: one run of one benchmark workload.
//
//   flexbench --workload <chain_col64|chain_durable|nexmark_hmts>
//             --seed <n> --seconds <s> --trace <0|1> [--t0-ns <ns>]
//             [--out-dir <dir>] [--variant <gts|batch64>]
//   flexbench --selftest
//
// The last line of standard output is one JSON object with `correct`,
// `attempted`, `failed`, `error` and every metric the run measured;
// run.py selects and labels the ones BENCHMARK.json names. With --trace 1
// the run is traced and also runs the ablation ledger on the chain input
// and, for the chain workloads, a short NEXMark companion run, so that
// every per-layer metric is present; the trace is written to
// <out-dir>/trace-<workload>.json.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "chain.h"
#include "common.h"
#include "nexmark_hmts.h"
#include "selftest.h"
#include "trace.h"

namespace perfbench {
namespace {

constexpr int64_t kChainTuples = 500'000;  // per round
constexpr int kAblationRounds = 3;
constexpr double kCompanionSeconds = 3.0;

/// Copies the metrics of `from` whose name starts with one of `prefixes`
/// and that `to` does not have yet; carries failures over.
void Adopt(const Report& from, const std::vector<std::string>& prefixes,
           Report* to) {
  if (!from.correct) to->Fail(from.error);
  for (const auto& [name, value] : from.metrics) {
    for (const std::string& p : prefixes) {
      if (name.rfind(p, 0) == 0 && !to->metrics.count(name)) {
        to->metrics[name] = value;
      }
    }
  }
}

NexmarkSetup NexmarkVariant(const std::string& variant) {
  NexmarkSetup setup;
  if (variant == "gts") setup.mode = flexstream::ExecutionMode::kGts;
  if (variant == "batch64") setup.emit_batch_size = 64;
  return setup;
}

void RunChainWorkload(const ChainConfig& cfg, const RunArgs& args,
                      Tracer* tracer, Report* report) {
  ChainInput input = MakeChainInput(args.seed, kChainTuples);
  const ChainRun run = RunChain(cfg, &input, args, args.seconds, tracer, report);
  ChainMetrics(run, args, report);
  if (!args.trace || !report->correct) return;

  std::map<std::string, ChainRun> base;
  RunChainAblations(&input, args, kAblationRounds, report, &base);
  Report durable;
  ChainMetrics(base[ChainDurable().name], args, &durable);
  Adopt(durable, {"recovery.", "durable.bytes"}, report);
  report->metrics["trace.overhead_share"] =
      Median(base[cfg.name].tps) / report->metrics["throughput_tps"] - 1.0;

  Report companion;
  Tracer off(false);
  RunNexmark(NexmarkVariant(""), args, kCompanionSeconds, &off, &companion);
  Adopt(companion, {"gen.lag", "shard.", "query.", "op.q"}, report);
}

void RunNexmarkWorkload(const RunArgs& args, const std::string& variant,
                        Tracer* tracer, Report* report) {
  RunNexmark(NexmarkVariant(variant), args, args.seconds, tracer, report);
  if (!args.trace || !report->correct) return;

  ChainInput input = MakeChainInput(args.seed, kChainTuples);
  std::map<std::string, ChainRun> base;
  RunChainAblations(&input, args, kAblationRounds, report, &base);
  Report chain;
  ChainMetrics(base[ChainCol64().name], args, &chain);
  Report durable;
  ChainMetrics(base[ChainDurable().name], args, &durable);
  Adopt(chain, {"op."}, report);
  Adopt(durable, {"recovery.", "durable.bytes"}, report);

  Report untraced;
  Tracer off(false);
  RunNexmark(NexmarkVariant(variant), args, kCompanionSeconds, &off, &untraced);
  if (!untraced.correct) report->Fail(untraced.error);
  report->metrics["trace.overhead_share"] =
      report->metrics["cpu_us_per_tuple"] /
          untraced.metrics["cpu_us_per_tuple"] -
      1.0;
}

void PrintResult(const Report& report) {
  std::string error;
  for (char c : report.error) {
    if (c == '"' || c == '\\') error += '\\';
    error += (c == '\n' ? ' ' : c);
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"error\": \"%s\", \"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), error.c_str());
  bool first = true;
  for (const auto& [name, value] : report.metrics) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: flexbench --workload <chain_col64|chain_durable|"
               "nexmark_hmts> --seed <n> --seconds <s> --trace <0|1> "
               "[--t0-ns <ns>] [--out-dir <dir>] [--variant <v>]\n"
               "       flexbench --selftest\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  args.t0_ns = MonoNs();
  std::string variant;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      args.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--t0-ns" && has_value) {
      args.t0_ns = std::strtoll(argv[++i], nullptr, 10);
    } else if (arg == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else if (arg == "--variant" && has_value) {
      variant = argv[++i];
    } else {
      return Usage();
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(args.out_dir, ec);
  if (selftest) return RunSelfTest(args);
  if (args.seconds <= 0.0) return Usage();

  Report report;
  Tracer tracer(args.trace);
  if (args.workload == "chain_col64") {
    RunChainWorkload(ChainCol64(), args, &tracer, &report);
  } else if (args.workload == "chain_durable") {
    RunChainWorkload(ChainDurable(), args, &tracer, &report);
  } else if (args.workload == "nexmark_hmts") {
    RunNexmarkWorkload(args, variant, &tracer, &report);
  } else {
    return Usage();
  }
  if (args.trace) {
    const std::string path = args.out_dir + "/trace-" + args.workload + ".json";
    if (!tracer.Write(path)) report.Fail("cannot write " + path);
  }
  if (!report.correct) std::cerr << "check failed: " << report.error << "\n";
  PrintResult(report);
  return report.correct ? 0 : 1;
}
