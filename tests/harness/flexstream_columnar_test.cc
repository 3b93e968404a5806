// Columnar tier: the differential harness with batching enabled
// (EngineOptions::emit_batch_size > 1, DESIGN.md §17). Sources scatter the
// seeded stream into typed ColumnarBatches, the generated DAG's typed
// Selection/Map kernels run vectorized, queues box whole batches, and
// every per-row boundary (operators without a kernel, chaos fault hooks,
// armed epoch alignment, shard replica stamping) takes them row by row.
// The sweep proves batching is output-invisible: every batched
// configuration — including chaos, kill/revive recovery, and sharded
// ones — must match the per-tuple golden byte-for-byte.
//
// Runs under the `check-columnar` CMake target (ctest -R "Columnar").

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "testing/differential.h"

namespace flexstream {
namespace {

DiffSpec ColumnarSpec() {
  DiffSpec spec;
  spec.seed = 404;
  spec.node_count = 12;
  spec.feed_count = 400;
  return spec;
}

/// The batched (columnar) configurations of a matrix (the per-tuple ones
/// are covered by their own tiers).
std::vector<DiffConfig> ColumnarOnly(std::vector<DiffConfig> configs) {
  std::vector<DiffConfig> out;
  for (DiffConfig& config : configs) {
    if (config.emit_batch_size > 1) out.push_back(std::move(config));
  }
  return out;
}

TEST(ColumnarSweepTest, DefaultMatrixMatchesGolden) {
  const DiffSpec spec = ColumnarSpec();
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());

  const std::vector<DiffConfig> configs = ColumnarOnly(DefaultConfigMatrix());
  ASSERT_FALSE(configs.empty()) << "default matrix lost its columnar axis";
  for (const DiffConfig& config : configs) {
    SCOPED_TRACE(config.Name());
    const SinkOutputs out = RunUnderConfig(spec, config);
    ASSERT_TRUE(out.completed);
    EXPECT_TRUE(out.run_result.ok()) << out.run_result.message();
    EXPECT_EQ(out.dropped, 0);
    const std::string diff = CompareOutputs(golden, out);
    EXPECT_TRUE(diff.empty()) << diff;
  }
}

TEST(ColumnarSweepTest, ChaosMatrixMatchesGolden) {
  const DiffSpec spec = ColumnarSpec();
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());

  const std::vector<DiffConfig> configs = ColumnarOnly(ChaosConfigMatrix());
  ASSERT_FALSE(configs.empty()) << "chaos matrix lost its columnar axis";
  for (const DiffConfig& config : configs) {
    SCOPED_TRACE(config.Name());
    const SinkOutputs out = RunUnderConfig(spec, config);
    ASSERT_TRUE(out.completed);
    EXPECT_TRUE(out.run_result.ok()) << out.run_result.message();
    if (config.queue_max_elements == 0) {
      EXPECT_EQ(out.dropped, 0);
    }
    const std::string diff = CompareOutputs(golden, out);
    EXPECT_TRUE(diff.empty()) << diff;
  }
}

TEST(ColumnarSweepTest, ShardMatrixMatchesGolden) {
  const DiffSpec spec = ColumnarSpec();
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());

  const std::vector<DiffConfig> configs = ColumnarOnly(ShardConfigMatrix());
  ASSERT_FALSE(configs.empty()) << "shard matrix lost its columnar axis";
  for (const DiffConfig& config : configs) {
    SCOPED_TRACE(config.Name());
    const SinkOutputs out = RunUnderConfig(spec, config);
    ASSERT_TRUE(out.completed);
    EXPECT_TRUE(out.run_result.ok()) << out.run_result.message();
    EXPECT_EQ(out.dropped, 0);
    const std::string diff = CompareOutputs(golden, out);
    EXPECT_TRUE(diff.empty()) << diff;
  }
}

/// Picks a kill target fed directly by a source (same heuristic as the
/// recovery tier — the spec deterministically rebuilds the same dag).
std::string PickKillTarget(const DiffSpec& spec) {
  const ExecutableDag dag = BuildDagForSpec(spec);
  for (Source* src : dag.sources) {
    for (const auto& edge : static_cast<const Node*>(src)->outputs()) {
      const Node* target = edge.target;
      if (!target->is_sink() && !target->is_queue()) return target->name();
    }
  }
  return "";
}

TEST(ColumnarRecoverySweepTest, KillReviveMatchesGoldenExactly) {
  const DiffSpec spec = ColumnarSpec();
  const std::string kill_target = PickKillTarget(spec);
  ASSERT_FALSE(kill_target.empty())
      << "generated dag has no source-fed operator to kill";
  const SinkOutputs golden = RunUnderConfig(spec, GoldenConfig());

  const std::vector<DiffConfig> configs =
      ColumnarOnly(RecoveryConfigMatrix(kill_target, 120));
  ASSERT_FALSE(configs.empty()) << "recovery matrix lost its columnar axis";
  for (const DiffConfig& config : configs) {
    SCOPED_TRACE(config.Name());
    const SinkOutputs out = RunUnderConfig(spec, config);
    ASSERT_TRUE(out.completed);
    EXPECT_TRUE(out.run_result.ok()) << out.run_result.message();
    EXPECT_GE(out.recoveries, 1);
    EXPECT_GT(out.replayed_elements, 0);
    EXPECT_EQ(out.dropped, 0);
    const std::string diff = CompareOutputs(golden, out);
    EXPECT_TRUE(diff.empty()) << diff;
  }
}

// Replay files round-trip the batch size — the field that makes a run
// columnar — so a failing columnar scenario can be re-run exactly.
TEST(ColumnarReplayTest, RoundTripsColumnarField) {
  const DiffSpec spec = ColumnarSpec();
  DiffConfig config;
  config.mode = ExecutionMode::kHmts;
  config.emit_batch_size = 64;

  DiffSpec parsed_spec;
  DiffConfig parsed;
  std::string error;
  ASSERT_TRUE(
      ParseReplay(FormatReplay(spec, config), &parsed_spec, &parsed, &error))
      << error;
  EXPECT_EQ(parsed_spec.seed, spec.seed);
  EXPECT_EQ(parsed.emit_batch_size, 64u);
  EXPECT_EQ(parsed.Name(), config.Name());
  EXPECT_NE(config.Name().find("+batch64"), std::string::npos);
}

}  // namespace
}  // namespace flexstream
