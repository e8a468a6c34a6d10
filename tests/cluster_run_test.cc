// The pieces both cluster drivers share (core/cluster_run.h): client ids,
// the result builder and the execution-log agreement check.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/cluster_run.h"
#include "workload/workload.h"

namespace massbft {
namespace {

TEST(ClientPoolTest, ClientIdsRoundTripAndForeignIdsAreRejected) {
  Rng seed(1);
  ClientPool pool(/*num_groups=*/3, /*clients_per_group=*/4, seed);
  ASSERT_EQ(pool.size(), 12u);
  auto workload = MakeWorkload(WorkloadKind::kYcsbA, 0.01);
  for (size_t client = 0; client < pool.size(); ++client) {
    Transaction txn = pool.Next(client, *workload, /*submit_time=*/5);
    EXPECT_EQ(txn.client >> 20, static_cast<uint32_t>(pool.group(client)));
    EXPECT_EQ(txn.submit_time, 5);
    EXPECT_EQ(pool.ClientOf(txn), client);
  }
  Transaction foreign;
  foreign.client = (1u << 20) | 4u;  // Index past clients_per_group.
  EXPECT_FALSE(pool.ClientOf(foreign).has_value());
  foreign.client = 3u << 20;  // Group past num_groups.
  EXPECT_FALSE(pool.ClientOf(foreign).has_value());
}

// Business aborts reach the result through the exec/logic_aborts counter,
// summed over every telemetry context (one per node in real mode).
TEST(MetricsTest, AbortsCounted) {
  obs::Telemetry a;
  obs::Telemetry b;
  a.registry().GetCounter("exec/logic_aborts")->Add(2);
  b.registry().GetCounter("exec/logic_aborts")->Add(1);
  KeyRegistry keys;
  ExperimentResult result =
      BuildResult(MetricsCollector(0, kSecond), {&a, &b}, keys, 0, 0);
  EXPECT_EQ(result.aborted_txns, 3u);
}

TEST(BuildResultTest, SumsPhasesAndBatchesOverEveryNode) {
  obs::Telemetry leader0;
  obs::Telemetry leader1;
  for (int i = 0; i < 6; ++i)
    leader0.phase_histogram(obs::Phase::kBatching)->Record(1.0);
  leader0.phase_histogram(obs::Phase::kLocalConsensus)->Record(2.0);
  leader1.phase_histogram(obs::Phase::kLocalConsensus)->Record(3.0);
  leader0.registry().GetCounter("node/entries_batched")->Add(2);
  leader1.registry().GetCounter("node/entries_batched")->Add(1);
  MetricsCollector commits(0, 2 * kSecond);
  commits.RecordCommit(0, 10 * kMillisecond);
  commits.RecordCommit(kSecond, kSecond + 30 * kMillisecond);
  KeyRegistry keys;

  ExperimentResult result = BuildResult(commits, {&leader0, &leader1}, keys,
                                        /*wan_bytes=*/300, /*lan_bytes=*/7);
  EXPECT_EQ(result.committed_txns, 2u);
  EXPECT_DOUBLE_EQ(result.throughput_tps, 1.0);
  EXPECT_DOUBLE_EQ(result.mean_latency_ms, 20.0);
  EXPECT_EQ(result.timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(result.phases.local_ms, 5.0);
  EXPECT_DOUBLE_EQ(result.phases.batching_ms, 6.0);
  EXPECT_EQ(result.phases.entries, 3u);
  EXPECT_EQ(result.entries_proposed, 3u);
  EXPECT_DOUBLE_EQ(result.avg_batch_size, 2.0);
  EXPECT_DOUBLE_EQ(result.wan_bytes_per_entry, 100.0);
  EXPECT_EQ(result.total_lan_bytes, 7u);
}

TEST(ExecutionPrefixTest, PrefixesAgreeAndDivergenceIsNamed) {
  const ExecutionLog full = {{0, 0}, {1, 0}, {2, 0}, {0, 1}};
  const ExecutionLog prefix = {{0, 0}, {1, 0}};
  const ExecutionLog forked = {{0, 0}, {1, 0}, {0, 1}};
  const NodeId a{0, 0};
  const NodeId b{1, 2};
  const NodeId c{2, 3};

  // Equal logs agree over their whole length.
  Result<size_t> equal = CheckExecutionPrefixes({{a, &full}, {b, &full}});
  ASSERT_TRUE(equal.ok()) << equal.status().ToString();
  EXPECT_EQ(*equal, full.size());

  // A log that is a prefix of another agrees over the shorter length.
  Result<size_t> shorter =
      CheckExecutionPrefixes({{a, &prefix}, {b, &full}, {c, &full}});
  ASSERT_TRUE(shorter.ok()) << shorter.status().ToString();
  EXPECT_EQ(*shorter, prefix.size());

  // A divergence at position 2 names the node and the position, the entry
  // each log holds there, the node whose log is the longest, and both
  // lengths.
  Result<size_t> diverged =
      CheckExecutionPrefixes({{a, &full}, {b, &prefix}, {c, &forked}});
  ASSERT_FALSE(diverged.ok());
  const std::string message = diverged.status().ToString();
  EXPECT_NE(message.find("node 2/3 position 2: it executed (0,1) where node "
                         "0/0, whose log is the longest, executed (2,0); "
                         "their logs hold 3 and 4 entries"),
            std::string::npos)
      << message;
}

}  // namespace
}  // namespace massbft
