#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/experiment.h"

namespace massbft {
namespace {

/// Small, fast cluster defaults for integration tests.
ExperimentConfig SmallCluster(ProtocolConfig protocol,
                              int num_groups = 3, int nodes = 4) {
  ExperimentConfig config;
  config.topology = TopologyConfig::Nationwide(num_groups, nodes);
  config.protocol = std::move(protocol);
  config.protocol.pipeline_depth = 8;
  config.workload = WorkloadKind::kYcsbA;
  config.workload_scale = 0.01;  // 10k rows.
  config.clients_per_group = 60;
  config.duration = 3 * kSecond;
  config.warmup = 1 * kSecond;
  config.seed = 7;
  return config;
}

struct RunOutcome {
  ExperimentResult result;
  int64_t agreement;
  std::unique_ptr<Experiment> experiment;
};

RunOutcome RunCluster(ExperimentConfig config) {
  RunOutcome out;
  out.experiment = std::make_unique<Experiment>(std::move(config));
  Status s = out.experiment->Setup();
  EXPECT_TRUE(s.ok()) << s.ToString();
  out.result = out.experiment->Run();
  out.agreement = out.experiment->CheckAgreement();
  return out;
}

/// Liveness + agreement for every protocol variant on identical clusters.
class ProtocolLivenessTest : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolLivenessTest, CommitsTransactionsAndAgrees) {
  ExperimentConfig config =
      SmallCluster(ProtocolConfig::ForKind(GetParam()));
  config.execute_on_all_nodes = true;  // Strongest agreement check.
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GT(out.result.committed_txns, 500u)
      << ProtocolKindName(GetParam());
  EXPECT_GE(out.agreement, 1) << "execution logs diverged";
  EXPECT_GT(out.result.throughput_tps, 100.0);
  EXPECT_GT(out.result.mean_latency_ms, 1.0);
  // A leader keeps every payload it executed, to answer catch-up; a
  // follower releases each one, so it holds only entries still in flight.
  for (const auto& n : out.experiment->nodes()) {
    if (n->IsGroupLeader()) {
      EXPECT_GE(n->retained().entries, n->executed_entries());
    } else {
      EXPECT_LT(n->retained().entries, n->executed_entries());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, ProtocolLivenessTest,
    ::testing::Values(ProtocolKind::kMassBft, ProtocolKind::kBaseline,
                      ProtocolKind::kGeoBft, ProtocolKind::kSteward,
                      ProtocolKind::kIss, ProtocolKind::kBr,
                      ProtocolKind::kEbr),
    [](const ::testing::TestParamInfo<ProtocolKind>& info) {
      return ProtocolKindName(info.param);
    });

/// All-node state convergence: every executing replica ends with identical
/// database state for the common executed prefix.
TEST(IntegrationTest, ReplicaStoresConverge) {
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
  config.execute_on_all_nodes = true;
  RunOutcome out = RunCluster(std::move(config));
  ASSERT_GE(out.agreement, 1);

  // Compare executed-transaction counts on nodes with equal log lengths.
  std::map<size_t, std::set<uint64_t>> txns_by_len;
  for (const auto& n : out.experiment->nodes()) {
    txns_by_len[n->execution_log().size()].insert(n->executed_txns());
  }
  for (const auto& [len, counts] : txns_by_len)
    EXPECT_EQ(counts.size(), 1u) << "logs of length " << len
                                 << " executed different txn counts";
}

TEST(IntegrationTest, MassBftOutperformsBaseline) {
  // The headline claim, on a small cluster: MassBFT's throughput exceeds
  // Baseline's by a clear factor (paper: 5.49x-29.96x on the testbed).
  ExperimentConfig mass = SmallCluster(ProtocolConfig::MassBft(), 3, 7);
  mass.clients_per_group = 400;
  ExperimentConfig base = SmallCluster(ProtocolConfig::Baseline(), 3, 7);
  base.clients_per_group = 400;
  RunOutcome mass_out = RunCluster(std::move(mass));
  RunOutcome base_out = RunCluster(std::move(base));
  EXPECT_GT(mass_out.result.throughput_tps,
            2.0 * base_out.result.throughput_tps);
}

TEST(IntegrationTest, ByzantineChunkTamperingTolerated) {
  // Fig 15 first half: f Byzantine nodes per group tamper chunks from 1 s;
  // throughput must not collapse and logs must agree.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 4);
  config.faults.byzantine_per_group = 1;  // f = 1 for n = 4.
  config.faults.byzantine_from = 1 * kSecond;
  config.duration = 4 * kSecond;
  config.warmup = 1 * kSecond;
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 500u);

  // Throughput after the attack stays within noise of before.
  double before = 0, after = 0;
  int nb = 0, na = 0;
  for (const auto& p : out.result.timeline) {
    if (p.time_s < 1.0 || p.tps <= 0) continue;
    if (p.time_s < 1.0 + 0.5) continue;  // Skip the transition bucket.
    if (p.time_s < 1.0) {
      before += p.tps;
      ++nb;
    } else {
      after += p.tps;
      ++na;
    }
  }
  ASSERT_GT(na, 0);
  (void)nb;
  (void)before;
  EXPECT_GT(after / na, 100.0);
}

TEST(IntegrationTest, ByzantineBeyondFBreaksNothingSilently) {
  // With f Byzantine nodes the cluster still agrees; this guards the
  // bucket/ban machinery under sustained attack from t=0.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 2, 4);
  config.faults.byzantine_per_group = 1;
  config.faults.byzantine_from = 0;
  config.execute_on_all_nodes = true;
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 200u);
}

TEST(IntegrationTest, GroupCrashRecoversViaTakeover) {
  // Fig 15 second half: a whole group crashes mid-run; after the takeover
  // timeout, surviving groups' entries keep executing.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 4);
  config.duration = 8 * kSecond;
  config.warmup = 1 * kSecond;
  config.protocol.group_crash_timeout = 1 * kSecond;
  config.faults.crash_group = 2;
  config.faults.crash_at = 3 * kSecond;
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);

  // Throughput in the final two seconds (well past crash + takeover) is
  // nonzero: surviving groups kept proposing and executing.
  double tail_tps = 0;
  int buckets = 0;
  for (const auto& p : out.result.timeline) {
    if (p.time_s >= 6.0 && p.time_s < 8.0) {
      tail_tps += p.tps;
      ++buckets;
    }
  }
  ASSERT_GT(buckets, 0);
  EXPECT_GT(tail_tps / buckets, 100.0)
      << "throughput did not recover after group crash";
}

TEST(IntegrationTest, GroupCrashStallsWithoutTakeoverTimeout) {
  // Control for the takeover test: with an effectively infinite crash
  // timeout, VTS ordering blocks on the dead group's timestamps and
  // execution stops (the paper's Fig 15 dip).
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 4);
  config.duration = 6 * kSecond;
  config.warmup = 1 * kSecond;
  config.protocol.group_crash_timeout = 60 * kSecond;
  config.faults.crash_group = 2;
  config.faults.crash_at = 2 * kSecond;
  RunOutcome out = RunCluster(std::move(config));
  double tail_tps = 0;
  for (const auto& p : out.result.timeline)
    if (p.time_s >= 4.0 && p.time_s < 6.0) tail_tps += p.tps;
  EXPECT_LT(tail_tps, 200.0) << "execution should stall without takeover";
}

TEST(IntegrationTest, CrashedGroupRejoinsAndResumes) {
  // Section V-C full cycle: group 2 crashes at 2 s, recovers at 5 s,
  // catches up from a peer, gets its Raft instance back and serves its
  // clients again — total throughput returns toward the pre-crash level.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 4);
  config.duration = 10 * kSecond;
  config.warmup = 1 * kSecond;
  config.protocol.group_crash_timeout = 1 * kSecond;
  config.faults.crash_group = 2;
  config.faults.crash_at = 2 * kSecond;
  config.faults.recover_at = 5 * kSecond;
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);

  double before = 0, during = 0, after = 0;
  int nb = 0, nd = 0, na = 0;
  for (const auto& p : out.result.timeline) {
    if (p.time_s < 2.0) {
      before += p.tps;
      ++nb;
    } else if (p.time_s >= 4.0 && p.time_s < 5.0) {
      during += p.tps;
      ++nd;
    } else if (p.time_s >= 8.0) {
      after += p.tps;
      ++na;
    }
  }
  ASSERT_GT(nb, 0);
  ASSERT_GT(na, 0);
  // After recovery throughput beats the degraded (one-group-down) level
  // and approaches the pre-crash level.
  EXPECT_GT(after / na, 0.8 * before / nb)
      << "before=" << before / nb << " during=" << (nd ? during / nd : 0)
      << " after=" << after / na;

  // The recovered group's own clients are being served again: its leader
  // proposes and commits fresh entries.
  const GroupNode* recovered_leader =
      out.experiment->node(NodeId{2, 0});
  EXPECT_FALSE(recovered_leader->crashed());
  EXPECT_GT(recovered_leader->own_clock(), 0u);
}

TEST(IntegrationTest, AgreesUnderSimulatedDuplicationAndDelay) {
  // The network's faults (sim/network.h) in the simulator: 5% of messages
  // duplicated and 5% held back. Delay stalls a link but never reorders
  // it, so quorums deduplicate and the order engine's inputs stay sound.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
  config.execute_on_all_nodes = true;
  Experiment exp(config);
  ASSERT_TRUE(exp.Setup().ok());
  FaultSpec faults;
  faults.seed = 5;
  faults.duplicate_rate = 0.05;
  faults.delay_rate = 0.05;
  faults.delay_min_ms = 1.0;
  faults.delay_max_ms = 10.0;
  exp.network().set_faults(faults);
  ExperimentResult r = exp.Run();
  EXPECT_GT(r.committed_txns, 500u);
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GE(exp.CheckAgreement(), 1) << "execution logs diverged";
}

TEST(IntegrationTest, AgreesAcrossSimulatedPartitionShorterThanCrashTimeout) {
  // Group 0 is cut off for 0.4 s after the warm-up, well inside the 2 s
  // crash timeout, so no takeover starts. Only agreement is asserted: lost messages are never
  // resent, so commits need not resume after the heal (ROADMAP item 1).
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
  config.execute_on_all_nodes = true;
  Experiment exp(config);
  ASSERT_TRUE(exp.Setup().ok());
  FaultSpec faults;
  faults.seed = 5;
  FaultSpec::Partition partition;
  partition.start_s = 1.5;
  partition.end_s = 1.9;
  partition.side_a = {0};
  faults.partitions.push_back(partition);
  exp.network().set_faults(faults);
  ExperimentResult r = exp.Run();
  EXPECT_GT(r.committed_txns, 0u);
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_EQ(exp.telemetry().registry().GetCounter(
                "membership/takeovers_started")->value(),
            0u);
  EXPECT_GE(exp.CheckAgreement(), 1) << "execution logs diverged";
}

TEST(IntegrationTest, TakeoverIsInTheFlightRecorder) {
  // Group 2 crashes at 1 s and is back at 3 s; the surviving leaders
  // suspect it after the 1 s timeout. Each membership transition is one
  // event on the recording leader's track: in the (cluster-wide, in the
  // simulator) flight recorder and, with tracing on, in the trace.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 4);
  config.duration = 4 * kSecond;
  config.protocol.group_crash_timeout = 1 * kSecond;
  config.faults.crash_group = 2;
  config.faults.crash_at = 1 * kSecond;
  config.faults.recover_at = 3 * kSecond;
  config.enable_tracing = true;
  RunOutcome out = RunCluster(std::move(config));
  const uint32_t g0 =
      obs::Telemetry::NodeTrack(GroupNode::LeaderOf(0).Packed());
  const uint32_t g1 =
      obs::Telemetry::NodeTrack(GroupNode::LeaderOf(1).Packed());
  using Event = std::pair<uint32_t, std::string>;
  std::vector<Event> flight;
  for (const obs::FlightEvent& event :
       out.experiment->telemetry().flight().Snapshot()) {
    if (std::string(event.category) != "membership") continue;
    EXPECT_EQ(event.a, 2.0) << event.name;
    if (std::string(event.name) == "freeze_closed") {
      EXPECT_GT(event.b, 0.0);  // The frozen value.
    }
    flight.emplace_back(event.track, event.name);
  }
  // Both surviving leaders suspect group 2; group 0, the lowest live one,
  // takes its instance over and closes the freeze round once group 1 has
  // reported; both hear group 2 again after it recovers.
  const std::vector<Event> expected{{g0, "suspect"}, {g0, "takeover"},
                                    {g1, "suspect"}, {g0, "freeze_closed"},
                                    {g0, "rejoin"},  {g1, "rejoin"}};
  EXPECT_EQ(flight, expected);
  // The trace holds the same transitions as instants on the same tracks.
  std::vector<Event> traced;
  for (const obs::TraceRecorder::Event& event :
       out.experiment->telemetry().trace().snapshot()) {
    if (event.kind != obs::TraceRecorder::EventKind::kInstant ||
        std::string(event.category) != "membership")
      continue;
    EXPECT_EQ(event.args[0].value, 2.0) << event.name;  // The gid.
    traced.emplace_back(event.track, event.name);
  }
  EXPECT_EQ(traced, expected);
}

TEST(IntegrationTest, HeterogeneousGroupSizes) {
  // Fig 12 setup: G1 has 4 nodes, G2/G3 have 7. MassBFT must stay live
  // with unequal transfer plans (LCM 28 chunks).
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
  config.topology = TopologyConfig::Nationwide(3, 7);
  config.topology.group_sizes = {4, 7, 7};
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 500u);
}

TEST(IntegrationTest, AsyncOrderingBeatsRoundsUnderHeterogeneousGroups) {
  // The EBR vs EBR+A ablation (paper Fig 12): when one group's uplinks
  // are slow, round ordering chains every commit to that group's entry
  // replication while VTS ordering lets the fast groups commit at their
  // own pace (the slow group contributes only small timestamp messages).
  // The bandwidth gap makes the effect structural: byte-level phase
  // alignment between batch timeout and RTT moves either number a few
  // percent, which a same-bandwidth comparison cannot survive.
  auto run = [](ProtocolConfig protocol) {
    ExperimentConfig config = SmallCluster(std::move(protocol));
    config.topology = TopologyConfig::Nationwide(3, 7);
    config.topology.group_sizes = {4, 7, 7};
    for (int i = 0; i < 4; ++i)  // Group 0 uplinks at 1/8 bandwidth.
      config.topology.wan_overrides.emplace_back(
          NodeId{0, static_cast<uint16_t>(i)}, 2.5e6);
    config.clients_per_group = 1000;
    config.duration = 4 * kSecond;
    return RunCluster(std::move(config)).result.throughput_tps;
  };
  double ebr_async = run(ProtocolConfig::MassBft());
  double ebr_rounds = run(ProtocolConfig::Ebr());
  EXPECT_GT(ebr_async, ebr_rounds * 1.05)
      << "async=" << ebr_async << " rounds=" << ebr_rounds;
}

TEST(IntegrationTest, WorldwideLatencyHigherThanNationwide) {
  auto run = [](TopologyConfig topo) {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
    config.topology = std::move(topo);
    config.clients_per_group = 30;  // Light load: measure base latency.
    return RunCluster(std::move(config)).result.mean_latency_ms;
  };
  double nationwide = run(TopologyConfig::Nationwide(3, 4));
  double worldwide = run(TopologyConfig::Worldwide(3, 4));
  EXPECT_GT(worldwide, nationwide + 50.0);
}

TEST(IntegrationTest, GeoBftLowestLatencyAtLightLoad) {
  // Paper Fig 8a: GeoBFT commits in 0.5 RTT (no global consensus), so at
  // light load its latency undercuts MassBFT's (which pays Raft + VTS).
  auto run = [](ProtocolConfig protocol) {
    ExperimentConfig config = SmallCluster(std::move(protocol));
    config.clients_per_group = 10;
    return RunCluster(std::move(config)).result.mean_latency_ms;
  };
  double geobft = run(ProtocolConfig::GeoBft());
  double massbft = run(ProtocolConfig::MassBft());
  EXPECT_LT(geobft, massbft);
}

TEST(IntegrationTest, EncodedReplicationUsesLessWanThanFullCopies) {
  // Fig 10's mechanism: WAN bytes per committed transaction for encoded
  // bijective replication undercut one-way f+1 full copies (the entry
  // travels as ~n_total/n_data copies instead of (f+1) * n_g-1).
  auto run = [](ProtocolConfig protocol) {
    ExperimentConfig config = SmallCluster(std::move(protocol), 3, 7);
    config.clients_per_group = 100;
    RunOutcome out = RunCluster(std::move(config));
    return static_cast<double>(out.result.total_wan_bytes) /
           static_cast<double>(out.result.committed_txns);
  };
  double encoded = run(ProtocolConfig::MassBft());
  double oneway = run(ProtocolConfig::Baseline());
  EXPECT_LT(encoded, oneway);
}

TEST(IntegrationTest, AllWorkloadsRunOnMassBft) {
  for (WorkloadKind workload :
       {WorkloadKind::kYcsbA, WorkloadKind::kYcsbB, WorkloadKind::kSmallBank,
        WorkloadKind::kTpcc}) {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
    config.workload = workload;
    // TPC-C hotspots serialize with too few warehouses (Payment RAW∧WAR).
    if (workload == WorkloadKind::kTpcc) config.workload_scale = 0.5;
    RunOutcome out = RunCluster(std::move(config));
    EXPECT_GT(out.result.committed_txns, 300u)
        << WorkloadKindName(workload);
    EXPECT_GE(out.agreement, 1) << WorkloadKindName(workload);
  }
}

TEST(IntegrationTest, TpccHasHigherAbortRateWithBiggerBatches) {
  auto run = [](int clients) {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
    config.workload = WorkloadKind::kTpcc;
    config.workload_scale = 0.25;  // 32 warehouses.
    config.clients_per_group = clients;
    RunOutcome out = RunCluster(std::move(config));
    double txns = static_cast<double>(out.result.committed_txns);
    return txns == 0 ? 0.0
                     : static_cast<double>(out.result.conflict_aborts) / txns;
  };
  double small_batches = run(40);
  double big_batches = run(400);
  EXPECT_GT(big_batches, small_batches);
}

TEST(IntegrationTest, DeterministicAcrossRuns) {
  auto run = [] {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft());
    config.seed = 99;
    return RunCluster(std::move(config));
  };
  RunOutcome a = run();
  RunOutcome b = run();
  EXPECT_EQ(a.result.committed_txns, b.result.committed_txns);
  EXPECT_EQ(a.result.sim_events, b.result.sim_events);
  EXPECT_DOUBLE_EQ(a.result.mean_latency_ms, b.result.mean_latency_ms);
}

TEST(IntegrationTest, TwoGroupsMinimalCluster) {
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 2, 4);
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 300u);
}

TEST(IntegrationTest, SingleNodeGroupsDegenerate) {
  // n = 1 per group: f = 0, PBFT trivially commits, plans are 1-chunk.
  ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 1);
  RunOutcome out = RunCluster(std::move(config));
  EXPECT_GE(out.agreement, 1);
  EXPECT_GT(out.result.committed_txns, 100u);
}

TEST(IntegrationTest, SlowNodesToleratedUpToThreshold) {
  // Fig 14 mechanism: with <= n - n_data slow senders, rebuilds use fast
  // chunks; beyond that, throughput drops to the slow pace.
  auto run = [](int slow_nodes) {
    ExperimentConfig config = SmallCluster(ProtocolConfig::MassBft(), 3, 7);
    config.topology.wan_bps = 40e6;
    for (int g = 0; g < 3; ++g)
      for (int i = 0; i < slow_nodes; ++i)
        config.topology.wan_overrides.push_back(
            {NodeId{static_cast<uint16_t>(g), static_cast<uint16_t>(6 - i)},
             5e6});
    config.clients_per_group = 300;
    return RunCluster(std::move(config)).result.throughput_tps;
  };
  double none_slow = run(0);
  double many_slow = run(6);  // Only 1 fast node < n_data=3: gated by slow.
  EXPECT_GT(none_slow, many_slow * 1.2);
}

}  // namespace
}  // namespace massbft
