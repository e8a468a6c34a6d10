#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "obs/telemetry.h"
#include "sim/actor.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "sim/topology.h"

namespace massbft {
namespace {

// ---------------------------------------------------------------- Simulator

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(30, [&] { order.push_back(3); });
  sim.Schedule(10, [&] { order.push_back(1); });
  sim.Schedule(20, [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(SimulatorTest, TiesFireInFifoOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) sim.Schedule(100, [&order, i] { order.push_back(i); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedSchedulingDuringRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] {
    ++fired;
    sim.Schedule(5, [&] { ++fired; });
  });
  sim.RunAll();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.Now(), 15);
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(10, [&] { ++fired; });
  sim.Schedule(100, [&] { ++fired; });
  sim.RunUntil(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), 50);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.RunAll();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  sim.Schedule(10, [&] {
    sim.Schedule(-5, [&] { EXPECT_EQ(sim.Now(), 10); });
  });
  sim.RunAll();
}

TEST(SimulatorTest, MoveOnlyAndOversizedCapturesRun) {
  // Callbacks are InlineFunction, not std::function: move-only captures
  // are allowed, and captures larger than the inline buffer transparently
  // fall back to the heap.
  Simulator sim;
  sim.Reserve(4);
  auto token = std::make_unique<int>(7);
  int observed = 0;
  sim.Schedule(1, [token = std::move(token), &observed] { observed = *token; });
  std::array<uint64_t, 16> big{};
  big[15] = 42;
  uint64_t big_sum = 0;
  sim.Schedule(2, [big, &big_sum] { big_sum = big[15]; });
  sim.RunAll();
  EXPECT_EQ(observed, 7);
  EXPECT_EQ(big_sum, 42u);
}

// ---------------------------------------------------------------- Topology

TEST(TopologyTest, NationwidePresetShape) {
  TopologyConfig cfg = TopologyConfig::Nationwide(3, 7);
  ASSERT_TRUE(cfg.Validate().ok());
  auto topo = Topology::Create(cfg);
  ASSERT_TRUE(topo.ok());
  EXPECT_EQ(topo->num_groups(), 3);
  EXPECT_EQ(topo->total_nodes(), 21);
  EXPECT_EQ(topo->max_faulty(0), 2);  // (7-1)/3
  EXPECT_EQ(topo->max_faulty_groups(), 1);
  // RTT band from the paper: 26.7 - 43.4 ms one-way is rtt/2.
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) {
      if (i == j) continue;
      SimTime prop = topo->WanPropagation(NodeId{uint16_t(i), 0},
                                          NodeId{uint16_t(j), 0});
      EXPECT_GE(prop, MillisToSim(26.7 / 2));
      EXPECT_LE(prop, MillisToSim(43.4 / 2));
    }
  }
}

TEST(TopologyTest, WorldwideRttBand) {
  auto topo = Topology::Create(TopologyConfig::Worldwide(3, 7));
  ASSERT_TRUE(topo.ok());
  SimTime prop = topo->WanPropagation(NodeId{0, 0}, NodeId{2, 3});
  EXPECT_GE(prop, MillisToSim(156.0 / 2));
  EXPECT_LE(prop, MillisToSim(206.0 / 2));
}

TEST(TopologyTest, WanOverrides) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 4);
  cfg.wan_bps = 40e6;
  cfg.wan_overrides.push_back({NodeId{1, 2}, 20e6});
  auto topo = Topology::Create(cfg);
  ASSERT_TRUE(topo.ok());
  EXPECT_DOUBLE_EQ(topo->wan_bps(NodeId{0, 0}), 40e6);
  EXPECT_DOUBLE_EQ(topo->wan_bps(NodeId{1, 2}), 20e6);
}

TEST(TopologyTest, ValidationRejectsBadConfigs) {
  TopologyConfig empty;
  EXPECT_FALSE(empty.Validate().ok());

  TopologyConfig bad_rtt = TopologyConfig::Nationwide(3, 4);
  bad_rtt.rtt_ms.pop_back();
  EXPECT_FALSE(bad_rtt.Validate().ok());

  TopologyConfig bad_override = TopologyConfig::Nationwide(2, 4);
  bad_override.wan_overrides.push_back({NodeId{5, 0}, 1e6});
  EXPECT_FALSE(bad_override.Validate().ok());
}

TEST(TopologyTest, GroupNodesEnumerates) {
  auto topo = Topology::Create(TopologyConfig::Nationwide(2, 3));
  ASSERT_TRUE(topo.ok());
  auto nodes = topo->GroupNodes(1);
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[2], (NodeId{1, 2}));
  EXPECT_EQ(topo->AllNodes().size(), 6u);
}

// ---------------------------------------------------------------- Network

/// Fixed-size test message.
class TestMessage : public SimMessage {
 public:
  explicit TestMessage(size_t bytes, int tag = 0) : bytes_(bytes), tag_(tag) {}
  size_t ByteSize() const override { return bytes_; }
  int type() const override { return tag_; }

 private:
  size_t bytes_;
  int tag_;
};

struct Delivery {
  NodeId dst;
  NodeId src;
  SimTime time;
  int tag;
};

class NetworkFixture : public ::testing::Test {
 protected:
  void Init(TopologyConfig cfg) {
    auto topo = Topology::Create(std::move(cfg));
    ASSERT_TRUE(topo.ok());
    topology_ = std::make_unique<Topology>(std::move(*topo));
    network_ = std::make_unique<Network>(
        &sim_, topology_.get(),
        [this](NodeId dst, NodeId src, MessagePtr m) {
          deliveries_.push_back({dst, src, sim_.Now(), m->type()});
        });
    network_->set_telemetry(&telemetry_);
  }
  /// A traffic-ledger counter of the registry, e.g. "net/wan_messages_sent".
  uint64_t Sent(const char* name) {
    return telemetry_.registry().GetCounter(name)->value();
  }

  Simulator sim_;
  obs::Telemetry telemetry_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<Network> network_;
  std::vector<Delivery> deliveries_;
};

TEST_F(NetworkFixture, WanDeliveryIncludesSerializationAndPropagation) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 2);
  cfg.wan_bps = 20e6;
  Init(cfg);
  // 25_000 bytes at 20 Mbps = 10 ms serialization.
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 1u);
  SimTime prop = topology_->WanPropagation(NodeId{0, 0}, NodeId{1, 0});
  EXPECT_EQ(deliveries_[0].time, MillisToSim(10.0) + prop);
}

TEST_F(NetworkFixture, UplinkQueuesSequentialSends) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 2);
  cfg.wan_bps = 20e6;
  Init(cfg);
  // Two messages from the same source to different receivers must
  // serialize one after the other on the shared uplink.
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000, 1));
  network_->SendWan(NodeId{0, 0}, NodeId{1, 1},
                    std::make_shared<TestMessage>(25000, 2));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 2u);
  SimTime prop = topology_->WanPropagation(NodeId{0, 0}, NodeId{1, 0});
  EXPECT_EQ(deliveries_[0].time, MillisToSim(10.0) + prop);
  EXPECT_EQ(deliveries_[1].time, MillisToSim(20.0) + prop);
}

TEST_F(NetworkFixture, DistinctUplinksSendInParallel) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 2);
  cfg.wan_bps = 20e6;
  Init(cfg);
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000, 1));
  network_->SendWan(NodeId{0, 1}, NodeId{1, 1},
                    std::make_shared<TestMessage>(25000, 2));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 2u);
  // Both should arrive at the same time: independent uplinks/downlinks.
  EXPECT_EQ(deliveries_[0].time, deliveries_[1].time);
}

TEST_F(NetworkFixture, DownlinkConvergenceQueues) {
  TopologyConfig cfg = TopologyConfig::Nationwide(2, 3);
  cfg.wan_bps = 20e6;
  Init(cfg);
  // Two senders converge on one receiver; the second delivery waits for the
  // receiver's downlink to drain.
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000, 1));
  network_->SendWan(NodeId{0, 1}, NodeId{1, 0},
                    std::make_shared<TestMessage>(25000, 2));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 2u);
  EXPECT_GT(deliveries_[1].time, deliveries_[0].time);
  EXPECT_EQ(deliveries_[1].time - deliveries_[0].time, MillisToSim(10.0));
}

TEST_F(NetworkFixture, LanIsFasterThanWan) {
  Init(TopologyConfig::Nationwide(1, 3));
  network_->SendLan(NodeId{0, 0}, NodeId{0, 1},
                    std::make_shared<TestMessage>(25000));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 1u);
  // 25 kB at 2.5 Gbps is 80 us plus 250 us latency: well under 1 ms.
  EXPECT_LT(deliveries_[0].time, kMillisecond);
}

TEST_F(NetworkFixture, CrashedNodesDropTraffic) {
  Init(TopologyConfig::Nationwide(2, 2));
  network_->CrashNode(NodeId{1, 0});
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(100));
  network_->SendWan(NodeId{1, 0}, NodeId{0, 0},
                    std::make_shared<TestMessage>(100));
  sim_.RunAll();
  EXPECT_TRUE(deliveries_.empty());
  network_->RecoverNode(NodeId{1, 0});
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(100));
  sim_.RunAll();
  EXPECT_EQ(deliveries_.size(), 1u);
}

TEST_F(NetworkFixture, InFlightMessageToNodeCrashedBeforeArrivalIsDropped) {
  Init(TopologyConfig::Nationwide(2, 2));
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(100));
  // Crash after send but before delivery.
  sim_.Schedule(kMicrosecond, [&] { network_->CrashNode(NodeId{1, 0}); });
  sim_.RunAll();
  EXPECT_TRUE(deliveries_.empty());
}

TEST_F(NetworkFixture, TrafficStatsAccumulate) {
  Init(TopologyConfig::Nationwide(2, 2));
  network_->SendWan(NodeId{0, 0}, NodeId{1, 0},
                    std::make_shared<TestMessage>(1000));
  network_->SendLan(NodeId{0, 0}, NodeId{0, 1},
                    std::make_shared<TestMessage>(500));
  sim_.RunAll();
  const TrafficStats& s = network_->StatsFor(NodeId{0, 0});
  EXPECT_EQ(s.wan_bytes_sent, 1000u);
  EXPECT_EQ(s.lan_bytes_sent, 500u);
  // Bytes count against the sender only.
  EXPECT_EQ(network_->StatsFor(NodeId{1, 0}).wan_bytes_sent, 0u);
  EXPECT_EQ(network_->wan_bytes_sent(), 1000u);
  EXPECT_EQ(network_->lan_bytes_sent(), 500u);
  // The registry's counters hold the same ledger.
  EXPECT_EQ(Sent("net/wan_messages_sent"), 1u);
  EXPECT_EQ(Sent("net/lan_messages_sent"), 1u);
  EXPECT_EQ(Sent("net/wan_bytes_sent"), 1000u);
  EXPECT_EQ(Sent("net/lan_bytes_sent"), 500u);
}

TEST_F(NetworkFixture, LoopbackDeliversImmediately) {
  Init(TopologyConfig::Nationwide(1, 2));
  network_->SendWan(NodeId{0, 0}, NodeId{0, 0},
                    std::make_shared<TestMessage>(1 << 20));
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].time, 0);
}

// ---------------------------------------------------------- Network faults

constexpr NodeId kNodeA{0, 0};  // Group 0.
constexpr NodeId kNodeB{1, 0};  // Group 1.

/// A 2x2 nationwide network at 20 Mbps with a fault schedule. Everything
/// runs in simulated time.
class NetworkFaultTest : public NetworkFixture {
 protected:
  void InitFaults(const FaultSpec& spec) {
    TopologyConfig cfg = TopologyConfig::Nationwide(2, 2);
    cfg.wan_bps = 20e6;
    Init(cfg);
    network_->set_faults(spec);
  }
  void SendAt(SimTime t, NodeId src, NodeId dst, int tag = 0,
              size_t bytes = 100) {
    sim_.ScheduleAt(t, [this, src, dst, tag, bytes] {
      network_->SendWan(src, dst, std::make_shared<TestMessage>(bytes, tag));
    });
  }
};

TEST_F(NetworkFaultTest, DropRateOneDropsEverything) {
  FaultSpec spec;
  spec.drop_rate = 1.0;
  InitFaults(spec);
  for (int i = 0; i < 10; ++i) SendAt(0, kNodeA, kNodeB);
  sim_.RunAll();
  EXPECT_EQ(network_->fault_stats().dropped, 10u);
  EXPECT_TRUE(deliveries_.empty());
  // Dropped before the link: nothing was serialized.
  EXPECT_EQ(Sent("net/wan_messages_sent"), 0u);
  EXPECT_EQ(network_->StatsFor(kNodeA).wan_bytes_sent, 0u);
}

TEST_F(NetworkFaultTest, DuplicateRateOneDeliversTwice) {
  FaultSpec spec;
  spec.duplicate_rate = 1.0;
  InitFaults(spec);
  for (int i = 0; i < 5; ++i) SendAt(0, kNodeA, kNodeB, i);
  sim_.RunAll();
  EXPECT_EQ(network_->fault_stats().duplicated, 5u);
  ASSERT_EQ(deliveries_.size(), 10u);
  EXPECT_EQ(Sent("net/wan_messages_sent"), 10u);
  for (size_t i = 0; i < deliveries_.size(); ++i)
    EXPECT_EQ(deliveries_[i].tag, static_cast<int>(i / 2));
}

TEST_F(NetworkFaultTest, CorruptedMessageOccupiesTheLinkButIsNeverDelivered) {
  FaultSpec spec;
  spec.corrupt_rate = 1.0;
  InitFaults(spec);
  // 25,000 bytes at 20 Mbps: 10 ms on the uplink each.
  SendAt(0, kNodeA, kNodeB, 1, 25000);
  // A clean message sent while the corrupted one is still on the uplink
  // queues behind it.
  sim_.ScheduleAt(1, [this] { network_->set_faults(FaultSpec{}); });
  SendAt(2, kNodeA, kNodeB, 2, 25000);
  sim_.RunAll();
  EXPECT_EQ(network_->fault_stats().corrupted, 1u);
  EXPECT_EQ(network_->StatsFor(kNodeA).wan_bytes_sent, 50000u);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].tag, 2);
  const SimTime prop = topology_->WanPropagation(kNodeA, kNodeB);
  EXPECT_EQ(deliveries_[0].time, MillisToSim(20.0) + prop);
}

TEST_F(NetworkFaultTest, DelayedMessagesArriveLater) {
  FaultSpec spec;
  spec.delay_rate = 1.0;
  spec.delay_min_ms = 5.0;
  spec.delay_max_ms = 15.0;
  InitFaults(spec);
  for (int i = 0; i < 4; ++i) SendAt(0, kNodeA, kNodeB, i);
  sim_.RunAll();
  EXPECT_EQ(network_->fault_stats().delayed, 4u);
  ASSERT_EQ(deliveries_.size(), 4u);
  const SimTime prop = topology_->WanPropagation(kNodeA, kNodeB);
  for (const Delivery& d : deliveries_)
    EXPECT_GE(d.time, MillisToSim(5.0) + prop);  // At least the minimum.
}

TEST_F(NetworkFaultTest, DelayStallsTheLinkButNeverReordersIt) {
  // The VTS ordering engine infers lower bounds from the assumption that
  // each channel delivers stamps in non-decreasing order — real TCP's
  // per-connection FIFO. A delayed message stalls later messages on the
  // same link instead of being overtaken.
  FaultSpec spec;
  spec.seed = 1234;
  spec.delay_rate = 0.5;
  spec.delay_min_ms = 1.0;
  spec.delay_max_ms = 20.0;
  InitFaults(spec);
  constexpr int kMessages = 50;
  for (int i = 0; i < kMessages; ++i)
    SendAt(i * 100 * kMicrosecond, kNodeA, kNodeB, i);
  sim_.RunAll();
  EXPECT_GT(network_->fault_stats().delayed, 0u);
  EXPECT_LT(network_->fault_stats().delayed, static_cast<uint64_t>(kMessages));
  ASSERT_EQ(deliveries_.size(), static_cast<size_t>(kMessages));
  for (int i = 0; i < kMessages; ++i)
    EXPECT_EQ(deliveries_[static_cast<size_t>(i)].tag, i)
        << "message overtook a delayed predecessor";
}

TEST_F(NetworkFaultTest, PartitionWindowCutsBothDirectionsThenHeals) {
  FaultSpec spec;
  FaultSpec::Partition partition;
  partition.start_s = 0.1;
  partition.end_s = 0.35;
  partition.side_a = {0};  // Group 0 vs everyone else.
  spec.partitions.push_back(partition);
  InitFaults(spec);
  const SimTime prop = topology_->WanPropagation(kNodeA, kNodeB);
  // Sent before the window opens, arriving inside it: cut on arrival.
  SendAt(SecondsToSim(0.1) - prop / 2, kNodeA, kNodeB, 1);
  // Sent inside the window, both directions: cut at send.
  SendAt(SecondsToSim(0.2), kNodeA, kNodeB, 2);
  SendAt(SecondsToSim(0.2), kNodeB, kNodeA, 3);
  // Within one group nothing is cut.
  SendAt(SecondsToSim(0.2), kNodeA, NodeId{0, 1}, 4);
  sim_.RunAll();
  EXPECT_EQ(network_->fault_stats().partition_dropped, 3u);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].tag, 4);

  // After the window the same sends go through (the partition healed).
  SendAt(SecondsToSim(0.4), kNodeA, kNodeB, 5);
  SendAt(SecondsToSim(0.4), kNodeB, kNodeA, 6);
  sim_.RunAll();
  ASSERT_EQ(deliveries_.size(), 3u);
  EXPECT_EQ(deliveries_[1].tag, 5);
  EXPECT_EQ(deliveries_[2].tag, 6);
}

TEST_F(NetworkFaultTest, HeldMessageDiesWhenItsSenderCrashesBeforeRelease) {
  FaultSpec spec;
  spec.delay_rate = 1.0;
  spec.delay_min_ms = 10.0;
  spec.delay_max_ms = 10.0;
  InitFaults(spec);
  SendAt(0, kNodeA, kNodeB, 1);
  // The sender crashes and is back before the 10 ms release.
  sim_.ScheduleAt(MillisToSim(1.0), [this] { network_->CrashNode(kNodeA); });
  sim_.ScheduleAt(MillisToSim(2.0),
                  [this] { network_->RecoverNode(kNodeA); });
  // A message sent after the recovery still goes out: the link moves on.
  SendAt(MillisToSim(3.0), kNodeA, kNodeB, 2);
  sim_.RunAll();
  EXPECT_EQ(network_->fault_stats().delayed, 2u);
  ASSERT_EQ(deliveries_.size(), 1u);
  EXPECT_EQ(deliveries_[0].tag, 2);
  EXPECT_GE(deliveries_[0].time, MillisToSim(13.0));
}

TEST_F(NetworkFaultTest, SameSeedSameMessageSequenceSameFaults) {
  FaultSpec spec;
  spec.seed = 12345;
  spec.drop_rate = 0.3;
  spec.duplicate_rate = 0.2;
  spec.corrupt_rate = 0.2;
  spec.delay_rate = 0.2;
  auto topo = Topology::Create(TopologyConfig::Nationwide(2, 2));
  ASSERT_TRUE(topo.ok());

  auto run = [&](std::vector<SimTime>* times) {
    Simulator sim;
    Network network(&sim, &*topo, [&](NodeId, NodeId, MessagePtr) {
      times->push_back(sim.Now());
    });
    network.set_faults(spec);
    for (int i = 0; i < 200; ++i) {
      sim.ScheduleAt(i * 50 * kMicrosecond, [&network] {
        network.SendWan(kNodeA, kNodeB, std::make_shared<TestMessage>(100));
      });
    }
    sim.RunAll();
    return network.fault_stats();
  };

  std::vector<SimTime> first_times;
  std::vector<SimTime> second_times;
  FaultStats first = run(&first_times);
  FaultStats second = run(&second_times);
  EXPECT_GT(first.dropped, 0u);
  EXPECT_GT(first.duplicated, 0u);
  EXPECT_GT(first.corrupted, 0u);
  EXPECT_GT(first.delayed, 0u);
  EXPECT_EQ(first.dropped, second.dropped);
  EXPECT_EQ(first.duplicated, second.duplicated);
  EXPECT_EQ(first.corrupted, second.corrupted);
  EXPECT_EQ(first.delayed, second.delayed);
  EXPECT_FALSE(first_times.empty());
  EXPECT_EQ(first_times, second_times);
}

// ---------------------------------------------------------------- Actor

/// An actor that only defers work.
class TimerActor : public Actor {
 public:
  using Actor::Actor;
  using Actor::After;
  void HandleMessage(NodeId, MessagePtr) override {}
};

TEST(ActorTest, TimerFromAnEarlierIncarnationNeverFires) {
  auto topology = Topology::Create(TopologyConfig::Nationwide(1, 2));
  ASSERT_TRUE(topology.ok());
  Simulator sim;
  Network network(&sim, &*topology, nullptr);
  TimerActor actor(&sim, &network, NodeId{0, 0}, CpuModel{});
  std::vector<int> fired;
  actor.After(kMillisecond, [&fired] { fired.push_back(1); });
  actor.Crash();
  actor.Recover();
  actor.After(kMillisecond, [&fired] { fired.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(fired, std::vector<int>{2});
}

// ---------------------------------------------------------------- CPU

TEST(CpuAccountTest, SerialChargesAccumulate) {
  Simulator sim;
  CpuModel model;
  model.verify_cost = kCores * 100 * kMicrosecond;
  CpuAccount cpu(&sim, model);
  EXPECT_EQ(cpu.ChargeVerify(), 100 * kMicrosecond);
  EXPECT_EQ(cpu.ChargeVerify(), 200 * kMicrosecond);
  EXPECT_EQ(cpu.total_charged(), 2 * model.verify_cost);
}

TEST(CpuAccountTest, CoresDivideCost) {
  Simulator sim;
  CpuAccount cpu(&sim, CpuModel{});
  SimTime done = cpu.Charge(800 * kMicrosecond);
  EXPECT_EQ(done, 800 * kMicrosecond / kCores);
}

TEST(CpuAccountTest, IdleGapsDoNotAccumulate) {
  Simulator sim;
  CpuAccount cpu(&sim, CpuModel{});
  cpu.Charge(80 * kMicrosecond);
  // Advance sim time past the busy period.
  sim.Schedule(kMillisecond, [] {});
  sim.RunAll();
  SimTime done = cpu.Charge(80 * kMicrosecond);
  EXPECT_EQ(done, kMillisecond + 80 * kMicrosecond / kCores);
}

// ---------------------------------------------------------------- Metrics

TEST(MetricsTest, ThroughputWindowExcludesWarmup) {
  MetricsCollector metrics(kSecond, 3 * kSecond);
  // 100 txns in warmup (excluded), 200 in window.
  for (int i = 0; i < 100; ++i)
    metrics.RecordCommit(0, kSecond / 2);
  for (int i = 0; i < 200; ++i)
    metrics.RecordCommit(2 * kSecond - 10 * kMillisecond, 2 * kSecond);
  EXPECT_EQ(metrics.committed(), 200u);
  EXPECT_DOUBLE_EQ(metrics.ThroughputTps(), 100.0);  // 200 over 2 s.
  EXPECT_DOUBLE_EQ(metrics.MeanLatencyMs(), 10.0);
}

TEST(MetricsTest, PercentilesSorted) {
  MetricsCollector metrics(0, 100 * kSecond);
  for (int i = 1; i <= 100; ++i)
    metrics.RecordCommit(0, i * kMillisecond);
  EXPECT_NEAR(metrics.P50LatencyMs(), 50.5, 1.0);
  EXPECT_NEAR(metrics.P99LatencyMs(), 99.0, 1.1);
}

TEST(MetricsTest, TimelineBucketsByCommitTime) {
  MetricsCollector metrics(0, 10 * kSecond);
  for (int i = 0; i < 10; ++i) metrics.RecordCommit(0, kSecond / 2);
  for (int i = 0; i < 20; ++i) metrics.RecordCommit(0, 2 * kSecond + 1);
  auto timeline = metrics.Timeline();
  ASSERT_GE(timeline.size(), 3u);
  EXPECT_DOUBLE_EQ(timeline[0].tps, 10.0);
  EXPECT_DOUBLE_EQ(timeline[1].tps, 0.0);
  EXPECT_DOUBLE_EQ(timeline[2].tps, 20.0);
}

// Regression: Record() after a percentile read must invalidate the sorted
// cache, or later percentiles are computed over a stale ordering.
TEST(MetricsTest, PercentilesCorrectAfterInterleavedRecords) {
  EXPECT_DOUBLE_EQ(LatencyStats().PercentileMs(0.5), 0.0);  // Empty.
  EXPECT_DOUBLE_EQ(InterpolatedPercentile(std::vector<SimTime>{}, 0.5), 0.0);
  LatencyStats stats;
  stats.Record(30 * kMillisecond);
  stats.Record(10 * kMillisecond);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(1.0), 30.0);  // Triggers the sort.
  stats.Record(20 * kMillisecond);  // Appended after the sort.
  stats.Record(5 * kMillisecond);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(0.0), 5.0);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(1.0), 30.0);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(0.5), 15.0);  // (10+20)/2.
  stats.Record(40 * kMillisecond);
  EXPECT_DOUBLE_EQ(stats.PercentileMs(1.0), 40.0);
}

TEST(MetricsTest, QuartilesOfUnsortedValues) {
  const Quartiles q = QuartilesOf({5.0, 1.0, 4.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(q.q1, 2.0);
  EXPECT_DOUBLE_EQ(q.median, 3.0);
  EXPECT_DOUBLE_EQ(q.q3, 4.0);
  const Quartiles pair = QuartilesOf({10.0, 20.0});  // Interpolated.
  EXPECT_DOUBLE_EQ(pair.q1, 12.5);
  EXPECT_DOUBLE_EQ(pair.median, 15.0);
  EXPECT_DOUBLE_EQ(pair.q3, 17.5);
  EXPECT_DOUBLE_EQ(QuartilesOf({}).median, 0.0);
}

TEST(MetricsTest, WindowBoundariesAreInclusive) {
  MetricsCollector metrics(kSecond, 3 * kSecond);
  metrics.RecordCommit(kSecond / 2, kSecond);      // Exactly at warmup_.
  metrics.RecordCommit(kSecond, 3 * kSecond);      // Exactly at horizon_.
  metrics.RecordCommit(0, kSecond - 1);            // Just before warmup_.
  metrics.RecordCommit(0, 3 * kSecond + 1);        // Just after horizon_.
  EXPECT_EQ(metrics.committed(), 2u);
  EXPECT_DOUBLE_EQ(metrics.ThroughputTps(), 1.0);  // 2 txns over 2 s.
}

TEST(MetricsTest, TimelineEmptyBucketsAndBatches) {
  MetricsCollector metrics(0, 10 * kSecond);
  EXPECT_TRUE(metrics.Timeline().empty());

  // A batch of commits at one latency: the bucket counts each of them.
  for (int i = 0; i < 4; ++i) metrics.RecordCommit(0, kSecond / 2);
  // Commits three buckets later leave two empty buckets in between.
  for (int i = 0; i < 2; ++i)
    metrics.RecordCommit(3 * kSecond, 3 * kSecond + 500 * kMillisecond);
  auto timeline = metrics.Timeline();
  ASSERT_EQ(timeline.size(), 4u);
  EXPECT_DOUBLE_EQ(timeline[0].time_s, 0.0);
  EXPECT_DOUBLE_EQ(timeline[0].tps, 4.0);
  EXPECT_DOUBLE_EQ(timeline[0].mean_latency_ms, 500.0);
  for (size_t i = 1; i <= 2; ++i) {
    EXPECT_DOUBLE_EQ(timeline[i].tps, 0.0);
    EXPECT_DOUBLE_EQ(timeline[i].mean_latency_ms, 0.0);
  }
  EXPECT_DOUBLE_EQ(timeline[3].tps, 2.0);
  EXPECT_DOUBLE_EQ(timeline[3].mean_latency_ms, 500.0);
}

TEST(MetricsTest, TimelineBucketBoundaryCommit) {
  MetricsCollector metrics(0, 10 * kSecond);
  // A commit exactly on a bucket boundary lands in the later bucket.
  metrics.RecordCommit(0, kSecond);
  auto timeline = metrics.Timeline();
  ASSERT_EQ(timeline.size(), 2u);
  EXPECT_DOUBLE_EQ(timeline[0].tps, 0.0);
  EXPECT_DOUBLE_EQ(timeline[1].tps, 1.0);
}

}  // namespace
}  // namespace massbft
