// One GroupNode driven message by message on a bare simulated Network, for
// behaviour a whole-cluster Experiment cannot pin down.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/config.h"
#include "core/group_node.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "sim/topology.h"
#include "workload/workload.h"

namespace massbft {
namespace {

/// One node of a nationwide cluster whose outgoing messages land in
/// `sent` (destination, message) instead of reaching any peer.
class NodeHarness {
 public:
  NodeHarness(int groups, int group_size, NodeId self,
              const ProtocolConfig& config) {
    Result<Topology> created =
        Topology::Create(TopologyConfig::Nationwide(groups, group_size));
    MASSBFT_CHECK(created.ok());
    topology_ = std::make_unique<Topology>(std::move(*created));
    for (NodeId id : topology_->AllNodes()) registry.RegisterNode(id);
    workload_ = MakeWorkload(WorkloadKind::kSmallBank, 0.001);
    ctx_.registry = &registry;
    ctx_.topology = topology_.get();
    ctx_.workload = workload_.get();
    network_ = std::make_unique<Network>(
        &sim, topology_.get(), [this](NodeId dst, NodeId, MessagePtr m) {
          sent.emplace_back(dst, std::move(m));
        });
    node = std::make_unique<GroupNode>(&sim, network_.get(), self, config,
                                       &ctx_);
  }

  int CountSent(MessageType type) const {
    int n = 0;
    for (const auto& [dst, m] : sent)
      n += m->type() == static_cast<int>(type) ? 1 : 0;
    return n;
  }

  Simulator sim;
  KeyRegistry registry;
  std::vector<std::pair<NodeId, MessagePtr>> sent;
  std::unique_ptr<GroupNode> node;

 private:
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<Workload> workload_;
  ClusterContext ctx_;
  std::unique_ptr<Network> network_;
};

TEST(GroupNodeTest, WanCopyOfHeldEntryForwardsTheVerifiedOne) {
  // A node that already holds an entry skips the certificate check on a
  // later copy, yet a copy that came over the WAN still makes it forward
  // the entry to its group. It must forward what it verified: a forged
  // copy from any remote peer would otherwise fan out over the LAN.
  NodeHarness h(2, 4, NodeId{1, 0}, ProtocolConfig::GeoBft());

  // Entry (0,0) with group 0's 2f+1 certificate, from LAN peer (1,1).
  auto entry = std::make_shared<const Entry>(
      0, 0, std::vector<Transaction>{Transaction{1, 1, 0, Bytes(100, 0x11)}});
  Certificate cert;
  cert.gid = 0;
  cert.digest = entry->digest();
  Bytes payload(cert.digest.begin(), cert.digest.end());
  for (uint16_t i = 0; i < 3; ++i)
    cert.AddSignature(i, h.registry.Sign(NodeId{0, i}, payload));
  h.node->HandleMessage(
      NodeId{1, 1},
      NewMessage(MessageType::kEntryTransfer, CertifiedEntry{entry, cert}));

  // Then a 100 KB forgery of (0,0) with an empty certificate, from (0,3).
  auto forged = std::make_shared<const Entry>(
      0, 0,
      std::vector<Transaction>{Transaction{2, 2, 0, Bytes(100 * 1024, 0x66)}});
  Certificate empty;
  empty.gid = 0;
  empty.digest = forged->digest();
  h.node->HandleMessage(
      NodeId{0, 3},
      NewMessage(MessageType::kEntryTransfer, CertifiedEntry{forged, empty}));
  h.sim.RunAll();

  int forged_copies = 0;
  int held_copies = 0;
  for (const auto& [dst, m] : h.sent) {
    if (m->type() != static_cast<int>(MessageType::kEntryTransfer)) continue;
    const Digest& digest = BodyOf<CertifiedEntry>(*m).entry->digest();
    forged_copies += digest == forged->digest() ? 1 : 0;
    held_copies += digest == entry->digest() ? 1 : 0;
  }
  EXPECT_EQ(forged_copies, 0);
  EXPECT_EQ(held_copies, 3);  // Once to each LAN peer.
}

TEST(GroupNodeTest, LeaderTakesTimestampsOnlyFromPeerLeaders) {
  // Follower (2,3) claims group 0 stamped entry (2,0) with 999. A leader
  // that took it would relay it to its group, and the first stamp seen
  // for an element wins.
  NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::MassBft());
  auto stamp = NewMessage(MessageType::kTimestampAssign,
                          TimestampAssign{false, {{0, 2, 0, 999}}});
  h.node->HandleMessage(NodeId{2, 3}, stamp);
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 0);

  // The same stamp from group 2's leader reaches all 3 group members.
  h.node->HandleMessage(NodeId{2, 0}, stamp);
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 3);
}

TEST(GroupNodeTest, FollowerAppliesRelaysOnlyFromItsLeader) {
  // (2,3) tells follower (1,1) that its own group's entry (1,0) committed.
  NodeHarness h(3, 4, NodeId{1, 1}, ProtocolConfig::MassBft());
  auto commit = NewMessage(
      MessageType::kGroupRelay,
      GroupRelay{false, {{RelayEvent::kCommitted, 1, 0, 0, 0}}});
  h.node->HandleMessage(NodeId{2, 3}, commit);
  EXPECT_EQ(h.node->own_clock(), 0u);

  h.node->HandleMessage(NodeId{1, 0}, commit);
  EXPECT_EQ(h.node->own_clock(), 1u);
}

TEST(GroupNodeTest, HeartbeatCountsOnlyForItsSendersGroup) {
  // Group 2 is silent; a follower of group 1 sends heartbeats claiming to
  // be group 2. Leader (0,0) must still time group 2 out and, as the
  // lowest live group, take it over: that starts with a freeze query to
  // group 1's leader.
  NodeHarness h(3, 4, NodeId{0, 0}, ProtocolConfig::MassBft());
  h.node->Start();
  for (SimTime t = 0; t < 4 * kSecond; t += 100 * kMillisecond) {
    h.sim.ScheduleAt(t, [&h] {
      h.node->HandleMessage(
          NodeId{1, 0},
          NewMessage(MessageType::kGroupHeartbeat, GroupHeartbeat{1, 0}));
      h.node->HandleMessage(
          NodeId{1, 1},
          NewMessage(MessageType::kGroupHeartbeat, GroupHeartbeat{2, 0}));
    });
  }
  h.sim.RunUntil(4 * kSecond);
  bool queried = false;
  for (const auto& [dst, m] : h.sent)
    queried |= m->type() == static_cast<int>(MessageType::kFreezeQuery) &&
               dst == NodeId{1, 0};
  EXPECT_TRUE(queried);
}

}  // namespace
}  // namespace massbft
