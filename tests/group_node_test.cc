// One GroupNode driven message by message on a bare simulated Network, for
// behaviour a whole-cluster Experiment cannot pin down.

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/config.h"
#include "core/group_node.h"
#include "replication/encoder.h"
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

  /// Group `gid`'s certificate over `digest`, signed by its first three
  /// nodes (2f+1 of 4).
  Certificate Certify(uint16_t gid, const Digest& digest) {
    Certificate cert;
    cert.gid = gid;
    cert.digest = digest;
    Bytes payload(digest.begin(), digest.end());
    for (uint16_t i = 0; i < 3; ++i)
      cert.AddSignature(i, registry.Sign(NodeId{gid, i}, payload));
    return cert;
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

/// Entry e_{gid,seq} holding one 100-byte transaction.
EntryPtr MakeEntry(uint16_t gid, uint64_t seq) {
  return std::make_shared<const Entry>(
      gid, seq,
      std::vector<Transaction>{Transaction{seq, 1, 0, Bytes(100, 0x11)}});
}

/// Every chunk of `entry` encoded for one 4-node group to another, in one
/// batch labelled (gid, seq).
ChunkBatch AllChunks(const EntryPtr& entry, const Certificate& cert,
                     uint16_t gid, uint64_t seq) {
  Result<TransferPlan> plan = TransferPlan::Create(4, 4);
  MASSBFT_CHECK(plan.ok());
  Result<EncodedEntry> encoded = EncodeEntryForPlan(*entry, *plan);
  MASSBFT_CHECK(encoded.ok());
  return ChunkBatch{gid, seq, encoded->merkle_root, cert, encoded->chunks};
}

TEST(GroupNodeTest, WanCopyOfHeldEntryForwardsTheVerifiedOne) {
  // A node that already holds an entry skips the certificate check on a
  // later copy, yet a copy that came over the WAN still makes it forward
  // the entry to its group. It must forward what it verified: a forged
  // copy from any remote peer would otherwise fan out over the LAN.
  NodeHarness h(2, 4, NodeId{1, 0}, ProtocolConfig::GeoBft());

  // Entry (0,0) with group 0's 2f+1 certificate, from LAN peer (1,1).
  EntryPtr entry = MakeEntry(0, 0);
  h.node->HandleMessage(
      NodeId{1, 1},
      NewMessage(MessageType::kEntryTransfer,
                 CertifiedEntry{entry, h.Certify(0, entry->digest())}));

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
  // Group 2 is silent while two nodes of group 1 send heartbeats. A
  // heartbeat speaks for its sender's group, so leader (0,0) must still
  // time group 2 out and, as the lowest live group, take it over: that
  // starts with a freeze query to group 1's leader.
  NodeHarness h(3, 4, NodeId{0, 0}, ProtocolConfig::MassBft());
  h.node->Start();
  for (SimTime t = 0; t < 4 * kSecond; t += 100 * kMillisecond) {
    h.sim.ScheduleAt(t, [&h] {
      for (NodeId from : {NodeId{1, 0}, NodeId{1, 1}})
        h.node->HandleMessage(
            from, NewMessage(MessageType::kGroupHeartbeat, GroupHeartbeat{}));
    });
  }
  h.sim.RunUntil(4 * kSecond);
  bool queried = false;
  for (const auto& [dst, m] : h.sent)
    queried |= m->type() == static_cast<int>(MessageType::kFreezeQuery) &&
               dst == NodeId{1, 0};
  EXPECT_TRUE(queried);
}

TEST(GroupNodeTest, RebuiltEntryCountsOnlyForItsOwnSlot) {
  // Leader (1,0) holds group 0's propose for (0,3). (0,1) then sends every
  // chunk of (2,7), genuinely certified by group 2, labelled (0,3); then
  // every chunk of (0,5), genuinely certified by group 0, labelled (0,3).
  // Stored under (0,3), either would let group 1 accept (0,3) without
  // holding it.
  NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::MassBft());
  EntryPtr proposed = MakeEntry(0, 3);
  h.node->HandleMessage(
      NodeId{0, 0},
      NewMessage(MessageType::kRaftPropose,
                 RaftPropose{0, 3, h.Certify(0, proposed->digest())}));
  for (EntryPtr other : {MakeEntry(2, 7), MakeEntry(0, 5)}) {
    h.node->HandleMessage(
        NodeId{0, 1},
        NewMessage(MessageType::kChunkBatch,
                   AllChunks(other, h.Certify(other->gid(), other->digest()),
                             0, 3)));
  }
  // A batch labelled with a group the cluster does not have names no slot.
  Certificate unknown;
  unknown.gid = 3;
  h.node->HandleMessage(
      NodeId{0, 1},
      NewMessage(MessageType::kChunkBatch,
                 AllChunks(MakeEntry(3, 0), unknown, 3, 0)));
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kCertifyRequest), 0);
  EXPECT_EQ(h.CountSent(MessageType::kChunkBatch), 3);  // (0,3)'s LAN share.
}

TEST(GroupNodeTest, EntryNeedsItsOwnGroupsCertificate) {
  // Group 0's genuine certificate over the bytes of entry (2,0) is not
  // group 2's: GeoBFT (1,0) must neither store (2,0) on it nor forward it.
  NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::GeoBft());
  EntryPtr entry = MakeEntry(2, 0);
  h.node->HandleMessage(
      NodeId{0, 0},
      NewMessage(MessageType::kEntryTransfer,
                 CertifiedEntry{entry, h.Certify(0, entry->digest())}));
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kEntryTransfer), 0);

  // Group 2's certificate stores it, and each LAN peer gets a copy.
  h.node->HandleMessage(
      NodeId{2, 0},
      NewMessage(MessageType::kEntryTransfer,
                 CertifiedEntry{entry, h.Certify(2, entry->digest())}));
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kEntryTransfer), 3);
}

TEST(GroupNodeTest, FollowerPreparesOnlyItsOwnGroupsEntries) {
  // Leader (1,0)'s genuinely signed pre-prepare of an entry labelled
  // group 2: a group-1 certificate for it would certify another group's
  // slot.
  NodeHarness h(3, 4, NodeId{1, 1}, ProtocolConfig::MassBft());
  std::vector<MessagePtr> proposals;
  PbftEngine::Callbacks cb;
  cb.broadcast = [&proposals](MessagePtr m) {
    proposals.push_back(std::move(m));
  };
  cb.sign = [&h](const Bytes& payload) {
    return h.registry.Sign(NodeId{1, 0}, payload);
  };
  cb.verify = [](NodeId, const Bytes&, const Signature&) { return true; };
  cb.validate_entry = [](EntryPtr, std::function<void(bool)> done) {
    done(true);
  };
  cb.on_committed = [](EntryPtr, Certificate) {};
  PbftEngine leader(1, NodeId{1, 0}, 4, /*leader=*/0, std::move(cb));
  leader.Propose(MakeEntry(2, 0));
  ASSERT_EQ(proposals.size(), 1u);
  h.node->HandleMessage(NodeId{1, 0}, proposals[0]);
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kPrepare), 0);
}

TEST(GroupNodeTest, ChunkBatchCannotInflateTheRebuildCharge) {
  // One batch from (0,3) carries every chunk of a certified (0,0). The
  // rebuild's decode and hash charges follow the entry actually rebuilt,
  // not anything the sender claims, with the simulator's CPU costs and with
  // real mode's (signatures uncharged): every later charge of this node
  // queues behind them.
  for (bool real_mode : {false, true}) {
    SCOPED_TRACE(real_mode ? "real-mode costs" : "simulator costs");
    ProtocolConfig config = ProtocolConfig::MassBft();
    if (real_mode) {
      config.cpu.sign_cost = 0;
      config.cpu.verify_cost = 0;
    }
    NodeHarness h(3, 4, NodeId{1, 1}, config);
    EntryPtr entry = MakeEntry(0, 0);
    h.node->HandleMessage(
        NodeId{0, 3},
        NewMessage(MessageType::kChunkBatch,
                   AllChunks(entry, h.Certify(0, entry->digest()), 0, 0)));
    h.sim.RunAll();
    EXPECT_LT(h.node->cpu_account().busy_until(), kSecond);
  }
}

TEST(GroupNodeTest, AcceptStampCountsForTheCertifyingGroup) {
  // Group 1 certifies an accept of (0,0) at clock 7. Leader (0,0) relays
  // the stamp to its 3 members as group 1's: only group 1's signatures
  // stand behind it.
  const Digest digest = DigestCertifier::DecisionDigest(
      DecisionId{DigestCertifier::kAccept, 0, 0, 7});
  NodeHarness h(3, 4, NodeId{0, 0}, ProtocolConfig::MassBft());
  h.node->HandleMessage(NodeId{1, 0},
                        NewMessage(MessageType::kRaftAccept,
                                   RaftAccept{0, 0, 7, h.Certify(1, digest)}));
  h.sim.RunAll();
  int stamps = 0;
  for (const auto& [dst, m] : h.sent) {
    if (m->type() != static_cast<int>(MessageType::kGroupRelay)) continue;
    for (const RelayEvent& event : BodyOf<GroupRelay>(*m).events) {
      EXPECT_EQ(event.type, RelayEvent::kTimestamp);
      EXPECT_EQ(event.assigner, 1);
      ++stamps;
    }
  }
  EXPECT_EQ(stamps, 3);
}

TEST(GroupNodeTest, RebuildCacheHitCountsOnlyForItsOwnSlot) {
  // Leader (1,0) holds group 0's propose for (0,3), then rebuilds (0,5)
  // from its own chunks, which caches (0,5) under its Merkle root. One
  // chunk of that root, labelled (0,3) and carrying an empty certificate,
  // must not adopt the cached (0,5) as (0,3).
  NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::MassBft());
  EntryPtr proposed = MakeEntry(0, 3);
  h.node->HandleMessage(
      NodeId{0, 0},
      NewMessage(MessageType::kRaftPropose,
                 RaftPropose{0, 3, h.Certify(0, proposed->digest())}));
  EntryPtr cached = MakeEntry(0, 5);
  ChunkBatch batch = AllChunks(cached, h.Certify(0, cached->digest()), 0, 5);
  h.node->HandleMessage(NodeId{0, 1},
                        NewMessage(MessageType::kChunkBatch, batch));
  batch.seq = 3;
  batch.cert = Certificate{};
  batch.chunks.resize(1);
  h.node->HandleMessage(NodeId{0, 2},
                        NewMessage(MessageType::kChunkBatch, batch));
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kCertifyRequest), 0);
}

}  // namespace
}  // namespace massbft
