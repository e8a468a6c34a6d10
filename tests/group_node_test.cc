// One GroupNode driven message by message on a bare simulated Network, for
// behaviour a whole-cluster Experiment cannot pin down.

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <memory>
#include <tuple>
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

  /// Messages sent to `dst`.
  std::vector<MessagePtr> SentTo(NodeId dst) const {
    std::vector<MessagePtr> to;
    for (const auto& [to_node, m] : sent)
      if (to_node == dst) to.push_back(m);
    return to;
  }

  const ClusterContext& context() const { return ctx_; }

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

/// Entries (0,0) and (1,0), each with its group's certificate, from LAN
/// peer (1,3): a GeoBFT node of group 1 commits both on receipt and
/// executes round 0.
void ExecuteRoundZero(NodeHarness& h) {
  for (EntryPtr entry : {MakeEntry(0, 0), MakeEntry(1, 0)}) {
    h.node->HandleMessage(
        NodeId{1, 3},
        NewMessage(MessageType::kEntryTransfer,
                   CertifiedEntry{entry,
                                  h.Certify(entry->gid(), entry->digest())}));
  }
  h.sim.RunAll();
  MASSBFT_CHECK(h.node->executed_entries() == 2);
}

TEST(GroupNodeTest, ReleasedFollowerForwardsOnlyTheCertifiedWanCopy) {
  // Follower (1,1) executed (0,0) and released its payload. A later WAN
  // copy of (0,0) is forwarded to the group only if it is the entry the
  // held certificate names: a forgery with another digest goes nowhere,
  // and the genuine copy still reaches each of the 3 LAN peers once.
  NodeHarness h(2, 4, NodeId{1, 1}, ProtocolConfig::GeoBft());
  ExecuteRoundZero(h);
  ASSERT_EQ(h.node->retained().entries, 0u);

  auto forged = std::make_shared<const Entry>(
      0, 0,
      std::vector<Transaction>{Transaction{2, 2, 0, Bytes(100, 0x66)}});
  h.node->HandleMessage(
      NodeId{0, 3},
      NewMessage(MessageType::kEntryTransfer,
                 CertifiedEntry{forged, h.Certify(0, forged->digest())}));
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kEntryTransfer), 0);

  EntryPtr genuine = MakeEntry(0, 0);
  h.node->HandleMessage(
      NodeId{0, 1},
      NewMessage(MessageType::kEntryTransfer,
                 CertifiedEntry{genuine, h.Certify(0, genuine->digest())}));
  h.sim.RunAll();
  ASSERT_EQ(h.CountSent(MessageType::kEntryTransfer), 3);
  ASSERT_EQ(h.sent.size(), 3u);
  for (const auto& [dst, m] : h.sent)
    EXPECT_EQ(BodyOf<CertifiedEntry>(*m).entry->digest(), genuine->digest());
}

TEST(GroupNodeTest, LeaderTakesTimestampsOnlyFromPeerLeaders) {
  // Follower (2,3) claims group 0 stamped entry (2,0) with 999. A leader
  // that took it would relay it to its group, and the first stamp seen
  // for an element wins.
  NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::MassBft());
  auto stamp = NewMessage(MessageType::kGroupRelay,
                          GroupRelay{.stamps = {{0, 2, 0, 999}}});
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
  auto commit = NewMessage(MessageType::kGroupRelay,
                           GroupRelay{.commits = {{1, 0}}});
  h.node->HandleMessage(NodeId{2, 3}, commit);
  EXPECT_EQ(h.node->own_clock(), 0u);

  h.node->HandleMessage(NodeId{1, 0}, commit);
  EXPECT_EQ(h.node->own_clock(), 1u);
}

TEST(GroupNodeTest, LeaderTakesEpochSealsOnlyFromPeerLeaders) {
  // Follower (2,3) claims group 2 sealed epoch 0 with one entry. A seal
  // fixes which entries an ISS epoch executes, so leader (1,0) must
  // neither apply nor forward it.
  NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::Iss());
  auto seal = NewMessage(MessageType::kGroupRelay,
                         GroupRelay{.seals = {{2, 0, 1}}});
  h.node->HandleMessage(NodeId{2, 3}, seal);
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 0);

  // Group 2's leader seals for group 2, never for group 0.
  h.node->HandleMessage(NodeId{2, 0},
                        NewMessage(MessageType::kGroupRelay,
                                   GroupRelay{.seals = {{0, 0, 1}}}));
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 0);

  // Its seal for its own group reaches all 3 group members.
  h.node->HandleMessage(NodeId{2, 0}, seal);
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 3);
}

TEST(GroupNodeTest, FreezeReportCountsOnlyFromPeerLeaders) {
  // Leader (0,0) takes silent group 2 over and asks group 1's leader for
  // the highest stamp it saw from group 2. Follower (1,3) answers 999
  // first. Taken, that would close the round and freeze group 2's clock
  // above any stamp group 2 can issue after it rejoins, which breaks the
  // per-assigner monotonicity Algorithm 2's inference needs.
  NodeHarness h(3, 4, NodeId{0, 0}, ProtocolConfig::MassBft());
  h.node->Start();
  for (SimTime t = 0; t < 4 * kSecond; t += 100 * kMillisecond) {
    h.sim.ScheduleAt(t, [&h] {
      h.node->HandleMessage(
          NodeId{1, 0},
          NewMessage(MessageType::kGroupHeartbeat, GroupHeartbeat{}));
    });
  }
  h.sim.RunUntil(4 * kSecond);
  // A freeze query from (1,0) reads back what (0,0) holds for group 2.
  auto frozen = [&h]() -> uint64_t {
    h.sent.clear();
    h.node->HandleMessage(
        NodeId{1, 0}, NewMessage(MessageType::kFreezeQuery, Freeze{2, 0}));
    h.sim.RunUntil(h.sim.Now() + 200 * kMillisecond);
    for (const MessagePtr& m : h.SentTo(NodeId{1, 0}))
      if (m->type() == static_cast<int>(MessageType::kFreezeReport))
        return BodyOf<Freeze>(*m).max_seen;
    ADD_FAILURE() << "no freeze report";
    return 0;
  };

  h.node->HandleMessage(
      NodeId{1, 3}, NewMessage(MessageType::kFreezeReport, Freeze{2, 999}));
  EXPECT_EQ(frozen(), 0u);

  // Group 1's leader closes the round.
  h.node->HandleMessage(
      NodeId{1, 0}, NewMessage(MessageType::kFreezeReport, Freeze{2, 5}));
  EXPECT_EQ(frozen(), 5u);
}

TEST(GroupNodeTest, CatchUpServesOnlyPeerLeaders) {
  // An empty catch-up request asks for everything from sequence 0. From
  // follower (2,3), one small frame would buy a WAN copy of every payload
  // leader (1,0) holds.
  NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::MassBft());
  EntryPtr entry = MakeEntry(0, 0);
  h.node->HandleMessage(
      NodeId{0, 0},
      NewMessage(MessageType::kEntryTransfer,
                 CertifiedEntry{entry, h.Certify(0, entry->digest())}));
  auto request = NewMessage(MessageType::kCatchUpRequest, CatchUpRequest{});
  h.node->HandleMessage(NodeId{2, 3}, request);
  h.sim.RunAll();
  EXPECT_TRUE(h.SentTo(NodeId{2, 3}).empty());

  // Group 2's leader gets the payload, then the (empty) history.
  h.node->HandleMessage(NodeId{2, 0}, request);
  h.sim.RunAll();
  std::vector<MessagePtr> reply = h.SentTo(NodeId{2, 0});
  ASSERT_FALSE(reply.empty());
  EXPECT_EQ(reply.front()->type(),
            static_cast<int>(MessageType::kEntryTransfer));
  EXPECT_EQ(BodyOf<CertifiedEntry>(*reply.front()).entry->digest(),
            entry->digest());
}

TEST(GroupNodeTest, CatchUpHistoryPrecedesBufferedStamps) {
  // MassBFT leader (1,0) crashes, recovers and asks group 0's leader for
  // the history it missed. A live stamp from group 2 arriving meanwhile
  // waits: the history holds group 2's earlier stamp, and Algorithm 2's
  // inference needs each group's stamps in order.
  const GroupRelay live{.stamps = {{2, 0, 1, 5}}};
  const GroupRelay history{
      .replay = true, .commits = {{0, 0}}, .stamps = {{2, 0, 0, 3}}};
  {
    NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::MassBft());
    h.node->Crash();
    h.node->Recover();
    h.node->HandleMessage(NodeId{2, 0},
                          NewMessage(MessageType::kGroupRelay, live));
    h.sim.RunUntil(kSecond);
    EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 0);

    h.node->HandleMessage(NodeId{0, 0},
                          NewMessage(MessageType::kGroupRelay, history));
    h.sim.RunUntil(2 * kSecond);
    // (1,1) gets the history as one replay relay, ahead of any stamp, and
    // the replayed commit only there: applying it also advances Raft's
    // delivery cursor, which must not relay the same commit again.
    std::vector<uint64_t> stamps;
    size_t history_commits = 0;
    size_t commits_of_0_0 = 0;
    for (const MessagePtr& m : h.SentTo(NodeId{1, 1})) {
      if (m->type() != static_cast<int>(MessageType::kGroupRelay)) continue;
      const GroupRelay& relay = BodyOf<GroupRelay>(*m);
      if (relay.replay) {
        EXPECT_TRUE(stamps.empty());
        history_commits += relay.commits.size();
      }
      for (const auto& [gid, seq] : relay.commits)
        commits_of_0_0 += gid == 0 && seq == 0 ? 1 : 0;
      for (const TimestampElement& stamp : relay.stamps)
        stamps.push_back(stamp.ts);
    }
    EXPECT_EQ(history_commits, 1u);
    EXPECT_EQ(commits_of_0_0, 1u);
    EXPECT_EQ(stamps, (std::vector<uint64_t>{3, 5}));
  }
  {
    // With no history at all, the 4 s failsafe ends the sync.
    NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::MassBft());
    h.node->Crash();
    h.node->Recover();
    h.node->HandleMessage(NodeId{2, 0},
                          NewMessage(MessageType::kGroupRelay, live));
    h.sim.RunUntil(4 * kSecond - kMillisecond);
    EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 0);
    h.sim.RunUntil(4 * kSecond + 100 * kMillisecond);
    EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 3);
  }
}

TEST(GroupNodeTest, FailsafeOfAnEarlierRecoveryLeavesALaterSyncOpen) {
  // Leader (1,0) recovers, and an empty history ends its sync at once. It
  // crashes and recovers again at 1 s, and a live stamp then waits in the
  // new sync window. The first recovery's failsafe (due at 4 s) belongs to
  // an earlier incarnation: only the second's (at 5 s) releases the stamp.
  NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::MassBft());
  h.node->Crash();
  h.node->Recover();
  h.node->HandleMessage(
      NodeId{0, 0},
      NewMessage(MessageType::kGroupRelay, GroupRelay{.replay = true}));
  h.sim.RunUntil(kSecond);
  h.node->Crash();
  h.node->Recover();
  h.node->HandleMessage(
      NodeId{2, 0}, NewMessage(MessageType::kGroupRelay,
                               GroupRelay{.stamps = {{2, 0, 1, 5}}}));
  h.sim.RunUntil(4 * kSecond + 100 * kMillisecond);
  EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 0);
  h.sim.RunUntil(5 * kSecond + 100 * kMillisecond);
  EXPECT_EQ(h.CountSent(MessageType::kGroupRelay), 3);
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

TEST(GroupNodeTest, RaftProposeCountsOnlyFromItsInstancesLeader) {
  // MassBFT leader (1,0) holds (0,0)'s payload. A propose for (0,0) from
  // group 2's leader carries group 0's genuine certificate, yet only
  // group 0's leader proposes in group 0's instance: no accept starts.
  // The same propose from (0,0) starts one, a certify request to each of
  // the 3 group members.
  NodeHarness h(3, 4, NodeId{1, 0}, ProtocolConfig::MassBft());
  EntryPtr entry = MakeEntry(0, 0);
  const Certificate cert = h.Certify(0, entry->digest());
  h.node->HandleMessage(NodeId{1, 1},
                        NewMessage(MessageType::kEntryTransfer,
                                   CertifiedEntry{entry, cert}));
  auto propose =
      NewMessage(MessageType::kRaftPropose, RaftPropose{0, 0, cert});
  h.node->HandleMessage(NodeId{2, 0}, propose);
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kCertifyRequest), 0);

  h.node->HandleMessage(NodeId{0, 0}, propose);
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kCertifyRequest), 3);
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

/// Leader (1,0)'s genuinely signed pre-prepare of `entry`.
MessagePtr PrePrepareFromLeader(NodeHarness& h, EntryPtr entry) {
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
  leader.Propose(std::move(entry));
  MASSBFT_CHECK(proposals.size() == 1);
  return proposals[0];
}

TEST(GroupNodeTest, FollowerPreparesOnlyItsOwnGroupsEntries) {
  // Leader (1,0)'s genuinely signed pre-prepare of an entry labelled
  // group 2: a group-1 certificate for it would certify another group's
  // slot.
  NodeHarness h(3, 4, NodeId{1, 1}, ProtocolConfig::MassBft());
  h.node->HandleMessage(NodeId{1, 0}, PrePrepareFromLeader(h, MakeEntry(2, 0)));
  h.sim.RunAll();
  EXPECT_EQ(h.CountSent(MessageType::kPrepare), 0);
}

TEST(GroupNodeTest, ValidationFromBeforeACrashNeverPrepares) {
  // Follower (1,1) takes a pre-prepare of (1,0), then crashes and
  // recovers before validating the entry finishes: that validation
  // belonged to the earlier incarnation, so no prepare goes out. Without
  // the crash, the follower prepares to its three peers.
  for (bool crash : {false, true}) {
    NodeHarness h(3, 4, NodeId{1, 1}, ProtocolConfig::MassBft());
    h.node->HandleMessage(NodeId{1, 0},
                          PrePrepareFromLeader(h, MakeEntry(1, 0)));
    if (crash) {
      h.node->Crash();
      h.node->Recover();
    }
    h.sim.RunAll();
    EXPECT_EQ(h.CountSent(MessageType::kPrepare), crash ? 0 : 3);
  }
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
    const GroupRelay& relay = BodyOf<GroupRelay>(*m);
    EXPECT_TRUE(relay.commits.empty());
    EXPECT_TRUE(relay.seals.empty());
    for (const TimestampElement& stamp : relay.stamps) {
      EXPECT_EQ(stamp.assigner_gid, 1);
      ++stamps;
    }
  }
  EXPECT_EQ(stamps, 3);
}

TEST(GroupNodeTest, RebuildCacheHitCountsOnlyForItsOwnSlot) {
  // Leader (1,0) holds group 0's propose for (0,3), then rebuilds (0,5)
  // from its own chunks. One chunk of that Merkle root, labelled (0,3) and
  // carrying an empty certificate, must not make (0,5) stand for (0,3):
  // a slot's entry is rebuilt from that slot's chunks.
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

TEST(GroupNodeTest, ExecutedEntryLeavesNoEncodingBehind) {
  // EBR leader (0,0) batches one transaction, certifies it with followers
  // (0,1..3), then encodes it for group 1 and sends its chunks. Once it
  // has executed the entry, nothing reads those chunks again, so its
  // encode cache must not keep them.
  ProtocolConfig config = ProtocolConfig::Ebr();
  config.max_batch_size = 1;
  config.batch_timeout = 100 * kSecond;  // No timer-driven empty batches.
  NodeHarness h(2, 4, NodeId{0, 0}, config);

  // The followers are bare PBFT engines; `lan` holds their messages.
  std::deque<std::tuple<NodeId, NodeId, MessagePtr>> lan;
  std::vector<std::unique_ptr<PbftEngine>> followers;
  for (uint16_t i = 1; i < 4; ++i) {
    const NodeId self{0, i};
    PbftEngine::Callbacks cb;
    cb.broadcast = [&lan, self](MessagePtr m) {
      for (uint16_t j = 0; j < 4; ++j)
        if (j != self.index) lan.emplace_back(self, NodeId{0, j}, m);
    };
    cb.sign = [&h, self](const Bytes& payload) {
      return h.registry.Sign(self, payload);
    };
    cb.verify = [&h](NodeId node, const Bytes& payload,
                     const Signature& sig) {
      return h.registry.Verify(node, payload, sig);
    };
    cb.validate_entry = [](EntryPtr, std::function<void(bool)> done) {
      done(true);
    };
    cb.on_committed = [](EntryPtr, Certificate) {};
    followers.push_back(std::make_unique<PbftEngine>(0, self, 4,
                                                     /*leader=*/0,
                                                     std::move(cb)));
  }
  // Runs the node and its group's LAN until both fall quiet.
  size_t routed = 0;
  auto settle = [&] {
    while (true) {
      h.sim.RunUntil(h.sim.Now() + 500 * kMillisecond);
      for (; routed < h.sent.size(); ++routed) {
        const auto& [dst, m] = h.sent[routed];
        if (dst.group == 0) lan.emplace_back(NodeId{0, 0}, dst, m);
      }
      if (lan.empty()) return;
      while (!lan.empty()) {
        auto [from, to, m] = std::move(lan.front());
        lan.pop_front();
        if (to.index == 0) {
          h.node->HandleMessage(from, m);
        } else {
          followers[to.index - 1]->OnMessage(from, m);
        }
      }
    }
  };

  h.node->Start();
  h.node->SubmitClientTxn(Transaction{1, 1, 0, Bytes(100, 0x22)});
  settle();
  // The entry committed locally, and its chunks went to group 1.
  Digest digest{};
  int chunk_batches = 0;
  for (const auto& [dst, m] : h.sent) {
    if (dst.group != 1 ||
        m->type() != static_cast<int>(MessageType::kChunkBatch))
      continue;
    digest = BodyOf<ChunkBatch>(*m).cert.digest;
    ++chunk_batches;
  }
  ASSERT_GT(chunk_batches, 0);
  auto encodings_of = [&h](const Digest& d) {
    int n = 0;
    for (const auto& [key, encoded] : h.context().encode_cache)
      n += key.first == d ? 1 : 0;
    return n;
  };
  EXPECT_EQ(encodings_of(digest), 1);

  // Group 1's entry of round 0 arrives, and group 1's leader relays both
  // commits: the round executes.
  EntryPtr peer = MakeEntry(1, 0);
  h.node->HandleMessage(
      NodeId{1, 0},
      NewMessage(MessageType::kEntryTransfer,
                 CertifiedEntry{peer, h.Certify(1, peer->digest())}));
  h.node->HandleMessage(NodeId{1, 0},
                        NewMessage(MessageType::kGroupRelay,
                                   GroupRelay{.commits = {{0, 0}, {1, 0}}}));
  settle();
  ASSERT_EQ(h.node->executed_entries(), 2u);
  EXPECT_EQ(encodings_of(digest), 0);
}

TEST(GroupNodeTest, OnlyTheLeaderKeepsExecutedPayloads) {
  // GeoBFT nodes (1,0) and (1,1) store and execute the same two entries.
  // Only a leader answers catch-up requests, so only it keeps them.
  for (uint16_t index : {0, 1}) {
    SCOPED_TRACE(index);
    NodeHarness h(2, 4, NodeId{1, index}, ProtocolConfig::GeoBft());
    ExecuteRoundZero(h);
    const GroupNode::Retained retained = h.node->retained();
    const uint64_t bytes =
        MakeEntry(0, 0)->ByteSize() + MakeEntry(1, 0)->ByteSize();
    EXPECT_EQ(retained.entries, index == 0 ? 2u : 0u);
    EXPECT_EQ(retained.payload_bytes, index == 0 ? bytes : 0u);
  }
}

}  // namespace
}  // namespace massbft
