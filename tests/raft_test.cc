#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "consensus/pbft/certifier.h"
#include "consensus/raft/raft.h"
#include "crypto/signature.h"

namespace massbft {
namespace {

/// Standalone RaftCoordinator harness: one coordinator per group leader,
/// wired through an instantly-delivering bus with self-certifying mock
/// certification (the real certifier is tested in pbft_test.cc).
class RaftHarness {
 public:
  explicit RaftHarness(int num_groups) : num_groups_(num_groups) {
    for (int g = 0; g < num_groups; ++g)
      registry_.RegisterNode(NodeId{static_cast<uint16_t>(g), 0});
    for (int g = 0; g < num_groups; ++g) {
      RaftCoordinator::Callbacks cb;
      cb.send_to_group = [this, g](int to, MessagePtr m) {
        if (delivering_) {
          queue_.push_back({g, to, std::move(m)});
          return;
        }
        queue_.push_back({g, to, std::move(m)});
      };
      cb.certify = [this, g](const DecisionId& decision,
                             std::function<void(Certificate)> done) {
        // Mock local consensus: immediately produce a 1-sig certificate.
        Certificate cert;
        cert.gid = static_cast<uint16_t>(g);
        cert.digest = DigestCertifier::DecisionDigest(decision);
        NodeId node{static_cast<uint16_t>(g), 0};
        Bytes payload(cert.digest.begin(), cert.digest.end());
        cert.AddSignature(node.index, registry_.Sign(node, payload));
        done(std::move(cert));
      };
      cb.verify_group_cert = [this](const Certificate& cert,
                                    const Digest& digest) {
        if (cert.digest != digest) return false;
        return cert.Verify(registry_, 1);
      };
      cb.has_entry = [this, g](uint16_t gid, uint64_t seq) {
        return available_[g].count({gid, seq}) > 0;
      };
      cb.assign_ts = [this, g](uint16_t, uint64_t) { return clocks_[g]; };
      cb.on_committed = [this, g](uint16_t gid, uint64_t seq) {
        committed_[g].push_back({gid, seq});
      };
      cb.on_accept_observed = [this, g](uint16_t gid, uint64_t seq,
                                        uint16_t from, uint64_t ts) {
        accepts_[g].push_back({gid, seq, from, ts});
      };
      coordinators_.push_back(
          std::make_unique<RaftCoordinator>(num_groups, g, std::move(cb)));
      clocks_.push_back(0);
    }
    available_.resize(num_groups);
    committed_.resize(num_groups);
    accepts_.resize(num_groups);
  }

  /// Entry payload became available at group `g`'s leader.
  void MakeAvailable(int g, uint16_t gid, uint64_t seq) {
    available_[g].insert({gid, seq});
    coordinators_[g]->NotifyEntryAvailable(gid, seq);
    Deliver();
  }

  /// When false, only the proposer holds the payload; other groups need
  /// MakeAvailable before they accept (models in-flight replication).
  void set_auto_available(bool v) { auto_available_ = v; }

  void Propose(int g, uint64_t seq, const Digest& digest) {
    Certificate cert;
    cert.gid = static_cast<uint16_t>(g);
    cert.digest = digest;
    NodeId node{static_cast<uint16_t>(g), 0};
    Bytes payload(digest.begin(), digest.end());
    cert.AddSignature(node.index, registry_.Sign(node, payload));
    if (auto_available_) {
      for (int j = 0; j < num_groups_; ++j)
        available_[j].insert({static_cast<uint16_t>(g), seq});
    } else {
      available_[g].insert({static_cast<uint16_t>(g), seq});
    }
    coordinators_[g]->Propose(static_cast<uint16_t>(g), seq, cert);
    Deliver();
  }

  void Deliver() {
    if (delivering_) return;
    delivering_ = true;
    while (!queue_.empty()) {
      auto [from, to, msg] = std::move(queue_.front());
      queue_.pop_front();
      if (crashed_.count(to) > 0 || crashed_.count(from) > 0) continue;
      RaftCoordinator* c = coordinators_[to].get();
      switch (static_cast<MessageType>(msg->type())) {
        case MessageType::kRaftPropose:
          c->OnProposeControl(BodyOf<RaftPropose>(*msg));
          break;
        case MessageType::kRaftAccept:
          c->OnAccept(BodyOf<RaftAccept>(*msg));
          break;
        case MessageType::kRaftCommit:
          c->OnCommit(BodyOf<RaftCommit>(*msg));
          break;
        default:
          break;
      }
    }
    delivering_ = false;
  }

  void Crash(int g) { crashed_.insert(g); }

  RaftCoordinator& coordinator(int g) { return *coordinators_[g]; }
  const std::vector<std::pair<uint16_t, uint64_t>>& committed(int g) const {
    return committed_[g];
  }
  struct AcceptObs {
    uint16_t gid;
    uint64_t seq;
    uint16_t from;
    uint64_t ts;
  };
  const std::vector<AcceptObs>& accepts(int g) const { return accepts_[g]; }
  void set_clock(int g, uint64_t v) { clocks_[g] = v; }

 private:
  struct Queued {
    int from;
    int to;
    MessagePtr msg;
  };
  int num_groups_;
  KeyRegistry registry_;
  std::vector<std::unique_ptr<RaftCoordinator>> coordinators_;
  std::vector<std::set<std::pair<uint16_t, uint64_t>>> available_;
  std::vector<std::vector<std::pair<uint16_t, uint64_t>>> committed_;
  std::vector<std::vector<AcceptObs>> accepts_;
  std::vector<uint64_t> clocks_;
  std::deque<Queued> queue_;
  std::set<int> crashed_;
  bool delivering_ = false;
  bool auto_available_ = true;
};

Digest DigestOf(int v) { return Sha256::Hash(std::to_string(v)); }

TEST(RaftTest, ProposeAcceptCommitAcrossThreeGroups) {
  RaftHarness h(3);
  h.Propose(0, 0, DigestOf(1));
  // Quorum 2 (self + 1): commits everywhere.
  for (int g = 0; g < 3; ++g) {
    ASSERT_EQ(h.committed(g).size(), 1u) << "group " << g;
    EXPECT_EQ(h.committed(g)[0], (std::pair<uint16_t, uint64_t>{0, 0}));
  }
}

TEST(RaftTest, CommitWaitsForEntryAvailability) {
  RaftHarness h(3);
  h.set_auto_available(false);
  // Remote groups do not have the payload yet: the propose control alone
  // must not produce accepts (Lemma V.1's gate), so no commit quorum.
  h.Propose(0, 0, DigestOf(1));
  EXPECT_TRUE(h.committed(1).empty());
  h.MakeAvailable(1, 0, 0);
  EXPECT_EQ(h.committed(0).size(), 1u);
  EXPECT_EQ(h.committed(1).size(), 1u);
}

TEST(RaftTest, InOrderCommitDeliveryPerInstance) {
  RaftHarness h(3);
  // Propose seq 0 and 1; make payloads available out of order at group 1.
  h.Propose(0, 0, DigestOf(10));
  h.Propose(0, 1, DigestOf(11));
  EXPECT_EQ(h.committed(1).size(), 2u);
  EXPECT_EQ(h.committed(1)[0].second, 0u);
  EXPECT_EQ(h.committed(1)[1].second, 1u);
  EXPECT_EQ(h.coordinator(1).CommittedThrough(0), 1);
}

TEST(RaftTest, AcceptCarriesAssignerClock) {
  RaftHarness h(3);
  h.set_clock(1, 7);
  h.set_clock(2, 3);
  h.Propose(0, 0, DigestOf(5));
  // Every leader observed accepts from groups 1 and 2 with their clocks.
  std::map<uint16_t, uint64_t> seen;
  for (const auto& obs : h.accepts(0)) seen[obs.from] = obs.ts;
  EXPECT_EQ(seen[1], 7u);
  EXPECT_EQ(seen[2], 3u);
}

TEST(RaftTest, AcceptBroadcastReachesNonProposerGroups) {
  // Slow-receiver handling (Section V-C): group 2 learns that group 1
  // accepted even though group 2 is not the proposer.
  RaftHarness h(3);
  h.Propose(0, 0, DigestOf(5));
  bool saw_g1_accept = false;
  for (const auto& obs : h.accepts(2))
    if (obs.from == 1 && obs.gid == 0) saw_g1_accept = true;
  EXPECT_TRUE(saw_g1_accept);
}

TEST(RaftTest, MultiMasterInstancesIndependent) {
  RaftHarness h(3);
  h.Propose(0, 0, DigestOf(1));
  h.Propose(1, 0, DigestOf(2));
  h.Propose(2, 0, DigestOf(3));
  for (int g = 0; g < 3; ++g) {
    ASSERT_EQ(h.committed(g).size(), 3u);
    std::set<uint16_t> gids;
    for (auto& [gid, seq] : h.committed(g)) gids.insert(gid);
    EXPECT_EQ(gids.size(), 3u);
  }
}

TEST(RaftTest, FiveGroupsNeedThreeAccepts) {
  RaftHarness h(5);
  h.set_auto_available(false);
  EXPECT_EQ(h.coordinator(0).GroupQuorum(), 3);
  // Only the proposer has the payload; no commit.
  h.Propose(0, 0, DigestOf(9));
  EXPECT_TRUE(h.committed(0).empty());
  h.MakeAvailable(1, 0, 0);  // 2 accepts (self + g1): still no quorum.
  EXPECT_TRUE(h.committed(0).empty());
  h.MakeAvailable(2, 0, 0);  // 3rd: quorum.
  EXPECT_EQ(h.committed(0).size(), 1u);
}

TEST(RaftTest, CrashedProposerToleratedByQuorum) {
  RaftHarness h(3);
  h.Propose(0, 0, DigestOf(1));
  h.Crash(0);
  // Other groups already committed entry (0,0); new proposals from group 1
  // still commit with group 2's accept.
  h.Propose(1, 0, DigestOf(2));
  EXPECT_EQ(h.committed(1).size(), 2u);
  EXPECT_EQ(h.committed(2).size(), 2u);
}

TEST(RaftTest, TakeoverFlagTracksInstance) {
  RaftHarness h(3);
  EXPECT_FALSE(h.coordinator(1).HasTakenOver(0));
  h.coordinator(1).TakeOverInstance(0);
  EXPECT_TRUE(h.coordinator(1).HasTakenOver(0));
}

TEST(RaftTest, InvalidProposeCertificateRejected) {
  RaftHarness h(3);
  // Hand-craft a propose with a bogus certificate and inject it.
  Certificate bogus;
  bogus.gid = 0;
  bogus.digest = DigestOf(1);
  h.coordinator(1).OnProposeControl(RaftPropose{0, 0, bogus});
  h.MakeAvailable(1, 0, 0);
  EXPECT_TRUE(h.accepts(1).empty());
}

}  // namespace
}  // namespace massbft
