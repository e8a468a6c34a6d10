#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "consensus/pbft/certifier.h"
#include "consensus/pbft/pbft.h"
#include "crypto/signature.h"
#include "proto/entry.h"

namespace massbft {
namespace {

/// In-memory LAN bus for one group: queued FIFO delivery, droppable nodes,
/// plus simple virtual timers.
class GroupBus {
 public:
  explicit GroupBus(int n, uint16_t gid = 0) : n_(n), gid_(gid) {
    for (int i = 0; i < n; ++i)
      registry.RegisterNode(NodeId{gid, static_cast<uint16_t>(i)});
  }

  uint16_t gid() const { return gid_; }

  using Handler = std::function<void(NodeId from, const MessagePtr&)>;

  void Register(int index, Handler handler) {
    handlers_[index] = std::move(handler);
  }
  void Drop(int index) { dropped_.insert(index); }
  /// Drops one directed link (partial connectivity scenarios).
  void DropLink(int from, int to) { dropped_links_.insert({from, to}); }

  void Broadcast(int from, MessagePtr msg) {
    for (int i = 0; i < n_; ++i)
      if (i != from) Send(from, i, msg);
  }
  void Send(int from, int to, MessagePtr msg) {
    sent.push_back({from, msg});
    if (dropped_.count(from) > 0 || dropped_.count(to) > 0) return;
    if (dropped_links_.count({from, to}) > 0) return;
    queue_.push_back({from, to, std::move(msg)});
  }
  /// Drains the message queue.
  void Deliver() {
    while (!queue_.empty()) {
      auto [from, to, msg] = std::move(queue_.front());
      queue_.pop_front();
      if (dropped_.count(to) > 0) continue;
      handlers_[to](NodeId{gid_, static_cast<uint16_t>(from)}, msg);
    }
  }

  KeyRegistry registry;
  /// Every message handed to Send, with its sender, dropped or not.
  std::vector<std::pair<int, MessagePtr>> sent;

 private:
  struct Queued {
    int from;
    int to;
    MessagePtr msg;
  };
  int n_;
  uint16_t gid_;
  std::map<int, Handler> handlers_;
  std::set<int> dropped_;
  std::set<std::pair<int, int>> dropped_links_;
  std::deque<Queued> queue_;
};

struct PbftNode {
  PbftNode(GroupBus* bus, int index, int n, bool instant_validation = true) {
    NodeId self{bus->gid(), static_cast<uint16_t>(index)};
    PbftEngine::Callbacks cb;
    cb.broadcast = [bus, index](MessagePtr m) {
      bus->Broadcast(index, std::move(m));
    };
    cb.sign = [this, bus, self](const Bytes& payload) {
      ++signs;
      return bus->registry.Sign(self, payload);
    };
    cb.verify = [this, bus](NodeId node, const Bytes& payload,
                            const Signature& sig) {
      ++verifies;
      return bus->registry.Verify(node, payload, sig);
    };
    cb.validate_entry = [this, instant_validation](
                            EntryPtr entry, std::function<void(bool)> done) {
      if (instant_validation) {
        done(true);
      } else {
        pending_validations.push_back(std::move(done));
      }
      (void)entry;
    };
    cb.on_committed = [this](EntryPtr entry, Certificate cert) {
      committed.push_back({entry, cert});
    };
    engine = std::make_unique<PbftEngine>(bus->gid(), self, n, /*leader=*/0,
                                          std::move(cb));
  }

  std::unique_ptr<PbftEngine> engine;
  std::vector<std::pair<EntryPtr, Certificate>> committed;
  std::vector<std::function<void(bool)>> pending_validations;
  int signs = 0;
  int verifies = 0;
};

EntryPtr MakeEntry(uint64_t seq, int payload = 100, uint16_t gid = 0) {
  return std::make_shared<const Entry>(
      gid, seq,
      std::vector<Transaction>{
          Transaction{seq, 1, 0, Bytes(static_cast<size_t>(payload), 0x11)}});
}

class PbftFixture : public ::testing::Test {
 protected:
  void Init(int n, uint16_t gid = 0) {
    bus_ = std::make_unique<GroupBus>(n, gid);
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<PbftNode>(bus_.get(), i, n));
      PbftNode* node = nodes_.back().get();
      bus_->Register(i, [node](NodeId from, const MessagePtr& m) {
        node->engine->OnMessage(from, m);
      });
    }
  }

  std::unique_ptr<GroupBus> bus_;
  std::vector<std::unique_ptr<PbftNode>> nodes_;
};

TEST_F(PbftFixture, AllCorrectNodesCommit) {
  Init(4);
  EntryPtr entry = MakeEntry(0);
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  for (auto& node : nodes_) {
    ASSERT_EQ(node->committed.size(), 1u);
    EXPECT_EQ(node->committed[0].first->digest(), entry->digest());
  }
}

TEST_F(PbftFixture, CertificateHasQuorumAndVerifies) {
  Init(7);  // f = 2, quorum 5.
  EntryPtr entry = MakeEntry(0);
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  ASSERT_FALSE(nodes_[3]->committed.empty());
  const Certificate& cert = nodes_[3]->committed[0].second;
  EXPECT_EQ(static_cast<int>(cert.NumSignatures()), 5);
  EXPECT_TRUE(cert.Verify(bus_->registry, 5));
  EXPECT_EQ(cert.digest, entry->digest());
}

TEST_F(PbftFixture, PipelinedProposalsCommitAll) {
  Init(4);
  for (uint64_t s = 0; s < 10; ++s)
    nodes_[0]->engine->Propose(MakeEntry(s));
  bus_->Deliver();
  for (auto& node : nodes_) EXPECT_EQ(node->committed.size(), 10u);
}

TEST_F(PbftFixture, CommitsDespiteFSilentFollowers) {
  Init(4);  // f = 1.
  bus_->Drop(3);
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(nodes_[i]->committed.size(), 1u) << "node " << i;
}

TEST_F(PbftFixture, StallsWithMoreThanFFailures) {
  Init(4);
  bus_->Drop(2);
  bus_->Drop(3);
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  for (auto& node : nodes_) EXPECT_TRUE(node->committed.empty());
}

TEST_F(PbftFixture, NonLeaderCannotPrePrepare) {
  Init(4);
  // A Byzantine follower forging a pre-prepare is ignored: votes never
  // form because correct nodes reject non-leader pre-prepares.
  EntryPtr entry = MakeEntry(0);
  Signature sig = bus_->registry.Sign(NodeId{0, 2}, Bytes{1, 2, 3});
  auto forged =
      NewMessage(MessageType::kPrePrepare, PrePrepare{entry, sig});
  bus_->Broadcast(2, forged);
  bus_->Deliver();
  for (auto& node : nodes_) EXPECT_TRUE(node->committed.empty());
}

TEST_F(PbftFixture, BadSignatureVotesIgnored) {
  Init(4);
  EntryPtr entry = MakeEntry(0);
  // Garbage commit votes should not help reach quorum.
  for (int from = 1; from < 4; ++from) {
    auto vote = NewMessage(MessageType::kCommit,
                           PbftVote{0, entry->digest(), Signature{}});
    bus_->Send(from, 0, vote);
  }
  bus_->Deliver();
  EXPECT_TRUE(nodes_[0]->committed.empty());
}

TEST_F(PbftFixture, ChecksOnlyTheVotesAQuorumNeeds) {
  // All correct, n = 4, q = 3. Each node checks q - 1 votes per phase and
  // counts its own as the q-th; a follower's first prepare-phase check is
  // the pre-prepare, which is the leader's prepare vote. Votes arriving
  // after a phase has its quorum are not checked. The leader signs once
  // for pre-prepare and prepare together, then once to commit.
  Init(4);
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(nodes_[i]->committed.size(), 1u);
    EXPECT_EQ(nodes_[i]->verifies, 2 * (3 - 1));
    EXPECT_EQ(nodes_[i]->signs, 2);
  }
}

TEST_F(PbftFixture, VotesAfterCommitAreNotChecked) {
  // A committed instance keeps no votes. Every prepare and commit that
  // reaches a node again afterwards stops before its signature check, and
  // none commits the entry a second time.
  Init(4);
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    ASSERT_EQ(nodes_[i]->committed.size(), 1u);
    const int verifies = nodes_[i]->verifies;
    std::set<const SimMessage*> seen;  // A broadcast is one message.
    int votes = 0;
    for (const auto& [from, msg] : bus_->sent) {
      const auto type = static_cast<MessageType>(msg->type());
      if (from == i ||
          (type != MessageType::kPrepare && type != MessageType::kCommit) ||
          !seen.insert(msg.get()).second)
        continue;
      nodes_[i]->engine->OnMessage(NodeId{0, static_cast<uint16_t>(from)},
                                   msg);
      ++votes;
    }
    // Every other node's commit, and every other follower's prepare (the
    // leader's prepare is its pre-prepare).
    EXPECT_EQ(votes, i == 0 ? 6 : 5);
    EXPECT_EQ(nodes_[i]->verifies, verifies);
    EXPECT_EQ(nodes_[i]->committed.size(), 1u);
  }
}

TEST_F(PbftFixture, VotesBeforeThePrePrepareCountOnlyForItsDigest) {
  // Nodes 2 and 3 prepare D' and their validly signed prepares reach
  // node 1 before any pre-prepare; then node 1 gets a pre-prepare for D
  // in the same slot. Those prepares are for another digest, so node 1
  // holds only the leader's vote and its own: no prepared state, and no
  // commit vote for D.
  Init(4);
  bus_->DropLink(0, 1);
  bus_->DropLink(2, 3);  // Keep 2 and 3 short of a quorum for D'.
  bus_->DropLink(3, 2);
  EntryPtr d_prime = MakeEntry(0, 100);
  nodes_[0]->engine->Propose(d_prime);
  bus_->Deliver();

  // The same slot's pre-prepare for D, signed by the leader, reaches only
  // node 1 (an equivocating leader).
  GroupBus other(4);
  PbftNode equivocator(&other, 0, 4);
  EntryPtr d = MakeEntry(0, 200);
  ASSERT_NE(d->digest(), d_prime->digest());
  equivocator.engine->Propose(d);
  ASSERT_EQ(other.sent.size(), 3u);
  nodes_[1]->engine->OnMessage(NodeId{0, 0}, other.sent[0].second);
  bus_->Deliver();

  for (const auto& [from, msg] : bus_->sent)
    EXPECT_FALSE(from == 1 && msg->type() ==
                                  static_cast<int>(MessageType::kCommit));
  EXPECT_TRUE(nodes_[1]->committed.empty());
}

TEST_F(PbftFixture, OneSlotCommitsOneEntry) {
  // The group-1 leader pre-prepares (1,0)..(1,4), then two different
  // entries both labelled (1,5). Two certified entries for one slot would
  // give other groups two versions of e_{1,5}.
  Init(4, /*gid=*/1);
  for (uint64_t s = 0; s < 5; ++s)
    nodes_[0]->engine->Propose(MakeEntry(s, 100, 1));
  nodes_[0]->engine->Propose(MakeEntry(5, 100, 1));
  nodes_[0]->engine->Propose(MakeEntry(5, 200, 1));
  bus_->Deliver();
  for (int i = 0; i < 4; ++i) {
    SCOPED_TRACE(i);
    int fifth = 0;
    for (const auto& [entry, cert] : nodes_[i]->committed)
      fifth += entry->seq() == 5 ? 1 : 0;
    EXPECT_EQ(fifth, 1);
    EXPECT_EQ(nodes_[i]->committed.size(), 6u);
  }
}

TEST_F(PbftFixture, ValidationGateBlocksPrepare) {
  // Followers only vote after entry validation completes (per-transaction
  // signature checks in the real node).
  bus_ = std::make_unique<GroupBus>(4);
  for (int i = 0; i < 4; ++i) {
    nodes_.push_back(std::make_unique<PbftNode>(
        bus_.get(), i, 4, /*instant_validation=*/i == 0));
    PbftNode* node = nodes_.back().get();
    bus_->Register(i, [node](NodeId from, const MessagePtr& m) {
      node->engine->OnMessage(from, m);
    });
  }
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  EXPECT_TRUE(nodes_[1]->committed.empty());
  // Release validations.
  for (int i = 1; i < 4; ++i) {
    for (auto& done : nodes_[i]->pending_validations) done(true);
    nodes_[i]->pending_validations.clear();
  }
  bus_->Deliver();
  for (auto& node : nodes_) EXPECT_EQ(node->committed.size(), 1u);
}

/// Group of four in which only `slow` waits for its validations.
void InitWithSlowValidator(std::unique_ptr<GroupBus>* bus,
                           std::vector<std::unique_ptr<PbftNode>>* nodes,
                           int slow) {
  *bus = std::make_unique<GroupBus>(4);
  for (int i = 0; i < 4; ++i) {
    nodes->push_back(std::make_unique<PbftNode>(
        bus->get(), i, 4, /*instant_validation=*/i != slow));
    PbftNode* node = nodes->back().get();
    (*bus)->Register(i, [node](NodeId from, const MessagePtr& m) {
      node->engine->OnMessage(from, m);
    });
  }
}

TEST_F(PbftFixture, PendingOwnPrepareCountsTowardTheQuorum) {
  // Follower 1 is still validating when both peer prepares reach it. With
  // the leader's pre-prepare and its own prepare to come, one of them
  // completes the quorum, so it checks one signature, not two.
  InitWithSlowValidator(&bus_, &nodes_, /*slow=*/1);
  for (int from : {0, 2, 3}) bus_->DropLink(from, 1);
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  PbftNode& follower = *nodes_[1];
  auto replay = [&](MessageType type, std::vector<int> senders) {
    for (const auto& [from, msg] : bus_->sent)
      if (static_cast<MessageType>(msg->type()) == type &&
          std::erase(senders, from) > 0)
        follower.engine->OnMessage(NodeId{0, static_cast<uint16_t>(from)},
                                   msg);
  };
  replay(MessageType::kPrePrepare, {0});
  replay(MessageType::kPrepare, {2, 3});
  EXPECT_EQ(follower.verifies, 1 + 1);  // The pre-prepare, one prepare.
  // Its commit is pending too until it prepares: of three peer commits it
  // checks two.
  replay(MessageType::kCommit, {0, 2, 3});
  EXPECT_EQ(follower.verifies, 1 + 1 + 2);
  ASSERT_EQ(follower.pending_validations.size(), 1u);
  follower.pending_validations[0](true);
  ASSERT_EQ(follower.committed.size(), 1u);
  EXPECT_EQ(follower.verifies, 1 + 1 + 2);
}

TEST_F(PbftFixture, SlowValidatorStillCompletesAQuorumOfThree) {
  // Follower 3 is silent, so every vote of the other three is needed;
  // follower 1 validates last.
  InitWithSlowValidator(&bus_, &nodes_, /*slow=*/1);
  bus_->Drop(3);
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  for (auto& node : nodes_) EXPECT_TRUE(node->committed.empty());
  ASSERT_EQ(nodes_[1]->pending_validations.size(), 1u);
  nodes_[1]->pending_validations[0](true);
  bus_->Deliver();
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(nodes_[i]->committed.size(), 1u) << "node " << i;
}

// -------------------------------------------------------- DigestCertifier

struct CertifierNode {
  CertifierNode(GroupBus* bus, int index, int n) {
    NodeId self{0, static_cast<uint16_t>(index)};
    DigestCertifier::Callbacks cb;
    cb.broadcast = [bus, index](MessagePtr m) {
      bus->Broadcast(index, std::move(m));
    };
    cb.send_to = [bus, index](NodeId dst, MessagePtr m) {
      bus->Send(index, dst.index, std::move(m));
    };
    cb.sign = [bus, self](const Bytes& payload) {
      return bus->registry.Sign(self, payload);
    };
    cb.verify = [this, bus](NodeId node, const Bytes& payload,
                            const Signature& sig) {
      ++verifies;
      return bus->registry.Verify(node, payload, sig);
    };
    cb.can_sign = [this](const DecisionId&) { return can_sign; };
    certifier = std::make_unique<DigestCertifier>(0, self, n, /*leader=*/0,
                                                  std::move(cb));
  }

  /// Starts certifying `decision`; its certificate lands in `certified`.
  void Start(const DecisionId& decision) {
    certifier->Start(decision, [this, decision](Certificate cert) {
      certified.push_back({decision, std::move(cert)});
    });
  }

  std::unique_ptr<DigestCertifier> certifier;
  bool can_sign = true;
  std::vector<std::pair<DecisionId, Certificate>> certified;
  int verifies = 0;
};

class CertifierFixture : public ::testing::Test {
 protected:
  void Init(int n) {
    bus_ = std::make_unique<GroupBus>(n);
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<CertifierNode>(bus_.get(), i, n));
      CertifierNode* node = nodes_.back().get();
      bus_->Register(i, [node](NodeId from, const MessagePtr& m) {
        node->certifier->OnMessage(from, m);
      });
    }
  }

  DecisionId Decision() {
    return DecisionId{DigestCertifier::kAccept, 1, 7, 42};
  }

  std::unique_ptr<GroupBus> bus_;
  std::vector<std::unique_ptr<CertifierNode>> nodes_;
};

TEST_F(CertifierFixture, CertifiesWithQuorum) {
  Init(4);
  nodes_[0]->Start(Decision());
  bus_->Deliver();
  ASSERT_EQ(nodes_[0]->certified.size(), 1u);
  const Certificate& cert = nodes_[0]->certified[0].second;
  EXPECT_EQ(static_cast<int>(cert.NumSignatures()), 3);
  Digest digest = DigestCertifier::DecisionDigest(Decision());
  EXPECT_EQ(cert.digest, digest);
  EXPECT_TRUE(cert.Verify(bus_->registry, 3));
}

TEST_F(CertifierFixture, DeferredVotesFlowAfterRecheck) {
  Init(4);
  // Followers refuse (entry payload missing, Lemma V.1 gate).
  for (int i = 1; i < 4; ++i) nodes_[i]->can_sign = false;
  nodes_[0]->Start(Decision());
  bus_->Deliver();
  EXPECT_TRUE(nodes_[0]->certified.empty());
  // Payload arrives on followers.
  for (int i = 1; i < 4; ++i) {
    nodes_[i]->can_sign = true;
    nodes_[i]->certifier->RecheckPending();
  }
  bus_->Deliver();
  EXPECT_EQ(nodes_[0]->certified.size(), 1u);
}

TEST_F(CertifierFixture, DistinctDecisionsDistinctDigests) {
  DecisionId a{DigestCertifier::kAccept, 1, 7, 42};
  DecisionId b{DigestCertifier::kAccept, 1, 7, 43};
  DecisionId c{DigestCertifier::kCommitDecision, 1, 7, 42};
  EXPECT_NE(DigestCertifier::DecisionDigest(a),
            DigestCertifier::DecisionDigest(b));
  EXPECT_NE(DigestCertifier::DecisionDigest(a),
            DigestCertifier::DecisionDigest(c));
}

TEST_F(CertifierFixture, ToleratesFSilentNodes) {
  Init(7);  // f=2, quorum 5.
  bus_->Drop(5);
  bus_->Drop(6);
  nodes_[0]->Start(Decision());
  bus_->Deliver();
  EXPECT_EQ(nodes_[0]->certified.size(), 1u);
}

TEST_F(CertifierFixture, FollowerInitiatedRequestGathersNoVotes) {
  // A Byzantine follower starting a certification (e.g. a commit decision
  // for any (gid, seq)) must not collect a certificate: followers answer
  // only their leader.
  Init(4);
  nodes_[2]->Start(Decision());
  bus_->Deliver();
  EXPECT_TRUE(nodes_[2]->certified.empty());
  for (const auto& [from, msg] : bus_->sent)
    EXPECT_NE(msg->type(), static_cast<int>(MessageType::kCertifyVote))
        << "node " << from << " voted";
}

TEST_F(CertifierFixture, DuplicateStartIdempotent) {
  Init(4);
  nodes_[0]->Start(Decision());
  nodes_[0]->Start(Decision());
  bus_->Deliver();
  EXPECT_EQ(nodes_[0]->certified.size(), 1u);
}

TEST_F(CertifierFixture, VoteAfterCertificationIsNotChecked) {
  // The leader checks two follower votes and certifies with its own; the
  // third vote, and every vote delivered again, finds nothing to count.
  Init(4);
  nodes_[0]->Start(Decision());
  bus_->Deliver();
  ASSERT_EQ(nodes_[0]->certified.size(), 1u);
  EXPECT_EQ(nodes_[0]->verifies, 2);
  for (const auto& [from, msg] : bus_->sent)
    if (msg->type() == static_cast<int>(MessageType::kCertifyVote))
      nodes_[0]->certifier->OnMessage(
          NodeId{0, static_cast<uint16_t>(from)}, msg);
  EXPECT_EQ(nodes_[0]->verifies, 2);
  EXPECT_EQ(nodes_[0]->certified.size(), 1u);
}

TEST_F(CertifierFixture, FollowerAskedTwiceVotesTwice) {
  // A follower keeps nothing once it has voted, so the leader's repeated
  // request gets a fresh vote rather than silence.
  Init(4);
  nodes_[0]->Start(Decision());
  bus_->Deliver();
  MessagePtr request;
  for (const auto& [from, msg] : bus_->sent)
    if (msg->type() == static_cast<int>(MessageType::kCertifyRequest))
      request = msg;
  ASSERT_NE(request, nullptr);
  nodes_[1]->certifier->OnMessage(NodeId{0, 0}, request);
  int votes = 0;
  for (const auto& [from, msg] : bus_->sent)
    votes += from == 1 &&
             msg->type() == static_cast<int>(MessageType::kCertifyVote);
  EXPECT_EQ(votes, 2);
}

TEST(CertifierTest, RecheckAsksOnlyDecisionsStillWaiting) {
  // A follower has voted on K decisions, and its vote on two more waits
  // for their payloads. A payload arrival rechecks the two, not all K+2.
  constexpr uint64_t kVoted = 50;
  GroupBus bus(4);
  std::set<uint64_t> held;  // Sequences whose payload the follower holds.
  int asked = 0;
  DigestCertifier::Callbacks cb;
  cb.broadcast = [](MessagePtr) {};
  cb.send_to = [](NodeId, MessagePtr) {};
  cb.sign = [&bus](const Bytes& payload) {
    return bus.registry.Sign(NodeId{0, 1}, payload);
  };
  cb.verify = [&bus](NodeId node, const Bytes& payload,
                     const Signature& sig) {
    return bus.registry.Verify(node, payload, sig);
  };
  cb.can_sign = [&held, &asked](const DecisionId& decision) {
    ++asked;
    return held.contains(decision.target_seq);
  };
  DigestCertifier follower(0, NodeId{0, 1}, 4, /*leader=*/0, std::move(cb));
  // The leader's request for the accept of (1, seq).
  auto request = [&bus](uint64_t seq) {
    DecisionId decision{DigestCertifier::kAccept, 1, seq, 0};
    Digest digest = DigestCertifier::DecisionDigest(decision);
    Signature sig = bus.registry.Sign(NodeId{0, 0},
                                      Bytes(digest.begin(), digest.end()));
    return NewMessage(MessageType::kCertifyRequest,
                      SignedDecision{decision, sig});
  };

  for (uint64_t seq = 0; seq < kVoted; ++seq) {
    held.insert(seq);
    follower.OnMessage(NodeId{0, 0}, request(seq));
  }
  follower.OnMessage(NodeId{0, 0}, request(kVoted));
  follower.OnMessage(NodeId{0, 0}, request(kVoted + 1));
  EXPECT_EQ(asked, static_cast<int>(kVoted) + 2);

  asked = 0;
  held.insert(kVoted);
  follower.RecheckPending();
  EXPECT_EQ(asked, 2);  // Both waiting decisions; one votes.

  asked = 0;
  follower.RecheckPending();
  EXPECT_EQ(asked, 1);  // Only (1, K+1) still waits.
}

}  // namespace
}  // namespace massbft
