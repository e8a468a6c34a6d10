#include "consensus/raft/raft.h"

#include <utility>

#include "common/logging.h"
#include "consensus/pbft/certifier.h"

namespace massbft {

RaftCoordinator::RaftCoordinator(int num_groups, int my_group,
                                 Callbacks callbacks)
    : num_groups_(num_groups), my_group_(my_group), cb_(std::move(callbacks)) {
  if (cb_.telemetry != nullptr) {
    commit_hist_ = cb_.telemetry->registry().GetHistogram(
        "raft/global_commit_ms");
    commit_counter_ = cb_.telemetry->registry().GetCounter("raft/commits");
  }
}

void RaftCoordinator::Propose(uint16_t gid, uint64_t seq,
                              const Certificate& cert) {
  Instance& inst = instances_[gid];
  InstanceEntry& e = inst.log[seq];
  e.proposed = true;
  if (cb_.now && e.proposed_at < 0) e.proposed_at = cb_.now();
  e.accept_groups.insert(static_cast<uint16_t>(my_group_));

  auto msg = NewMessage(MessageType::kRaftPropose, RaftPropose{gid, seq, cert});
  for (int g = 0; g < num_groups_; ++g) {
    if (g == my_group_) continue;
    cb_.send_to_group(g, msg);
  }
  MaybeStartCommit(gid, seq);  // A single group (n_g == 1) commits now.
}

void RaftCoordinator::OnProposeControl(const RaftPropose& msg) {
  if (static_cast<int>(msg.gid) == my_group_) return;  // Own instance.
  Instance& inst = instances_[msg.gid];
  InstanceEntry& e = inst.log[msg.seq];
  if (e.proposed) {
    // Duplicate — typically a recovered proposer filling a hole in its
    // instance. Resend our accept receipt so it can reach quorum.
    if (e.cached_accept != nullptr)
      cb_.send_to_group(msg.gid, e.cached_accept);
    return;
  }
  if (!cb_.verify_group_cert(msg.cert, msg.cert.digest)) {
    MASSBFT_LOG(kWarn) << "raft: propose with invalid certificate from group "
                       << msg.gid;
    return;
  }
  e.proposed = true;
  MaybeStartAccept(msg.gid, msg.seq);
}

void RaftCoordinator::NotifyEntryAvailable(uint16_t gid, uint64_t seq) {
  if (static_cast<int>(gid) == my_group_) return;
  MaybeStartAccept(gid, seq);
}

void RaftCoordinator::MaybeStartAccept(uint16_t gid, uint64_t seq) {
  Instance& inst = instances_[gid];
  auto it = inst.log.find(seq);
  if (it == inst.log.end()) return;
  InstanceEntry& e = it->second;
  // Accept needs both the propose control (for the certified digest) and
  // the actual entry payload on this node.
  if (!e.proposed || e.accept_started) return;
  if (!cb_.has_entry(gid, seq)) return;
  e.accept_started = true;

  // Overlapped VTS assignment (Fig 7b): stamp our clock now, certify the
  // (accept, ts) decision locally, then ship the receipt.
  uint64_t ts = cb_.assign_ts(gid, seq);
  DecisionId decision{DigestCertifier::kAccept, gid, seq, ts};
  cb_.certify(decision, [this, gid, seq, ts](Certificate cert) {
    Instance& inst = instances_[gid];
    InstanceEntry& e = inst.log[seq];
    if (e.cached_accept != nullptr) return;
    // Track our own accept so a later takeover of this instance can count
    // quorums without replaying history.
    e.accept_groups.insert(static_cast<uint16_t>(my_group_));
    auto accept = NewMessage(MessageType::kRaftAccept,
                             RaftAccept{gid, seq, ts, std::move(cert)});
    e.cached_accept = accept;
    // To the proposer, and broadcast to all other groups so slow receivers
    // learn replication progress without waiting for payloads (paper
    // Section V-C, "Slow Receiver Groups").
    for (int g = 0; g < num_groups_; ++g)
      if (g != my_group_) cb_.send_to_group(g, accept);
    // Record our own observation (feeds the local VTS table).
    cb_.on_accept_observed(gid, seq, static_cast<uint16_t>(my_group_), ts);
  });
}

void RaftCoordinator::OnAccept(const RaftAccept& msg) {
  DecisionId decision{DigestCertifier::kAccept, msg.gid, msg.seq, msg.ts};
  Digest digest = DigestCertifier::DecisionDigest(decision);
  if (!cb_.verify_group_cert(msg.cert, digest)) {
    MASSBFT_LOG(kWarn) << "raft: accept with invalid certificate";
    return;
  }
  const uint16_t from_group = msg.cert.gid;
  cb_.on_accept_observed(msg.gid, msg.seq, from_group, msg.ts);

  // Record the accept for the instance regardless of role: takeover
  // leaders need the quorum history (Section V-C, "Crashed Groups").
  Instance& inst = instances_[msg.gid];
  InstanceEntry& e = inst.log[msg.seq];
  e.accept_groups.insert(from_group);

  if (static_cast<int>(msg.gid) == my_group_ || HasTakenOver(msg.gid))
    MaybeStartCommit(msg.gid, msg.seq);
}

void RaftCoordinator::MaybeStartCommit(uint16_t gid, uint64_t seq) {
  Instance& inst = instances_[gid];
  auto it = inst.log.find(seq);
  if (it == inst.log.end()) return;
  InstanceEntry& e = it->second;
  if (static_cast<int>(e.accept_groups.size()) < GroupQuorum() ||
      e.commit_started || e.committed)
    return;
  e.commit_started = true;

  DecisionId commit_decision{DigestCertifier::kCommitDecision, gid, seq, 0};
  cb_.certify(commit_decision, [this, gid, seq](Certificate commit_cert) {
    auto commit = NewMessage(MessageType::kRaftCommit,
                             RaftCommit{gid, seq, std::move(commit_cert)});
    for (int g = 0; g < num_groups_; ++g)
      if (g != my_group_) cb_.send_to_group(g, commit);
    MarkCommitted(gid, seq);
  });
}

void RaftCoordinator::OnCommit(const RaftCommit& msg) {
  // The decision binds (gid, seq) but not the committing group: honest
  // commits come from the proposer group (or its takeover group), yet any
  // group's certificate over the decision counts.
  DecisionId decision{DigestCertifier::kCommitDecision, msg.gid, msg.seq, 0};
  if (!cb_.verify_group_cert(msg.cert,
                             DigestCertifier::DecisionDigest(decision))) {
    MASSBFT_LOG(kWarn) << "raft: commit with invalid certificate";
    return;
  }
  MarkCommitted(msg.gid, msg.seq);
}

void RaftCoordinator::MarkCommitted(uint16_t gid, uint64_t seq) {
  Instance& inst = instances_[gid];
  InstanceEntry& e = inst.log[seq];
  if (e.committed) return;
  e.committed = true;
  if (commit_counter_ != nullptr) {
    commit_counter_->Add();
    // Proposer side only: followers never set proposed_at.
    if (cb_.now && e.proposed_at >= 0) {
      SimTime now = cb_.now();
      commit_hist_->Record(SimToSeconds(now - e.proposed_at) * 1e3);
      obs::TraceRecorder& trace = cb_.telemetry->trace();
      if (trace.enabled()) {
        trace.RecordSpan(cb_.trace_track, "raft", "global_commit",
                         e.proposed_at, now,
                         obs::TraceArgs{{{"gid", static_cast<double>(gid)},
                                         {"seq", static_cast<double>(seq)}}});
      }
    }
  }
  MaybeDeliverCommits(gid);
}

void RaftCoordinator::MaybeDeliverCommits(uint16_t gid) {
  Instance& inst = instances_[gid];
  // Deliver contiguously: raft logs commit in order per instance.
  while (true) {
    uint64_t next = static_cast<uint64_t>(inst.committed_through + 1);
    auto it = inst.log.find(next);
    if (it == inst.log.end() || !it->second.committed) break;
    // The cursor moves first: the callback may commit the next entry and
    // deliver it through a nested call.
    inst.committed_through = static_cast<int64_t>(next);
    cb_.on_committed(gid, next);
  }
}

void RaftCoordinator::TakeOverInstance(uint16_t gid) {
  taken_over_.insert(gid);
  // Complete whatever the crashed leader left in flight.
  Instance& inst = instances_[gid];
  std::vector<uint64_t> pending;
  for (const auto& [seq, e] : inst.log)
    if (!e.committed && !e.commit_started) pending.push_back(seq);
  for (uint64_t seq : pending) MaybeStartCommit(gid, seq);
}

int64_t RaftCoordinator::CommittedThrough(uint16_t gid) const {
  auto it = instances_.find(gid);
  if (it == instances_.end()) return -1;
  return it->second.committed_through;
}

}  // namespace massbft
