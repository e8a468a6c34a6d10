#include "core/group_node.h"

#include <algorithm>
#include <limits>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace massbft {

namespace {

/// Deterministic tampering applied by colluding Byzantine nodes (Fig 15):
/// flip one payload byte, which changes the entry digest and thus every
/// chunk's Merkle root.
Bytes TamperedBytes(const Bytes& encoded) {
  Bytes tampered = encoded;
  if (!tampered.empty()) tampered[tampered.size() / 2] ^= 0xFF;
  return tampered;
}

/// What a node charges for signatures: a real scheme pays its cost in wall
/// time, so only the simulated one is charged to the CPU model.
CpuModel ChargedCpu(CpuModel cpu, CryptoScheme scheme) {
  if (scheme != CryptoScheme::kSimulatedHmac) cpu = CpuModel{0, 0};
  return cpu;
}

}  // namespace

GroupNode::GroupNode(Simulator* sim, Network* network, NodeId id,
                     const ProtocolConfig& config, ClusterContext* ctx,
                     FaultConfig fault)
    : Actor(sim, network, id,
            ChargedCpu(config.cpu, ctx->registry->scheme())),
      config_(config),
      shape_(ShapeOf(config.kind)),
      ctx_(ctx),
      fault_(fault),
      tel_(&ctx->telemetry),
      trace_track_(obs::Telemetry::NodeTrack(id.Packed())),
      membership_(ctx->topology->num_groups(), id.group,
                  config.group_crash_timeout, ctx->telemetry.registry()) {
  ctx_->registry->RegisterNode(id);

  // ---- Observability handles (counters are cheap; the registry is
  // shared cluster-wide, so counts aggregate across nodes).
  obs::MetricsRegistry& metrics_registry = tel_->registry();
  entries_counter_ = metrics_registry.GetCounter("node/entries_batched");
  txns_exec_counter_ = metrics_registry.GetCounter("exec/txns_executed");
  conflict_abort_counter_ =
      metrics_registry.GetCounter("exec/conflict_aborts");
  logic_abort_counter_ = metrics_registry.GetCounter("exec/logic_aborts");
  coded_bytes_counter_ =
      metrics_registry.GetCounter("replication/coded_bytes_sent");

  // ---- Local PBFT engine.
  PbftEngine::Callbacks pbft_cb;
  pbft_cb.now = [this] { return Now(); };
  pbft_cb.telemetry = tel_;
  pbft_cb.trace_track = trace_track_;
  pbft_cb.broadcast = [this](MessagePtr m) { BroadcastLan(m); };
  pbft_cb.sign = [this](const Bytes& payload) { return SignPayload(payload); };
  pbft_cb.verify = [this](NodeId node, const Bytes& payload,
                          const Signature& sig) {
    return VerifyNodeSig(node, payload, sig);
  };
  pbft_cb.validate_entry = [this](EntryPtr entry,
                                  std::function<void(bool)> done) {
    ValidateEntryAsync(std::move(entry), std::move(done));
  };
  pbft_cb.on_committed = [this](EntryPtr entry, Certificate cert) {
    OnLocalCommitted(std::move(entry), std::move(cert));
  };
  pbft_ = std::make_unique<PbftEngine>(id.group, id, group_size(id.group),
                                       LeaderOf(id.group).index,
                                       std::move(pbft_cb));

  // ---- Skip-prepare decision certifier.
  DigestCertifier::Callbacks cert_cb;
  cert_cb.broadcast = [this](MessagePtr m) { BroadcastLan(m); };
  cert_cb.send_to = [this](NodeId dst, MessagePtr m) { SendLan(dst, m); };
  cert_cb.sign = [this](const Bytes& payload) { return SignPayload(payload); };
  cert_cb.verify = [this](NodeId node, const Bytes& payload,
                          const Signature& sig) {
    return VerifyNodeSig(node, payload, sig);
  };
  cert_cb.can_sign = [this](const DecisionId& decision) {
    if (decision.kind == DigestCertifier::kCommitDecision) return true;
    // Accept: a follower signs only once it holds the entry payload —
    // this is what makes Lemma V.1's atomicity argument hold. (Steward's
    // funneled entries are keyed by global sequence; availability is then
    // enforced at the leader that initiates certification.)
    if (single_master()) return true;
    return HasPayload(Key{decision.target_gid, decision.target_seq});
  };
  certifier_ = std::make_unique<DigestCertifier>(
      id.group, id, group_size(id.group), LeaderOf(id.group).index,
      std::move(cert_cb));

  if (shape_.global != GlobalConsensus::kNone && IsGroupLeader()) SetupRaft();

  // ---- Ordering. Leader-only telemetry: the engine runs on every node,
  // but cluster-wide counters should count each decision once per group.
  OrderingEngine::Callbacks order_cb;
  order_cb.can_execute = [this](uint16_t gid, uint64_t seq) {
    return CanExecute(gid, seq);
  };
  order_cb.execute = [this](uint16_t gid, uint64_t seq) {
    ExecuteEntry(gid, seq);
  };
  if (IsGroupLeader()) order_cb.telemetry = tel_;
  order_cb.stamps_below_inferred =
      metrics_registry.GetCounter("vts/stamps_below_inferred");
  order_cb.trace_track = trace_track_;
  order_cb.now = [this] { return Now(); };
  ordering_ = MakeOrderingEngine(shape_.ordering, num_groups(),
                                 std::move(order_cb));

  // ---- Execution.
  ctx_->workload->InstallInitialState(&store_);
  aria_ = std::make_unique<AriaExecutor>(&store_, ctx_->workload->MakeFactory());
}

GroupNode::~GroupNode() = default;

void GroupNode::BroadcastLan(const MessagePtr& msg) {
  for (int i = 0; i < group_size(my_group()); ++i) {
    if (i == id().index) continue;
    SendLan(NodeId{static_cast<uint16_t>(my_group()),
                   static_cast<uint16_t>(i)},
            msg);
  }
}

Signature GroupNode::SignPayload(const Bytes& payload) {
  cpu().ChargeSign();
  return ctx_->registry->Sign(id(), payload);
}

bool GroupNode::VerifyNodeSig(NodeId node, const Bytes& payload,
                              const Signature& sig) {
  cpu().ChargeVerify();
  return ctx_->registry->Verify(node, payload, sig);
}

bool GroupNode::VerifyGroupCert(const Certificate& cert,
                                const Digest& digest) {
  if (cert.digest != digest) return false;
  if (cert.gid >= num_groups()) return false;
  const ProvenCert key{cert.gid, digest};
  if (proven_certs_.contains(key)) return true;
  int quorum = 2 * group_f(cert.gid) + 1;
  cpu().ChargeVerify(static_cast<int>(cert.NumSignatures()));
  if (!cert.Verify(*ctx_->registry, quorum)) return false;
  proven_certs_.insert(key);
  proven_order_.push_back(key);
  if (proven_order_.size() > kProvenCertCapacity) {
    proven_certs_.erase(proven_order_.front());
    proven_order_.pop_front();
  }
  return true;
}

bool GroupNode::VerifySlot(const Key& key, const Entry& entry,
                           const Certificate& cert) {
  return entry.gid() == key.first && entry.seq() == key.second &&
         cert.gid == key.first && VerifyGroupCert(cert, entry.digest());
}

void GroupNode::Start() {
  started_ = true;
  if (IsGroupLeader()) {
    Every(config_.batch_timeout,
          [this] { TryFormBatch(/*timer_fired=*/true); });
    if (shape_.ordering == OrderingMode::kEpoch) {
      epoch_first_seq_ = next_local_seq_;
      Every(config_.epoch_length, [this] { OnEpochTimer(); });
    }
    if (config_.kind == ProtocolKind::kMassBft) {
      membership_.Start(Now());
      Every(GlobalMembership::kHeartbeatInterval,
            [this] { OnHeartbeatTimer(); });
    }
  }
}

// --------------------------------------------------------------- Batching

void GroupNode::SubmitClientTxn(Transaction txn) {
  MASSBFT_CHECK(IsGroupLeader());
  if (crashed()) return;
  // Verify the client's signature on ingest (per-transaction cost; the
  // paper's dominant local-consensus CPU term).
  cpu().ChargeVerify();
  pending_txns_.push_back(std::move(txn));
  TryFormBatch(/*timer_fired=*/false);
}

void GroupNode::TryFormBatch(bool timer_fired) {
  if (!started_ || !IsGroupLeader() || crashed()) return;
  while (outstanding_ < config_.pipeline_depth) {
    bool full = static_cast<int>(pending_txns_.size()) >= config_.max_batch_size;
    // VTS liveness tick: ordering can only advance while group clocks
    // advance, and clocks advance only with proposals (Theorem V.6's
    // "as long as at least one group proposes entries"). When committed
    // entries linger unexecuted — e.g. blocked on a crashed group's
    // timestamps — idle leaders propose empty entries to keep clocks (and
    // the Algorithm 2 inference bounds) moving.
    bool liveness_tick = timer_fired && pending_txns_.empty() &&
                         shape_.ordering == OrderingMode::kAsyncVts &&
                         HasStaleUnexecuted();
    // Rounds and epochs need every group's entry to advance, so idle
    // leaders propose empty ones.
    bool propose_empty = shape_.ordering == OrderingMode::kRoundSync ||
                         shape_.ordering == OrderingMode::kEpoch;
    bool timeout_batch =
        timer_fired &&
        (!pending_txns_.empty() || propose_empty || liveness_tick);
    if (!full && !timeout_batch) break;
    timer_fired = false;  // At most one timeout-triggered batch per tick.

    int take = std::min<int>(static_cast<int>(pending_txns_.size()),
                             config_.max_batch_size);
    std::vector<Transaction> batch;
    batch.reserve(take);
    SimTime now = Now();
    obs::Histogram* batching =
        tel_->phase_histogram(obs::Phase::kBatching);
    SimTime earliest_submit = now;
    for (int i = 0; i < take; ++i) {
      SimTime submit = pending_txns_.front().submit_time;
      earliest_submit = std::min(earliest_submit, submit);
      batching->Record(SimToSeconds(now - submit) * 1e3);
      batch.push_back(std::move(pending_txns_.front()));
      pending_txns_.pop_front();
    }
    entries_counter_->Add();

    uint64_t seq = next_local_seq_++;
    if (tel_->tracing()) {
      tel_->trace().RecordSpan(
          trace_track_, "entry", "batching", earliest_submit, now,
          obs::TraceArgs{{{"gid", static_cast<double>(my_group())},
                          {"seq", static_cast<double>(seq)},
                          {"txns", static_cast<double>(take)}}});
    }
    auto entry = std::make_shared<const Entry>(
        static_cast<uint16_t>(my_group()), seq, batch);
    cpu().ChargeHash(entry->ByteSize());  // Entry digest.
    EntryRecord& rec = GetRecord(Key{entry->gid(), seq});
    rec.created_at = Now();
    ++outstanding_;
    pbft_->Propose(entry);
  }
}

bool GroupNode::HasStaleUnexecuted() const {
  SimTime threshold = Now() - 2 * config_.batch_timeout;
  for (const Key& key : unexecuted_committed_) {
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.global_committed_at >= 0 &&
        it->second.global_committed_at < threshold)
      return true;
  }
  return false;
}

void GroupNode::ValidateEntryAsync(EntryPtr entry,
                                   std::function<void(bool)> done) {
  // Per-transaction signature verification plus hashing the batch.
  SimTime cost =
      cpu().model().verify_cost * std::max(1, entry->num_txns()) +
      static_cast<SimTime>(kHashNsPerByte *
                           static_cast<double>(entry->ByteSize()));
  At(cpu().Charge(cost), [done = std::move(done)] { done(true); });
}

// ------------------------------------------------------------ Local PBFT

void GroupNode::OnLocalCommitted(EntryPtr entry, Certificate cert) {
  Key key{entry->gid(), entry->seq()};
  EntryRecord& rec = GetRecord(key);
  // Already stored: Steward's master sends a group's own entry back to
  // that group, and the copy can beat a follower's local commit.
  if (rec.payload_available) return;
  rec.entry = entry;
  rec.cert = cert;
  rec.payload_available = true;
  rec.local_committed_at = Now();
  if (rec.created_at >= 0)
    tel_->RecordPhaseSpan(obs::Phase::kLocalConsensus, trace_track_,
                          rec.created_at, Now(), entry->gid(), entry->seq());

  // Every correct node participates in sending (bijective/encoded modes
  // use followers; one-way modes no-op on followers).
  if (single_master() && my_group() != 0) {
    if (IsGroupLeader()) ForwardToGlobalMaster(entry, cert);
  } else {
    ReplicateToGroups(entry, cert);
    if (raft_ != nullptr) {
      if (single_master()) {
        // Master funnels its own entries through the global instance too.
        uint64_t gseq = next_global_seq_++;
        global_seq_digest_[gseq] = entry->digest();
        digest_index_[entry->digest()] = key;
        raft_->Propose(0, gseq, cert);
      } else {
        raft_->Propose(entry->gid(), entry->seq(), cert);
      }
    }
  }

  MarkPayloadAvailable(key);
}

// ----------------------------------------------------- Replication: send

void GroupNode::ReplicateToGroups(const EntryPtr& entry,
                                  const Certificate& cert) {
  switch (shape_.replication) {
    case ReplicationMode::kLeaderOneWay:
      if (IsGroupLeader()) SendLeaderOneWay(entry, cert);
      break;
    case ReplicationMode::kBijective:
      SendBijective(entry, cert);
      break;
    case ReplicationMode::kEncodedBijective:
      SendEncoded(entry, cert);
      break;
  }
}

void GroupNode::SendLeaderOneWay(const EntryPtr& entry,
                                 const Certificate& cert) {
  auto msg =
      NewMessage(MessageType::kEntryTransfer, CertifiedEntry{entry, cert});
  for (int g = 0; g < num_groups(); ++g) {
    if (g == my_group()) continue;
    // GeoBFT's optimization, applied to all one-way protocols (paper
    // Section VI): send to f+1 nodes of each remote group so at least one
    // correct node receives and LAN-forwards the entry.
    int copies = group_f(g) + 1;
    for (int j = 0; j < copies && j < group_size(g); ++j)
      SendWan(NodeId{static_cast<uint16_t>(g), static_cast<uint16_t>(j)},
              msg);
  }
}

void GroupNode::SendBijective(const EntryPtr& entry, const Certificate& cert) {
  auto msg =
      NewMessage(MessageType::kEntryTransfer, CertifiedEntry{entry, cert});
  int n1 = group_size(my_group());
  int f1 = group_f(my_group());
  for (int g = 0; g < num_groups(); ++g) {
    if (g == my_group()) continue;
    // f1 + f2 + 1 sender nodes each ship one full copy to a distinct
    // receiver (paper Section IV-A / Fig 5a).
    int senders = std::min(f1 + group_f(g) + 1, n1);
    if (id().index >= senders) continue;
    SendWan(NodeId{static_cast<uint16_t>(g),
                   static_cast<uint16_t>(id().index % group_size(g))},
            msg);
  }
}

std::shared_ptr<const EncodedEntry> GroupNode::GetEncoded(
    const EntryPtr& entry, const TransferPlan& plan, bool tampered) {
  auto& cache = tampered ? ctx_->tampered_cache : ctx_->encode_cache;
  auto key = std::make_pair(entry->digest(), plan.n_total());
  auto it = cache.find(key);
  if (it != cache.end()) return it->second;
  auto encoded =
      tampered ? EncodeBytesForPlan(TamperedBytes(entry->Encoded()), plan)
               : EncodeEntryForPlan(*entry, plan);
  MASSBFT_CHECK(encoded.ok());
  auto ptr = std::make_shared<const EncodedEntry>(std::move(*encoded));
  cache[key] = ptr;
  return ptr;
}

void GroupNode::SendEncoded(const EntryPtr& entry, const Certificate& cert) {
  bool tampered = fault_.byzantine && Now() >= fault_.byzantine_from;
  int n1 = group_size(my_group());
  for (int g = 0; g < num_groups(); ++g) {
    if (g == my_group()) continue;
    auto plan = TransferPlan::Create(n1, group_size(g));
    if (!plan.ok()) {
      MASSBFT_LOG(kError) << "no transfer plan for groups " << my_group()
                          << "->" << g << ": " << plan.status().ToString();
      continue;
    }
    // Charge the RS encode + Merkle build (every sender node performs it;
    // the byte result is shared via the deterministic-encoding cache).
    size_t coded_bytes = static_cast<size_t>(
        static_cast<double>(entry->ByteSize()) * plan->EntryCopiesSent());
    SimTime t0 = Now();
    cpu().ChargeEc(coded_bytes);
    SimTime done_at = cpu().ChargeHash(coded_bytes);
    coded_bytes_counter_->Add(coded_bytes);
    // One representative receiver group per entry keeps the Fig 11 encode
    // phase per-entry rather than per (entry, group) pair.
    if (IsGroupLeader() && g == (my_group() + 1) % num_groups())
      tel_->RecordPhaseSpan(obs::Phase::kEncode, trace_track_, t0, done_at,
                            entry->gid(), entry->seq());

    auto encoded = GetEncoded(entry, *plan, tampered);
    // Batch this node's chunks by receiver.
    std::map<int, std::vector<Chunk>> by_receiver;
    for (const TransferTuple& tuple : plan->TuplesForSender(id().index))
      by_receiver[tuple.receiver].push_back(encoded->chunks[tuple.chunk]);
    uint16_t gid = entry->gid();
    uint64_t seq = entry->seq();
    for (auto& [receiver, chunks] : by_receiver) {
      auto msg = NewMessage(MessageType::kChunkBatch,
                            ChunkBatch{gid, seq, encoded->merkle_root, cert,
                                       std::move(chunks)});
      NodeId dst{static_cast<uint16_t>(g), static_cast<uint16_t>(receiver)};
      // Transmit once the encode CPU completes.
      At(done_at, [this, dst, msg] { SendWan(dst, msg); });
    }
  }
}

// -------------------------------------------------- Replication: receive

void GroupNode::OnEntryTransfer(NodeId from, const CertifiedEntry& msg) {
  Key key{msg.entry->gid(), msg.entry->seq()};
  EntryRecord& rec = GetRecord(key);
  bool was_available = rec.payload_available;
  if (!was_available) {
    cpu().ChargeHash(msg.entry->ByteSize());  // Recompute entry digest.
    if (!VerifySlot(key, *msg.entry, msg.cert)) {
      MASSBFT_LOG(kWarn) << "entry transfer with bad certificate dropped";
      return;
    }
    StorePayload(key, msg.entry, msg.cert);
  }
  // A WAN receiver forwards the entry to its whole group over LAN (paper
  // Section II-A "Global Replication"): the copy it holds and verified, not
  // the sender's, which went unchecked if the payload was already here. A
  // follower that executed the entry holds none; it forwards the sender's
  // copy only if that is the entry its certificate names.
  if (from.group != my_group() && !rec.lan_forwarded) {
    const EntryPtr& copy = rec.entry != nullptr ? rec.entry : msg.entry;
    if (copy->digest() != rec.cert.digest) return;
    rec.lan_forwarded = true;
    BroadcastLan(NewMessage(MessageType::kEntryTransfer,
                            CertifiedEntry{copy, rec.cert}));
  }
}

void GroupNode::OnChunkBatch(NodeId from, const ChunkBatch& msg) {
  if (msg.gid >= num_groups()) return;  // No such slot.
  Key key{msg.gid, msg.seq};
  EntryRecord& rec = GetRecord(key);
  bool from_wan = from.group != my_group();

  if (rec.rebuilder == nullptr && !rec.payload_available) {
    auto plan = TransferPlan::Create(group_size(msg.gid),
                                     group_size(my_group()));
    if (!plan.ok()) return;
    EntryRebuilder::Config cfg;
    cfg.n_total = plan->n_total();
    cfg.n_data = plan->n_data();
    cfg.validate = [this, key](const Certificate& cert, const Entry& entry) {
      return VerifySlot(key, entry, cert);
    };
    cfg.telemetry = tel_;
    rec.rebuilder = std::make_unique<EntryRebuilder>(std::move(cfg));
    rec.first_chunk_at = Now();
  }

  // Feed chunks (Merkle proof verification cost per chunk).
  if (rec.rebuilder != nullptr && !rec.payload_available) {
    for (const Chunk& chunk : msg.chunks) {
      cpu().ChargeHash(chunk.data.size() + 32 * chunk.proof.path.size());
      if (rec.rebuilder->AddChunk(msg.merkle_root, chunk.chunk_id, chunk.data,
                                  chunk.proof, msg.cert) !=
          EntryRebuilder::AddResult::kRebuilt)
        continue;
      EntryPtr entry = rec.rebuilder->entry();
      cpu().ChargeEc(entry->ByteSize());
      cpu().ChargeHash(entry->ByteSize());
      if (IsGroupLeader())
        tel_->RecordPhaseSpan(obs::Phase::kRebuild, trace_track_,
                              rec.first_chunk_at, Now(), key.first,
                              key.second);
      StorePayload(key, std::move(entry), msg.cert);
      break;
    }
  }

  // WAN receivers exchange their chunks within the group over LAN
  // (Section IV-B). Byzantine receivers substitute colluded tampered
  // chunks (Fig 15).
  if (from_wan && !rec.chunks_shared) {
    rec.chunks_shared = true;
    bool byz = fault_.byzantine && Now() >= fault_.byzantine_from;
    std::vector<Chunk> to_share = msg.chunks;
    Digest share_root = msg.merkle_root;
    if (byz) {
      // A Byzantine receiver substitutes the colluded tampered encoding's
      // chunks for its assigned chunk ids (Fig 15); the tampered chunks
      // carry the tampered Merkle root, so honest receivers bucket them
      // separately from the correct ones.
      auto plan = TransferPlan::Create(group_size(msg.gid),
                                       group_size(my_group()));
      if (plan.ok()) {
        auto it = ctx_->tampered_cache.find(
            std::make_pair(msg.cert.digest, plan->n_total()));
        if (it != ctx_->tampered_cache.end()) {
          const auto& encoded = it->second;
          to_share.clear();
          for (const Chunk& c : msg.chunks)
            to_share.push_back(encoded->chunks[c.chunk_id]);
          share_root = encoded->merkle_root;
        }
      }
    }
    BroadcastLan(NewMessage(MessageType::kChunkBatch,
                            ChunkBatch{msg.gid, msg.seq, share_root, msg.cert,
                                       std::move(to_share)}));
  }
}

void GroupNode::StorePayload(const Key& key, EntryPtr entry,
                             const Certificate& cert) {
  EntryRecord& rec = GetRecord(key);
  if (rec.payload_available) return;
  rec.entry = std::move(entry);
  rec.cert = cert;
  rec.payload_available = true;
  rec.rebuilder.reset();
  MarkPayloadAvailable(key);
}

void GroupNode::MarkPayloadAvailable(const Key& key) {
  if (shape_.global == GlobalConsensus::kNone)  // GeoBFT: receipt is final.
    ApplyRelay(GroupRelay{.commits = {{key.first, key.second}}});
  if (single_master()) digest_index_[GetRecord(key).entry->digest()] = key;
  if (raft_ != nullptr) raft_->NotifyEntryAvailable(key.first, key.second);
  certifier_->RecheckPending();
  if (single_master()) MaybeTranslateGlobalCommits();
  ordering_->Poke();
}

GroupNode::Retained GroupNode::retained() const {
  Retained retained;
  for (const auto& [key, rec] : entries_) {
    if (rec.entry == nullptr) continue;
    ++retained.entries;
    retained.payload_bytes += rec.entry->ByteSize();
  }
  return retained;
}

bool GroupNode::HasPayload(const Key& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.payload_available;
}

// ----------------------------------------------------------- Global Raft

void GroupNode::SetupRaft() {
  RaftCoordinator::Callbacks cb;
  cb.send_to_group = [this](int g, MessagePtr m) {
    SendWan(LeaderOf(g), std::move(m));
  };
  cb.certify = [this](const DecisionId& decision,
                      std::function<void(Certificate)> done) {
    certifier_->Start(decision, std::move(done));
  };
  cb.verify_group_cert = [this](const Certificate& cert,
                                const Digest& digest) {
    return VerifyGroupCert(cert, digest);
  };
  cb.has_entry = [this](uint16_t gid, uint64_t seq) {
    if (single_master() && gid == 0) {
      auto it = global_seq_digest_.find(seq);
      if (it == global_seq_digest_.end()) return false;
      auto origin = digest_index_.find(it->second);
      return origin != digest_index_.end() && HasPayload(origin->second);
    }
    return HasPayload(Key{gid, seq});
  };
  cb.assign_ts = [this](uint16_t, uint64_t) { return own_clock_; };
  cb.on_committed = [this](uint16_t gid, uint64_t seq) {
    OnRaftCommitted(gid, seq);
  };
  cb.on_accept_observed = [this](uint16_t gid, uint64_t seq,
                                 uint16_t from_group, uint64_t ts) {
    OnAcceptObserved(gid, seq, from_group, ts);
  };
  cb.now = [this] { return Now(); };
  cb.telemetry = tel_;
  cb.trace_track = trace_track_;
  raft_ = std::make_unique<RaftCoordinator>(num_groups(), my_group(),
                                            std::move(cb));
}

void GroupNode::RelayToGroup(GroupRelay relay) {
  const bool ends_sync = relay.replay;
  membership_.HoldBack(&relay);
  if (!relay.empty()) {
    ApplyRelay(relay);
    BroadcastLan(NewMessage(MessageType::kGroupRelay, std::move(relay)));
  }
  // The catch-up history is in; the stamps held back follow it.
  if (ends_sync) RelayToGroup(membership_.CloseSyncWindow());
}

void GroupNode::ApplyRelay(const GroupRelay& relay) {
  for (const auto& [gid, seq] : relay.commits) {
    Key key{gid, seq};
    EntryRecord& rec = GetRecord(key);
    if (!rec.globally_committed) {
      rec.globally_committed = true;
      rec.global_committed_at = Now();
      unexecuted_committed_.insert(key);
      if (gid == my_group()) {
        own_clock_ = std::max(own_clock_, seq + 1);
        // Own-entry pipeline slot freed. This is the single decrement
        // point: the raft path, Steward translation, catch-up replay and
        // GeoBFT's receipt all commit through here, once per entry.
        if (IsGroupLeader()) {
          --outstanding_;
          TryFormBatch(false);
        }
      }
      ordering_->OnCommitted(gid, seq);
      // Keep the raft coordinator's contiguous-delivery cursor in sync
      // when commits arrive via catch-up replay instead of raft messages.
      if (raft_ != nullptr && !single_master()) raft_->NoteCommitted(gid, seq);
    }
    ordering_->Poke();
  }
  for (const TimestampElement& stamp : relay.stamps) {
    membership_.OnStampApplied(stamp);
    ordering_->OnTimestamp(stamp.assigner_gid, stamp.target_gid,
                           stamp.target_seq, stamp.ts);
    ordering_->Poke();
  }
  for (const GroupRelay::Seal& seal : relay.seals) {
    ordering_->OnEpochSealed(seal.gid, seal.epoch, seal.count);
    ordering_->Poke();
  }
}

void GroupNode::RelayToAll(GroupRelay relay) {
  if (relay.empty()) return;
  auto msg = NewMessage(MessageType::kGroupRelay, relay);
  for (uint16_t g : membership_.LivePeers()) SendWan(LeaderOf(g), msg);
  RelayToGroup(std::move(relay));
}

void GroupNode::OnRaftCommitted(uint16_t gid, uint64_t seq) {
  // Leader-side commit delivery, in per-instance order.
  if (single_master() && gid == 0) {
    // Translate global sequences to origin entries strictly in order (the
    // payload for a committed global sequence may still be in flight).
    pending_global_commits_.push_back(seq);
    MaybeTranslateGlobalCommits();
    return;
  }
  Key key{gid, seq};

  // A commit applied from a relay (catch-up replay) reaches Raft through
  // NoteCommitted and returns here; the relay that carried it already
  // tells the group.
  EntryRecord& rec = GetRecord(key);
  if (!rec.globally_committed) {
    if (rec.local_committed_at >= 0 && key.first == my_group())
      tel_->RecordPhaseSpan(obs::Phase::kGlobalReplication, trace_track_,
                            rec.local_committed_at, Now(), key.first,
                            key.second);
    RelayToGroup(GroupRelay{.commits = {{key.first, key.second}}});
  }

  // Crash takeover: the frozen clocks of the instances this leader holds
  // stamp this entry too (earlier commits got theirs when the freeze round
  // closed).
  RelayToAll(membership_.FrozenStamps(key.first, key.second));
}

void GroupNode::OnAcceptObserved(uint16_t gid, uint64_t seq,
                                 uint16_t from_group, uint64_t ts) {
  if (shape_.ordering == OrderingMode::kAsyncVts)
    RelayToGroup(GroupRelay{.stamps = {{from_group, gid, seq, ts}}});
}

// ---------------------------------------------------------------- Steward

void GroupNode::ForwardToGlobalMaster(const EntryPtr& entry,
                                      const Certificate& cert) {
  SendWan(LeaderOf(0),
          NewMessage(MessageType::kLeaderForward, CertifiedEntry{entry, cert}));
}

void GroupNode::OnLeaderForward(const CertifiedEntry& msg) {
  if (!single_master() || my_group() != 0 || raft_ == nullptr) return;
  Key key{msg.entry->gid(), msg.entry->seq()};
  if (HasPayload(key)) return;  // Duplicate.
  cpu().ChargeHash(msg.entry->ByteSize());
  if (!VerifySlot(key, *msg.entry, msg.cert)) return;
  StorePayload(key, msg.entry, msg.cert);
  // Distribute the payload to every other group (one-way from the master)
  // and within the master's own group.
  SendLeaderOneWay(msg.entry, msg.cert);
  BroadcastLan(NewMessage(MessageType::kEntryTransfer, msg));

  uint64_t gseq = next_global_seq_++;
  global_seq_digest_[gseq] = msg.entry->digest();
  digest_index_[msg.entry->digest()] = key;
  raft_->Propose(0, gseq, msg.cert);
}

void GroupNode::MaybeTranslateGlobalCommits() {
  while (!pending_global_commits_.empty()) {
    uint64_t gseq = pending_global_commits_.front();
    auto digest_it = global_seq_digest_.find(gseq);
    if (digest_it == global_seq_digest_.end()) break;
    auto origin_it = digest_index_.find(digest_it->second);
    if (origin_it == digest_index_.end()) break;
    pending_global_commits_.pop_front();
    Key key = origin_it->second;
    RelayToGroup(GroupRelay{.commits = {{key.first, key.second}}});
  }
}

// ------------------------------------------------------------------- ISS

void GroupNode::OnEpochTimer() {
  // Seal the finished epoch and announce its entry range.
  RelayToAll(GroupRelay{.seals = {{static_cast<uint16_t>(my_group()),
                                    current_epoch_,
                                    next_local_seq_ - epoch_first_seq_}}});
  ++current_epoch_;
  epoch_first_seq_ = next_local_seq_;
}

// -------------------------------------------------- MassBFT fault handling

void GroupNode::OnHeartbeatTimer() {
  auto hb = NewMessage(MessageType::kGroupHeartbeat, GroupHeartbeat{});
  for (int g = 0; g < num_groups(); ++g)
    if (g != my_group()) SendWan(LeaderOf(g), hb);
  for (uint16_t silent : membership_.SilentGroups(Now())) {
    RecordMembership("suspect", silent);
    if (!membership_.Suspect(silent) || raft_ == nullptr) continue;
    RecordMembership("takeover", silent);
    raft_->TakeOverInstance(silent);
    auto round = membership_.OpenFreezeRound(silent, unexecuted_committed_);
    RecordFreezeClosed(silent);  // With no peer left to ask.
    for (uint16_t g : round.query)
      SendWan(LeaderOf(g),
              NewMessage(MessageType::kFreezeQuery, Freeze{silent, 0}));
    RelayToAll(std::move(round.stamps));
  }
}

void GroupNode::RecordMembership(const char* name, uint16_t gid,
                                 double detail) {
  tel_->RecordEvent(trace_track_, "membership", name, Now(),
                    {"gid", static_cast<double>(gid)}, {"detail", detail});
}

void GroupNode::RecordFreezeClosed(uint16_t gid) {
  if (std::optional<uint64_t> frozen = membership_.ClosedFreezeRound(gid))
    RecordMembership("freeze_closed", gid, static_cast<double>(*frozen));
}

// -------------------------------------------------- Ordering & execution

bool GroupNode::CanExecute(uint16_t gid, uint64_t seq) const {
  auto it = entries_.find(Key{gid, seq});
  if (it == entries_.end()) return false;
  const EntryRecord& rec = it->second;
  return rec.payload_available && rec.globally_committed && !rec.executed;
}

void GroupNode::ExecuteEntry(uint16_t gid, uint64_t seq) {
  Key key{gid, seq};
  EntryRecord& rec = GetRecord(key);
  MASSBFT_CHECK(rec.payload_available && !rec.executed);
  rec.executed = true;
  unexecuted_committed_.erase(key);
  membership_.OnExecuted(gid, seq);
  execution_log_.emplace_back(gid, seq);
  // Only a leader reads an executed entry again, to answer a catch-up
  // request (OnCatchUpRequest); a follower keeps the record's flags and
  // certificate and releases the payload.
  const EntryPtr entry =
      IsGroupLeader() ? rec.entry : std::exchange(rec.entry, nullptr);
  // Nothing reads an executed entry's chunks again (ClusterContext).
  const Digest& digest = entry->digest();
  auto& encodings = ctx_->encode_cache;
  encodings.erase(
      encodings.lower_bound({digest, std::numeric_limits<int>::min()}),
      encodings.upper_bound({digest, std::numeric_limits<int>::max()}));

  int n = entry->num_txns();
  executed_txns_ += n;
  SimTime done_at = cpu().ChargeExec(n);
  if (n == 0) return;

  if (!IsExecutor()) return;  // CPU charged; state tracked by leaders.

  // This node's one parse of the batch feeds Aria, the conflict re-queue
  // and the commit callbacks.
  std::vector<Transaction> txns = entry->DecodeTxns();
  AriaBatchResult result = aria_->ExecuteBatch(txns);
  bool owns_metrics =
      IsGroupLeader() && static_cast<int>(gid) == my_group() && !crashed();
  if (owns_metrics) {
    txns_exec_counter_->Add(n);
    conflict_abort_counter_->Add(result.conflict_aborts.size());
    if (result.logic_aborts > 0) {
      // Business aborts complete deterministically and are never retried
      // (Aria): they are the run's permanently-aborted transactions.
      logic_abort_counter_->Add(result.logic_aborts);
    }
    if (rec.global_committed_at >= 0)
      tel_->RecordPhaseSpan(obs::Phase::kExecution, trace_track_,
                            rec.global_committed_at, done_at, gid, seq);

    // Conflict-aborted transactions re-enter the next batch
    // deterministically (Aria); committed ones notify their clients. The
    // abort indices ascend, so one cursor walks them alongside the batch.
    auto next_abort = result.conflict_aborts.begin();
    for (size_t i = 0; i < txns.size(); ++i) {
      if (next_abort != result.conflict_aborts.end() && *next_abort == i) {
        ++next_abort;
        pending_txns_.push_back(std::move(txns[i]));
      } else if (ctx_->on_txn_committed) {
        ctx_->on_txn_committed(txns[i], done_at);
      }
    }
    if (!result.conflict_aborts.empty()) TryFormBatch(false);
  }
}

// --------------------------------------------------------------- Dispatch

void GroupNode::HandleMessage(NodeId from, MessagePtr message) {
  if (crashed()) return;
  const SimMessage& msg = *message;
  switch (static_cast<MessageType>(message->type())) {
    case MessageType::kPrePrepare:
    case MessageType::kPrepare:
    case MessageType::kCommit:
      pbft_->OnMessage(from, message);
      break;
    case MessageType::kCertifyRequest:
    case MessageType::kCertifyVote:
      certifier_->OnMessage(from, message);
      break;
    case MessageType::kEntryTransfer:
      OnEntryTransfer(from, BodyOf<CertifiedEntry>(msg));
      break;
    case MessageType::kChunkBatch:
      OnChunkBatch(from, BodyOf<ChunkBatch>(msg));
      break;
    case MessageType::kRaftPropose: {
      // A propose counts only from its instance's leader; Steward's
      // translation takes the first certified digest for a global sequence.
      const auto& propose = BodyOf<RaftPropose>(msg);
      if (raft_ == nullptr || from != LeaderOf(propose.gid)) break;
      if (single_master() && propose.gid == 0) {
        if (!VerifyGroupCert(propose.cert, propose.cert.digest)) break;
        global_seq_digest_.try_emplace(propose.seq, propose.cert.digest);
      }
      raft_->OnProposeControl(propose);
      break;
    }
    case MessageType::kRaftAccept:
      if (raft_ != nullptr) raft_->OnAccept(BodyOf<RaftAccept>(msg));
      break;
    case MessageType::kRaftCommit:
      if (raft_ != nullptr) raft_->OnCommit(BodyOf<RaftCommit>(msg));
      break;
    case MessageType::kGroupHeartbeat:
      // A heartbeat speaks for its sender's group. A suspected group is
      // back: its instance goes back to it (paper Section V-C).
      if (membership_.OnHeartbeat(from.group, Now())) {
        RecordMembership("rejoin", from.group);
        if (raft_ != nullptr) raft_->ReleaseInstance(from.group);
      }
      break;
    case MessageType::kGroupRelay: {
      // Ordering facts pass leader to leader, then leader to group. A
      // leader takes them only from a peer group's leader, and an epoch
      // seal only for that leader's own group; a follower only from its
      // own leader.
      const auto& relay = BodyOf<GroupRelay>(msg);
      if (IsGroupLeader()) {
        if (IsPeerGroupLeader(from) &&
            std::ranges::all_of(relay.seals, [from](const auto& seal) {
              return seal.gid == from.group;
            }))
          RelayToGroup(relay);
      } else if (from == LeaderOf(my_group())) {
        ApplyRelay(relay);
      }
      break;
    }
    case MessageType::kLeaderForward:
      OnLeaderForward(BodyOf<CertifiedEntry>(msg));
      break;
    // Freeze rounds and catch-up run between group leaders.
    case MessageType::kCatchUpRequest:
      if (IsPeerGroupLeader(from))
        OnCatchUpRequest(from, BodyOf<CatchUpRequest>(msg));
      break;
    case MessageType::kFreezeQuery:
      if (IsPeerGroupLeader(from))
        SendWan(from, NewMessage(MessageType::kFreezeReport,
                                 membership_.FreezeReport(
                                     BodyOf<Freeze>(msg).dead_gid)));
      break;
    case MessageType::kFreezeReport:
      if (IsPeerGroupLeader(from)) {
        const auto& report = BodyOf<Freeze>(msg);
        const bool open = !membership_.ClosedFreezeRound(report.dead_gid);
        RelayToAll(membership_.OnFreezeReport(from.group, report,
                                              unexecuted_committed_));
        if (open) RecordFreezeClosed(report.dead_gid);
      }
      break;
    default:
      MASSBFT_LOG(kWarn) << "unhandled message type " << message->type();
  }
}

void GroupNode::Recover() {
  Actor::Recover();  // A new incarnation: the old timer chains are dead.
  membership_.Rejoin();
  Start();
  if (!IsGroupLeader()) return;
  // Live timestamps wait until the catch-up history is applied, or until
  // the failsafe if the helper never answers.
  auto request = NewMessage(MessageType::kCatchUpRequest,
                            membership_.OpenSyncWindow());
  After(GlobalMembership::kSyncFailsafe,
        [this] { RelayToGroup(membership_.CloseSyncWindow()); });
  // One peer leader replays what we missed (paper Section V-C), which keeps
  // the replay off every other uplink: the lowest-id other group's, the
  // takeover group by convention. The entry store drops duplicates.
  for (int g = 0; g < num_groups(); ++g) {
    if (g == my_group()) continue;
    SendWan(LeaderOf(g), request);
    break;
  }

  // Fill holes in our own instance: re-propose entries that were in
  // flight when we crashed (receivers resend their cached accepts; any
  // entry whose chunk transfer died with us is re-shipped one-way).
  if (raft_ != nullptr) {
    for (const auto& [key, rec] : entries_) {
      if (key.first != my_group()) continue;
      if (!rec.payload_available || rec.globally_committed) continue;
      SendLeaderOneWay(rec.entry, rec.cert);
      raft_->Propose(key.first, key.second, rec.cert);
    }
  }
}

void GroupNode::OnCatchUpRequest(NodeId from, const CatchUpRequest& msg) {
  if (!IsGroupLeader()) return;
  std::vector<GlobalMembership::EntryStatus> entries;
  entries.reserve(entries_.size());
  for (const auto& [key, rec] : entries_)
    entries.push_back({key, rec.payload_available, rec.globally_committed});
  auto reply = membership_.AnswerCatchUp(msg, entries);
  for (const Key& key : reply.payloads) {
    const EntryRecord& rec = entries_.at(key);
    SendWan(from, NewMessage(MessageType::kEntryTransfer,
                             CertifiedEntry{rec.entry, rec.cert}));
  }
  SendWan(from,
          NewMessage(MessageType::kGroupRelay, std::move(reply.history)));
}

}  // namespace massbft
