#ifndef MASSBFT_CORE_CONFIG_H_
#define MASSBFT_CORE_CONFIG_H_

#include <cstdint>
#include <string>

#include "ordering/ordering_engine.h"
#include "sim/actor.h"
#include "sim/time.h"

namespace massbft {

/// Evaluated systems (paper Table II) plus the Fig 12 ablations.
enum class ProtocolKind {
  kMassBft,   // EBR + Raft + async VTS ordering ("EBR+A").
  kBaseline,  // One-way leader + Raft + round ordering (Section II-A).
  kGeoBft,    // One-way leader broadcast, no global consensus, rounds.
  kSteward,   // Single-master: all entries funnel through group 0.
  kIss,       // Baseline + epoch-bucketed ordering.
  kBr,        // Ablation: bijective full-copy replication + rounds.
  kEbr,       // Ablation: encoded bijective replication + rounds.
};

const char* ProtocolKindName(ProtocolKind kind);

/// How entry payloads cross the WAN.
enum class ReplicationMode {
  kLeaderOneWay,       // Leader sends f+1 full copies per remote group.
  kBijective,          // f1+f2+1 nodes each send one full copy (Fig 5a).
  kEncodedBijective,   // Erasure-coded chunks per Algorithm 1 (Fig 5b).
};

/// How groups agree on an entry before it may execute.
enum class GlobalConsensus {
  kNone,          // A certified entry is final on receipt (GeoBFT).
  kRaft,          // Each group leads its own global Raft instance.
  kSingleMaster,  // All entries funnel through group 0's instance (Steward).
};

/// What sets the evaluated systems apart: one row of paper Table II.
struct ProtocolShape {
  ReplicationMode replication;
  GlobalConsensus global;
  OrderingMode ordering;
};

/// The Table II row of `kind`.
ProtocolShape ShapeOf(ProtocolKind kind);

/// Full protocol parameterization: the protocol, whose shape is
/// ShapeOf(kind), plus its tunables. The factory functions mirror the
/// paper's competitor configurations (Section VI, "Competitors").
struct ProtocolConfig {
  ProtocolKind kind = ProtocolKind::kMassBft;

  /// Batching (paper: fixed 20 ms timeout for all competitors).
  SimTime batch_timeout = 20 * kMillisecond;
  int max_batch_size = 500;
  /// Outstanding (proposed, not globally committed) entries per group.
  int pipeline_depth = 32;

  /// ISS epoch length (paper: 0.1 s nationwide, 0.5 s worldwide).
  SimTime epoch_length = 100 * kMillisecond;

  /// MassBFT fault detection: a group leader silent for this long is
  /// taken over (heartbeats go out every
  /// GlobalMembership::kHeartbeatInterval).
  SimTime group_crash_timeout = 2 * kSecond;

  CpuModel cpu;

  static ProtocolConfig ForKind(ProtocolKind kind) {
    ProtocolConfig cfg;
    cfg.kind = kind;
    return cfg;
  }
  static ProtocolConfig MassBft() { return ForKind(ProtocolKind::kMassBft); }
  static ProtocolConfig Baseline() { return ForKind(ProtocolKind::kBaseline); }
  static ProtocolConfig GeoBft() { return ForKind(ProtocolKind::kGeoBft); }
  static ProtocolConfig Steward() { return ForKind(ProtocolKind::kSteward); }
  static ProtocolConfig Iss() { return ForKind(ProtocolKind::kIss); }
  static ProtocolConfig Br() { return ForKind(ProtocolKind::kBr); }
  static ProtocolConfig Ebr() { return ForKind(ProtocolKind::kEbr); }
};

}  // namespace massbft

#endif  // MASSBFT_CORE_CONFIG_H_
