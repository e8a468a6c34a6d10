#ifndef MASSBFT_CORE_GLOBAL_MEMBERSHIP_H_
#define MASSBFT_CORE_GLOBAL_MEMBERSHIP_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "obs/metrics_registry.h"
#include "proto/messages.h"
#include "sim/time.h"

namespace massbft {

/// Which groups of the global layer are live, and what a crash costs them
/// (paper Section V-C): heartbeats and the liveness check, the takeover of
/// a silent group's Raft instance with its freeze round and frozen-clock
/// stamps, and a recovered leader's catch-up with the sync window that
/// holds live stamps back until the catch-up history is in. To serve those,
/// it records the stamps a node applies (each assigner's highest, and each
/// entry's VTS elements) and the node's per-instance execution frontier.
///
/// A state machine with no clock, transport or Raft instance of its own:
/// the owning node (GroupNode) feeds it facts, acts on the decisions and
/// relays it returns, and keeps the timers, the sends, the Raft calls and
/// every sender rule (DESIGN.md §7).
class GlobalMembership {
 public:
  using Key = std::pair<uint16_t, uint64_t>;

  /// How often a group leader sends heartbeats and checks liveness.
  static constexpr SimTime kHeartbeatInterval = 150 * kMillisecond;
  /// How long a recovered leader holds live stamps back when no catch-up
  /// history arrives.
  static constexpr SimTime kSyncFailsafe = 4 * kSecond;

  /// Counts in `metrics` a breach of Algorithm 2's input rules and what
  /// causes it: stamps applied below their assigner's highest
  /// ("membership/late_stamps"), stamps whose value differs from the one
  /// this node recorded from the same assigner for the same element
  /// ("membership/conflicting_stamps") and takeovers started, one per
  /// suspected group ("membership/takeovers_started").
  GlobalMembership(int num_groups, uint16_t my_group, SimTime crash_timeout,
                   obs::MetricsRegistry& metrics);

  // ---- Liveness and takeover (group leaders).

  /// Every group counts as heard from at `now` (the heartbeat timer
  /// starts).
  void Start(SimTime now);
  /// Group `gid`'s leader sent a heartbeat at `now`. True when `gid` was
  /// suspected: it rejoined, and an instance this leader held for it goes
  /// back to it.
  bool OnHeartbeat(uint16_t gid, SimTime now);
  /// Peer groups not yet suspected that have been silent for longer than
  /// the crash timeout at `now`, ascending.
  std::vector<uint16_t> SilentGroups(SimTime now) const;
  /// Suspects `gid` of having crashed. True when this node's group is then
  /// the lowest-numbered live one: its leader takes `gid`'s Raft instance
  /// over and freezes `gid`'s clock (OpenFreezeRound).
  bool Suspect(uint16_t gid);

  struct FreezeStart {
    /// Peer groups whose leaders report the highest stamp they applied
    /// from the silent group.
    std::vector<uint16_t> query;
    /// The frozen stamps, when no peer is left to ask (see OnFreezeReport).
    GroupRelay stamps;
  };
  /// This leader took `gid`'s instance over. A stamp `gid` issued before it
  /// fell silent may have reached only some groups, and a frozen value
  /// below it would break per-assigner monotonicity, so the freeze round
  /// first asks every live peer leader for the highest one it saw.
  /// `unexecuted`: this node's globally committed, unexecuted entries.
  FreezeStart OpenFreezeRound(uint16_t gid, const std::set<Key>& unexecuted);
  /// Group `from`'s leader reported. Once every queried peer has, the round
  /// closes: the frozen value is the highest of this node's and the
  /// reported stamps, and every entry of `unexecuted` gets it (the returned
  /// relay; empty while the round is open).
  GroupRelay OnFreezeReport(uint16_t from, const Freeze& report,
                            const std::set<Key>& unexecuted);
  /// Stamps for e_{gid,seq}, which this leader just committed: the frozen
  /// clock of every instance it holds whose freeze round has closed.
  GroupRelay FrozenStamps(uint16_t gid, uint64_t seq) const;
  /// The frozen value of `gid`'s clock once this leader's freeze round for
  /// it has closed; nullopt while it is open or when there is none.
  std::optional<uint64_t> ClosedFreezeRound(uint16_t gid) const;
  /// Peer groups not suspected, ascending: the leaders a leader's own facts
  /// go to.
  std::vector<uint16_t> LivePeers() const;

  // ---- Facts every node records.

  /// This node applied `stamp` (late when below the highest stamp applied
  /// from its assigner so far, conflicting when it gives an element this
  /// node already recorded another value).
  void OnStampApplied(const TimestampElement& stamp);
  /// This node's answer to a freeze query for `dead_gid`: the highest stamp
  /// it applied from that group.
  Freeze FreezeReport(uint16_t dead_gid) const {
    return Freeze{dead_gid, HighestStamp(dead_gid)};
  }
  /// This node executed e_{gid,seq}.
  void OnExecuted(uint16_t gid, uint64_t seq);

  // ---- Rejoin and catch-up.

  /// This node recovered from a crash.
  void Rejoin() { rejoined_ = true; }
  bool rejoined() const { return rejoined_; }
  /// A recovered leader opens its sync window, which holds live stamps back
  /// until the catch-up history is in (per-assigner stamp order, paper
  /// Section V-D). Returns the request that names its execution frontier.
  CatchUpRequest OpenSyncWindow();
  /// Moves `relay`'s stamps into the sync window while it is open, unless
  /// `relay` is the catch-up history.
  void HoldBack(GroupRelay* relay);
  /// Closes the sync window (the history arrived, or the failsafe fired):
  /// the stamps held back, in arrival order. Empty when no window is open.
  GroupRelay CloseSyncWindow();

  /// What this node knows of one entry.
  struct EntryStatus {
    Key key;
    bool payload_available = false;
    bool globally_committed = false;
  };
  struct CatchUpReply {
    /// Entries whose payload to ship, in key order: one past the frontier
    /// may not be globally committed yet.
    std::vector<Key> payloads;
    /// Then one replay relay, even when empty, which ends the requester's
    /// sync: the committed entries past the frontier, and their recorded
    /// stamps sorted by value.
    GroupRelay history;
  };
  /// Answers a peer leader's catch-up `request`, from `entries` (in key
  /// order).
  CatchUpReply AnswerCatchUp(const CatchUpRequest& request,
                             const std::vector<EntryStatus>& entries) const;

 private:
  struct FreezeRound {
    std::set<uint16_t> expected;
    uint64_t max_seen = 0;
  };
  GroupRelay CloseFreezeRound(uint16_t gid, const std::set<Key>& unexecuted);
  uint64_t HighestStamp(uint16_t assigner) const;

  const int num_groups_;
  const uint16_t my_group_;
  const SimTime crash_timeout_;
  obs::Counter* const late_stamps_;
  obs::Counter* const conflicting_stamps_;
  obs::Counter* const takeovers_started_;

  std::set<uint16_t> dead_groups_;
  std::map<uint16_t, SimTime> last_heartbeat_;
  /// Instances this leader took over, until their group rejoins: the ones
  /// its Raft coordinator holds (TakeOverInstance, ReleaseInstance).
  std::set<uint16_t> held_;
  /// One round per group this leader took over, kept once closed: a late
  /// report closes it again and stamps what is still unexecuted.
  std::map<uint16_t, FreezeRound> freeze_rounds_;
  std::map<uint16_t, uint64_t> frozen_clock_;

  std::map<uint16_t, uint64_t> max_ts_seen_;  // Per assigner group.
  /// VTS elements retained per entry so peers can be caught up.
  std::map<Key, std::map<uint16_t, uint64_t>> recorded_vts_;
  /// Per instance, the next sequence this node would execute.
  std::map<uint16_t, uint64_t> executed_next_;

  bool rejoined_ = false;
  bool syncing_ = false;
  std::vector<TimestampElement> sync_buffer_;
};

}  // namespace massbft

#endif  // MASSBFT_CORE_GLOBAL_MEMBERSHIP_H_
