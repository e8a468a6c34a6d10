#include "core/global_membership.h"

#include <algorithm>

namespace massbft {

GlobalMembership::GlobalMembership(int num_groups, uint16_t my_group,
                                   SimTime crash_timeout,
                                   obs::MetricsRegistry& metrics)
    : num_groups_(num_groups),
      my_group_(my_group),
      crash_timeout_(crash_timeout),
      late_stamps_(metrics.GetCounter("membership/late_stamps")),
      conflicting_stamps_(
          metrics.GetCounter("membership/conflicting_stamps")),
      takeovers_started_(metrics.GetCounter("membership/takeovers_started")) {}

void GlobalMembership::Start(SimTime now) {
  for (int g = 0; g < num_groups_; ++g)
    last_heartbeat_[static_cast<uint16_t>(g)] = now;
}

bool GlobalMembership::OnHeartbeat(uint16_t gid, SimTime now) {
  last_heartbeat_[gid] = now;
  if (dead_groups_.erase(gid) == 0) return false;
  held_.erase(gid);
  return true;
}

std::vector<uint16_t> GlobalMembership::SilentGroups(SimTime now) const {
  std::vector<uint16_t> silent;
  for (uint16_t gid : LivePeers()) {
    auto heard = last_heartbeat_.find(gid);
    SimTime last = heard == last_heartbeat_.end() ? 0 : heard->second;
    if (now - last > crash_timeout_) silent.push_back(gid);
  }
  return silent;
}

bool GlobalMembership::Suspect(uint16_t gid) {
  takeovers_started_->Add();
  dead_groups_.insert(gid);
  // The lowest-numbered live group's leader represents the silent group's
  // Raft instance and freezes its clock (paper Section V-C, "Crashed
  // Groups").
  for (int g = 0; g < num_groups_; ++g)
    if (!dead_groups_.contains(static_cast<uint16_t>(g)))
      return g == my_group_;
  return false;
}

GlobalMembership::FreezeStart GlobalMembership::OpenFreezeRound(
    uint16_t gid, const std::set<Key>& unexecuted) {
  held_.insert(gid);
  FreezeStart start;
  start.query = LivePeers();
  freeze_rounds_[gid] = FreezeRound{
      std::set<uint16_t>(start.query.begin(), start.query.end()),
      HighestStamp(gid)};
  if (start.query.empty()) start.stamps = CloseFreezeRound(gid, unexecuted);
  return start;
}

GroupRelay GlobalMembership::OnFreezeReport(uint16_t from,
                                            const Freeze& report,
                                            const std::set<Key>& unexecuted) {
  auto it = freeze_rounds_.find(report.dead_gid);
  if (it == freeze_rounds_.end()) return {};
  FreezeRound& round = it->second;
  round.max_seen = std::max(round.max_seen, report.max_seen);
  round.expected.erase(from);
  if (!round.expected.empty()) return {};
  return CloseFreezeRound(report.dead_gid, unexecuted);
}

GroupRelay GlobalMembership::CloseFreezeRound(
    uint16_t gid, const std::set<Key>& unexecuted) {
  uint64_t& highest = max_ts_seen_[gid];
  const uint64_t frozen = std::max(freeze_rounds_[gid].max_seen, highest);
  frozen_clock_[gid] = frozen;
  highest = frozen;
  GroupRelay relay;
  for (const Key& key : unexecuted)
    relay.stamps.push_back(
        TimestampElement{gid, key.first, key.second, frozen});
  return relay;
}

std::optional<uint64_t> GlobalMembership::ClosedFreezeRound(
    uint16_t gid) const {
  auto round = freeze_rounds_.find(gid);
  auto frozen = frozen_clock_.find(gid);
  if (round == freeze_rounds_.end() || !round->second.expected.empty() ||
      frozen == frozen_clock_.end())
    return std::nullopt;
  return frozen->second;
}

GroupRelay GlobalMembership::FrozenStamps(uint16_t gid, uint64_t seq) const {
  GroupRelay relay;
  for (uint16_t held : held_) {
    auto frozen = frozen_clock_.find(held);
    if (frozen != frozen_clock_.end())
      relay.stamps.push_back(TimestampElement{held, gid, seq, frozen->second});
  }
  return relay;
}

std::vector<uint16_t> GlobalMembership::LivePeers() const {
  std::vector<uint16_t> peers;
  for (int g = 0; g < num_groups_; ++g) {
    const auto gid = static_cast<uint16_t>(g);
    if (gid != my_group_ && !dead_groups_.contains(gid)) peers.push_back(gid);
  }
  return peers;
}

void GlobalMembership::OnStampApplied(const TimestampElement& stamp) {
  uint64_t& highest = max_ts_seen_[stamp.assigner_gid];
  if (stamp.ts < highest) late_stamps_->Add();
  highest = std::max(highest, stamp.ts);
  auto [recorded, inserted] =
      recorded_vts_[Key{stamp.target_gid, stamp.target_seq}].try_emplace(
          stamp.assigner_gid, stamp.ts);
  if (!inserted && recorded->second != stamp.ts) conflicting_stamps_->Add();
  recorded->second = stamp.ts;
}

uint64_t GlobalMembership::HighestStamp(uint16_t assigner) const {
  auto it = max_ts_seen_.find(assigner);
  return it == max_ts_seen_.end() ? 0 : it->second;
}

void GlobalMembership::OnExecuted(uint16_t gid, uint64_t seq) {
  uint64_t& next = executed_next_[gid];
  next = std::max(next, seq + 1);
}

CatchUpRequest GlobalMembership::OpenSyncWindow() {
  syncing_ = true;
  CatchUpRequest request;
  for (int g = 0; g < num_groups_; ++g) {
    const auto gid = static_cast<uint16_t>(g);
    auto it = executed_next_.find(gid);
    request.executed_next.push_back(
        {gid, it != executed_next_.end() ? it->second : 0});
  }
  return request;
}

void GlobalMembership::HoldBack(GroupRelay* relay) {
  if (!syncing_ || relay->replay) return;
  sync_buffer_.insert(sync_buffer_.end(), relay->stamps.begin(),
                      relay->stamps.end());
  relay->stamps.clear();
}

GroupRelay GlobalMembership::CloseSyncWindow() {
  GroupRelay held;
  if (!syncing_) return held;
  syncing_ = false;
  held.stamps.swap(sync_buffer_);
  return held;
}

GlobalMembership::CatchUpReply GlobalMembership::AnswerCatchUp(
    const CatchUpRequest& request,
    const std::vector<EntryStatus>& entries) const {
  // Requested frontiers, defaulting to 0.
  std::map<uint16_t, uint64_t> frontier;
  for (const auto& [gid, next] : request.executed_next)
    frontier[gid] = std::max(frontier[gid], next);

  CatchUpReply reply;
  reply.history.replay = true;
  for (const EntryStatus& entry : entries) {
    const auto [gid, seq] = entry.key;
    auto next = frontier.find(gid);
    if (next != frontier.end() && seq < next->second) continue;  // Executed.
    if (entry.payload_available) reply.payloads.push_back(entry.key);
    if (!entry.globally_committed) continue;
    reply.history.commits.push_back({gid, seq});
    auto vts = recorded_vts_.find(entry.key);
    if (vts == recorded_vts_.end()) continue;
    for (const auto& [assigner, ts] : vts->second)
      reply.history.stamps.push_back(TimestampElement{assigner, gid, seq, ts});
  }
  // Replay must keep each assigner's stamps non-decreasing (Algorithm 2's
  // inference relies on it), and recorded_vts_ iterates by entry.
  std::ranges::stable_sort(reply.history.stamps, {}, &TimestampElement::ts);
  return reply;
}

}  // namespace massbft
