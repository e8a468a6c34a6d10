// GlobalMembership driven fact by fact, with no cluster: liveness, the
// takeover decision, the freeze round, frozen stamps, catch-up history and
// the sync window.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "core/global_membership.h"
#include "obs/metrics_registry.h"

namespace massbft {
namespace {

using Key = GlobalMembership::Key;
using Groups = std::vector<uint16_t>;
constexpr SimTime kTimeout = 2 * kSecond;

class GlobalMembershipTest : public ::testing::Test {
 protected:
  GlobalMembership Make(int num_groups, uint16_t my_group) {
    return GlobalMembership(num_groups, my_group, kTimeout, metrics_);
  }
  uint64_t Count(const char* name) {
    return metrics_.GetCounter(name)->value();
  }

 private:
  obs::MetricsRegistry metrics_;
};

std::vector<Key> CommitsOf(const GroupRelay& relay) {
  std::vector<Key> keys;
  for (const GroupRelay::Commit& commit : relay.commits)
    keys.emplace_back(commit.gid, commit.seq);
  return keys;
}

TEST_F(GlobalMembershipTest, SilentGroupIsSuspectedOnceAndRejoinsOnHeartbeat) {
  GlobalMembership m = Make(3, /*my_group=*/0);
  m.Start(0);
  m.OnHeartbeat(2, kSecond);
  m.OnHeartbeat(1, 3 * kSecond);
  // Silent for exactly the timeout is not yet past it.
  EXPECT_TRUE(m.SilentGroups(3 * kSecond).empty());
  EXPECT_EQ(m.SilentGroups(3 * kSecond + 1), Groups{2});

  EXPECT_TRUE(m.Suspect(2));
  EXPECT_TRUE(m.SilentGroups(4 * kSecond).empty());
  EXPECT_EQ(m.LivePeers(), Groups{1});

  // Its next heartbeat reports the rejoin, and only that one.
  EXPECT_FALSE(m.OnHeartbeat(1, 4 * kSecond));
  EXPECT_TRUE(m.OnHeartbeat(2, 4 * kSecond));
  EXPECT_FALSE(m.OnHeartbeat(2, 4 * kSecond + kMillisecond));
  EXPECT_EQ(m.LivePeers(), (Groups{1, 2}));
  EXPECT_TRUE(m.SilentGroups(5 * kSecond).empty());
}

TEST_F(GlobalMembershipTest, OnlyTheLowestNumberedLiveGroupTakesOver) {
  GlobalMembership group0 = Make(4, 0);
  EXPECT_TRUE(group0.Suspect(2));

  GlobalMembership group1 = Make(4, 1);
  EXPECT_FALSE(group1.Suspect(3));  // Group 0 is live.
  EXPECT_TRUE(group1.Suspect(0));   // Now group 1 is the lowest.

  GlobalMembership group2 = Make(4, 2);
  EXPECT_FALSE(group2.Suspect(0));
  EXPECT_TRUE(group2.Suspect(1));
  EXPECT_EQ(group2.LivePeers(), Groups{3});
}

TEST_F(GlobalMembershipTest, FreezeRoundClosesOnceEveryPeerReportedAtTheMax) {
  const std::set<Key> unexecuted = {{1, 0}};
  for (uint64_t own : {4u, 9u}) {
    SCOPED_TRACE(own);
    GlobalMembership m = Make(4, 0);
    m.OnStampApplied(TimestampElement{3, 1, 0, own});
    ASSERT_TRUE(m.Suspect(3));
    GlobalMembership::FreezeStart start = m.OpenFreezeRound(3, unexecuted);
    EXPECT_EQ(start.query, (Groups{1, 2}));
    EXPECT_TRUE(start.stamps.stamps.empty());

    // Group 1's report leaves group 2's outstanding.
    EXPECT_TRUE(m.OnFreezeReport(1, Freeze{3, 7}, unexecuted).stamps.empty());
    GroupRelay closed = m.OnFreezeReport(2, Freeze{3, 5}, unexecuted);
    const uint64_t frozen = own > 7 ? own : 7;
    EXPECT_EQ(closed.stamps, (std::vector<TimestampElement>{
                                 TimestampElement{3, 1, 0, frozen}}));
    EXPECT_EQ(m.FreezeReport(3).max_seen, frozen);
  }

  // A report for a group this leader holds no round for is ignored.
  GlobalMembership m = Make(4, 0);
  EXPECT_TRUE(m.OnFreezeReport(1, Freeze{3, 7}, unexecuted).stamps.empty());
  EXPECT_EQ(m.FreezeReport(3).max_seen, 0u);

  // With no live peer left to ask, the round closes at once.
  GlobalMembership pair = Make(2, 0);
  pair.OnStampApplied(TimestampElement{1, 0, 0, 2});
  ASSERT_TRUE(pair.Suspect(1));
  GlobalMembership::FreezeStart alone = pair.OpenFreezeRound(1, {{0, 1}});
  EXPECT_TRUE(alone.query.empty());
  EXPECT_EQ(alone.stamps.stamps,
            (std::vector<TimestampElement>{TimestampElement{1, 0, 1, 2}}));
}

TEST_F(GlobalMembershipTest, UnexecutedAndLaterCommitsGetTheFrozenStamp) {
  GlobalMembership m = Make(3, 0);
  ASSERT_TRUE(m.Suspect(2));
  EXPECT_TRUE(m.FrozenStamps(0, 5).stamps.empty());  // Not taken over yet.
  const std::set<Key> unexecuted = {{0, 1}, {1, 0}};
  EXPECT_EQ(m.OpenFreezeRound(2, unexecuted).query, Groups{1});
  EXPECT_TRUE(m.FrozenStamps(0, 5).stamps.empty());  // Round still open.

  GroupRelay closed = m.OnFreezeReport(1, Freeze{2, 6}, unexecuted);
  EXPECT_EQ(closed.stamps, (std::vector<TimestampElement>{{2, 0, 1, 6},
                                                          {2, 1, 0, 6}}));
  EXPECT_EQ(m.FrozenStamps(0, 5).stamps,
            (std::vector<TimestampElement>{TimestampElement{2, 0, 5, 6}}));

  // Once group 2 is back, its instance is no longer this leader's to stamp.
  EXPECT_TRUE(m.OnHeartbeat(2, kSecond));
  EXPECT_TRUE(m.FrozenStamps(0, 6).stamps.empty());
}

TEST_F(GlobalMembershipTest, CatchUpHistoryIsOneSortedReplayPastTheFrontier) {
  GlobalMembership m = Make(3, 1);
  m.OnStampApplied(TimestampElement{1, 0, 0, 1});  // Below the frontier.
  m.OnStampApplied(TimestampElement{1, 0, 1, 6});
  m.OnStampApplied(TimestampElement{2, 0, 1, 4});
  m.OnStampApplied(TimestampElement{0, 2, 0, 3});
  m.OnStampApplied(TimestampElement{1, 2, 0, 5});
  const std::vector<GlobalMembership::EntryStatus> entries = {
      {{0, 0}, true, true},   // Executed by the requester.
      {{0, 1}, true, true},
      {{1, 0}, true, false},  // Held, not committed yet.
      {{2, 0}, false, true},  // Committed, payload still in flight.
  };
  CatchUpRequest request;
  request.executed_next = {{0, 1}, {0, 0}, {1, 0}};

  GlobalMembership::CatchUpReply reply = m.AnswerCatchUp(request, entries);
  EXPECT_EQ(reply.payloads, (std::vector<Key>{{0, 1}, {1, 0}}));
  EXPECT_TRUE(reply.history.replay);
  EXPECT_EQ(CommitsOf(reply.history), (std::vector<Key>{{0, 1}, {2, 0}}));
  EXPECT_EQ(reply.history.stamps,
            (std::vector<TimestampElement>{
                {0, 2, 0, 3}, {2, 0, 1, 4}, {1, 2, 0, 5}, {1, 0, 1, 6}}));

  // Nothing to replay is still one replay relay: it ends the sync.
  GlobalMembership::CatchUpReply empty = m.AnswerCatchUp(CatchUpRequest{}, {});
  EXPECT_TRUE(empty.payloads.empty());
  EXPECT_TRUE(empty.history.replay);
  EXPECT_TRUE(empty.history.commits.empty());
  EXPECT_TRUE(empty.history.stamps.empty());
}

TEST_F(GlobalMembershipTest, LiveStampsWaitInTheSyncWindowUntilItCloses) {
  GlobalMembership m = Make(3, 1);
  m.OnExecuted(0, 3);
  m.OnExecuted(0, 1);
  m.OnExecuted(2, 0);
  EXPECT_FALSE(m.rejoined());
  m.Rejoin();
  EXPECT_TRUE(m.rejoined());

  // The request names the next entry of every instance.
  CatchUpRequest request = m.OpenSyncWindow();
  std::vector<Key> frontier;
  for (const CatchUpRequest::Next& next : request.executed_next)
    frontier.emplace_back(next.gid, next.seq);
  EXPECT_EQ(frontier, (std::vector<Key>{{0, 4}, {1, 0}, {2, 1}}));

  // Live stamps wait; the commits with them pass.
  GroupRelay live{.commits = {{0, 4}}, .stamps = {{2, 0, 4, 7}}};
  m.HoldBack(&live);
  EXPECT_TRUE(live.stamps.empty());
  EXPECT_EQ(CommitsOf(live), (std::vector<Key>{{0, 4}}));
  GroupRelay later{.stamps = {{0, 1, 0, 2}}};
  m.HoldBack(&later);
  EXPECT_TRUE(later.stamps.empty());

  // The catch-up history passes whole.
  GroupRelay history{.replay = true, .stamps = {{2, 0, 3, 6}}};
  m.HoldBack(&history);
  EXPECT_EQ(history.stamps.size(), 1u);

  // Closing the window (the history applied, or the owner's failsafe)
  // releases the held stamps in arrival order, once.
  EXPECT_EQ(m.CloseSyncWindow().stamps,
            (std::vector<TimestampElement>{{2, 0, 4, 7}, {0, 1, 0, 2}}));
  EXPECT_TRUE(m.CloseSyncWindow().stamps.empty());
  GroupRelay after{.stamps = {{2, 0, 5, 8}}};
  m.HoldBack(&after);
  EXPECT_EQ(after.stamps.size(), 1u);
}

TEST_F(GlobalMembershipTest, CountsStampsBelowTheirAssignersHighest) {
  GlobalMembership m = Make(3, 0);
  m.OnStampApplied(TimestampElement{1, 0, 0, 5});
  m.OnStampApplied(TimestampElement{1, 0, 1, 5});  // Equal is in order.
  m.OnStampApplied(TimestampElement{2, 0, 0, 1});  // Another assigner.
  EXPECT_EQ(Count("membership/late_stamps"), 0u);
  m.OnStampApplied(TimestampElement{1, 2, 0, 4});
  EXPECT_EQ(Count("membership/late_stamps"), 1u);

  // Group 1's own stamp, arriving below the value its takeover froze.
  ASSERT_TRUE(m.Suspect(1));
  ASSERT_EQ(m.OpenFreezeRound(1, {}).query, Groups{2});
  m.OnFreezeReport(2, Freeze{1, 8}, {});
  m.OnStampApplied(TimestampElement{1, 0, 2, 6});
  EXPECT_EQ(Count("membership/late_stamps"), 2u);
}

TEST_F(GlobalMembershipTest, CountsStampsThatConflictWithARecordedOne) {
  // Item 1's breach: two values for one element from one assigner, such as
  // a takeover's frozen stamp and the group's own.
  GlobalMembership m = Make(3, 0);
  m.OnStampApplied(TimestampElement{1, 0, 0, 5});
  m.OnStampApplied(TimestampElement{1, 0, 0, 5});  // A resent copy.
  m.OnStampApplied(TimestampElement{2, 0, 0, 3});  // Another assigner.
  EXPECT_EQ(Count("membership/conflicting_stamps"), 0u);
  m.OnStampApplied(TimestampElement{1, 0, 0, 7});
  EXPECT_EQ(Count("membership/conflicting_stamps"), 1u);
  EXPECT_EQ(Count("membership/late_stamps"), 0u);
}

TEST_F(GlobalMembershipTest, CountsEveryTakeoverStarted) {
  // One per suspected group, whichever group then takes it over.
  GlobalMembership group1 = Make(4, 1);
  EXPECT_FALSE(group1.Suspect(3));
  EXPECT_TRUE(group1.Suspect(0));
  EXPECT_EQ(Count("membership/takeovers_started"), 2u);
  EXPECT_TRUE(group1.OnHeartbeat(3, kSecond));
  EXPECT_TRUE(group1.Suspect(3));
  EXPECT_EQ(Count("membership/takeovers_started"), 3u);
}

}  // namespace
}  // namespace massbft
