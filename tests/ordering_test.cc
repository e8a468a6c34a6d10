#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics_registry.h"
#include "ordering/ordering_engine.h"
#include "ordering/round_ordering.h"
#include "ordering/vts_ordering.h"

namespace massbft {
namespace {

using Executed = std::vector<std::pair<uint16_t, uint64_t>>;

/// Test double wiring an ordering engine to an availability set: an entry
/// may execute once it is in `available`. Each hook is followed by a
/// Poke(), as GroupNode does.
template <typename Engine>
struct Harness {
  explicit Harness(int num_groups) : engine(num_groups, Wire()) {}

  OrderingEngine::Callbacks Wire() {
    OrderingEngine::Callbacks cb;
    cb.can_execute = [this](uint16_t g, uint64_t s) {
      return available.contains({g, s});
    };
    cb.execute = [this](uint16_t g, uint64_t s) {
      executed.push_back({g, s});
    };
    return cb;
  }

  void MakeAvailable(uint16_t g, uint64_t s) {
    available.insert({g, s});
    engine.Poke();
  }
  void Commit(uint16_t g, uint64_t s) {
    engine.OnCommitted(g, s);
    engine.Poke();
  }
  void Stamp(uint16_t assigner, uint16_t g, uint64_t s, uint64_t ts) {
    engine.OnTimestamp(assigner, g, s, ts);
    engine.Poke();
  }
  void Seal(uint16_t g, uint64_t epoch, uint64_t count) {
    engine.OnEpochSealed(g, epoch, count);
    engine.Poke();
  }

  std::set<std::pair<uint16_t, uint64_t>> available;
  Executed executed;
  Engine engine;
};

using VtsHarness = Harness<VtsOrderingEngine>;
using RoundHarness = Harness<RoundOrderingEngine>;
using EpochHarness = Harness<EpochOrderingEngine>;
using FifoHarness = Harness<FifoOrderingEngine>;

TEST(VtsOrderingTest, SingleGroupExecutesInSequence) {
  VtsHarness h(1);
  h.MakeAvailable(0, 0);
  h.MakeAvailable(0, 1);
  h.MakeAvailable(0, 2);
  EXPECT_EQ(h.executed, (Executed{{0, 0}, {0, 1}, {0, 2}}));
}

TEST(VtsOrderingTest, WaitsForTimestampsBeforeExecuting) {
  VtsHarness h(2);
  h.MakeAvailable(0, 0);
  h.MakeAvailable(1, 0);
  // (0,0) = <0, ?> and (1,0) = <?, 0>: neither knows the element that
  // would put it first.
  EXPECT_TRUE(h.executed.empty());
  // Group 1 stamps (0,0) at 1: (0,0) = <0, 1>, while (1,0) = <≥0, 0>.
  // Still undecidable: (1,0) precedes if group 0 stamps it 0, and follows
  // if group 0 stamps it higher.
  h.Stamp(1, 0, 0, 1);
  EXPECT_TRUE(h.executed.empty());
  // Group 0 stamps (1,0) at 0: <0, 0> precedes <0, 1>. The next head,
  // (1,1) = <≥0, 1>, meets (0,0) = <0, 1> at a bound equal to (0,0)'s set
  // element 0 (case 1): a higher final value puts (0,0) first, an equal
  // one leaves element 1 (a tie) and then seq 0 < 1, also (0,0) first.
  h.Stamp(0, 1, 0, 0);
  EXPECT_EQ(h.executed, (Executed{{1, 0}, {0, 0}}));
}

TEST(VtsOrderingTest, PromotedHeadStartsAtTheAssignersHighestStamp) {
  // Case 2: group 1 stamps (2,1) at 3 while (0,0) is head. Once (0,0)
  // executes, its successor (0,1), which group 1 has not stamped, starts
  // its element 1 at 3, not at (0,0)'s 1, so (2,0) = <1, 2, 0> precedes
  // (0,1) = <1, ≥3, ≥0> at once.
  VtsHarness h(3);
  h.Stamp(2, 0, 0, 0);
  h.Stamp(1, 0, 0, 1);
  h.Stamp(0, 2, 0, 1);
  h.Stamp(0, 1, 0, 2);
  h.Stamp(1, 2, 0, 2);
  h.Stamp(1, 2, 1, 3);
  h.MakeAvailable(2, 0);
  EXPECT_TRUE(h.executed.empty());  // (0,0) = <0, 1, 0> comes first.
  h.MakeAvailable(0, 0);
  EXPECT_EQ(h.executed, (Executed{{0, 0}, {2, 0}}));
}

TEST(VtsOrderingTest, FastGroupNotBlockedBySlowGroup) {
  // The Fig 2 / Fig 6 scenario: group 0 proposes twice as fast; its
  // entries execute as soon as the slow group's clock assignments arrive,
  // without waiting for the slow group's own entries.
  VtsHarness h(2);
  for (uint64_t s = 0; s < 4; ++s) h.MakeAvailable(0, s);
  // Group 1 (slow) stamps group 0's entries with an advancing clock; group
  // 0 stamps nothing of group 1 (group 1 proposed nothing), but its own
  // clock advances via commits; group 1's head (1,0) element-0 bound rises
  // as group 0's entries are stamped by group 0 itself... Feed ts events:
  for (uint64_t s = 0; s < 4; ++s) {
    h.Stamp(1, 0, s, s);      // Slow group's assignments.
    h.Stamp(0, 0, s, s + 1);  // Own-group observation: raises
                              // head(1,0).vts[0] bound.
  }
  // All four fast-group entries executed; none of the slow group's.
  EXPECT_EQ(h.executed.size(), 4u);
  for (auto& [g, s] : h.executed) EXPECT_EQ(g, 0);
}

TEST(VtsOrderingTest, ExecutionBlockedUntilPayloadAvailable) {
  VtsHarness h(2);
  // Make ordering decidable but payload unavailable.
  h.Stamp(1, 0, 0, 0);
  h.Stamp(0, 1, 0, 5);
  EXPECT_TRUE(h.executed.empty());
  h.MakeAvailable(0, 0);
  EXPECT_EQ(h.executed, (Executed{{0, 0}}));
}

TEST(VtsOrderingTest, TieBrokenBySeqThenGid) {
  // Two entries with identical fully-set VTS <1,1,1>: the smaller (seq,
  // gid) executes first (paper Lemma V.4 example e_{2,5} vs e_{3,4}).
  VtsHarness h(3);
  // Heads: (0,0),(1,0),(2,0) — all seq 0. Give all of them full VTS <0,0,0>
  // by cross-stamping with ts=0, then the tie-break (seq equal) uses gid.
  for (uint64_t seq : {0, 1})
    for (int assigner = 0; assigner < 3; ++assigner)
      for (int target = 0; target < 3; ++target)
        if (assigner != target)
          h.Stamp(assigner, target, seq, seq);
  for (uint64_t seq : {0, 1}) {
    h.MakeAvailable(0, seq);
    h.MakeAvailable(1, seq);
    h.MakeAvailable(2, seq);
  }
  // The tail entry may stay blocked pending future timestamps (inference
  // cannot decide against a virtual head), but the tie-broken prefix is
  // fixed: identical VTSs execute in (seq, gid) order.
  ASSERT_GE(h.executed.size(), 5u);
  EXPECT_EQ(h.executed[0], (std::pair<uint16_t, uint64_t>{0, 0}));
  EXPECT_EQ(h.executed[1], (std::pair<uint16_t, uint64_t>{1, 0}));
  EXPECT_EQ(h.executed[2], (std::pair<uint16_t, uint64_t>{2, 0}));
  EXPECT_EQ(h.executed[3], (std::pair<uint16_t, uint64_t>{0, 1}));
  EXPECT_EQ(h.executed[4], (std::pair<uint16_t, uint64_t>{1, 1}));
}

TEST(VtsOrderingTest, CountsStampsBelowAnInferredBound) {
  obs::MetricsRegistry metrics;
  obs::Counter* below = metrics.GetCounter("vts/stamps_below_inferred");
  OrderingEngine::Callbacks cb;
  cb.can_execute = [](uint16_t, uint64_t) { return false; };
  cb.execute = [](uint16_t, uint64_t) {};
  cb.stamps_below_inferred = below;
  VtsOrderingEngine engine(3, std::move(cb));
  // Group 1 stamps (0,1) at 5 before (0,0): the heads' group-1 elements,
  // (0,0)'s and (2,0)'s, are inferred to be at least 5.
  engine.OnTimestamp(1, 0, 1, 5);
  engine.OnTimestamp(2, 0, 0, 3);  // Nothing inferred from group 2 yet.
  EXPECT_EQ(below->value(), 0u);
  engine.OnTimestamp(1, 0, 0, 2);
  EXPECT_EQ(below->value(), 1u);
  engine.OnTimestamp(1, 2, 0, 5);  // At the bound is no breach.
  EXPECT_EQ(below->value(), 1u);
}

TEST(VtsOrderingTest, MonotonicPerGroup) {
  // Lemma V.5: entries of one group always execute in sequence order.
  VtsHarness h(2);
  Rng rng(7);
  for (uint64_t s = 0; s < 20; ++s) {
    h.MakeAvailable(0, s);
    h.MakeAvailable(1, s);
  }
  // Random but per-assigner-monotone stamping.
  uint64_t clk0 = 0, clk1 = 0;
  for (uint64_t s = 0; s < 20; ++s) {
    h.Stamp(0, 1, s, ++clk0);
    h.Stamp(1, 0, s, ++clk1);
  }
  std::map<uint16_t, uint64_t> next;
  for (auto& [g, s] : h.executed) {
    EXPECT_EQ(s, next[g]) << "group " << g;
    next[g] = s + 1;
  }
  EXPECT_GE(h.executed.size(), 30u);
}

/// Agreement property: two engines fed the same timestamp events in
/// different (valid) orders execute identical sequences.
class VtsAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VtsAgreementTest, PermutedDeliveryYieldsSameOrder) {
  const int kGroups = 3;
  const uint64_t kEntries = 12;

  // Build a ground-truth event set simulating per-group clocks:
  // group g's entry s gets stamped by every other group j with a clock
  // value that is non-decreasing in j's stamping order.
  struct Event {
    uint16_t assigner, target;
    uint64_t seq, ts;
  };
  std::vector<Event> events;
  Rng gen(GetParam());
  // Interleave proposals randomly, then stamp in that interleaved order.
  std::vector<std::pair<uint16_t, uint64_t>> proposals;
  for (int g = 0; g < kGroups; ++g)
    for (uint64_t s = 0; s < kEntries; ++s)
      proposals.push_back({static_cast<uint16_t>(g), s});
  // Random interleave preserving per-group order.
  std::vector<std::pair<uint16_t, uint64_t>> order;
  std::vector<uint64_t> next(kGroups, 0);
  while (order.size() < proposals.size()) {
    int g = static_cast<int>(gen.NextBelow(kGroups));
    if (next[g] < kEntries) order.push_back({static_cast<uint16_t>(g), next[g]++});
  }
  std::vector<uint64_t> clk(kGroups, 0);
  for (auto& [g, s] : order) {
    for (int j = 0; j < kGroups; ++j) {
      if (j == g) continue;
      events.push_back({static_cast<uint16_t>(j), g, s, clk[j]});
    }
    clk[g] = s + 1;  // Proposer's clock advances on its own commit.
  }

  // Deliver to two engines in different permutations that respect
  // per-assigner order (each group's raft instance delivers its
  // timestamps in order).
  auto run = [&](uint64_t seed) {
    VtsHarness h(kGroups);
    for (int g = 0; g < kGroups; ++g)
      for (uint64_t s = 0; s < kEntries; ++s)
        h.available.insert({static_cast<uint16_t>(g), s});
    std::vector<size_t> idx(kGroups, 0);
    // Per-assigner queues.
    std::vector<std::vector<Event>> queues(kGroups);
    for (const Event& e : events) queues[e.assigner].push_back(e);
    Rng perm(seed);
    size_t remaining = events.size();
    while (remaining > 0) {
      int a = static_cast<int>(perm.NextBelow(kGroups));
      if (idx[a] >= queues[a].size()) continue;
      const Event& e = queues[a][idx[a]++];
      h.Stamp(e.assigner, e.target, e.seq, e.ts);
      --remaining;
    }
    h.engine.Poke();
    return h.executed;
  };

  Executed a = run(1111);
  Executed b = run(9999);
  size_t common = std::min(a.size(), b.size());
  EXPECT_GT(common, 0u);
  for (size_t i = 0; i < common; ++i)
    EXPECT_EQ(a[i], b[i]) << "diverged at " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, VtsAgreementTest,
                         ::testing::Values(1, 2, 3, 4, 5, 17, 99, 12345));

// ------------------------------------------ Exhaustive small-scope check

// Theorem V.6 at small scope (ROADMAP item 2.3): for every ground truth of
// 3 groups x 2 entries, every delivery order that keeps each assigner's
// stamps in order must make a fresh engine execute a prefix of the sort by
// final VTS with the (seq, gid) tie-break.

constexpr int kSmallGroups = 3;
constexpr uint64_t kSmallEntries = 2;
constexpr size_t kSmallEntryCount = kSmallGroups * kSmallEntries;

struct StampEvent {
  uint16_t assigner, target;
  uint64_t seq, ts;
  auto operator<=>(const StampEvent&) const = default;
};
/// A ground truth: each assigner's stamps in the order it issues them.
using Truth = std::vector<std::vector<StampEvent>>;

/// The stamps of one proposal interleaving: each other group stamps an
/// entry with its clock when the entry is proposed. A group's clock moves
/// past its own entry s at once, or, with `lazy_clocks`, only at its next
/// proposal, so that it stamps others' entries with s itself and ties
/// occur.
Truth MakeTruth(const std::vector<uint16_t>& proposers, bool lazy_clocks) {
  Truth truth(kSmallGroups);
  std::vector<uint64_t> clock(kSmallGroups, 0), next(kSmallGroups, 0);
  for (uint16_t g : proposers) {
    const uint64_t s = next[g]++;
    if (lazy_clocks) clock[g] = s;
    for (uint16_t j = 0; j < kSmallGroups; ++j)
      if (j != g) truth[j].push_back({j, g, s, clock[j]});
    if (!lazy_clocks) clock[g] = s + 1;
  }
  return truth;
}

/// Every distinct truth: all 90 interleavings, each with eager and with
/// lazy clocks.
std::vector<Truth> SmallTruths() {
  std::vector<uint16_t> proposers;
  for (uint16_t g = 0; g < kSmallGroups; ++g)
    proposers.insert(proposers.end(), kSmallEntries, g);
  std::set<Truth> truths;
  do {
    truths.insert(MakeTruth(proposers, /*lazy_clocks=*/false));
    truths.insert(MakeTruth(proposers, /*lazy_clocks=*/true));
  } while (std::next_permutation(proposers.begin(), proposers.end()));
  return {truths.begin(), truths.end()};
}

/// The oracle: the entries sorted by final VTS, then (seq, gid).
Executed FinalOrder(const Truth& truth) {
  std::map<std::pair<uint16_t, uint64_t>, std::vector<uint64_t>> vts;
  for (uint16_t g = 0; g < kSmallGroups; ++g)
    for (uint64_t s = 0; s < kSmallEntries; ++s) {
      vts[{g, s}].assign(kSmallGroups, 0);
      vts[{g, s}][g] = s;
    }
  for (const auto& stamps : truth)
    for (const StampEvent& e : stamps)
      vts[{e.target, e.seq}][e.assigner] = e.ts;
  Executed order;
  for (const auto& [key, v] : vts) order.push_back(key);
  std::sort(order.begin(), order.end(), [&vts](const auto& a, const auto& b) {
    return std::tie(vts[a], a.second, a.first) <
           std::tie(vts[b], b.second, b.first);
  });
  return order;
}

struct SweepResult {
  uint64_t engines = 0;
  uint64_t deviations = 0;
  uint64_t executed_all = 0;
};

/// Feeds `truth` to one fresh engine per delivery order and compares each
/// executed sequence with the oracle. Visits every `stride`-th order, and
/// stops at the first deviation when `stop_at_deviation`.
void Sweep(const Truth& truth, size_t stride, bool stop_at_deviation,
           SweepResult* result) {
  const Executed oracle = FinalOrder(truth);
  std::vector<uint16_t> order;  // Which assigner's next stamp arrives.
  for (uint16_t j = 0; j < kSmallGroups; ++j)
    order.insert(order.end(), truth[j].size(), j);
  Executed executed;
  executed.reserve(kSmallEntryCount);
  size_t index = 0;
  do {
    if (index++ % stride != 0) continue;
    executed.clear();
    OrderingEngine::Callbacks cb;
    cb.can_execute = [](uint16_t, uint64_t s) { return s < kSmallEntries; };
    cb.execute = [&executed](uint16_t g, uint64_t s) {
      executed.push_back({g, s});
    };
    VtsOrderingEngine engine(kSmallGroups, std::move(cb));
    std::vector<size_t> delivered(kSmallGroups, 0);
    for (uint16_t j : order) {
      const StampEvent& e = truth[j][delivered[j]++];
      engine.OnTimestamp(e.assigner, e.target, e.seq, e.ts);
      engine.Poke();
    }
    ++result->engines;
    if (executed.size() == kSmallEntryCount) ++result->executed_all;
    if (!std::equal(executed.begin(), executed.end(), oracle.begin())) {
      ++result->deviations;
      if (stop_at_deviation) return;
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

// An optimized build visits all 34,650 delivery orders of each truth, 6.2
// million engines in all (about 14 s on one x86-64 core); an unoptimized
// one (the sanitizer leg's Debug build, about 50 times slower per engine)
// every 29th. Each shard takes every kShards-th truth, so that ctest runs
// the shards in parallel.
#ifdef NDEBUG
constexpr size_t kOrderStride = 1;
#else
constexpr size_t kOrderStride = 29;
#endif
constexpr int kShards = 6;

class VtsExhaustiveTest : public ::testing::TestWithParam<int> {};

TEST_P(VtsExhaustiveTest, EveryFifoDeliveryExecutesAPrefixOfTheFinalOrder) {
  const std::vector<Truth> truths = SmallTruths();
  ASSERT_EQ(truths.size(), 180u);
  SweepResult result;
  size_t shard_truths = 0;
  for (size_t i = GetParam(); i < truths.size(); i += kShards, ++shard_truths)
    Sweep(truths[i], kOrderStride, /*stop_at_deviation=*/false, &result);
  EXPECT_EQ(result.deviations, 0u);
  EXPECT_EQ(result.engines,
            shard_truths * ((34650 + kOrderStride - 1) / kOrderStride));
  // Once every stamp is in, some runs execute all six entries; an engine
  // that waits on bounds equal to a set element executes none that way.
  EXPECT_GT(result.executed_all, 0u);
  std::cout << shard_truths << " truths, " << result.engines
            << " engines, " << result.executed_all << " executed all "
            << kSmallEntryCount << " entries\n";
}

INSTANTIATE_TEST_SUITE_P(Shards, VtsExhaustiveTest,
                         ::testing::Range(0, kShards));

/// True when some truth, with `mutate` applied, makes some delivery order
/// execute off the oracle's order.
bool SomeDeliveryDeviates(const std::function<void(Truth*)>& mutate) {
  for (Truth truth : SmallTruths()) {
    mutate(&truth);
    SweepResult result;
    Sweep(truth, kOrderStride, /*stop_at_deviation=*/true, &result);
    if (result.deviations > 0) return true;
  }
  return false;
}

TEST(VtsExhaustiveMutantTest, OutOfOrderStampsBreakTheCheck) {
  // Rule 1 broken: group 0's stamps arrive in reverse.
  EXPECT_TRUE(SomeDeliveryDeviates([](Truth* truth) {
    std::reverse((*truth)[0].begin(), (*truth)[0].end());
  }));
}

TEST(VtsExhaustiveMutantTest, DecreasingStampsAlongALogBreakTheCheck) {
  // Rule 2 broken: group 0 stamps (2,1) first, so below (2,0), as a group
  // that accepts an instance's entries out of order would. Its stamps
  // still arrive in non-decreasing order.
  EXPECT_TRUE(SomeDeliveryDeviates([](Truth* truth) {
    for (StampEvent& e : (*truth)[0])
      if (e.target == 2) e.seq = kSmallEntries - 1 - e.seq;
  }));
}

// --------------------------------------------------------- Round ordering

TEST(RoundOrderingTest, RoundWaitsForAllGroups) {
  RoundHarness h(3);
  h.MakeAvailable(0, 0);
  h.MakeAvailable(2, 0);
  EXPECT_TRUE(h.executed.empty());  // Group 1 missing: the Fig 2 stall.
  h.MakeAvailable(1, 0);
  EXPECT_EQ(h.executed, (Executed{{0, 0}, {1, 0}, {2, 0}}));
}

TEST(RoundOrderingTest, FastGroupLimitedBySlowGroup) {
  RoundHarness h(2);
  // Group 0 completes rounds 0..4; group 1 only round 0.
  for (uint64_t s = 0; s < 5; ++s) h.MakeAvailable(0, s);
  h.MakeAvailable(1, 0);
  EXPECT_EQ(h.executed.size(), 2u);  // Only round 0 executed.
  EXPECT_EQ(h.engine.current_round(), 1u);
}

TEST(RoundOrderingTest, GidOrderWithinRound) {
  RoundHarness h(3);
  h.MakeAvailable(2, 0);
  h.MakeAvailable(1, 0);
  h.MakeAvailable(0, 0);
  EXPECT_EQ(h.executed, (Executed{{0, 0}, {1, 0}, {2, 0}}));
}

TEST(RoundOrderingTest, MultipleRoundsExecuteInOrder) {
  RoundHarness h(2);
  for (uint64_t s = 0; s < 3; ++s) {
    h.MakeAvailable(0, s);
    h.MakeAvailable(1, s);
  }
  EXPECT_EQ(h.executed,
            (Executed{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0, 2}, {1, 2}}));
  EXPECT_EQ(h.engine.executed_count(), 6u);
}

// --------------------------------------------------------- Epoch ordering

TEST(EpochOrderingTest, EpochWaitsForAllMarkers) {
  EpochHarness h(2);
  h.MakeAvailable(0, 0);
  h.MakeAvailable(0, 1);
  h.MakeAvailable(1, 0);
  h.Seal(0, 0, 2);
  EXPECT_TRUE(h.executed.empty());  // Group 1's marker missing.
  h.Seal(1, 0, 1);
  EXPECT_EQ(h.executed, (Executed{{0, 0}, {0, 1}, {1, 0}}));
  EXPECT_EQ(h.engine.current_epoch(), 1u);
}

TEST(EpochOrderingTest, EmptyEpochsAdvance) {
  EpochHarness h(2);
  h.Seal(0, 0, 0);
  h.Seal(1, 0, 0);
  EXPECT_EQ(h.engine.current_epoch(), 1u);
  EXPECT_TRUE(h.executed.empty());
}

TEST(EpochOrderingTest, EpochBlockedOnUnavailableEntry) {
  EpochHarness h(2);
  h.MakeAvailable(0, 0);
  h.Seal(0, 0, 1);
  h.Seal(1, 0, 1);
  EXPECT_TRUE(h.executed.empty());  // (1,0) not yet replicated.
  h.MakeAvailable(1, 0);
  EXPECT_EQ(h.executed.size(), 2u);
}

TEST(EpochOrderingTest, ConsecutiveEpochsCarrySequenceRanges) {
  EpochHarness h(1);
  for (uint64_t s = 0; s < 5; ++s) h.MakeAvailable(0, s);
  h.Seal(0, 0, 2);
  EXPECT_EQ(h.executed.size(), 2u);
  h.Seal(0, 1, 3);
  EXPECT_EQ(h.executed.size(), 5u);
  EXPECT_EQ(h.executed.back(), (std::pair<uint16_t, uint64_t>{0, 4}));
}

TEST(EpochOrderingTest, EachGroupEpochStartsWhereItsLastEnded) {
  // Groups contribute different counts; each group's ranges follow on
  // from its own earlier epochs.
  EpochHarness h(2);
  for (uint64_t s = 0; s < 3; ++s) {
    h.MakeAvailable(0, s);
    h.MakeAvailable(1, s);
  }
  h.Seal(0, 0, 2);
  h.Seal(1, 0, 1);
  h.Seal(1, 1, 2);
  h.Seal(0, 1, 1);
  EXPECT_EQ(h.executed,
            (Executed{{0, 0}, {0, 1}, {1, 0}, {0, 2}, {1, 1}, {1, 2}}));
}

TEST(EpochOrderingTest, RepeatedSealCountsOnce) {
  // The script above with group 0's first seal delivered twice, as a
  // duplicated frame would. Counted twice, it would move group 0's epoch 0
  // to [2, 4) and every later epoch with it.
  EpochHarness h(2);
  for (uint64_t s = 0; s < 3; ++s) {
    h.MakeAvailable(0, s);
    h.MakeAvailable(1, s);
  }
  h.Seal(0, 0, 2);
  h.Seal(0, 0, 2);
  h.Seal(1, 0, 1);
  h.Seal(1, 1, 2);
  h.Seal(0, 1, 1);
  EXPECT_EQ(h.executed,
            (Executed{{0, 0}, {0, 1}, {1, 0}, {0, 2}, {1, 1}, {1, 2}}));
}

// ---------------------------------------------------------- FIFO ordering

TEST(FifoOrderingTest, ExecutesInCommitOrder) {
  FifoHarness h(3);
  for (auto [g, s] : Executed{{0, 0}, {1, 0}, {2, 0}, {1, 1}})
    h.MakeAvailable(g, s);
  for (auto [g, s] : Executed{{1, 0}, {2, 0}, {0, 0}, {1, 1}})
    h.Commit(g, s);
  EXPECT_EQ(h.executed, (Executed{{1, 0}, {2, 0}, {0, 0}, {1, 1}}));
  EXPECT_EQ(h.engine.executed_count(), 4u);
}

TEST(FifoOrderingTest, MissingPayloadHoldsBackLaterEntries) {
  FifoHarness h(2);
  h.Commit(1, 0);
  h.Commit(0, 0);
  h.MakeAvailable(0, 0);
  EXPECT_TRUE(h.executed.empty());  // (1,0) committed first, not here.
  h.MakeAvailable(1, 0);
  EXPECT_EQ(h.executed, (Executed{{1, 0}, {0, 0}}));
}

TEST(FifoOrderingTest, NothingRunsBeforeItCommits) {
  FifoHarness h(1);
  h.MakeAvailable(0, 0);
  h.MakeAvailable(0, 1);
  EXPECT_TRUE(h.executed.empty());
  h.Commit(0, 1);
  EXPECT_EQ(h.executed, (Executed{{0, 1}}));
  h.Commit(0, 0);
  EXPECT_EQ(h.executed, (Executed{{0, 1}, {0, 0}}));
}

// ------------------------------------------------------ Shared interface

TEST(OrderingEngineTest, PokeFromExecuteDoesNotNest) {
  // An execute callback that commits and pokes again (GroupNode's
  // execution can free a pipeline slot and so commit more) must not start
  // the next entry before it returns.
  std::vector<std::string> events;
  std::unique_ptr<OrderingEngine> engine;
  OrderingEngine::Callbacks cb;
  cb.can_execute = [](uint16_t, uint64_t) { return true; };
  cb.execute = [&](uint16_t, uint64_t s) {
    events.push_back("begin " + std::to_string(s));
    if (s == 0) {
      engine->OnCommitted(0, 1);
      engine->Poke();
    }
    events.push_back("end " + std::to_string(s));
  };
  engine = MakeOrderingEngine(OrderingMode::kFifo, 1, std::move(cb));
  engine->OnCommitted(0, 0);
  engine->Poke();
  EXPECT_EQ(events, (std::vector<std::string>{"begin 0", "end 0", "begin 1",
                                              "end 1"}));
}

}  // namespace
}  // namespace massbft
