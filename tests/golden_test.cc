// Pins each protocol's simulated behaviour: eight fixed-seed runs must
// reproduce the ExperimentResult JSON checked in under tests/golden/ byte
// for byte, and over ten seeds of the same configuration MassBFT must agree
// and keep its median latency at or below Baseline's. SmallBank draws its keys uniformly, so no libm call whose last
// bit may differ between hosts feeds the run (YCSB's Zipf generator calls
// std::pow). A deliberate behaviour change replaces the files in the same
// commit; on a mismatch the actual JSON is written next to this binary for
// diffing (and copying over the golden file once the change is intended).

#include <gtest/gtest.h>

#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <string>

#include "core/config.h"
#include "core/experiment.h"

namespace massbft {
namespace {

struct GoldenRun {
  const char* name;  // File stem under tests/golden/.
  ProtocolKind kind;
  bool group_crash;  // Group 2 down from 2 s to 5 s.
};

void PrintTo(const GoldenRun& run, std::ostream* os) { *os << run.name; }

/// The golden configuration: 3x4 nationwide, SmallBank at scale 0.01, 40
/// clients per group, 6 s with a 1 s warm-up.
ExperimentConfig GoldenConfig(ProtocolKind kind, uint64_t seed) {
  ExperimentConfig config;
  config.topology = TopologyConfig::Nationwide(3, 4);
  config.protocol = ProtocolConfig::ForKind(kind);
  config.workload = WorkloadKind::kSmallBank;
  config.workload_scale = 0.01;
  config.clients_per_group = 40;
  config.duration = 6 * kSecond;
  config.warmup = kSecond;
  config.seed = seed;
  return config;
}

std::string RunJson(const GoldenRun& run) {
  ExperimentConfig config = GoldenConfig(run.kind, /*seed=*/11);
  if (run.group_crash) {
    config.faults.crash_group = 2;
    config.faults.crash_at = 2 * kSecond;
    config.faults.recover_at = 5 * kSecond;
  }
  Experiment experiment(std::move(config));
  Status s = experiment.Setup();
  EXPECT_TRUE(s.ok()) << s.ToString();
  ExperimentResult result = experiment.Run();
  // Host-time fields (DESIGN.md §10), as in determinism_test.
  result.wall_ms = 0;
  result.events_per_sec = 0;
  result.sim_time_ratio = 0;
  return result.ToJson();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class GoldenTest : public ::testing::TestWithParam<GoldenRun> {};

TEST_P(GoldenTest, ResultJsonMatchesRecording) {
  const GoldenRun& run = GetParam();
  std::string actual = RunJson(run);
  std::string golden_path =
      std::string(MASSBFT_GOLDEN_DIR) + "/" + run.name + ".json";
  std::string expected = ReadFile(golden_path);
  if (actual == expected) return;
  std::string actual_path =
      std::string(MASSBFT_GOLDEN_ACTUAL_DIR) + "/" + run.name + ".json";
  std::ofstream(actual_path, std::ios::binary) << actual;
  ADD_FAILURE() << "simulated behaviour of " << run.name << " changed: diff "
                << golden_path << " " << actual_path;
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, GoldenTest,
    ::testing::Values(GoldenRun{"massbft", ProtocolKind::kMassBft, false},
                      GoldenRun{"baseline", ProtocolKind::kBaseline, false},
                      GoldenRun{"geobft", ProtocolKind::kGeoBft, false},
                      GoldenRun{"steward", ProtocolKind::kSteward, false},
                      GoldenRun{"iss", ProtocolKind::kIss, false},
                      GoldenRun{"br", ProtocolKind::kBr, false},
                      GoldenRun{"ebr", ProtocolKind::kEbr, false},
                      GoldenRun{"massbft_group_crash", ProtocolKind::kMassBft,
                                true}),
    [](const ::testing::TestParamInfo<GoldenRun>& info) {
      return std::string(info.param.name);
    });

// ROADMAP item 14: the golden run is one seed, so MassBFT's latency is
// also judged over ten. Its median commit latency must not exceed
// Baseline's in any of them; an entry that waits a batch round on a tied
// VTS bound (DESIGN.md §19) puts a seed a batch interval above it.
class GoldenSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GoldenSeedTest, MassBftMedianAtMostBaselines) {
  double p50_ms[2] = {0, 0};
  const ProtocolKind kinds[2] = {ProtocolKind::kMassBft,
                                 ProtocolKind::kBaseline};
  const char* names[2] = {"MassBFT", "Baseline"};
  for (int i = 0; i < 2; ++i) {
    Experiment experiment(GoldenConfig(kinds[i], GetParam()));
    Status s = experiment.Setup();
    ASSERT_TRUE(s.ok()) << s.ToString();
    ExperimentResult result = experiment.Run();
    EXPECT_GT(experiment.CheckAgreement(), 0) << names[i];
    EXPECT_GT(result.committed_txns, 0u) << names[i];
    p50_ms[i] = result.p50_latency_ms;
    std::cout << names[i] << " seed " << GetParam() << ": p50 "
              << result.p50_latency_ms << " ms, p99 "
              << result.p99_latency_ms << " ms, " << result.throughput_tps
              << " txn/s\n";
  }
  EXPECT_LE(p50_ms[0], p50_ms[1]) << "MassBFT p50 above Baseline's";
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, GoldenSeedTest, ::testing::Values(1, 2, 3, 4, 5, 6, 11, 12, 13, 14),
    [](const ::testing::TestParamInfo<uint64_t>& info) {
      return "seed" + std::to_string(info.param);
    });

}  // namespace
}  // namespace massbft
