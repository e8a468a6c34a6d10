// Pins each protocol's simulated behaviour: eight fixed-seed runs must
// reproduce the ExperimentResult JSON checked in under tests/golden/ byte
// for byte. SmallBank draws its keys uniformly, so no libm call whose last
// bit may differ between hosts feeds the run (YCSB's Zipf generator calls
// std::pow). A deliberate behaviour change replaces the files in the same
// commit; on a mismatch the actual JSON is written next to this binary for
// diffing (and copying over the golden file once the change is intended).

#include <gtest/gtest.h>

#include <fstream>
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

std::string RunJson(const GoldenRun& run) {
  ExperimentConfig config;
  config.topology = TopologyConfig::Nationwide(3, 4);
  config.protocol = ProtocolConfig::ForKind(run.kind);
  config.workload = WorkloadKind::kSmallBank;
  config.workload_scale = 0.01;
  config.clients_per_group = 40;
  config.duration = 6 * kSecond;
  config.warmup = kSecond;
  config.seed = 11;
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

}  // namespace
}  // namespace massbft
