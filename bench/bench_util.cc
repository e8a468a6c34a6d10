#include "bench/bench_util.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "common/logging.h"
#include "obs/json_writer.h"

namespace massbft {
namespace bench {

namespace {
BenchOptions g_options;
/// JSON objects of every run so far (--json rewrites the file per run, so
/// a killed bench still leaves a valid array behind).
std::vector<std::string> g_json_runs;
}  // namespace

const BenchOptions& GlobalOptions() { return g_options; }

BenchOptions BenchOptions::Parse(int argc, char** argv) {
  BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) opts.csv = true;
    if (std::strcmp(argv[i], "--fast") == 0) opts.fast = true;
    if (std::strcmp(argv[i], "--full") == 0) opts.fast = false;
    if (std::strncmp(argv[i], "--trace=", 8) == 0) opts.trace_file = argv[i] + 8;
    if (std::strcmp(argv[i], "--json") == 0) opts.json_file = "bench_results.json";
    if (std::strncmp(argv[i], "--json=", 7) == 0) opts.json_file = argv[i] + 7;
  }
  g_options = opts;
  g_json_runs.clear();
  return opts;
}

SimTime RunDuration(const BenchOptions& opts) {
  return opts.fast ? 3 * kSecond : 6 * kSecond;
}
SimTime WarmupDuration(const BenchOptions& opts) {
  return opts.fast ? 1 * kSecond : 2 * kSecond;
}

ExperimentResult RunOnce(ExperimentConfig config) {
  if (!g_options.trace_file.empty()) config.enable_tracing = true;
  Experiment experiment(std::move(config));
  Status status = experiment.Setup();
  MASSBFT_CHECK(status.ok());
  ExperimentResult result = experiment.Run();

  if (!g_options.trace_file.empty()) {
    Status written = experiment.WriteTrace(g_options.trace_file);
    if (!written.ok()) {
      MASSBFT_LOG(kWarn) << "trace export failed: " << written.ToString();
    }
  }
  if (!g_options.json_file.empty()) {
    std::ostringstream metrics_json;
    obs::JsonWriter metrics_writer(metrics_json);
    experiment.telemetry().registry().WriteJson(metrics_writer);
    g_json_runs.push_back("{\"result\":" + result.ToJson() +
                          ",\"metrics\":" + metrics_json.str() + "}");
    std::ofstream out(g_options.json_file, std::ios::trunc);
    out << "[\n";
    for (size_t i = 0; i < g_json_runs.size(); ++i)
      out << g_json_runs[i] << (i + 1 < g_json_runs.size() ? ",\n" : "\n");
    out << "]\n";
  }
  return result;
}

OperatingPoint FindKnee(ExperimentConfig base,
                        const std::vector<int>& client_ladder) {
  OperatingPoint point;
  for (int clients : client_ladder) {
    ExperimentConfig config = base;
    config.clients_per_group = clients;
    ExperimentResult result = RunOnce(std::move(config));
    if (result.throughput_tps > point.throughput_tps) {
      point.throughput_tps = result.throughput_tps;
      point.clients_per_group = clients;
      point.result = result;
    }
  }
  // Light-load probe for the intrinsic commit latency.
  ExperimentConfig light = base;
  light.clients_per_group = kLatencyProbeClients;
  ExperimentResult light_result = RunOnce(std::move(light));
  point.latency_ms = light_result.mean_latency_ms;
  point.p99_latency_ms = light_result.p99_latency_ms;
  return point;
}

std::vector<int> DefaultLadder(const BenchOptions& opts) {
  if (opts.fast) return {500, 2000, 8000};
  return {250, 1000, 4000, 12000};
}

TablePrinter::TablePrinter(std::vector<std::string> columns, bool csv)
    : columns_(std::move(columns)), csv_(csv) {
  widths_.reserve(columns_.size());
  for (const std::string& c : columns_)
    widths_.push_back(std::max<size_t>(c.size() + 2, 14));
}

void TablePrinter::PrintHeader() {
  if (header_printed_) return;
  header_printed_ = true;
  if (csv_) {
    for (size_t i = 0; i < columns_.size(); ++i)
      std::printf("%s%s", columns_[i].c_str(),
                  i + 1 < columns_.size() ? "," : "\n");
    return;
  }
  for (size_t i = 0; i < columns_.size(); ++i)
    std::printf("%-*s", static_cast<int>(widths_[i]), columns_[i].c_str());
  std::printf("\n");
  size_t total = 0;
  for (size_t w : widths_) total += w;
  for (size_t i = 0; i < total; ++i) std::printf("-");
  std::printf("\n");
}

void TablePrinter::Row(const std::vector<std::string>& cells) {
  PrintHeader();
  if (csv_) {
    for (size_t i = 0; i < cells.size(); ++i)
      std::printf("%s%s", cells[i].c_str(), i + 1 < cells.size() ? "," : "\n");
    return;
  }
  for (size_t i = 0; i < cells.size() && i < widths_.size(); ++i) {
    size_t width = std::max(widths_[i], cells[i].size() + 2);
    std::printf("%-*s", static_cast<int>(width), cells[i].c_str());
  }
  std::printf("\n");
  std::fflush(stdout);
}

std::string TablePrinter::Num(double v, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

}  // namespace bench
}  // namespace massbft
