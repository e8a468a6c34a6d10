#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "obs/flight_recorder.h"
#include "obs/json_writer.h"
#include "obs/metrics_registry.h"
#include "obs/prometheus.h"
#include "obs/stats_server.h"
#include "obs/telemetry.h"
#include "obs/trace_clock.h"
#include "obs/trace_merge.h"
#include "obs/trace_recorder.h"
#include "sim/time.h"

namespace massbft {
namespace {

// ------------------------------------------------------------------------
// Minimal recursive-descent JSON validator. The exporters promise
// syntactically valid JSON; this checks that promise without pulling in a
// parser dependency.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    if (!ParseValue()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ParseValue() {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return ParseObject();
    if (c == '[') return ParseArray();
    if (c == '"') return ParseString();
    if (c == 't') return ParseLiteral("true");
    if (c == 'f') return ParseLiteral("false");
    if (c == 'n') return ParseLiteral("null");
    return ParseNumber();
  }
  bool ParseObject() {
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      if (!ParseString()) return false;
      if (!Consume(':')) return false;
      if (!ParseValue()) return false;
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }
  bool ParseArray() {
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      if (!ParseValue()) return false;
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }
  bool ParseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char e = text_[pos_];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isxdigit(static_cast<unsigned char>(text_[pos_])))
              return false;
          }
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' &&
                   e != 'f' && e != 'n' && e != 'r' && e != 't') {
          return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // Unescaped control character.
      }
      ++pos_;
    }
    return false;
  }
  bool ParseLiteral(const char* lit) {
    size_t n = std::string(lit).size();
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    if (pos_ == start) return false;
    char* end = nullptr;
    std::string num = text_.substr(start, pos_ - start);
    std::strtod(num.c_str(), &end);
    return end != nullptr && *end == '\0';
  }

  const std::string& text_;
  size_t pos_ = 0;
};

/// Counts non-overlapping occurrences of `needle` in `text`.
size_t CountOccurrences(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++count;
  return count;
}

bool IsValidJson(const std::string& text) {
  return JsonValidator(text).Valid();
}

// --------------------------------------------------------------- JsonWriter

TEST(JsonWriterTest, ObjectsArraysAndCommas) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Member("a", 1);
  w.Member("b", "two");
  w.Key("c");
  w.BeginArray();
  w.Value(1.5);
  w.Value(true);
  w.Null();
  w.BeginObject();
  w.Member("nested", uint64_t{18446744073709551615ull});
  w.EndObject();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(out.str(),
            "{\"a\":1,\"b\":\"two\",\"c\":[1.5,true,null,"
            "{\"nested\":18446744073709551615}]}");
  EXPECT_TRUE(IsValidJson(out.str()));
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(obs::JsonWriter::Escape("plain"), "plain");
  EXPECT_EQ(obs::JsonWriter::Escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::JsonWriter::Escape("tab\there\n"), "tab\\there\\n");
  std::string ctrl(1, '\x01');
  EXPECT_EQ(obs::JsonWriter::Escape(ctrl), "\\u0001");

  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginObject();
  w.Member("k\"ey", std::string("v\\1\n"));
  w.EndObject();
  EXPECT_TRUE(IsValidJson(out.str()));
}

TEST(JsonWriterTest, NumbersRoundTrip) {
  std::ostringstream out;
  obs::JsonWriter w(out);
  w.BeginArray();
  w.Value(0.125);
  w.Value(int64_t{-7});
  w.Value(3.0);
  w.EndArray();
  EXPECT_TRUE(IsValidJson(out.str()));
  EXPECT_NE(out.str().find("0.125"), std::string::npos);
  EXPECT_NE(out.str().find("-7"), std::string::npos);
}

// --------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, HandlesAreStableAndShared) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.GetCounter("net/wan_bytes_sent");
  obs::Counter* b = registry.GetCounter("net/wan_bytes_sent");
  EXPECT_EQ(a, b);
  EXPECT_EQ(registry.counter_count(), 1u);

  a->Add(5);
  b->Add();
  EXPECT_EQ(a->value(), 6u);

  obs::Gauge* g = registry.GetGauge("net/util");
  EXPECT_EQ(g, registry.GetGauge("net/util"));
  g->Set(0.75);
  EXPECT_DOUBLE_EQ(g->value(), 0.75);

  obs::Histogram* h = registry.GetHistogram("pbft/prepare_ms");
  EXPECT_EQ(h, registry.GetHistogram("pbft/prepare_ms"));
  EXPECT_EQ(registry.gauge_count(), 1u);
  EXPECT_EQ(registry.histogram_count(), 1u);
}

TEST(HistogramTest, ExactStatsAndApproxPercentiles) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.GetHistogram("h");
  EXPECT_DOUBLE_EQ(h->min(), 0.0);
  EXPECT_DOUBLE_EQ(h->max(), 0.0);
  EXPECT_DOUBLE_EQ(h->mean(), 0.0);
  EXPECT_DOUBLE_EQ(h->Percentile(0.5), 0.0);

  for (int i = 1; i <= 100; ++i) h->Record(static_cast<double>(i));
  EXPECT_EQ(h->count(), 100u);
  EXPECT_DOUBLE_EQ(h->sum(), 5050.0);
  EXPECT_DOUBLE_EQ(h->min(), 1.0);
  EXPECT_DOUBLE_EQ(h->max(), 100.0);
  EXPECT_DOUBLE_EQ(h->mean(), 50.5);
  // Geometric buckets: percentile exact to within a factor of 2.
  double p50 = h->Percentile(0.5);
  EXPECT_GE(p50, 25.0);
  EXPECT_LE(p50, 128.0);
  double p99 = h->Percentile(0.99);
  EXPECT_GE(p99, 64.0);
  EXPECT_LE(p99, 256.0);
  EXPECT_LE(p50, p99);
}

TEST(MetricsRegistryTest, WriteJsonIsValidAndDeterministic) {
  obs::MetricsRegistry registry;
  registry.GetCounter("z/last")->Add(2);
  registry.GetCounter("a/first")->Add(1);
  registry.GetGauge("util")->Set(0.5);
  registry.GetHistogram("lat_ms")->Record(3.25);

  auto dump = [&registry]() {
    std::ostringstream out;
    obs::JsonWriter w(out);
    registry.WriteJson(w);
    return out.str();
  };
  std::string first = dump();
  EXPECT_TRUE(IsValidJson(first));
  EXPECT_NE(first.find("\"a/first\""), std::string::npos);
  EXPECT_NE(first.find("\"z/last\""), std::string::npos);
  EXPECT_NE(first.find("\"lat_ms\""), std::string::npos);
  // Sorted output: a/first serialized before z/last.
  EXPECT_LT(first.find("\"a/first\""), first.find("\"z/last\""));
  EXPECT_EQ(first, dump());
}

// ------------------------------------------------------------ TraceRecorder

TEST(TraceRecorderTest, DisabledByDefaultRecordsNothing) {
  obs::TraceRecorder trace;
  EXPECT_FALSE(trace.enabled());
  trace.RecordSpan(1, "cat", "name", 0, kMillisecond);
  trace.RecordInstant(1, "cat", "tick", kMillisecond);
  EXPECT_EQ(trace.event_count(), 0u);
}

TEST(TraceRecorderTest, RecordsAndClears) {
  obs::TraceRecorder trace;
  trace.set_enabled(true);
  trace.RecordSpan(7, "entry", "batching", kMillisecond, 3 * kMillisecond,
                   obs::TraceArgs{{{"gid", 1.0}, {"seq", 9.0}}});
  trace.RecordInstant(7, "client", "submit", 2 * kMillisecond);
  EXPECT_EQ(trace.event_count(), 2u);
}

// ---------------------------------------------------------------- Telemetry

TEST(TelemetryTest, PhaseSpansFeedHistogramAndTrace) {
  obs::Telemetry tel;
  EXPECT_FALSE(tel.tracing());
  tel.RecordPhaseSpan(obs::Phase::kLocalConsensus, 7, kMillisecond,
                      5 * kMillisecond, 0, 1);
  const obs::Histogram& local = tel.phase(obs::Phase::kLocalConsensus);
  EXPECT_EQ(local.count(), 1u);
  EXPECT_DOUBLE_EQ(local.sum(), 4.0);  // Milliseconds.
  EXPECT_EQ(tel.trace().event_count(), 0u);  // Tracing off: no span.

  tel.set_tracing(true);
  tel.RecordPhaseSpan(obs::Phase::kLocalConsensus, 7, 0, 2 * kMillisecond, 0,
                      2);
  EXPECT_EQ(local.count(), 2u);
  EXPECT_DOUBLE_EQ(local.sum(), 6.0);
  EXPECT_EQ(tel.trace().event_count(), 1u);
}

TEST(TelemetryTest, EventsGoToTheFlightRingAndWhenTracingTheTrace) {
  obs::Telemetry tel;
  tel.RecordEvent(65536, "membership", "suspect", kMillisecond, {"gid", 2.0});
  EXPECT_EQ(tel.trace().event_count(), 0u);  // Tracing off: flight only.

  tel.set_tracing(true);
  tel.RecordEvent(65536, "membership", "takeover", 2 * kMillisecond,
                  {"gid", 2.0}, {"detail", 5.0});
  const std::vector<obs::FlightEvent> flight = tel.flight().Snapshot();
  ASSERT_EQ(flight.size(), 2u);
  EXPECT_EQ(flight[1].t_ns, static_cast<uint64_t>(2 * kMillisecond));
  EXPECT_EQ(flight[1].track, 65536u);
  EXPECT_STREQ(flight[1].name, "takeover");
  EXPECT_DOUBLE_EQ(flight[1].a, 2.0);
  EXPECT_DOUBLE_EQ(flight[1].b, 5.0);
  // The same event, as an instant on the same track with named args.
  const std::vector<obs::TraceRecorder::Event> trace = tel.trace().snapshot();
  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].kind, obs::TraceRecorder::EventKind::kInstant);
  EXPECT_EQ(trace[0].track, 65536u);
  EXPECT_STREQ(trace[0].category, "membership");
  EXPECT_STREQ(trace[0].name, "takeover");
  EXPECT_EQ(trace[0].start, 2 * kMillisecond);
  EXPECT_STREQ(trace[0].args[0].key, "gid");
  EXPECT_STREQ(trace[0].args[1].key, "detail");
  EXPECT_DOUBLE_EQ(trace[0].args[1].value, 5.0);
}

TEST(TelemetryTest, PhaseNamesAndTracks) {
  EXPECT_STREQ(obs::PhaseName(obs::Phase::kBatching), "batching");
  EXPECT_STREQ(obs::PhaseName(obs::Phase::kGlobalReplication),
               "global_replication");
  // Phase histograms live in the registry under phase/<name>_ms.
  obs::Telemetry tel;
  EXPECT_EQ(tel.phase_histogram(obs::Phase::kEncode),
            tel.registry().GetHistogram("phase/encode_ms"));
  // Client tracks never collide with node tracks (high bit set).
  EXPECT_NE(obs::Telemetry::ClientTrack(0), obs::Telemetry::NodeTrack(0));
  EXPECT_NE(obs::Telemetry::ClientTrack(1), obs::Telemetry::ClientTrack(2));
}

// ------------------------------------------- End-to-end export determinism

ExperimentConfig SmallTracedConfig(uint64_t seed) {
  ExperimentConfig config;
  config.topology = TopologyConfig::Nationwide(2, 4);
  config.protocol = ProtocolConfig::MassBft();
  config.workload = WorkloadKind::kYcsbA;
  config.workload_scale = 0.01;
  config.clients_per_group = 20;
  config.duration = kSecond / 2;
  config.warmup = kSecond / 10;
  config.seed = seed;
  config.enable_tracing = true;
  return config;
}

struct TracedRun {
  std::string trace_json;
  std::string metrics_json;
  std::string result_json;
  size_t event_count = 0;
};

TracedRun RunTraced(uint64_t seed) {
  Experiment experiment(SmallTracedConfig(seed));
  EXPECT_TRUE(experiment.Setup().ok());
  ExperimentResult result = experiment.Run();
  // Host-timing fields are the one legitimately nondeterministic part of a
  // fixed-seed run; zero them so the JSON comparison pins everything else.
  result.wall_ms = 0;
  result.events_per_sec = 0;
  result.sim_time_ratio = 0;
  TracedRun run;
  const std::string path =
      testing::TempDir() + "/obs_test_sim_trace_" + std::to_string(seed) +
      ".json";
  EXPECT_TRUE(experiment.WriteTrace(path).ok());
  std::ifstream in(path);
  std::stringstream trace;
  trace << in.rdbuf();
  run.trace_json = trace.str();
  std::ostringstream metrics_out;
  obs::JsonWriter w(metrics_out);
  experiment.telemetry().registry().WriteJson(w);
  run.metrics_json = metrics_out.str();
  run.result_json = result.ToJson();
  run.event_count = experiment.telemetry().trace().event_count();
  return run;
}

TEST(ObsEndToEndTest, TraceIsDeterministicForFixedSeed) {
  TracedRun a = RunTraced(7);
  TracedRun b = RunTraced(7);
  EXPECT_GT(a.event_count, 0u);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.result_json, b.result_json);
}

TEST(ObsEndToEndTest, ExportsParseAndCoverCommitPath) {
  TracedRun run = RunTraced(11);
  EXPECT_TRUE(IsValidJson(run.trace_json));
  EXPECT_TRUE(IsValidJson(run.metrics_json));
  EXPECT_TRUE(IsValidJson(run.result_json));
  // The entry lifecycle appears in the trace...
  EXPECT_NE(run.trace_json.find("\"batching\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("\"local_consensus\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("\"global_replication\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("\"execution\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("\"submit\""), std::string::npos);
  EXPECT_NE(run.trace_json.find("wan_transfer"), std::string::npos);
  // ...written as one process, with no flow arrows...
  EXPECT_EQ(CountOccurrences(run.trace_json, "\"name\":\"process_name\""),
            1u);
  EXPECT_NE(run.trace_json.find("\"name\":\"simulator\""),
            std::string::npos);
  EXPECT_EQ(run.trace_json.find("\"ph\":\"s\""), std::string::npos);
  // ...and the registry holds the matching series.
  EXPECT_NE(run.metrics_json.find("\"phase/local_consensus_ms\""),
            std::string::npos);
  EXPECT_NE(run.metrics_json.find("\"net/wan_bytes_sent\""),
            std::string::npos);
  EXPECT_NE(run.metrics_json.find("\"net/wan_uplink_queue_ms\""),
            std::string::npos);
  EXPECT_NE(run.metrics_json.find("\"pbft/prepare_ms\""), std::string::npos);
  // The result dump carries the Fig 11 phase sums and abort accounting.
  EXPECT_NE(run.result_json.find("\"phases\""), std::string::npos);
  EXPECT_NE(run.result_json.find("\"aborted_txns\""), std::string::npos);
  EXPECT_NE(run.result_json.find("\"timeline\""), std::string::npos);
}

// --------------------------------------------------------------- TraceClock

TEST(TraceClockTest, MonotoneSinceStableAnchor) {
  const uint64_t anchor = obs::TraceClock::UnixAnchorNs();
  EXPECT_EQ(obs::TraceClock::UnixAnchorNs(), anchor);
  // Anchored after 2020-01-01 (unix 1577836800s): catches an uninitialized
  // or steady-clock-valued anchor without assuming anything about "now".
  EXPECT_GT(anchor, 1577836800ull * 1000000000ull);

  uint64_t prev = obs::TraceClock::NowNs();
  for (int i = 0; i < 100; ++i) {
    const uint64_t now = obs::TraceClock::NowNs();
    EXPECT_GE(now, prev);
    prev = now;
  }
  EXPECT_EQ(obs::TraceClock::UnixAnchorNs(), anchor);
}

// ----------------------------------------------------------- FlightRecorder

TEST(FlightRecorderTest, KeepsEverythingBelowCapacity) {
  obs::FlightRecorder flight(4);
  flight.Record(10, 0, "node", "start");
  flight.Record(20, 65537, "wire", "send", 3, 9);
  flight.Record(30, 0, "fault", "delayed", 1);
  EXPECT_EQ(flight.capacity(), 4u);
  EXPECT_EQ(flight.recorded(), 3u);

  std::vector<obs::FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].t_ns, 10u);
  EXPECT_STREQ(events[0].name, "start");
  EXPECT_EQ(events[1].t_ns, 20u);
  EXPECT_EQ(events[1].track, 65537u);
  EXPECT_DOUBLE_EQ(events[1].a, 3.0);
  EXPECT_DOUBLE_EQ(events[1].b, 9.0);
  EXPECT_EQ(events[2].t_ns, 30u);
}

TEST(FlightRecorderTest, WrapsKeepingTheNewestOldestFirst) {
  obs::FlightRecorder flight(4);
  for (uint64_t i = 0; i < 10; ++i)
    flight.Record(i, 0, "cat", "tick", double(i));
  EXPECT_EQ(flight.recorded(), 10u);

  std::vector<obs::FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].t_ns, 6u + i) << "slot " << i;
    EXPECT_DOUBLE_EQ(events[i].a, 6.0 + double(i));
  }
}

TEST(FlightRecorderTest, DumpNamesOwnerAndKeptCounts) {
  obs::FlightRecorder flight(2);
  flight.Record(1500000, 1, "node", "start");
  flight.Record(2500000, 65536, "fault", "dropped", 7);
  flight.Record(3500000, 1, "node", "stop");

  std::ostringstream out;
  flight.Dump(out, "node g0/n1");
  const std::string text = out.str();
  EXPECT_NE(text.find("--- flight recorder node g0/n1: kept 2 of 3 events"),
            std::string::npos);
  // The wrapped-away "start" event must be gone; the survivors print
  // oldest-first with millisecond timestamps, their node and both payload
  // slots.
  EXPECT_EQ(text.find("node/start"), std::string::npos);
  const size_t dropped = text.find("g1/n0 fault/dropped a=7 b=0");
  const size_t stop = text.find("g0/n1 node/stop");
  ASSERT_NE(dropped, std::string::npos);
  ASSERT_NE(stop, std::string::npos);
  EXPECT_LT(dropped, stop);
  EXPECT_NE(text.find("2.500 ms"), std::string::npos);
}

// --------------------------------------------------------------- Prometheus

TEST(PrometheusTest, NameMapsSlashesAndBadCharsToUnderscores) {
  EXPECT_EQ(obs::PrometheusName("net/wan_bytes_sent"),
            "massbft_net_wan_bytes_sent");
  EXPECT_EQ(obs::PrometheusName("phase/local_consensus_ms"),
            "massbft_phase_local_consensus_ms");
  EXPECT_EQ(obs::PrometheusName("a-b.c/d"), "massbft_a_b_c_d");
}

std::vector<obs::LabeledSnapshot> TwoNodeSnapshots() {
  obs::MetricsRegistry a;
  a.GetCounter("net/frames")->Add(3);
  a.GetGauge("queue/depth")->Set(2.5);
  obs::Histogram* ha = a.GetHistogram("phase/exec_ms");
  for (double v : {1.0, 2.0, 3.0, 4.0}) ha->Record(v);

  obs::MetricsRegistry b;
  b.GetCounter("net/frames")->Add(5);
  b.GetGauge("queue/depth")->Set(0.0);
  b.GetHistogram("phase/exec_ms")->Record(10.0);

  std::vector<obs::LabeledSnapshot> snapshots;
  snapshots.push_back({"node=\"g0/n0\"", a.Snapshot()});
  snapshots.push_back({"node=\"g0/n1\"", b.Snapshot()});
  return snapshots;
}

TEST(PrometheusTest, GroupsTypeHeadersAcrossLabeledSnapshots) {
  std::ostringstream out;
  obs::WritePrometheusText(TwoNodeSnapshots(), out);
  const std::string text = out.str();

  // One # TYPE line per metric even though two nodes expose each series.
  EXPECT_EQ(CountOccurrences(text, "# TYPE massbft_net_frames counter"), 1u);
  EXPECT_EQ(CountOccurrences(text, "# TYPE massbft_queue_depth gauge"), 1u);
  EXPECT_EQ(CountOccurrences(text, "# TYPE massbft_phase_exec_ms summary"),
            1u);

  // Counters and gauges carry the node label verbatim.
  EXPECT_NE(text.find("massbft_net_frames{node=\"g0/n0\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("massbft_net_frames{node=\"g0/n1\"} 5\n"),
            std::string::npos);
  EXPECT_NE(text.find("massbft_queue_depth{node=\"g0/n0\"} 2.5\n"),
            std::string::npos);

  // Histograms expose as summaries: two quantiles plus _sum and _count.
  EXPECT_NE(
      text.find("massbft_phase_exec_ms{node=\"g0/n0\",quantile=\"0.5\"}"),
      std::string::npos);
  EXPECT_NE(
      text.find("massbft_phase_exec_ms{node=\"g0/n0\",quantile=\"0.99\"}"),
      std::string::npos);
  EXPECT_NE(text.find("massbft_phase_exec_ms_sum{node=\"g0/n0\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("massbft_phase_exec_ms_count{node=\"g0/n0\"} 4\n"),
            std::string::npos);
  EXPECT_NE(text.find("massbft_phase_exec_ms_count{node=\"g0/n1\"} 1\n"),
            std::string::npos);
}

TEST(PrometheusTest, EmptyLabelsOmitBracesAndOutputIsDeterministic) {
  obs::MetricsRegistry reg;
  reg.GetCounter("commit/txns")->Add(42);
  std::vector<obs::LabeledSnapshot> snapshots;
  snapshots.push_back({"", reg.Snapshot()});

  std::ostringstream first;
  obs::WritePrometheusText(snapshots, first);
  EXPECT_NE(first.str().find("massbft_commit_txns 42\n"), std::string::npos);

  std::ostringstream again;
  obs::WritePrometheusText(snapshots, again);
  EXPECT_EQ(first.str(), again.str());

  std::ostringstream two_nodes_a;
  obs::WritePrometheusText(TwoNodeSnapshots(), two_nodes_a);
  std::ostringstream two_nodes_b;
  obs::WritePrometheusText(TwoNodeSnapshots(), two_nodes_b);
  EXPECT_EQ(two_nodes_a.str(), two_nodes_b.str());
}

// ------------------------------------------------------- ClusterTraceMerger

/// Two synthetic nodes: the origin (packed 0) encodes an entry; the
/// receiver (packed 65536 = g1/n0) records the wire/recv instant whose
/// trace-context args pin the flow arrow. Timestamps are hand-picked so
/// every merged value is exact in the output.
void BuildTwoNodeMerge(obs::ClusterTraceMerger& merger) {
  obs::TraceRecorder origin;
  origin.set_enabled(true);
  origin.RegisterTrack(0, "consensus");
  origin.RecordSpan(0, "phase", "local_consensus", 1000000, 2000000,
                    obs::TraceArgs{{{"gid", 3.0}, {"seq", 9.0}}});

  obs::TraceRecorder receiver;
  receiver.set_enabled(true);
  receiver.RegisterTrack(65536, "consensus");
  // Node-relative 500us; the node started 1ms after the process epoch, so
  // the shared-axis delivery time is 1.5ms. origin_ts (1.2ms) is already on
  // the shared axis — it was stamped with TraceClock::NowNs at encode time.
  receiver.RecordInstant(65536, "wire", "recv", 500000,
                         obs::TraceArgs{{{"gid", 3.0},
                                         {"seq", 9.0},
                                         {"origin", 0.0},
                                         {"origin_ts", 1200000.0}}});

  merger.set_unix_anchor_ns(1700000000000000000ull);
  merger.AddNode(0, "node g0/n0", 0, origin);
  merger.AddNode(65536, "node g1/n0", 1000000, receiver);
}

TEST(ClusterTraceMergerTest, MergesNodesOntoSharedAxisWithFlowArrows) {
  obs::ClusterTraceMerger merger;
  BuildTwoNodeMerge(merger);
  EXPECT_EQ(merger.node_count(), 2u);

  std::ostringstream out;
  merger.WriteChromeTrace(out);
  const std::string doc = out.str();
  EXPECT_TRUE(IsValidJson(doc));

  // The injected anchor and node count land in otherData.
  EXPECT_NE(doc.find("\"trace_unix_anchor_ns\":1700000000000000000"),
            std::string::npos);
  EXPECT_NE(doc.find("\"node_count\":2"), std::string::npos);

  // One Chrome process per node: pid = packed id + 1, named and sorted.
  EXPECT_NE(doc.find("\"name\":\"node g0/n0\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"node g1/n0\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(doc, "\"name\":\"process_name\""), 2u);

  // Origin span keeps its own timebase (offset 0): ts 1000us, dur 1000us.
  EXPECT_NE(doc.find("\"name\":\"local_consensus\",\"cat\":\"phase\","
                     "\"ph\":\"X\",\"ts\":1000,\"dur\":1000,"
                     "\"pid\":1,\"tid\":0"),
            std::string::npos);
  // Receiver instant is shifted by its 1ms epoch offset: 500us -> 1500us.
  EXPECT_NE(doc.find("\"ph\":\"i\",\"s\":\"t\",\"ts\":1500,\"pid\":65537"),
            std::string::npos);

  // The recv instant pins one flow arrow: start on the origin's track at
  // origin_ts, finish on the receiving track at delivery.
  EXPECT_NE(doc.find("\"name\":\"entry\",\"cat\":\"wire\",\"ph\":\"s\","
                     "\"id\":1,\"pid\":1,\"tid\":0,\"ts\":1200,"
                     "\"args\":{\"gid\":3,\"seq\":9}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"entry\",\"cat\":\"wire\",\"ph\":\"f\","
                     "\"bp\":\"e\",\"id\":1,\"pid\":65537,\"tid\":65536,"
                     "\"ts\":1500"),
            std::string::npos);
}

TEST(ClusterTraceMergerTest, OutputIsByteStableAcrossRenders) {
  obs::ClusterTraceMerger merger;
  BuildTwoNodeMerge(merger);
  std::ostringstream first;
  merger.WriteChromeTrace(first);
  std::ostringstream again;
  merger.WriteChromeTrace(again);
  EXPECT_EQ(first.str(), again.str());
  EXPECT_FALSE(first.str().empty());
}

TEST(ClusterTraceMergerTest, ChromeTraceExportIsValidJson) {
  // One recorder holding node and client tracks, as the simulator's.
  obs::TraceRecorder trace;
  trace.set_enabled(true);
  trace.RegisterTrack(7, "g0/n3");
  trace.RegisterTrack(0x80000000u, "clients/g0");
  trace.RecordSpan(7, "entry", "local_consensus", kMillisecond,
                   5 * kMillisecond,
                   obs::TraceArgs{{{"gid", 0.0}, {"seq", 1.0}}});
  trace.RecordInstant(0x80000000u, "client", "submit", kMillisecond / 2);
  obs::ClusterTraceMerger merger;
  merger.AddNode(0, "simulator", 0, trace);

  std::ostringstream out;
  merger.WriteChromeTrace(out);
  std::string doc = out.str();
  EXPECT_TRUE(IsValidJson(doc));
  EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  // Track metadata precedes the span events, and tracks sort by id.
  size_t meta = doc.find("thread_name");
  size_t span = doc.find("\"ph\":\"X\"");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(span, std::string::npos);
  EXPECT_LT(meta, span);
  EXPECT_NE(doc.find("\"name\":\"thread_sort_index\",\"ph\":\"M\","
                     "\"pid\":1,\"tid\":2147483648,"
                     "\"args\":{\"sort_index\":2147483648}"),
            std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(doc.find("local_consensus"), std::string::npos);
  EXPECT_NE(doc.find("g0/n3"), std::string::npos);
}

TEST(ClusterTraceMergerTest, WriteChromeTraceFileRoundTrips) {
  obs::TraceRecorder trace;
  trace.set_enabled(true);
  trace.RecordSpan(1, "cat", "span", 0, kMillisecond);
  obs::ClusterTraceMerger merger;
  merger.AddNode(0, "simulator", 0, trace);

  std::string path = testing::TempDir() + "/obs_test_trace.json";
  ASSERT_TRUE(merger.WriteChromeTraceFile(path).ok());
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_TRUE(IsValidJson(buf.str()));

  // An unwritable path is an error, not a silently missing trace.
  const Status bad =
      merger.WriteChromeTraceFile("/no/such/dir/obs_test_trace.json");
  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.ToString().find("cannot open trace file"), std::string::npos);
}

TEST(ClusterTraceMergerTest, SkipsFlowsWhoseOriginTraceIsMissing) {
  obs::TraceRecorder receiver;
  receiver.set_enabled(true);
  receiver.RegisterTrack(1, "consensus");
  // origin 327680 (g5/n0) was never merged in; the arrow has no start
  // track, so no flow events may be emitted.
  receiver.RecordInstant(1, "wire", "recv", 1000,
                         obs::TraceArgs{{{"gid", 0.0},
                                         {"seq", 1.0},
                                         {"origin", 327680.0},
                                         {"origin_ts", 500.0}}});
  obs::ClusterTraceMerger merger;
  merger.AddNode(1, "node g0/n1", 0, receiver);

  std::ostringstream out;
  merger.WriteChromeTrace(out);
  EXPECT_TRUE(IsValidJson(out.str()));
  EXPECT_NE(out.str().find("\"ph\":\"i\""), std::string::npos);
  EXPECT_EQ(out.str().find("\"ph\":\"s\""), std::string::npos);
  EXPECT_EQ(out.str().find("\"ph\":\"f\""), std::string::npos);
}

TEST(ClusterTraceMergerTest, ClampsArrowsThatWouldPointBackwards) {
  // Delivery lands on the shared axis *before* the stamped send time (the
  // send stamp is taken before the frame hits the socket, so a fast local
  // loop can deliver "early"). The finish must clamp to the send time.
  obs::TraceRecorder origin;
  origin.set_enabled(true);
  origin.RegisterTrack(0, "consensus");
  obs::TraceRecorder receiver;
  receiver.set_enabled(true);
  receiver.RegisterTrack(65536, "consensus");
  receiver.RecordInstant(65536, "wire", "recv", 1500000,
                         obs::TraceArgs{{{"gid", 0.0},
                                         {"seq", 1.0},
                                         {"origin", 0.0},
                                         {"origin_ts", 2000000.0}}});
  obs::ClusterTraceMerger merger;
  merger.AddNode(0, "node g0/n0", 0, origin);
  merger.AddNode(65536, "node g1/n0", 0, receiver);

  std::ostringstream out;
  merger.WriteChromeTrace(out);
  const std::string doc = out.str();
  EXPECT_NE(doc.find("\"ph\":\"s\",\"id\":1,\"pid\":1,\"tid\":0,\"ts\":2000"),
            std::string::npos);
  EXPECT_NE(doc.find("\"ph\":\"f\",\"bp\":\"e\",\"id\":1,\"pid\":65537,"
                     "\"tid\":65536,\"ts\":2000"),
            std::string::npos);
}

// -------------------------------------------------------------- StatsServer

/// Minimal blocking HTTP GET against 127.0.0.1:`port`; returns the whole
/// response (head + body) or "" on connect failure.
std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[1024];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0)
    response.append(buf, static_cast<size_t>(n));
  ::close(fd);
  return response;
}

TEST(StatsServerTest, ServesHandlersOnEphemeralPort) {
  obs::StatsServer server;
  server.RegisterHandler("/metrics", [] {
    obs::StatsServer::Response response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = "# TYPE massbft_up gauge\nmassbft_up 1\n";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_TRUE(server.running());
  ASSERT_GT(server.port(), 0);

  const std::string ok = HttpGet(server.port(), "/metrics");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(ok.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(ok.find("massbft_up 1\n"), std::string::npos);

  // Query strings are stripped before handler lookup.
  const std::string with_query = HttpGet(server.port(), "/metrics?x=1");
  EXPECT_NE(with_query.find("HTTP/1.0 200 OK"), std::string::npos);

  const std::string missing = HttpGet(server.port(), "/nope");
  EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

  // A second Start while running must refuse rather than rebind.
  EXPECT_FALSE(server.Start(0).ok());

  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // Idempotent.
  EXPECT_EQ(server.port(), 0);
}

TEST(StatsServerTest, ConcurrentScrapesSeeConsistentResponses) {
  obs::StatsServer server;
  server.RegisterHandler("/health", [] {
    obs::StatsServer::Response response;
    response.content_type = "application/json";
    response.body = "{\"ok\":true}";
    return response;
  });
  ASSERT_TRUE(server.Start(0).ok());
  // Sequential scrapes through the single-threaded accept loop: each must
  // get a complete, framed response.
  for (int i = 0; i < 5; ++i) {
    const std::string response = HttpGet(server.port(), "/health");
    EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(response.find("Content-Length: 11"), std::string::npos);
    EXPECT_NE(response.find("{\"ok\":true}"), std::string::npos);
  }
  server.Stop();
}

}  // namespace
}  // namespace massbft
