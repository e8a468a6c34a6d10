#ifndef MASSBFT_OBS_METRICS_REGISTRY_H_
#define MASSBFT_OBS_METRICS_REGISTRY_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/json_writer.h"

namespace massbft {
namespace obs {

/// Monotonic event count. Handles are plain pointers resolved once at
/// setup; the hot-path cost is one add.
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_ += delta; }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 0;
};

/// Last-write-wins sample (utilization ratios, queue depths).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0;
};

/// Value distribution: exact count/sum/min/max plus base-2 geometric
/// buckets for approximate percentiles. Unit-agnostic; protocol code
/// records milliseconds by convention (series named `*_ms`).
class Histogram {
 public:
  void Record(double v);

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const { return count_ == 0 ? 0 : min_; }
  double max() const { return count_ == 0 ? 0 : max_; }
  double mean() const { return count_ == 0 ? 0 : sum_ / static_cast<double>(count_); }
  /// Approximate percentile (p in [0,1]) from the geometric buckets:
  /// exact to within one bucket width (a factor of 2).
  double Percentile(double p) const;

 private:
  // Bucket i counts values in [2^(i-kBucketBias), 2^(i-kBucketBias+1)),
  // bucket 0 additionally absorbs everything smaller (incl. <= 0).
  static constexpr int kNumBuckets = 64;
  static constexpr int kBucketBias = 20;  // Bucket 0 starts at 2^-20.
  static int BucketIndex(double v);
  static double BucketUpperBound(int index);

  uint64_t count_ = 0;
  double sum_ = 0;
  double min_ = 0;
  double max_ = 0;
  std::array<uint64_t, kNumBuckets> buckets_{};
};

/// Summary statistics of one histogram at a point in time.
struct HistogramStats {
  uint64_t count = 0;
  double sum = 0;
  double min = 0;
  double max = 0;
  double mean = 0;
  double p50 = 0;
  double p99 = 0;
};

/// Point-in-time copy of a registry's series, sorted by name. Plain data:
/// safe to move across threads, which is how the StatsServer reads node
/// registries (each node snapshots its own registry on its loop thread
/// and hands the copy out by value).
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramStats>> histograms;
};

/// Process-local registry of named series. Lookup happens once, at wiring
/// time (`GetCounter` etc. return stable pointers for the registry's
/// lifetime); the instruments themselves cost an add, so instrumented code
/// needs no `if (metrics)` guards.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the series named `name`, creating it on first use. Repeated
  /// calls with one name return the same pointer. Names use '/'-separated
  /// components, e.g. "net/wan_bytes_sent".
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  size_t counter_count() const { return counters_.size(); }
  size_t gauge_count() const { return gauges_.size(); }
  size_t histogram_count() const { return histograms_.size(); }

  /// Writes {"counters":{...},"gauges":{...},"histograms":{...}} with
  /// per-histogram count/sum/min/max/mean/p50/p99. Deterministic order
  /// (sorted by name).
  void WriteJson(JsonWriter& writer) const;

  /// Point-in-time copy of every series, sorted by name. Must be called
  /// on the thread that owns the registry (in real mode: via the node's
  /// Call seam); the returned value is then free to cross threads.
  MetricsSnapshot Snapshot() const;

 private:
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace massbft

#endif  // MASSBFT_OBS_METRICS_REGISTRY_H_
