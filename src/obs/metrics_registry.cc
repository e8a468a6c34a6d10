#include "obs/metrics_registry.h"

#include <algorithm>
#include <cmath>

namespace massbft {
namespace obs {

int Histogram::BucketIndex(double v) {
  if (!(v > 0)) return 0;
  int exp = 0;
  std::frexp(v, &exp);  // v = m * 2^exp, m in [0.5, 1).
  int index = exp - 1 + kBucketBias;
  return std::clamp(index, 0, kNumBuckets - 1);
}

double Histogram::BucketUpperBound(int index) {
  return std::ldexp(1.0, index - kBucketBias + 1);
}

void Histogram::Record(double v) {
  if (count_ == 0) {
    min_ = v;
    max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++buckets_[static_cast<size_t>(BucketIndex(v))];
}

double Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(p * static_cast<double>(count_ - 1));
  uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += buckets_[static_cast<size_t>(i)];
    if (seen > rank) {
      // Clamp the bucket bound into the observed range so tight
      // distributions report sensible values.
      return std::clamp(BucketUpperBound(i), min_, max_);
    }
  }
  return max_;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::WriteJson(JsonWriter& writer) const {
  writer.BeginObject();
  writer.Key("counters");
  writer.BeginObject();
  for (const auto& [name, c] : counters_) writer.Member(name, c->value());
  writer.EndObject();
  writer.Key("gauges");
  writer.BeginObject();
  for (const auto& [name, g] : gauges_) writer.Member(name, g->value());
  writer.EndObject();
  writer.Key("histograms");
  writer.BeginObject();
  for (const auto& [name, h] : histograms_) {
    writer.Key(name);
    writer.BeginObject();
    writer.Member("count", h->count());
    writer.Member("sum", h->sum());
    writer.Member("min", h->min());
    writer.Member("max", h->max());
    writer.Member("mean", h->mean());
    writer.Member("p50", h->Percentile(0.5));
    writer.Member("p99", h->Percentile(0.99));
    writer.EndObject();
  }
  writer.EndObject();
  writer.EndObject();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramStats stats;
    stats.count = h->count();
    stats.sum = h->sum();
    stats.min = h->min();
    stats.max = h->max();
    stats.mean = h->mean();
    stats.p50 = h->Percentile(0.5);
    stats.p99 = h->Percentile(0.99);
    snap.histograms.emplace_back(name, stats);
  }
  return snap;
}

}  // namespace obs
}  // namespace massbft
