#include "sim/metrics.h"

#include <algorithm>
#include <cmath>

namespace massbft {

Quartiles QuartilesOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quartiles{InterpolatedPercentile(values, 0.25),
                   InterpolatedPercentile(values, 0.5),
                   InterpolatedPercentile(values, 0.75)};
}

void LatencyStats::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyStats::MeanMs() const {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (SimTime s : samples_) sum += static_cast<double>(s);
  return sum / static_cast<double>(samples_.size()) /
         static_cast<double>(kMillisecond);
}

double LatencyStats::PercentileMs(double p) const {
  if (samples_.empty()) return 0.0;
  EnsureSorted();
  return InterpolatedPercentile(samples_, p) /
         static_cast<double>(kMillisecond);
}

void MetricsCollector::RecordCommit(SimTime submit_time, SimTime commit_time) {
  SimTime latency = commit_time - submit_time;
  size_t bucket_index = static_cast<size_t>(commit_time / kSecond);
  if (bucket_index >= timeline_.size()) timeline_.resize(bucket_index + 1);
  timeline_[bucket_index].txns += 1;
  timeline_[bucket_index].latency_sum += latency;

  if (commit_time < warmup_ || commit_time > horizon_) return;
  committed_ += 1;
  latency_.Record(latency);
}

double MetricsCollector::ThroughputTps() const {
  double window_s = SimToSeconds(horizon_ - warmup_);
  if (window_s <= 0) return 0.0;
  return static_cast<double>(committed_) / window_s;
}

std::vector<MetricsCollector::TimelinePoint> MetricsCollector::Timeline()
    const {
  std::vector<TimelinePoint> points;
  points.reserve(timeline_.size());
  for (size_t i = 0; i < timeline_.size(); ++i) {
    const Bucket& b = timeline_[i];
    TimelinePoint p;
    p.time_s = static_cast<double>(i);
    p.tps = static_cast<double>(b.txns);
    p.mean_latency_ms =
        b.txns == 0 ? 0.0
                    : static_cast<double>(b.latency_sum) /
                          static_cast<double>(b.txns) /
                          static_cast<double>(kMillisecond);
    points.push_back(p);
  }
  return points;
}

}  // namespace massbft
