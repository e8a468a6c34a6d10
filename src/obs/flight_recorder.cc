#include "obs/flight_recorder.h"

#include <cstdio>

namespace massbft {
namespace obs {

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void FlightRecorder::Record(uint64_t t_ns, uint32_t track,
                            const char* category, const char* name, double a,
                            double b) {
  MutexLock lock(&mu_);
  FlightEvent event{t_ns, track, category, name, a, b};
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
  } else {
    ring_[static_cast<size_t>(count_ % capacity_)] = event;
  }
  ++count_;
}

uint64_t FlightRecorder::recorded() const {
  MutexLock lock(&mu_);
  return count_;
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  MutexLock lock(&mu_);
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  if (count_ <= capacity_) {
    out = ring_;
  } else {
    // The slot about to be overwritten next is the oldest retained event.
    const size_t start = static_cast<size_t>(count_ % capacity_);
    for (size_t i = 0; i < capacity_; ++i)
      out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

void FlightRecorder::Dump(std::ostream& out, const std::string& owner) const {
  const std::vector<FlightEvent> events = Snapshot();
  uint64_t total;
  {
    MutexLock lock(&mu_);
    total = count_;
  }
  out << "--- flight recorder " << owner << ": kept " << events.size()
      << " of " << total << " events ---\n";
  char line[160];
  for (const FlightEvent& event : events) {
    std::snprintf(line, sizeof(line),
                  "  [%10.3f ms] g%u/n%u %s/%s a=%g b=%g\n",
                  static_cast<double>(event.t_ns) / 1e6, event.track >> 16,
                  event.track & 0xFFFFu, event.category, event.name, event.a,
                  event.b);
    out << line;
  }
}

}  // namespace obs
}  // namespace massbft
