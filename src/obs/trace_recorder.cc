#include "obs/trace_recorder.h"

namespace massbft {
namespace obs {

void TraceRecorder::RegisterTrack(uint32_t track, const std::string& name) {
  MutexLock lock(&mu_);
  track_names_[track] = name;
}

void TraceRecorder::RecordSpan(uint32_t track, const char* category,
                               const char* name, SimTime start, SimTime end,
                               TraceArgs args) {
  if (!enabled_) return;
  if (end < start) end = start;
  MutexLock lock(&mu_);
  events_.push_back(
      Event{EventKind::kSpan, track, category, name, start, end, args});
}

void TraceRecorder::RecordInstant(uint32_t track, const char* category,
                                  const char* name, SimTime at,
                                  TraceArgs args) {
  if (!enabled_) return;
  MutexLock lock(&mu_);
  events_.push_back(
      Event{EventKind::kInstant, track, category, name, at, at, args});
}

size_t TraceRecorder::event_count() const {
  MutexLock lock(&mu_);
  return events_.size();
}

std::vector<TraceRecorder::Event> TraceRecorder::snapshot() const {
  MutexLock lock(&mu_);
  return events_;
}

std::map<uint32_t, std::string> TraceRecorder::track_names() const {
  MutexLock lock(&mu_);
  return track_names_;
}

}  // namespace obs
}  // namespace massbft
