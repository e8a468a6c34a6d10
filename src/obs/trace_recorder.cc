#include "obs/trace_recorder.h"

#include <fstream>

namespace massbft {
namespace obs {

namespace {

/// Chrome trace timestamps are microseconds; keep nanosecond precision as
/// a fraction.
double ToMicros(SimTime t) { return static_cast<double>(t) / 1e3; }

void WriteArgs(JsonWriter& writer, const TraceArgs& args) {
  bool any = false;
  for (const TraceArg& arg : args)
    if (arg.key != nullptr) any = true;
  if (!any) return;
  writer.Key("args");
  writer.BeginObject();
  for (const TraceArg& arg : args)
    if (arg.key != nullptr) writer.Member(arg.key, arg.value);
  writer.EndObject();
}

}  // namespace

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

void TraceRecorder::Clear() {
  MutexLock lock(&mu_);
  events_.clear();
}

std::vector<TraceRecorder::Event> TraceRecorder::snapshot() const {
  MutexLock lock(&mu_);
  return events_;
}

std::map<uint32_t, std::string> TraceRecorder::track_names() const {
  MutexLock lock(&mu_);
  return track_names_;
}

void TraceRecorder::WriteChromeTrace(std::ostream& out) const {
  const std::vector<Event> events = snapshot();
  const std::map<uint32_t, std::string> names = track_names();

  JsonWriter writer(out);
  writer.BeginObject();
  writer.Member("displayTimeUnit", "ms");
  writer.Key("traceEvents");
  writer.BeginArray();

  // Track metadata first: names and a stable sort order by track id.
  for (const auto& [track, name] : names) {
    writer.BeginObject();
    writer.Member("name", "thread_name");
    writer.Member("ph", "M");
    writer.Member("pid", 0);
    writer.Member("tid", static_cast<uint64_t>(track));
    writer.Key("args");
    writer.BeginObject();
    writer.Member("name", name);
    writer.EndObject();
    writer.EndObject();
    writer.BeginObject();
    writer.Member("name", "thread_sort_index");
    writer.Member("ph", "M");
    writer.Member("pid", 0);
    writer.Member("tid", static_cast<uint64_t>(track));
    writer.Key("args");
    writer.BeginObject();
    writer.Member("sort_index", static_cast<uint64_t>(track));
    writer.EndObject();
    writer.EndObject();
  }

  for (const Event& event : events) {
    writer.BeginObject();
    switch (event.kind) {
      case EventKind::kSpan:
        writer.Member("name", event.name);
        writer.Member("cat", event.category);
        writer.Member("ph", "X");
        writer.Member("ts", ToMicros(event.start));
        writer.Member("dur", ToMicros(event.end - event.start));
        writer.Member("pid", 0);
        writer.Member("tid", static_cast<uint64_t>(event.track));
        WriteArgs(writer, event.args);
        break;
      case EventKind::kInstant:
        writer.Member("name", event.name);
        writer.Member("cat", event.category);
        writer.Member("ph", "i");
        writer.Member("s", "t");  // Thread-scoped instant.
        writer.Member("ts", ToMicros(event.start));
        writer.Member("pid", 0);
        writer.Member("tid", static_cast<uint64_t>(event.track));
        WriteArgs(writer, event.args);
        break;
    }
    writer.EndObject();
  }

  writer.EndArray();
  writer.EndObject();
  out << '\n';
}

Status TraceRecorder::WriteChromeTraceFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out.is_open())
    return Status::Unavailable("cannot open trace file: " + path);
  WriteChromeTrace(out);
  out.flush();
  if (!out.good())
    return Status::Unavailable("failed writing trace file: " + path);
  return Status::OK();
}

}  // namespace obs
}  // namespace massbft
