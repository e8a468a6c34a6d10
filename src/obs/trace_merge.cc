#include "obs/trace_merge.h"

#include <cstring>
#include <fstream>

#include "obs/json_writer.h"

namespace massbft {
namespace obs {

namespace {

/// Chrome trace timestamps are microseconds; keep nanosecond precision as
/// a fraction.
double ToMicros(double ns) { return ns / 1e3; }

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

/// Looks up a numeric annotation by key; returns `fallback` when absent.
double ArgValue(const TraceArgs& args, const char* key, double fallback) {
  for (const TraceArg& arg : args)
    if (arg.key != nullptr && std::strcmp(arg.key, key) == 0) return arg.value;
  return fallback;
}

bool IsWireRecv(const TraceRecorder::Event& event) {
  return event.kind == TraceRecorder::EventKind::kInstant &&
         event.category != nullptr && event.name != nullptr &&
         std::strcmp(event.category, "wire") == 0 &&
         std::strcmp(event.name, "recv") == 0;
}

}  // namespace

void ClusterTraceMerger::AddNode(uint32_t packed_node_id,
                                 const std::string& process_name,
                                 uint64_t epoch_offset_ns,
                                 const TraceRecorder& recorder) {
  NodeTrace& node = nodes_[packed_node_id];
  node.packed_id = packed_node_id;
  node.process_name = process_name;
  node.epoch_offset_ns = epoch_offset_ns;
  node.events = recorder.snapshot();
  node.track_names = recorder.track_names();
}

void ClusterTraceMerger::WriteChromeTrace(std::ostream& out) const {
  JsonWriter writer(out);
  writer.BeginObject();
  writer.Member("displayTimeUnit", "ms");
  writer.Key("otherData");
  writer.BeginObject();
  writer.Member("trace_unix_anchor_ns", unix_anchor_ns_);
  writer.Member("node_count", static_cast<uint64_t>(nodes_.size()));
  writer.EndObject();
  writer.Key("traceEvents");
  writer.BeginArray();

  // Metadata pass: one Chrome process per node (pid = packed id + 1 so
  // pid 0 never appears), named and sorted; each node's tracks become the
  // process's threads, named and sorted by track id.
  for (const auto& [packed, node] : nodes_) {
    const uint64_t pid = static_cast<uint64_t>(packed) + 1;
    writer.BeginObject();
    writer.Member("name", "process_name");
    writer.Member("ph", "M");
    writer.Member("pid", pid);
    writer.Key("args");
    writer.BeginObject();
    writer.Member("name", node.process_name);
    writer.EndObject();
    writer.EndObject();
    writer.BeginObject();
    writer.Member("name", "process_sort_index");
    writer.Member("ph", "M");
    writer.Member("pid", pid);
    writer.Key("args");
    writer.BeginObject();
    writer.Member("sort_index", pid);
    writer.EndObject();
    writer.EndObject();
    for (const auto& [track, name] : node.track_names) {
      writer.BeginObject();
      writer.Member("name", "thread_name");
      writer.Member("ph", "M");
      writer.Member("pid", pid);
      writer.Member("tid", static_cast<uint64_t>(track));
      writer.Key("args");
      writer.BeginObject();
      writer.Member("name", name);
      writer.EndObject();
      writer.EndObject();
      writer.BeginObject();
      writer.Member("name", "thread_sort_index");
      writer.Member("ph", "M");
      writer.Member("pid", pid);
      writer.Member("tid", static_cast<uint64_t>(track));
      writer.Key("args");
      writer.BeginObject();
      writer.Member("sort_index", static_cast<uint64_t>(track));
      writer.EndObject();
      writer.EndObject();
    }
  }

  // Event pass: every node's events, shifted onto the shared axis.
  for (const auto& [packed, node] : nodes_) {
    const uint64_t pid = static_cast<uint64_t>(packed) + 1;
    const double offset_ns = static_cast<double>(node.epoch_offset_ns);
    for (const TraceRecorder::Event& event : node.events) {
      const double start_ns = offset_ns + static_cast<double>(event.start);
      writer.BeginObject();
      switch (event.kind) {
        case TraceRecorder::EventKind::kSpan:
          writer.Member("name", event.name);
          writer.Member("cat", event.category);
          writer.Member("ph", "X");
          writer.Member("ts", ToMicros(start_ns));
          writer.Member("dur",
                        ToMicros(static_cast<double>(event.end - event.start)));
          writer.Member("pid", pid);
          writer.Member("tid", static_cast<uint64_t>(event.track));
          WriteArgs(writer, event.args);
          break;
        case TraceRecorder::EventKind::kInstant:
          writer.Member("name", event.name);
          writer.Member("cat", event.category);
          writer.Member("ph", "i");
          writer.Member("s", "t");
          writer.Member("ts", ToMicros(start_ns));
          writer.Member("pid", pid);
          writer.Member("tid", static_cast<uint64_t>(event.track));
          WriteArgs(writer, event.args);
          break;
      }
      writer.EndObject();
    }
  }

  // Flow pass: each wire/recv instant pins one arrow — start on the
  // origin node's track at the send timestamp (already on the shared
  // axis, carried in the wire trace context), finish on the receiving
  // track at delivery.
  uint64_t flow_id = 0;
  for (const auto& [packed, node] : nodes_) {
    const uint64_t pid = static_cast<uint64_t>(packed) + 1;
    const double offset_ns = static_cast<double>(node.epoch_offset_ns);
    for (const TraceRecorder::Event& event : node.events) {
      if (!IsWireRecv(event)) continue;
      const double origin = ArgValue(event.args, "origin", -1);
      if (origin < 0) continue;
      const uint32_t origin_packed = static_cast<uint32_t>(origin);
      auto it = nodes_.find(origin_packed);
      if (it == nodes_.end()) continue;  // Origin trace not merged in.
      const double send_ns = ArgValue(event.args, "origin_ts", 0);
      double recv_ns = offset_ns + static_cast<double>(event.start);
      if (recv_ns < send_ns) recv_ns = send_ns;  // Arrows must not go back.
      ++flow_id;

      writer.BeginObject();
      writer.Member("name", "entry");
      writer.Member("cat", "wire");
      writer.Member("ph", "s");
      writer.Member("id", flow_id);
      writer.Member("pid", static_cast<uint64_t>(origin_packed) + 1);
      writer.Member("tid", static_cast<uint64_t>(origin_packed));
      writer.Member("ts", ToMicros(send_ns));
      writer.Key("args");
      writer.BeginObject();
      writer.Member("gid", ArgValue(event.args, "gid", 0));
      writer.Member("seq", ArgValue(event.args, "seq", 0));
      writer.EndObject();
      writer.EndObject();

      writer.BeginObject();
      writer.Member("name", "entry");
      writer.Member("cat", "wire");
      writer.Member("ph", "f");
      writer.Member("bp", "e");
      writer.Member("id", flow_id);
      writer.Member("pid", pid);
      writer.Member("tid", static_cast<uint64_t>(event.track));
      writer.Member("ts", ToMicros(recv_ns));
      writer.EndObject();
    }
  }

  writer.EndArray();
  writer.EndObject();
  out << '\n';
}

Status ClusterTraceMerger::WriteChromeTraceFile(const std::string& path) const {
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
