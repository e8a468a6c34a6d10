#ifndef MASSBFT_OBS_TRACE_RECORDER_H_
#define MASSBFT_OBS_TRACE_RECORDER_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"
#include "sim/time.h"

namespace massbft {
namespace obs {

/// Up to this many numeric key/value annotations per event.
constexpr int kMaxTraceArgs = 5;

/// One key/value annotation on a trace event. Keys must be string
/// literals (they are stored unowned).
struct TraceArg {
  const char* key = nullptr;
  double value = 0;
};

using TraceArgs = std::array<TraceArg, kMaxTraceArgs>;

/// Records sim-time spans and instants. ClusterTraceMerger writes them as
/// Chrome trace-event JSON (loadable in chrome://tracing or Perfetto).
///
/// Tracks are uint32 ids mapped to Chrome "threads" (one per simulated
/// node, by convention NodeId::Packed(); see RegisterTrack). Categories
/// and names must be string literals — the recorder keeps only the
/// pointer, which keeps recording allocation-free except for the event
/// vector growth itself.
///
/// Disabled (the default) every Record* call is a single branch; callers
/// may also check enabled() first to skip argument preparation. Recording
/// is thread-safe: in real mode a node's recorder is written by its event
/// loop and by transport-internal threads (writer/reader/fault-delay), and
/// read by the merger after the run.
class TraceRecorder {
 public:
  enum class EventKind : uint8_t { kSpan, kInstant };

  struct Event {
    EventKind kind;
    uint32_t track;
    const char* category;
    const char* name;
    SimTime start;
    SimTime end;  // kSpan only.
    TraceArgs args;
  };

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  bool enabled() const { return enabled_; }
  /// Must not be flipped while other threads may be recording (real mode
  /// enables tracing during setup, before node threads start).
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Names a track for the exporter (Chrome thread_name metadata). Safe to
  /// call whether or not tracing is enabled; idempotent per track.
  void RegisterTrack(uint32_t track, const std::string& name);

  /// Complete span [start, end] on `track`. `category`/`name` must be
  /// string literals.
  void RecordSpan(uint32_t track, const char* category, const char* name,
                  SimTime start, SimTime end, TraceArgs args = {});

  /// Zero-duration instant event.
  void RecordInstant(uint32_t track, const char* category, const char* name,
                     SimTime at, TraceArgs args = {});

  size_t event_count() const;

  /// Copies of the recorded events / track names, for the trace writer
  /// (ClusterTraceMerger). Events are in recording order.
  std::vector<Event> snapshot() const;
  std::map<uint32_t, std::string> track_names() const;

 private:
  /// Flipped only while no other thread records (set_enabled contract);
  /// reads on the hot path stay lock-free.
  bool enabled_ = false;
  // kObsRecorder: recorders are called from net/runtime code that may
  // already hold its own lock (e.g. TcpTransport::RecordNetEvent under
  // tcp.mu), so they rank below nothing and above every caller.
  mutable RankedMutex mu_{"trace_recorder.mu", LockRank::kObsRecorder};
  std::vector<Event> events_ MASSBFT_GUARDED_BY(mu_);
  std::map<uint32_t, std::string> track_names_ MASSBFT_GUARDED_BY(mu_);
};

}  // namespace obs
}  // namespace massbft

#endif  // MASSBFT_OBS_TRACE_RECORDER_H_
