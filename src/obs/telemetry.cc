#include "obs/telemetry.h"

#include "obs/trace_clock.h"

namespace massbft {
namespace obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kBatching:
      return "batching";
    case Phase::kLocalConsensus:
      return "local_consensus";
    case Phase::kEncode:
      return "encode";
    case Phase::kGlobalReplication:
      return "global_replication";
    case Phase::kRebuild:
      return "rebuild";
    case Phase::kExecution:
      return "execution";
  }
  return "unknown";
}

Telemetry::Telemetry() {
  for (int i = 0; i < kNumPhases; ++i) {
    phase_hist_[static_cast<size_t>(i)] = registry_.GetHistogram(
        std::string("phase/") + PhaseName(static_cast<Phase>(i)) + "_ms");
  }
}

SimTime Telemetry::TraceNowNs() const {
  const uint64_t now = TraceClock::NowNs();
  const uint64_t anchor = trace_anchor_ns();
  return static_cast<SimTime>(now > anchor ? now - anchor : 0);
}

void Telemetry::RecordPhaseSpan(Phase phase, uint32_t track, SimTime start,
                                SimTime end, uint16_t gid, uint64_t seq) {
  phase_hist_[static_cast<size_t>(phase)]->Record(
      SimToSeconds(end - start) * 1e3);
  if (trace_.enabled()) {
    trace_.RecordSpan(track, "phase", PhaseName(phase), start, end,
                      TraceArgs{{{"gid", static_cast<double>(gid)},
                                 {"seq", static_cast<double>(seq)}}});
  }
}

void Telemetry::RecordEvent(uint32_t track, const char* category,
                            const char* name, SimTime at, TraceArg a,
                            TraceArg b) {
  // The two recorders' locks are taken one after the other, never nested:
  // both rank kObsRecorder.
  flight_.Record(static_cast<uint64_t>(at), track, category, name, a.value,
                 b.value);
  if (trace_.enabled())
    trace_.RecordInstant(track, category, name, at, TraceArgs{{a, b}});
}

}  // namespace obs
}  // namespace massbft
