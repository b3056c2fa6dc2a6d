// Chrome-trace / Perfetto-compatible event tracing over simulated cycles.
//
// Emits the Trace Event Format consumed by chrome://tracing and
// https://ui.perfetto.dev: a JSON object {"traceEvents":[...]} whose entries
// carry {"name","ph","ts","dur","pid","tid"}. In the simulator, `pid` is the
// security domain / NF id (one "process" lane per colocated function, plus a
// dedicated lane for the shared bus) and `ts` is the simulated cycle count,
// so a whole Fig. 5 replay can be opened in Perfetto and the FCFS-vs-temporal
// bus schedules *seen* side by side.
//
// Instrumented code never records into a TraceLog: it emits into the
// binary TraceRing (trace_ring.h), and TraceRing::ConvertTo() replays a
// finished ring into a TraceLog, which renders the JSON. The log is a plain
// append-only vector, SINGLE-OWNER like the ring it is built from.

#ifndef SNIC_OBS_TRACE_EVENT_H_
#define SNIC_OBS_TRACE_EVENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/obs/metrics.h"

namespace snic::obs {

struct TraceEvent {
  std::string name;
  char ph = 'X';     // 'X' complete span, 'i' instant, 'C' counter sample
  uint64_t ts = 0;   // simulated cycles (or µs for wall-clock spans)
  uint64_t dur = 0;  // span length; meaningful for ph == 'X'
  uint32_t pid = 0;  // process lane: NF / security-domain id
  uint32_t tid = 0;  // thread lane within the process
  Labels args;       // free-form key/values rendered into "args"
  double counter_value = 0.0;  // for ph == 'C'
};

class TraceLog {
 public:
  // Complete span covering [ts, ts + dur).
  void AddComplete(std::string_view name, uint64_t ts, uint64_t dur,
                   uint32_t pid, uint32_t tid, Labels args = {});
  // Zero-duration marker.
  void AddInstant(std::string_view name, uint64_t ts, uint32_t pid,
                  uint32_t tid, Labels args = {});
  // Counter track sample (renders as a filled graph in Perfetto).
  void AddCounter(std::string_view name, uint64_t ts, uint32_t pid,
                  double value);

  // Metadata: names shown on the process / thread lanes.
  void SetProcessName(uint32_t pid, std::string_view name);
  void SetThreadName(uint32_t pid, uint32_t tid, std::string_view name);

  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }
  const std::vector<TraceEvent>& events() const { return events_; }

  // {"traceEvents":[...]} with metadata ('M') records first.
  std::string ToJson() const;
  Status WriteFile(const std::string& path) const;

 private:
  struct LaneName {
    uint32_t pid;
    uint32_t tid;       // ignored for process names
    bool is_process;
    std::string name;
  };

  std::vector<TraceEvent> events_;
  std::vector<LaneName> lane_names_;
};

}  // namespace snic::obs

#endif  // SNIC_OBS_TRACE_EVENT_H_
