#include "src/obs/trace_event.h"

#include <cmath>
#include <cstdio>

#include "src/obs/json.h"

namespace snic::obs {

void TraceLog::AddComplete(std::string_view name, uint64_t ts, uint64_t dur,
                           uint32_t pid, uint32_t tid, Labels args) {
  TraceEvent ev;
  ev.name = std::string(name);
  ev.ph = 'X';
  ev.ts = ts;
  ev.dur = dur;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void TraceLog::AddInstant(std::string_view name, uint64_t ts, uint32_t pid,
                          uint32_t tid, Labels args) {
  TraceEvent ev;
  ev.name = std::string(name);
  ev.ph = 'i';
  ev.ts = ts;
  ev.pid = pid;
  ev.tid = tid;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void TraceLog::AddCounter(std::string_view name, uint64_t ts, uint32_t pid,
                          double value) {
  TraceEvent ev;
  ev.name = std::string(name);
  ev.ph = 'C';
  ev.ts = ts;
  ev.pid = pid;
  ev.counter_value = value;
  events_.push_back(std::move(ev));
}

void TraceLog::SetProcessName(uint32_t pid, std::string_view name) {
  lane_names_.push_back(LaneName{pid, 0, /*is_process=*/true,
                                 std::string(name)});
}

void TraceLog::SetThreadName(uint32_t pid, uint32_t tid,
                             std::string_view name) {
  lane_names_.push_back(LaneName{pid, tid, /*is_process=*/false,
                                 std::string(name)});
}

std::string TraceLog::ToJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) {
      out += ",";
    }
    first = false;
  };
  // Metadata records first so viewers label lanes before any event needs
  // them.
  for (const LaneName& lane : lane_names_) {
    comma();
    out += "{\"name\":";
    out += lane.is_process ? "\"process_name\"" : "\"thread_name\"";
    out += ",\"ph\":\"M\",\"pid\":" + std::to_string(lane.pid) +
           ",\"tid\":" + std::to_string(lane.tid) +
           ",\"args\":{\"name\":" + json::Quote(lane.name) + "}}";
  }
  for (const TraceEvent& ev : events_) {
    comma();
    out += "{\"name\":" + json::Quote(ev.name) + ",\"ph\":\"" + ev.ph +
           "\",\"ts\":" + std::to_string(ev.ts) +
           ",\"pid\":" + std::to_string(ev.pid) +
           ",\"tid\":" + std::to_string(ev.tid);
    if (ev.ph == 'X') {
      out += ",\"dur\":" + std::to_string(ev.dur);
    }
    if (ev.ph == 'i') {
      out += ",\"s\":\"t\"";  // instant scope: thread
    }
    if (ev.ph == 'C') {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", ev.counter_value);
      out += ",\"args\":{\"value\":";
      out += buf;
      out += "}";
    } else if (!ev.args.empty()) {
      out += ",\"args\":{";
      for (size_t i = 0; i < ev.args.size(); ++i) {
        if (i > 0) {
          out += ",";
        }
        out += json::Quote(ev.args[i].first) + ":" +
               json::Quote(ev.args[i].second);
      }
      out += "}";
    }
    out += "}";
  }
  // displayTimeUnit keeps Perfetto's ruler in sane units for cycle counts.
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

Status TraceLog::WriteFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InvalidArgument("cannot open trace output file: " + path);
  }
  const std::string body = ToJson();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return Internal("short write to trace output file: " + path);
  }
  return OkStatus();
}

}  // namespace snic::obs
