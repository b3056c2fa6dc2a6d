// snic_trace CLI: timeline / forensics / convert over serialized TraceRing
// images (docs/OBSERVABILITY.md, "Binary tracing & spans").
//
//   snic_trace timeline RING.bin [--json-out=FILE]
//       Per-tenant span latencies, residency breakdowns and event counts.
//
//   snic_trace forensics --baseline=A.bin --subject=B.bin --bystander=PID
//                        [--out=BENCH_trace_forensics.json]
//       Differential isolation verdict: the bystander tenant must be
//       byte-identical across the two rings (record count, digest, latency
//       profile). Exit 0 iff the verdict passes.
//
//   snic_trace convert RING.bin --to-json=FILE
//       Chrome/Perfetto JSON (TraceRing::ToChromeJson), byte-identical to
//       the --trace-out file of the run that wrote RING.bin.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "src/obs/trace_ring.h"
#include "tools/snic_trace/analyze.h"

namespace {

using snic::obs::TraceRing;
namespace trace = snic::tools::trace;

bool FlagValue(const char* arg, const char* name, std::string* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *out = arg + len + 1;
    return true;
  }
  return false;
}

int LoadRing(const std::string& path, TraceRing* ring) {
  if (auto s = ring->ReadBinaryFile(path); !s.ok()) {
    std::fprintf(stderr, "snic_trace: cannot load %s: %s\n", path.c_str(),
                 std::string(s.message()).c_str());
    return 1;
  }
  return 0;
}

bool WriteFileOrDie(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary);
  out << body;
  if (!out.good()) {
    std::fprintf(stderr, "snic_trace: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int RunTimeline(int argc, char** argv) {
  std::string input, json_out;
  for (int i = 0; i < argc; ++i) {
    std::string value;
    if (FlagValue(argv[i], "--json-out", &value)) {
      json_out = value;
    } else if (input.empty()) {
      input = argv[i];
    }
  }
  if (input.empty()) {
    std::fprintf(stderr, "usage: snic_trace timeline RING.bin [--json-out=F]\n");
    return 2;
  }
  TraceRing ring;
  if (LoadRing(input, &ring) != 0) {
    return 1;
  }
  const trace::Timeline timeline = trace::AnalyzeRing(ring);
  std::fputs(trace::TimelineToText(timeline).c_str(), stdout);
  if (!json_out.empty() &&
      !WriteFileOrDie(json_out, trace::TimelineToJson(timeline) + "\n")) {
    return 1;
  }
  return 0;
}

int RunForensics(int argc, char** argv) {
  std::string baseline_path, subject_path, out_path;
  uint32_t bystander = 0;
  bool have_bystander = false;
  for (int i = 0; i < argc; ++i) {
    std::string value;
    if (FlagValue(argv[i], "--baseline", &value)) {
      baseline_path = value;
    } else if (FlagValue(argv[i], "--subject", &value)) {
      subject_path = value;
    } else if (FlagValue(argv[i], "--bystander", &value)) {
      bystander = static_cast<uint32_t>(std::stoul(value));
      have_bystander = true;
    } else if (FlagValue(argv[i], "--out", &value)) {
      out_path = value;
    }
  }
  if (baseline_path.empty() || subject_path.empty() || !have_bystander) {
    std::fprintf(stderr,
                 "usage: snic_trace forensics --baseline=A.bin --subject=B.bin"
                 " --bystander=PID [--out=F]\n");
    return 2;
  }
  TraceRing baseline_ring, subject_ring;
  if (LoadRing(baseline_path, &baseline_ring) != 0 ||
      LoadRing(subject_path, &subject_ring) != 0) {
    return 1;
  }
  const trace::ForensicsReport report =
      trace::Compare(trace::AnalyzeRing(baseline_ring),
                     trace::AnalyzeRing(subject_ring), bystander);
  const std::string json = trace::ForensicsToJson(report) + "\n";
  std::fputs(json.c_str(), stdout);
  if (!out_path.empty() && !WriteFileOrDie(out_path, json)) {
    return 1;
  }
  return report.pass ? 0 : 1;
}

int RunConvert(int argc, char** argv) {
  std::string input, json_out;
  for (int i = 0; i < argc; ++i) {
    std::string value;
    if (FlagValue(argv[i], "--to-json", &value)) {
      json_out = value;
    } else if (input.empty()) {
      input = argv[i];
    }
  }
  if (input.empty() || json_out.empty()) {
    std::fprintf(stderr, "usage: snic_trace convert RING.bin --to-json=F\n");
    return 2;
  }
  TraceRing ring;
  if (LoadRing(input, &ring) != 0) {
    return 1;
  }
  if (!WriteFileOrDie(json_out, ring.ToChromeJson())) {
    return 1;
  }
  std::printf("Converted %zu records to %s\n", ring.size(), json_out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: snic_trace {timeline|forensics|convert} ...\n");
    return 2;
  }
  const std::string mode = argv[1];
  if (mode == "timeline") {
    return RunTimeline(argc - 2, argv + 2);
  }
  if (mode == "forensics") {
    return RunForensics(argc - 2, argv + 2);
  }
  if (mode == "convert") {
    return RunConvert(argc - 2, argv + 2);
  }
  std::fprintf(stderr, "snic_trace: unknown mode '%s'\n", mode.c_str());
  return 2;
}
