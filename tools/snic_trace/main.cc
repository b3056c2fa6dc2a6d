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

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "src/common/flags.h"
#include "src/obs/trace_ring.h"
#include "tools/snic_trace/analyze.h"

namespace {

using snic::obs::TraceRing;
namespace trace = snic::tools::trace;

// The first operand (an argument not starting with '-') of a subcommand's
// (argc, argv), which starts at the subcommand name; empty when none.
std::string FirstOperand(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      return argv[i];
    }
  }
  return "";
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
  snic::RequireKnownFlags(argc, argv, {"--json-out="}, "RING.bin");
  const std::string input = FirstOperand(argc, argv);
  const std::string json_out = snic::FlagValue(argc, argv, "--json-out");
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
  snic::RequireKnownFlags(
      argc, argv, {"--baseline=", "--subject=", "--bystander=", "--out="});
  const std::string baseline_path = snic::FlagValue(argc, argv, "--baseline");
  const std::string subject_path = snic::FlagValue(argc, argv, "--subject");
  const std::string out_path = snic::FlagValue(argc, argv, "--out");
  const std::string bystander_flag = snic::FlagValue(argc, argv, "--bystander");
  if (baseline_path.empty() || subject_path.empty() || bystander_flag.empty()) {
    std::fprintf(stderr,
                 "usage: snic_trace forensics --baseline=A.bin --subject=B.bin"
                 " --bystander=PID [--out=F]\n");
    return 2;
  }
  // The bystander is a trace-ring pid, so it must fit 32 bits.
  const std::optional<uint64_t> bystander = snic::ParseU64(bystander_flag);
  if (!bystander.has_value() || *bystander > UINT32_MAX) {
    std::fprintf(stderr,
                 "snic_trace: --bystander=%s: expected an integer from 0 to "
                 "%" PRIu32 "\n",
                 bystander_flag.c_str(), UINT32_MAX);
    return 2;
  }
  TraceRing baseline_ring, subject_ring;
  if (LoadRing(baseline_path, &baseline_ring) != 0 ||
      LoadRing(subject_path, &subject_ring) != 0) {
    return 1;
  }
  const trace::ForensicsReport report =
      trace::Compare(trace::AnalyzeRing(baseline_ring),
                     trace::AnalyzeRing(subject_ring),
                     static_cast<uint32_t>(*bystander));
  const std::string json = trace::ForensicsToJson(report) + "\n";
  std::fputs(json.c_str(), stdout);
  if (!out_path.empty() && !WriteFileOrDie(out_path, json)) {
    return 1;
  }
  return report.pass ? 0 : 1;
}

int RunConvert(int argc, char** argv) {
  snic::RequireKnownFlags(argc, argv, {"--to-json="}, "RING.bin");
  const std::string input = FirstOperand(argc, argv);
  const std::string json_out = snic::FlagValue(argc, argv, "--to-json");
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
  // Each mode sees (argc - 1, argv + 1): its own name, then its arguments.
  const std::string mode = argv[1];
  if (mode == "timeline") {
    return RunTimeline(argc - 1, argv + 1);
  }
  if (mode == "forensics") {
    return RunForensics(argc - 1, argv + 1);
  }
  if (mode == "convert") {
    return RunConvert(argc - 1, argv + 1);
  }
  std::fprintf(stderr, "snic_trace: unknown mode '%s'\n", mode.c_str());
  return 2;
}
