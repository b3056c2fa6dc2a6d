// snic_scenarios: spec-file tooling for the scenario matrix
// (docs/ROBUSTNESS.md, "The scenario matrix").
//
//   snic_scenarios validate FILE...        decode-or-reject each spec file;
//                                          exit 1 on the first rejection
//   snic_scenarios run [--seed=S] FILE...  run each spec's verdict predicates
//   snic_scenarios run [--seed=S] --forensics-out=PREFIX FILE
//                                          also write the subject's and the
//                                          baseline twin's trace rings to
//                                          PREFIX.subject.bin and
//                                          PREFIX.baseline.bin, for
//                                          `snic_trace forensics`
//   snic_scenarios generate [--seed=S] [--name=SUBSTR] [--list]
//                                          emit generated specs as JSON
//                                          (--list prints names only)
//
// `validate` is the full semantic check (the snic_lint scenario rule is the
// cheap structural subset: parses + registered fault sites); CI runs
// validate over bench/scenarios/ so a checked-in spec can never rot.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/obs/trace_ring.h"
#include "src/scenario/generator.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"

namespace snic {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: snic_scenarios validate FILE...\n"
               "       snic_scenarios run [--seed=S] FILE...\n"
               "       snic_scenarios run [--seed=S] --forensics-out=PREFIX "
               "FILE\n"
               "       snic_scenarios generate [--seed=S] [--name=SUBSTR] "
               "[--list]\n");
  return 2;
}

Result<std::string> ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return NotFound("cannot open " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    text.append(buf, n);
  }
  std::fclose(f);
  return text;
}

std::string FlagValue(int argc, char** argv, const char* flag) {
  const std::string prefix = std::string(flag) + "=";
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return argv[i] + prefix.size();
    }
  }
  return "";
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> FileArgs(int argc, char** argv) {
  std::vector<std::string> files;
  for (int i = 2; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      files.push_back(argv[i]);
    }
  }
  return files;
}

int Validate(int argc, char** argv) {
  const std::vector<std::string> files = FileArgs(argc, argv);
  if (files.empty()) {
    return Usage();
  }
  for (const std::string& path : files) {
    const auto text = ReadFile(path);
    if (!text.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   text.status().message().c_str());
      return 1;
    }
    const auto spec = scenario::ParseScenarioSpec(text.value());
    if (!spec.ok()) {
      std::fprintf(stderr, "%s: REJECTED: %s\n", path.c_str(),
                   spec.status().message().c_str());
      return 1;
    }
    // The canonical form must round-trip: serialize-then-parse is the
    // contract the fuzzers pin, checked here on every real spec too.
    const std::string canonical =
        scenario::SerializeScenarioSpec(spec.value());
    const auto again = scenario::ParseScenarioSpec(canonical);
    if (!again.ok()) {
      std::fprintf(stderr, "%s: ROUND-TRIP FAILED: %s\n", path.c_str(),
                   again.status().message().c_str());
      return 1;
    }
    std::printf("%s: ok (%s, %zu tenants, %zu fault rules)\n", path.c_str(),
                spec.value().name.c_str(), spec.value().tenants.size(),
                spec.value().faults.size());
  }
  return 0;
}

// Runs the spec and its BaselineTwin again, keeping each run's trace ring,
// and writes them as PREFIX.subject.bin / PREFIX.baseline.bin.
bool WriteForensics(const scenario::ScenarioSpec& spec, uint64_t seed,
                    const std::string& prefix) {
  const std::pair<const char*, scenario::ScenarioSpec> runs[] = {
      {".subject.bin", spec}, {".baseline.bin", scenario::BaselineTwin(spec)}};
  for (const auto& [suffix, run_spec] : runs) {
    obs::TraceRing ring;
    scenario::RunConstellation(run_spec, seed, &ring);
    const std::string path = prefix + suffix;
    const Status s = ring.WriteBinaryFile(path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), s.ToString().c_str());
      return false;
    }
    std::fprintf(stderr, "Wrote %s\n", path.c_str());
  }
  return true;
}

int Run(int argc, char** argv) {
  const std::vector<std::string> files = FileArgs(argc, argv);
  const std::string forensics_out = FlagValue(argc, argv, "--forensics-out");
  if (files.empty() || (!forensics_out.empty() && files.size() != 1)) {
    return Usage();
  }
  const std::string seed_flag = FlagValue(argc, argv, "--seed");
  const uint64_t seed =
      seed_flag.empty() ? 0x5ce9a21ull
                        : std::strtoull(seed_flag.c_str(), nullptr, 10);
  bool all_pass = true;
  for (const std::string& path : files) {
    const auto text = ReadFile(path);
    if (!text.ok()) {
      std::printf("FAIL  %s  %s\n", path.c_str(),
                  text.status().message().c_str());
      all_pass = false;
      continue;
    }
    const auto spec = scenario::ParseScenarioSpec(text.value());
    if (!spec.ok()) {
      std::printf("FAIL  %s  decode: %s\n", path.c_str(),
                  spec.status().message().c_str());
      all_pass = false;
      continue;
    }
    const scenario::ScenarioVerdict verdict =
        scenario::EvaluateScenario(spec.value(), seed);
    std::printf("%s  %-44s %s\n", verdict.pass ? "PASS" : "FAIL",
                spec.value().name.c_str(), verdict.detail.c_str());
    all_pass &= verdict.pass;
    if (!forensics_out.empty() &&
        !WriteForensics(spec.value(), seed, forensics_out)) {
      all_pass = false;
    }
  }
  return all_pass ? 0 : 1;
}

int Generate(int argc, char** argv) {
  const std::string seed_flag = FlagValue(argc, argv, "--seed");
  const uint64_t seed =
      seed_flag.empty() ? 0x5ce9a21ull
                        : std::strtoull(seed_flag.c_str(), nullptr, 10);
  const std::string name_filter = FlagValue(argc, argv, "--name");
  const bool list_only = HasFlag(argc, argv, "--list");
  const std::vector<scenario::ScenarioSpec> specs =
      scenario::GenerateScenarios(seed);
  size_t emitted = 0;
  for (const scenario::ScenarioSpec& spec : specs) {
    if (!name_filter.empty() &&
        spec.name.find(name_filter) == std::string::npos) {
      continue;
    }
    ++emitted;
    if (list_only) {
      std::printf("%s\n", spec.name.c_str());
    } else {
      std::printf("%s\n", scenario::SerializeScenarioSpec(spec).c_str());
    }
  }
  std::fprintf(stderr, "%zu scenarios\n", emitted);
  return emitted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace snic

int main(int argc, char** argv) {
  if (argc < 2) {
    return snic::Usage();
  }
  const std::string command = argv[1];
  if (command == "validate") {
    return snic::Validate(argc, argv);
  }
  if (command == "run") {
    return snic::Run(argc, argv);
  }
  if (command == "generate") {
    return snic::Generate(argc, argv);
  }
  return snic::Usage();
}
