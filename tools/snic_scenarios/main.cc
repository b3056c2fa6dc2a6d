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
// `validate` is the full semantic check; CI runs it over bench/scenarios/
// so a checked-in spec can never rot. An argument a subcommand does not take,
// or a --seed that is not a plain decimal integer, exits 2 before any work.

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/flags.h"
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

// The seed every subcommand defaults to: the scenario matrix's.
constexpr uint64_t kDefaultSeed = 0x5ce9a21ull;

// The file operands of a subcommand's (argc, argv), which starts at the
// subcommand name.
std::vector<std::string> FileArgs(int argc, char** argv) {
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    if (argv[i][0] != '-') {
      files.push_back(argv[i]);
    }
  }
  return files;
}

int Validate(int argc, char** argv) {
  RequireKnownFlags(argc, argv, {}, "FILE...");
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
  RequireKnownFlags(argc, argv, {"--seed=", "--forensics-out="}, "FILE...");
  const uint64_t seed = U64Flag(argc, argv, "--seed", kDefaultSeed);
  const std::vector<std::string> files = FileArgs(argc, argv);
  const std::string forensics_out = FlagValue(argc, argv, "--forensics-out");
  if (files.empty() || (!forensics_out.empty() && files.size() != 1)) {
    return Usage();
  }
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
  RequireKnownFlags(argc, argv, {"--seed=", "--name=", "--list"});
  const uint64_t seed = U64Flag(argc, argv, "--seed", kDefaultSeed);
  const std::string name_filter = FlagValue(argc, argv, "--name");
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    list_only |= std::string_view(argv[i]) == "--list";
  }
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
  // Each subcommand sees (argc - 1, argv + 1): its own name, then its
  // arguments.
  const std::string command = argv[1];
  if (command == "validate") {
    return snic::Validate(argc - 1, argv + 1);
  }
  if (command == "run") {
    return snic::Run(argc - 1, argv + 1);
  }
  if (command == "generate") {
    return snic::Generate(argc - 1, argv + 1);
  }
  return snic::Usage();
}
