// Shared scaffolding for the differential sweeps (overload_soak,
// scenario_matrix): the FNV-1a record digest and ring-lane digest,
// printf-style report building, the common --quick/--jobs/--seed/--out flag
// set, and the one-line BENCH_*.json verdict writer.
//
// The contract both share: run N scenarios from one seed, reduce the
// protected tenant's full observable record to a byte-comparable report,
// and emit a single-line JSON verdict whose last field is "pass". Keeping
// the scaffolding here keeps the verdict lines structurally consistent
// (seed/steps/jobs/quick always present, in that order), which the CI
// jobs' diff normalization relies on.

#ifndef SNIC_BENCH_SOAK_COMMON_H_
#define SNIC_BENCH_SOAK_COMMON_H_

#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

#include "bench/bench_util.h"
#include "src/scenario/digest.h"

namespace snic::bench {

// The digest primitives live in src/scenario/digest.h so the scenario
// runner and the overload soak share one notion of "identical record".
using Fnv = scenario::Fnv;
using LaneDigest = scenario::LaneDigest;
using scenario::DigestRingLane;

// printf-append for building report/summary strings line by line.
inline void AppendF(std::string& out, const char* fmt, ...) {
  char line[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(line, sizeof(line), fmt, args);
  va_end(args);
  out += line;
}

// The flag set every sweep accepts: --quick --jobs=N --seed=S --out=FILE.
struct SoakFlags {
  bool quick = false;
  size_t jobs = 0;     // 0 = serial (MakePool semantics)
  uint64_t seed = 0;
  uint64_t steps = 0;  // quick_steps or full_steps
  std::string out;     // empty = the bench's default BENCH_*.json path
};

inline SoakFlags ParseSoakFlags(int argc, char** argv, uint64_t default_seed,
                                uint64_t quick_steps, uint64_t full_steps) {
  SoakFlags flags;
  flags.quick = QuickMode(argc, argv);
  flags.jobs = JobsFlag(argc, argv);
  const std::string seed_flag = FlagValue(argc, argv, "--seed");
  flags.seed = seed_flag.empty()
                   ? default_seed
                   : std::strtoull(seed_flag.c_str(), nullptr, 10);
  flags.steps = flags.quick ? quick_steps : full_steps;
  flags.out = FlagValue(argc, argv, "--out");
  return flags;
}

// One-line machine-readable verdict, the shape shared by every BENCH_*.json:
// {"bench":NAME,"seed":S,"steps":N,"jobs":J,"quick":B,<fields...>,"pass":B}.
// Fields appear in Add order; "pass" is always last. Write() targets
// --out when given, BENCH_<name>.json otherwise.
class VerdictJson {
 public:
  VerdictJson(std::string_view bench, const SoakFlags& flags)
      : bench_(bench), out_(flags.out) {
    AppendF(body_,
            "{\"bench\":\"%s\",\"seed\":%llu,\"steps\":%llu,\"jobs\":%zu"
            ",\"quick\":%s",
            bench_.c_str(), static_cast<unsigned long long>(flags.seed),
            static_cast<unsigned long long>(flags.steps), flags.jobs,
            flags.quick ? "true" : "false");
  }

  void AddU64(std::string_view key, uint64_t value) {
    AppendF(body_, ",\"%.*s\":%llu", static_cast<int>(key.size()), key.data(),
            static_cast<unsigned long long>(value));
  }
  void AddBool(std::string_view key, bool value) {
    AppendF(body_, ",\"%.*s\":%s", static_cast<int>(key.size()), key.data(),
            value ? "true" : "false");
  }
  // Pre-formatted JSON value (an array or object built by the caller).
  void AddRaw(std::string_view key, std::string_view json_value) {
    AppendF(body_, ",\"%.*s\":", static_cast<int>(key.size()), key.data());
    body_.append(json_value);
  }

  // Appends "pass", writes the line, prints the path. False when the file
  // cannot be opened (the soak should exit non-zero). The path note goes to
  // stderr: stdout stays byte-identical across runs that only differ in
  // --out, which CI diffs serial-vs-parallel.
  bool Write(bool pass) {
    const std::string path =
        out_.empty() ? "BENCH_" + bench_ + ".json" : out_;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "%s,\"pass\":%s}\n", body_.c_str(),
                 pass ? "true" : "false");
    std::fclose(f);
    std::fprintf(stderr, "Wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_;
  std::string body_;
  std::string out_;
};

}  // namespace snic::bench

#endif  // SNIC_BENCH_SOAK_COMMON_H_
