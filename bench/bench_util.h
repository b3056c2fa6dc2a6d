// Shared helpers for the table/figure regeneration harnesses.

#ifndef SNIC_BENCH_BENCH_UTIL_H_
#define SNIC_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/flags.h"
#include "src/runtime/thread_pool.h"

namespace snic::bench {

// Every bench main calls RequireKnownFlags first (src/common/flags.h).
using snic::FlagValue;
using snic::RequireKnownFlags;
using snic::U64Flag;

// `--quick` trims workload sizes for smoke runs; default regenerates the
// full table/figure.
inline bool QuickMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      return true;
    }
  }
  return false;
}

// The most sweep workers `--jobs` may ask for.
inline constexpr size_t kMaxJobs = 256;

// A `--jobs` value: a plain decimal integer in [1, kMaxJobs], else nullopt.
inline std::optional<size_t> ParseJobs(std::string_view value) {
  const std::optional<uint64_t> jobs = ParseU64(value);
  if (!jobs.has_value() || *jobs < 1 || *jobs > kMaxJobs) {
    return std::nullopt;
  }
  return static_cast<size_t>(*jobs);
}

// `--jobs=N`: worker count for the sweep runtime. Defaults to the hardware
// concurrency; 1 forces the historical serial path. Results are
// byte-identical at every jobs count (docs/RUNTIME.md). A value ParseJobs
// rejects exits 2 before any pool exists.
inline size_t JobsFlag(int argc, char** argv) {
  constexpr std::string_view kPrefix = "--jobs=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with(kPrefix)) {
      continue;
    }
    const std::optional<size_t> jobs = ParseJobs(arg.substr(kPrefix.size()));
    if (!jobs.has_value()) {
      std::fprintf(stderr, "%s: %s: expected an integer from 1 to %zu\n",
                   argv[0], argv[i], kMaxJobs);
      std::exit(2);
    }
    return *jobs;
  }
  return runtime::HardwareConcurrency();
}

// Pool for `jobs` workers; null (the inline serial path) when jobs <= 1.
// The jobs count goes to stderr so stdout stays diffable across jobs
// counts (CI compares --jobs=1 against --jobs=2 output byte-for-byte).
inline std::unique_ptr<runtime::ThreadPool> MakePool(size_t jobs) {
  std::fprintf(stderr, "[sweep runtime: %zu job%s]\n", jobs,
               jobs == 1 ? "" : "s");
  if (jobs <= 1) {
    return nullptr;
  }
  return std::make_unique<runtime::ThreadPool>(jobs);
}

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("==========================================================\n\n");
}

}  // namespace snic::bench

#endif  // SNIC_BENCH_BENCH_UTIL_H_
