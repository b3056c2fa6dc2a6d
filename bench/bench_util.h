// Shared helpers for the table/figure regeneration harnesses.

#ifndef SNIC_BENCH_BENCH_UTIL_H_
#define SNIC_BENCH_BENCH_UTIL_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "src/runtime/thread_pool.h"

namespace snic::bench {

// Every bench main calls this first. `flags` lists what the bench accepts:
// "--quick" matches exactly, "--jobs=" (trailing '=') takes a value; with
// `operand` set, arguments not starting with '-' are accepted too. Anything
// else, --help included, prints the usage to stderr and exits 2 before any
// work starts: a mistyped flag must not run a sweep or overwrite a pin.
inline void RequireKnownFlags(int argc, char** argv,
                              std::initializer_list<std::string_view> flags,
                              std::string_view operand = {}) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool known = !operand.empty() && !arg.starts_with('-');
    for (const std::string_view flag : flags) {
      known |= flag.ends_with('=') ? arg.starts_with(flag) : arg == flag;
    }
    if (known) {
      continue;
    }
    std::fprintf(stderr, "%s: unknown argument '%s'\nusage: %s", argv[0],
                 argv[i], argv[0]);
    if (!operand.empty()) {
      std::fprintf(stderr, " %.*s", static_cast<int>(operand.size()),
                   operand.data());
    }
    for (const std::string_view flag : flags) {
      std::fprintf(stderr, " [%.*s%s]", static_cast<int>(flag.size()),
                   flag.data(), flag.ends_with('=') ? "VALUE" : "");
    }
    std::fprintf(stderr, "\n");
    std::exit(2);
  }
}

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

// Value of a `--name=<value>` flag; empty string when the flag is absent.
inline std::string FlagValue(int argc, char** argv, const std::string& name) {
  const std::string prefix = name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return {};
}

// The most sweep workers `--jobs` may ask for.
inline constexpr size_t kMaxJobs = 256;

// A `--jobs` value: a plain decimal integer in [1, kMaxJobs], else nullopt.
inline std::optional<size_t> ParseJobs(std::string_view value) {
  size_t jobs = 0;
  const auto [end, error] =
      std::from_chars(value.data(), value.data() + value.size(), jobs);
  if (error != std::errc() || end != value.data() + value.size() ||
      jobs < 1 || jobs > kMaxJobs) {
    return std::nullopt;
  }
  return jobs;
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
