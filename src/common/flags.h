// Strict command-line helpers shared by the bench and tool mains.
//
// Every main lists the flags it takes and calls RequireKnownFlags first, so
// a mistyped flag exits 2 before any work starts instead of running a
// default sweep or overwriting a pinned result. Numeric values parse through
// ParseU64, which accepts a whole decimal string or nothing.

#ifndef SNIC_COMMON_FLAGS_H_
#define SNIC_COMMON_FLAGS_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>

namespace snic {

// `flags` lists what the program accepts: "--quick" matches exactly,
// "--jobs=" (trailing '=') takes a value; with `operand` set, arguments not
// starting with '-' are accepted too. Anything else, --help included,
// prints the usage to stderr and exits 2. A tool with subcommands passes
// (argc - 1, argv + 1), so the usage names the subcommand.
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

// Value of a `--name=<value>` flag; empty string when the flag is absent.
inline std::string FlagValue(int argc, char** argv, const std::string& name) {
  const std::string prefix = name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(prefix)) {
      return std::string(arg.substr(prefix.size()));
    }
  }
  return {};
}

// A plain decimal uint64: digits only, the whole string, no overflow.
// Anything else (empty, sign, space, hex prefix, fraction) is nullopt.
inline std::optional<uint64_t> ParseU64(std::string_view value) {
  uint64_t parsed = 0;
  const auto [end, error] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (error != std::errc() || end != value.data() + value.size()) {
    return std::nullopt;
  }
  return parsed;
}

// `--name=<u64>`, or `fallback` when the flag is absent. A value ParseU64
// rejects prints the flag to stderr and exits 2.
inline uint64_t U64Flag(int argc, char** argv, const std::string& name,
                        uint64_t fallback) {
  const std::string prefix = name + "=";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (!arg.starts_with(prefix)) {
      continue;
    }
    const std::optional<uint64_t> value = ParseU64(arg.substr(prefix.size()));
    if (!value.has_value()) {
      std::fprintf(stderr, "%s: %s: expected an unsigned decimal integer\n",
                   argv[0], argv[i]);
      std::exit(2);
    }
    return *value;
  }
  return fallback;
}

}  // namespace snic

#endif  // SNIC_COMMON_FLAGS_H_
