// snic_lint driver. Usage:
//   snic_lint [--root=/path/to/repo] [--graph-out=path.{dot,json}]
// Prints one `file:line: rule: message` per finding; exit 1 when any fire.
// Any other argument prints the usage and exits 2 before the lint runs.

#include <cstdio>
#include <string>

#include "src/common/flags.h"
#include "tools/snic_lint/lint.h"

int main(int argc, char** argv) {
  snic::RequireKnownFlags(argc, argv, {"--root=", "--graph-out="});
  snic::lint::Options options;
  if (const std::string v = snic::FlagValue(argc, argv, "--root");
      !v.empty()) {
    options.root = v;
  }
  options.graph_out = snic::FlagValue(argc, argv, "--graph-out");

  const auto findings = snic::lint::RunLint(options);
  if (findings.empty()) {
    std::printf("snic_lint: clean (%s)\n", options.root.c_str());
    return 0;
  }
  std::fputs(snic::lint::FormatFindings(findings).c_str(), stdout);
  std::fprintf(stderr,
               "snic_lint: %zu finding(s). Suppress a line with "
               "`// snic-lint: allow(<rule>)` or add an audited entry to "
               "%s.\n",
               findings.size(), options.allowlist_path.c_str());
  return 1;
}
