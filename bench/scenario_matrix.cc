// Scenario matrix: the declarative robustness sweep (docs/ROBUSTNESS.md).
//
// Sweeps every generated scenario family (src/scenario/generator.h) plus
// any curated .json specs under --specs=DIR across the deterministic
// runtime. Each scenario decodes (or is rejected — a rejection is a FAIL
// verdict, never a silent skip), runs its constellation — and its stripped
// baseline twin when a differential predicate needs one — and prints
// exactly one verdict line:
//
//   PASS  c/crash-during-recovery/3  bystander_identical=ok containment:victim-a=ok
//
// The verdict lines are byte-identical at every --jobs count: scenarios are
// index-addressed, each draws its seed as DeriveTaskSeed(seed, index), and
// printing happens after the join in index order.
//
// Flags: --quick (stride-sampled 32-scenario smoke) --jobs=N --seed=S
//        --specs=DIR (also run every *.json spec in DIR, sorted by name)
//        --out=FILE (JSON verdict; default BENCH_scenario_matrix.json)
// Exit status 1 when any scenario fails.

#include <dirent.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/common/status.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"
#include "src/scenario/generator.h"
#include "src/scenario/runner.h"
#include "src/scenario/spec.h"

namespace snic {
namespace {

// One sweep entry: either a decoded spec or the decode rejection that
// stands in for it (still producing a verdict line).
struct Entry {
  std::string name;
  bool decoded = false;
  scenario::ScenarioSpec spec;
  std::string decode_error;
  bool curated = false;
};

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

// Loads every *.json under `dir`, sorted by filename so the sweep order
// (and therefore the verdict stream) is stable across filesystems.
std::vector<Entry> LoadCurated(const std::string& dir) {
  std::vector<std::string> files;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    std::fprintf(stderr, "cannot open --specs dir %s\n", dir.c_str());
    std::exit(1);
  }
  while (dirent* e = readdir(d)) {
    const std::string name = e->d_name;
    if (name.size() > 5 && name.substr(name.size() - 5) == ".json") {
      files.push_back(name);
    }
  }
  closedir(d);
  std::sort(files.begin(), files.end());

  std::vector<Entry> entries;
  for (const std::string& file : files) {
    Entry entry;
    entry.name = "spec:" + file;
    entry.curated = true;
    const auto text = ReadFile(dir + "/" + file);
    if (!text.ok()) {
      entry.decode_error = text.status().message();
      entries.push_back(std::move(entry));
      continue;
    }
    auto spec = scenario::ParseScenarioSpec(text.value());
    if (!spec.ok()) {
      entry.decode_error = spec.status().message();
    } else {
      entry.decoded = true;
      entry.spec = std::move(spec).value();
    }
    entries.push_back(std::move(entry));
  }
  return entries;
}

}  // namespace
}  // namespace snic

int main(int argc, char** argv) {
  using namespace snic;

  bench::RequireKnownFlags(argc, argv,
                           {"--quick", "--jobs=", "--seed=", "--out=",
                            "--specs="});
  const bool quick = bench::QuickMode(argc, argv);
  const size_t jobs = bench::JobsFlag(argc, argv);
  const uint64_t seed = bench::U64Flag(argc, argv, "--seed", 0x5ce9a21ull);
  const std::string out_flag = bench::FlagValue(argc, argv, "--out");
  const std::string specs_dir = bench::FlagValue(argc, argv, "--specs");
  const size_t limit = quick ? 32 : 0;

  bench::PrintHeader("Scenario matrix: declarative robustness sweep",
                     "generated + curated chaos/overload/attack scenarios, "
                     "one verdict per scenario");

  // Assemble the sweep: generated families first, curated specs after.
  std::vector<Entry> entries;
  {
    std::vector<scenario::ScenarioSpec> generated =
        scenario::GenerateScenarios(seed);
    entries.reserve(generated.size() + 32);
    for (auto& spec : generated) {
      Entry entry;
      entry.name = spec.name;
      entry.decoded = true;
      entry.spec = std::move(spec);
      entries.push_back(std::move(entry));
    }
  }
  if (!specs_dir.empty()) {
    for (Entry& entry : LoadCurated(specs_dir)) {
      entries.push_back(std::move(entry));
    }
  }
  const size_t total_available = entries.size();

  // --quick stride-samples across the whole list so every family keeps
  // coverage in the smoke run.
  if (limit > 0 && limit < entries.size()) {
    std::vector<Entry> sampled;
    sampled.reserve(limit);
    for (size_t k = 0; k < limit; ++k) {
      sampled.push_back(std::move(entries[k * entries.size() / limit]));
    }
    entries = std::move(sampled);
  }
  std::printf("seed: %" PRIu64 "  scenarios: %zu (of %zu available)\n\n",
              seed, entries.size(), total_available);

  struct Outcome {
    bool pass = false;
    std::string line;
  };
  std::vector<Outcome> outcomes(entries.size());
  {
    auto pool = bench::MakePool(jobs);
    runtime::ParallelFor(pool.get(), entries.size(), [&](size_t task) {
      const Entry& entry = entries[task];
      Outcome& outcome = outcomes[task];
      if (!entry.decoded) {
        // Decode-or-reject: a spec that does not decode still gets its
        // verdict line, and it is a failure.
        outcome.pass = false;
        outcome.line = "decode: " + entry.decode_error;
        return;
      }
      const scenario::ScenarioVerdict verdict = scenario::EvaluateScenario(
          entry.spec, runtime::DeriveTaskSeed(seed, task));
      outcome.pass = verdict.pass;
      outcome.line = verdict.detail;
    });
  }

  size_t passed = 0, failed = 0;
  std::string failures = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    const Outcome& outcome = outcomes[i];
    std::printf("%s  %-44s %s\n", outcome.pass ? "PASS" : "FAIL",
                entries[i].name.c_str(), outcome.line.c_str());
    if (outcome.pass) {
      ++passed;
    } else {
      failures += (failed == 0 ? "\"" : ",\"") + entries[i].name + "\"";
      ++failed;
    }
  }
  failures += "]";
  const bool pass = failed == 0 && !entries.empty();
  std::printf("\n%zu/%zu scenarios passed\n", passed, entries.size());
  std::printf("%s\n", pass ? "SCENARIO MATRIX PASSED"
                           : "SCENARIO MATRIX FAILED");

  // One-line JSON verdict. "steps" records the sweep size (each spec
  // carries its own step count). The path note goes to stderr, so stdout
  // stays byte-identical across runs that differ only in --out, which CI
  // diffs serial-vs-parallel.
  const std::string path =
      out_flag.empty() ? "BENCH_scenario_matrix.json" : out_flag;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"scenario_matrix\",\"seed\":%" PRIu64
               ",\"steps\":%zu,\"jobs\":%zu,\"quick\":%s,\"scenarios\":%zu"
               ",\"available\":%zu,\"passed\":%zu,\"failed\":%zu"
               ",\"failures\":%s,\"pass\":%s}\n",
               seed, entries.size(), jobs, quick ? "true" : "false",
               entries.size(), total_available, passed, failed,
               failures.c_str(), pass ? "true" : "false");
  std::fclose(f);
  std::fprintf(stderr, "Wrote %s\n", path.c_str());
  return pass ? 0 : 1;
}
