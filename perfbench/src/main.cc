// The repository benchmark program: one workload per process, one thread,
// one closed-loop client.
//
//   snic_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--specs-dir DIR]
//
// A run sets the workload up (building every input and ending with one
// untimed warm-up op from the workload's own op list), then times ops back
// to back for S seconds, checking every op's outputs outside the timed
// region. With --trace 0 it sets the workload up kSetups - 1 more times,
// spread evenly over the S seconds, each in a forked child, and reports the
// median of all set-ups as setup_s. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
// and traced blocks of ops, reports the per-layer metrics the workload
// reduces from its spans, and the tracing overhead as traced vs untraced
// ops per second.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "perfbench/src/harness.h"

namespace perfbench {

uint32_t Tracer::Intern(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

SpanTable Tracer::Totals() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != kNone) {
      child_ns[span.parent] += static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  SpanTable table;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    SpanTotals& totals = table[names_[span.name]];
    ++totals.count;
    totals.total_ns += duration;
    totals.self_ns += duration - child_ns[i];
  }
  return table;
}

double MeanMs(const SpanTable& spans, const std::string& name) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.count == 0) {
    return 0.0;
  }
  return it->second.total_ns / static_cast<double>(it->second.count) / 1e6;
}

double SelfNs(const SpanTable& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.self_ns;
}

namespace {

// Set-ups per run; setup_s is their median. A shared host drifts between
// faster and slower periods a few seconds long, so set-ups made back to back
// all land in one period; spread over the run, their median follows the
// run's typical speed the way ops_per_s does.
constexpr int kSetups = 9;
// Wall-clock length of one untraced or traced block in a traced run.
constexpr int64_t kTraceBlockNs = 500'000'000;
// Span storage for a traced run (32 bytes each).
constexpr size_t kSpanCapacity = size_t{2} << 20;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string specs_dir = "bench/scenarios";
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: snic_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--specs-dir DIR]\n",
               why);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") {
        Usage("--trace takes 0 or 1");
      }
    } else if (flag == "--specs-dir") {
      args.specs_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      Usage(("malformed number for " + flag).c_str());
    }
  }
  if (args.workload.empty()) {
    Usage("--workload is required");
  }
  if (!(args.seconds > 0.0)) {
    Usage("--seconds must be positive");
  }
  return args;
}

std::unique_ptr<Workload> Make(const std::string& name,
                               const WorkloadArgs& args) {
  if (name == "scenario_sweep") return MakeScenarioSweep(args);
  if (name == "tenant_lifecycle") return MakeTenantLifecycle(args);
  if (name == "datapath_chain") return MakeDatapathChain(args);
  if (name == "fig5_replay") return MakeFig5Replay(args);
  Usage(("unknown workload " + name).c_str());
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// One set-up: builds the workload from its inputs and runs its warm-up op.
// Returns the wall time in seconds; *ok is false when the warm-up op's
// outputs are wrong.
double SetUp(const std::string& name, const WorkloadArgs& args,
             std::unique_ptr<Workload>* workload, bool* ok) {
  const int64_t start = NowNs();
  *workload = Make(name, args);
  args.tracer->set_on(false);
  (*workload)->PrepareOp(0);
  (*workload)->RunOp(0);
  const double seconds = static_cast<double>(NowNs() - start) / 1e9;
  std::string why;
  *ok = (*workload)->CheckOp(0, &why);
  if (!*ok) {
    std::fprintf(stderr, "warm-up op check failed: %s\n", why.c_str());
  }
  return seconds;
}

// One more set-up, in a forked child, so the measured workload keeps its
// state and the parent's peak RSS stays its own. Returns the set-up's wall
// time in seconds, or -1 when the child failed or its warm-up op did.
double SetUpInChild(const std::string& name, const WorkloadArgs& args) {
  int fds[2];
  if (pipe(fds) != 0) {
    return -1.0;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    std::unique_ptr<Workload> workload;
    bool ok = false;
    double seconds = SetUp(name, args, &workload, &ok);
    if (!ok) {
      seconds = -1.0;
    }
    const bool written =
        write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    _exit(written ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1.0;
  if (pid > 0) {
    if (read(fds[0], &seconds, sizeof(seconds)) != sizeof(seconds)) {
      seconds = -1.0;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      seconds = -1.0;
    }
  }
  close(fds[0]);
  return seconds;
}

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

void CheckAndCount(Workload& workload, uint64_t op, Tally& tally) {
  std::string why;
  ++tally.attempted;
  if (!workload.CheckOp(op, &why)) {
    ++tally.failed;
    if (tally.failed <= 5) {
      std::fprintf(stderr, "check failed on op %" PRIu64 ": %s\n", op,
                   why.c_str());
    }
  }
}

void PrintResult(bool correct, const Tally& tally, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(tally.attempted);
  out += ", \"failed\": " + std::to_string(tally.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = ParseArgs(argc, argv);
  Tracer tracer(args.trace ? kSpanCapacity : 0);
  WorkloadArgs workload_args;
  workload_args.seed = args.seed;
  workload_args.specs_dir = args.specs_dir;
  workload_args.tracer = &tracer;

  // The set-up of the measured workload: all work before the first timed op.
  Tally tally;
  bool setups_ok = true;
  std::unique_ptr<Workload> workload;
  tracer.set_op(0);
  tracer.set_on(args.trace);
  std::vector<double> setup_s = {
      SetUp(args.workload, workload_args, &workload, &setups_ok)};

  const auto measure_ns = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t loop_start = NowNs();
  int64_t paused_ns = 0;  // spent in the extra set-ups, not measuring
  const uint64_t fixed_ops = workload->FixedOps();
  const uint64_t cycle = workload->CycleOps();
  struct OpTime {
    bool traced;
    double ms;
  };
  std::vector<OpTime> times;  // every timed op, in run order
  uint64_t op = 1;
  bool tracing_block = false;
  int64_t block_end = NowNs() + kTraceBlockNs;
  const auto measured_ns = [&] { return NowNs() - loop_start - paused_ns; };
  for (;; ++op) {
    // The extra set-ups of an untraced run, at 1/(kSetups - 1), 2/(kSetups -
    // 1), ... of its measuring time; the last one when that time is up.
    const auto setups = static_cast<int64_t>(setup_s.size());
    if (!args.trace && setups < kSetups &&
        measured_ns() >= measure_ns * setups / (kSetups - 1)) {
      const int64_t start = NowNs();
      setup_s.push_back(SetUpInChild(args.workload, workload_args));
      setups_ok &= setup_s.back() >= 0.0;
      paused_ns += NowNs() - start;
    }
    const bool cycle_start = (op - 1) % cycle == 0;
    // A traced run finishes the cycle it is in, so both of its modes hold
    // whole cycles; an untraced run stops when its measuring time is up.
    if (measured_ns() >= measure_ns && op > fixed_ops &&
        (!args.trace || cycle_start)) {
      break;
    }
    if (args.trace && cycle_start && NowNs() >= block_end) {
      tracing_block = !tracing_block && !tracer.full();
      block_end = NowNs() + kTraceBlockNs;
    }
    workload->PrepareOp(op);
    tracer.set_op(op);
    tracer.set_on(tracing_block);
    const int64_t start = NowNs();
    workload->RunOp(op);
    times.push_back(
        {tracing_block, static_cast<double>(NowNs() - start) / 1e6});
    if (tracing_block) {
      workload->Probe(op);
      tracer.set_on(false);
    }
    CheckAndCount(*workload, op, tally);
  }

  // Rates and the median over whole cycles (all ops when the run holds less
  // than one cycle), per mode. The rate is ops over their summed time: a
  // shared host can switch between a fast and a slow regime every few
  // seconds, and a mean blends the two where a median of cycle times would
  // jump from one to the other between runs.
  size_t whole = times.size();
  if (whole >= cycle) {
    whole -= whole % cycle;
  }
  std::vector<double> measured, traced;
  for (size_t i = 0; i < whole; ++i) {
    (times[i].traced ? traced : measured).push_back(times[i].ms);
  }
  const auto rate = [](const std::vector<double>& ms) {
    double total = 0.0;
    for (double m : ms) {
      total += m;
    }
    return total > 0.0 ? static_cast<double>(ms.size()) / total * 1e3 : 0.0;
  };
  const double ops_per_s = rate(measured);
  Metrics metrics;
  if (!args.trace) {
    std::sort(setup_s.begin(), setup_s.end());
    metrics.push_back({"setup_s", setup_s[setup_s.size() / 2], "s"});
    metrics.push_back({"ops_per_s", ops_per_s, "1/s"});
    metrics.push_back({"op_ms_p50", Percentile(measured, 0.5), "ms"});
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
    // Sample counts for the percentiles. The 90th percentile is printed
    // only with at least ten samples beyond it; it is not in the gated set
    // because a scenario_sweep run cannot hold 100 ops.
    std::printf("info: workload=%s ops=%zu measured=%zu op_ms_p50=%.4f (n=%zu)",
                args.workload.c_str(), times.size(), measured.size(),
                Percentile(measured, 0.5), measured.size());
    if (measured.size() >= 100) {
      std::printf(" op_ms_p90=%.4f (n=%zu)", Percentile(measured, 0.9),
                  measured.size());
    }
    std::printf("\n");
  } else {
    const double traced_rate = rate(traced);
    metrics.push_back({"bench.untraced_ops_per_s", ops_per_s, "1/s"});
    metrics.push_back({"bench.traced_ops_per_s", traced_rate, "1/s"});
    metrics.push_back(
        {"bench.trace_overhead_pct",
         traced_rate > 0.0 ? (ops_per_s / traced_rate - 1.0) * 100.0 : 0.0,
         "%"});
    metrics.push_back(
        {"bench.spans", static_cast<double>(tracer.size()), "count"});
    uint64_t traced_ops = 0;
    for (const OpTime& t : times) {
      traced_ops += t.traced ? 1 : 0;
    }
    workload->LayerMetrics(tracer.Totals(), traced_ops, &metrics);
  }
  PrintResult(setups_ok && tally.failed == 0, tally, metrics);
  return 0;
}
