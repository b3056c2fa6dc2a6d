// Replay-engine throughput gate: times the Fig. 5a workload (every
// unordered NF pair at each L2 size of the fig5a quick sweep, baseline +
// S-NIC configurations, single-threaded) on the fast engine
// (sim::PreparedTrace + the global-event merge: SoA cache, streaming codec,
// inline bus) against the scalar sim::ReferenceReplay oracle it must match
// byte for byte (docs/PERFORMANCE.md). The fast sweep is timed end to end —
// codec decode and the private-L1 prepare pass included — exactly as the
// Fig. 5 benches consume it: prepare once per sweep, then replay every
// (pair, size, config) cell from the prepared form. Reports events/sec for
// both and the speedup; the fast path must hold >= 5x on the full-size
// workload.
//
// Discipline mirrors obs_overhead: the two engines are interleaved within
// each rep so machine drift biases both equally, and the minimum over reps
// is the noise-robust per-engine estimate (contention only ever adds time).
// The bench also cross-checks the two engines' degradation checksums every
// rep — a free differential test on the exact workload being timed.
//
// Results land in BENCH_replay_throughput.json; the committed copy at the
// repo root pins the calibrated full run. CI re-measures the *speedup*
// (the hardware-robust ratio) each run and fails if it drops more than 10%
// below the pin. --quick runs print and record everything but always exit
// 0 — short replays under-warm the caches and shared runners flap, so only
// full runs gate the 5x floor locally.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/fig5_common.h"
#include "src/common/units.h"
#include "src/sim/reference.h"

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kSpeedupFloor = 5.0;

// Minimum over interleaved reps: the noise-robust estimator (see
// bench/obs_overhead.cc for the rationale).
double MinMs(const std::vector<double>& samples) {
  return *std::min_element(samples.begin(), samples.end());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace snic;
  using namespace snic::bench;
  RequireKnownFlags(argc, argv, {"--quick", "--seed=", "--out="});
  const bool quick = QuickMode(argc, argv);
  // --seed=S varies the synthetic NF workload (default matches the
  // committed pin); the seed is echoed into the verdict JSON.
  const uint64_t seed = U64Flag(argc, argv, "--seed", 2024);

  PrintHeader("Replay throughput: fast streaming engine vs reference oracle",
              "gate: >= 5x events/sec on the Fig. 5a workload");


  const size_t events = quick ? 20'000 : 120'000;
  const size_t reps = quick ? 3 : 7;
  std::printf("Recording NF traces (%zu events/NF, %zu timed reps, seed "
              "%llu)...\n\n",
              events, reps, static_cast<unsigned long long>(seed));
  // Both trace forms are needed: the reference engine replays materialized
  // events; the fast engine streams the encoded form through its prepare
  // pass (timed as part of the fast sweep).
  const auto traces = RecordNfTraces(events, seed, nullptr);
  const auto encoded = EncodeNfTraces(traces);

  // The Fig. 5a workload: every unordered NF pair at every L2 size of the
  // fig5a quick sweep, replayed under both configurations, single-threaded.
  // One prepare pass serves the whole sweep, as in fig5a_ipc_vs_cache.
  const std::vector<uint64_t> l2_sizes = {KiB(32), KiB(512), MiB(4)};
  std::vector<std::vector<size_t>> pairs;
  for (size_t i = 0; i < kNumNfs; ++i) {
    for (size_t j = i; j < kNumNfs; ++j) {
      pairs.push_back({i, j});
    }
  }
  // Trace events fed through an engine per sweep: two replays per pair at
  // each L2 size.
  uint64_t events_per_sweep = 0;
  for (const auto& pair : pairs) {
    for (size_t kind : pair) {
      events_per_sweep += 2 * l2_sizes.size() * traces[kind].size();
    }
  }

  auto degradation_checksum = [](const sim::ReplayResult& baseline,
                                 const sim::ReplayResult& secure) {
    double checksum = 0.0;
    for (size_t c = 0; c < baseline.cores.size(); ++c) {
      checksum += 1.0 - secure.cores[c].Ipc() / baseline.cores[c].Ipc();
    }
    return checksum;
  };
  auto reference_sweep = [&] {
    double checksum = 0.0;
    for (uint64_t l2 : l2_sizes) {
      for (const auto& pair : pairs) {
        std::vector<const sim::InstructionTrace*> mix;
        for (size_t kind : pair) {
          mix.push_back(&traces[kind]);
        }
        const auto cores = static_cast<uint32_t>(mix.size());
        const auto baseline = sim::ReferenceReplay(
            sim::MachineConfig::MarvellLike(cores, l2, false), mix, 0.3);
        const auto secure = sim::ReferenceReplay(
            sim::MachineConfig::MarvellLike(cores, l2, true), mix, 0.3);
        checksum += degradation_checksum(baseline, secure);
      }
    }
    return checksum;
  };
  auto fast_sweep = [&] {
    // Prepare inside the timed region: the sweep's true cost includes one
    // codec decode + private-L1 pass per trace, amortized over every
    // (pair, size, config) cell — the prepared form is L2-independent.
    const auto prepared = PrepareNfTraces(encoded);
    double checksum = 0.0;
    for (uint64_t l2 : l2_sizes) {
      for (const auto& pair : pairs) {
        std::vector<const sim::PreparedTrace*> mix;
        for (size_t kind : pair) {
          mix.push_back(&prepared[kind]);
        }
        const auto cores = static_cast<uint32_t>(mix.size());
        const auto baseline = ReplayPreparedMix(
            sim::MachineConfig::MarvellLike(cores, l2, false), mix);
        const auto secure = ReplayPreparedMix(
            sim::MachineConfig::MarvellLike(cores, l2, true), mix);
        checksum += degradation_checksum(baseline, secure);
      }
    }
    return checksum;
  };

  std::printf("Timing interleaved sweeps (reference / fast per rep, "
              "%zu pairs x %zu L2 sizes x 2 configs, %llu events per "
              "sweep)...\n",
              pairs.size(), l2_sizes.size(),
              static_cast<unsigned long long>(events_per_sweep));
  std::vector<double> reference_samples;
  std::vector<double> fast_samples;
  bool checksums_match = true;
  double checksum = 0.0;
  for (size_t r = 0; r < reps; ++r) {
    const auto ref_start = Clock::now();
    const double ref_checksum = reference_sweep();
    const auto ref_stop = Clock::now();
    reference_samples.push_back(
        std::chrono::duration<double, std::milli>(ref_stop - ref_start)
            .count());

    const auto fast_start = Clock::now();
    const double fast_checksum = fast_sweep();
    const auto fast_stop = Clock::now();
    fast_samples.push_back(
        std::chrono::duration<double, std::milli>(fast_stop - fast_start)
            .count());

    // Differential cross-check on the timed workload itself: the engines
    // must agree bit for bit, every rep.
    if (fast_checksum != ref_checksum) {
      checksums_match = false;
      std::fprintf(stderr,
                   "DIVERGENCE at rep %zu: reference %.17g fast %.17g\n", r,
                   ref_checksum, fast_checksum);
    }
    checksum = fast_checksum;
  }
  std::printf("  (sweep checksum %.6f, engines %s)\n", checksum,
              checksums_match ? "identical" : "DIVERGED");

  const double reference_ms = MinMs(reference_samples);
  const double fast_ms = MinMs(fast_samples);
  const double reference_eps =
      static_cast<double>(events_per_sweep) / (reference_ms / 1000.0);
  const double fast_eps =
      static_cast<double>(events_per_sweep) / (fast_ms / 1000.0);
  const double speedup = reference_ms / fast_ms;
  const bool speedup_ok = speedup >= kSpeedupFloor;

  std::printf("\nbest sweep: reference %.1f ms (%.2fM events/s), "
              "fast %.1f ms (%.2fM events/s)\n",
              reference_ms, reference_eps / 1e6, fast_ms, fast_eps / 1e6);
  std::printf("speedup: %.2fx\n", speedup);
  std::printf("gate: fast path >= %.1fx reference             ->  %s\n",
              kSpeedupFloor, speedup_ok ? "PASS" : "FAIL");
  std::printf("gate: engines byte-identical (checksums)      ->  %s\n",
              checksums_match ? "PASS" : "FAIL");
  if (quick) {
    std::printf("  (quick mode: speedup informational only — the floor gates "
                "on the full-size replay)\n");
  }

  const std::string out_path = [&] {
    const std::string flag = FlagValue(argc, argv, "--out");
    return flag.empty() ? std::string("BENCH_replay_throughput.json") : flag;
  }();
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"replay_throughput\",\"seed\":%llu,"
               "\"events_per_nf\":%zu,"
               "\"reps\":%zu,\"pairs\":%zu,\"l2_sizes\":%zu,"
               "\"events_per_sweep\":%llu,"
               "\"reference_ms\":%.3f,\"fast_ms\":%.3f,"
               "\"reference_events_per_sec\":%.0f,"
               "\"fast_events_per_sec\":%.0f,\"speedup\":%.3f,"
               "\"speedup_floor\":%.1f,\"checksums_match\":%s,"
               "\"quick\":%s,\"pass\":%s}\n",
               static_cast<unsigned long long>(seed), events, reps,
               pairs.size(), l2_sizes.size(),
               static_cast<unsigned long long>(events_per_sweep),
               reference_ms, fast_ms, reference_eps, fast_eps, speedup,
               kSpeedupFloor, checksums_match ? "true" : "false",
               quick ? "true" : "false",
               checksums_match && speedup_ok ? "true" : "false");
  std::fclose(f);
  std::printf("Wrote %s\n", out_path.c_str());

  // Checksum divergence is a correctness failure and gates in every mode;
  // the throughput floor gates only on full runs.
  if (!checksums_match) {
    return 1;
  }
  return (quick || speedup_ok) ? 0 : 1;
}
