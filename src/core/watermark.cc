#include "src/core/watermark.h"

#include <algorithm>
#include <vector>

#include "src/common/rng.h"

namespace snic::core {
namespace {

constexpr size_t kBits = 64;
constexpr uint64_t kWindowCycles = 2048;   // one watermark bit per window
constexpr uint64_t kVictimPeriod = 64;     // victim request spacing
constexpr uint64_t kAttackerPeriod = 12;   // attacker spacing during 1-bits
constexpr uint64_t kWatermarkSeed = 0xbeefULL;

}  // namespace

WatermarkResult RunWatermarkAttack(sim::BusPolicy policy) {
  Rng rng(kWatermarkSeed);
  std::vector<bool> watermark(kBits);
  for (size_t i = 0; i < kBits; ++i) {
    watermark[i] = rng.NextBounded(2) == 1;
  }

  auto bus = sim::MakeArbiter(policy, 8, /*num_domains=*/2,
                              /*epoch_cycles=*/16, /*dead_time_cycles=*/4);

  // Replay the two principals in global time order. The attacker (domain 1)
  // floods during 1-bit windows; the victim (domain 0) probes steadily and
  // records its observed grant latencies.
  std::vector<double> window_latency_sum(kBits, 0.0);
  std::vector<uint32_t> window_latency_count(kBits, 0);

  const uint64_t total_cycles = kBits * kWindowCycles;
  uint64_t victim_next = 0;
  uint64_t attacker_next = 0;
  while (victim_next < total_cycles || attacker_next < total_cycles) {
    if (attacker_next <= victim_next && attacker_next < total_cycles) {
      const size_t bit = static_cast<size_t>(attacker_next / kWindowCycles);
      if (watermark[bit]) {
        bus->Grant(attacker_next, 1);
        attacker_next += kAttackerPeriod;
      } else {
        // Idle through the 0-bit window.
        attacker_next = (static_cast<uint64_t>(bit) + 1) * kWindowCycles;
      }
      continue;
    }
    if (victim_next < total_cycles) {
      const size_t bit = static_cast<size_t>(victim_next / kWindowCycles);
      const uint64_t grant = bus->Grant(victim_next, 0);
      window_latency_sum[bit] += static_cast<double>(grant - victim_next);
      ++window_latency_count[bit];
      victim_next += kVictimPeriod;
    } else {
      break;
    }
  }

  // Threshold decode: windows above the midpoint between the lowest and
  // highest window means read as 1 (robust to unbalanced watermarks).
  std::vector<double> means(kBits, 0.0);
  for (size_t i = 0; i < kBits; ++i) {
    if (window_latency_count[i] > 0) {
      means[i] = window_latency_sum[i] / window_latency_count[i];
    }
  }
  const auto [lo, hi] = std::minmax_element(means.begin(), means.end());
  const double threshold = (*lo + *hi) / 2.0;

  WatermarkResult result;
  size_t correct = 0;
  double sum1 = 0.0, sum0 = 0.0;
  size_t n1 = 0, n0 = 0;
  for (size_t i = 0; i < kBits; ++i) {
    const bool decoded = means[i] > threshold;
    correct += decoded == watermark[i];
    if (watermark[i]) {
      sum1 += means[i];
      ++n1;
    } else {
      sum0 += means[i];
      ++n0;
    }
  }
  result.bit_accuracy =
      static_cast<double>(correct) / static_cast<double>(kBits);
  result.mean_latency_bit1 = n1 > 0 ? sum1 / static_cast<double>(n1) : 0.0;
  result.mean_latency_bit0 = n0 > 0 ? sum0 / static_cast<double>(n0) : 0.0;
  return result;
}

}  // namespace snic::core
