// Flow-watermarking side channel (§4.5).
//
// The paper cites network-flow watermarking [Bates et al.]: a co-resident
// attacker imprints a bit pattern onto a victim's packet timing by
// modulating contention on a shared resource, and a downstream observer
// decodes it to confirm co-residency. "In concert with VPP hardware
// reservations, temporal partitioning eliminates watermark attacks that
// leverage packet flow interference."
//
// This module runs the attack against the bus-arbiter models: the attacker
// hammers the bus during 1-bit windows and idles during 0-bit windows; the
// victim issues steady requests whose observed grant latencies form the
// covert signal. Decoding accuracy ~100% under FCFS, ~50% (chance) under
// temporal partitioning.

#ifndef SNIC_CORE_WATERMARK_H_
#define SNIC_CORE_WATERMARK_H_

#include "src/sim/bus.h"

namespace snic::core {

struct WatermarkResult {
  // Fraction of watermark bits recovered by threshold decoding. 1.0 =
  // perfect covert channel; ~0.5 = indistinguishable from noise.
  double bit_accuracy = 0.0;
  // Mean victim latency in 1-bit vs 0-bit windows (the raw signal).
  double mean_latency_bit1 = 0.0;
  double mean_latency_bit0 = 0.0;
};

// Imprints a fixed 64-bit watermark (one bit per 2048-cycle window) and
// decodes it from the victim's grant latencies under `policy`.
WatermarkResult RunWatermarkAttack(sim::BusPolicy policy);

}  // namespace snic::core

#endif  // SNIC_CORE_WATERMARK_H_
