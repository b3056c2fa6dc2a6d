// Deterministic overload-control primitives (docs/ROBUSTNESS.md, "Overload
// control").
//
// S-NIC's isolation story (§3–§4) partitions space and time, but a virtual
// smart NIC must also stay well-behaved when a tenant is driven past its
// provisioned capacity: queues must stay bounded, excess load must be shed
// by explicit policy rather than by memory growth, and a struggling
// accelerator must degrade gracefully instead of wedging its owner. This
// module holds the policy machinery the VPP, the chain engine and the
// benches share:
//
//  - TokenBucket: per-NF ingress admission refilled over *simulated* cycles.
//  - CircuitBreaker: closed -> open -> half-open accelerator-dispatch guard,
//    generalizing the supervisor's one-shot accel->software downgrade.
//  - AccelDispatchGate: the breaker wired in front of
//    accel::VirtualAcceleratorPool::ThreadAccess.
//
// Determinism contract (mirrors src/fault, docs/RUNTIME.md): every decision
// is a pure function of the simulated-cycle clock passed in by the caller
// and of the component's own event history. Nothing here reads wall clock,
// ambient RNG, or thread identity, so overload behaviour is byte-identical
// at any --jobs count.

#ifndef SNIC_CORE_OVERLOAD_H_
#define SNIC_CORE_OVERLOAD_H_

#include <cstdint>

#include "src/accel/accelerator.h"
#include "src/common/status.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"

namespace snic::core {

// What a full queue does with the conflict between the incoming frame and
// the frames already buffered.
enum class DropPolicy : uint8_t {
  // Reject the incoming frame (classic tail drop).
  kTailDrop = 0,
  // Deterministic priority-aware early drop: evict the lowest-priority
  // buffered frame (largest; latest arrival among equals) when the incoming
  // frame has higher priority (is smaller), else reject the incoming frame.
  kPriorityEarlyDrop = 1,
};

// Per-VPP overload knobs, carried inside VppConfig and (via FunctionImage)
// covered by the launch-time measurement, so a tenant's admission contract
// is attestable. Defaults preserve the pre-overload-plane behaviour: queues
// bounded only by the LiquidIO buffer reservations, no admission bucket, no
// deadlines.
struct OverloadPolicy {
  // Frame-count bound on the RX queue; 0 derives PDB / 64 B descriptors.
  uint32_t rx_queue_capacity_frames = 0;
  // Frame-count bound on the TX queue; 0 derives ODB / 64 B descriptors.
  uint32_t tx_queue_capacity_frames = 0;
  DropPolicy drop_policy = DropPolicy::kTailDrop;
  // Ingress token bucket, refilled over simulated cycles. Disabled (admit
  // everything) while refill_cycles or frames_per_refill is 0.
  uint64_t admission_burst_frames = 0;
  uint64_t admission_frames_per_refill = 0;
  uint64_t admission_refill_cycles = 0;
  // Per-packet cycle budget stamped at ingress; a frame older than this is
  // shed at the next stage boundary instead of processed. 0 disables.
  uint64_t deadline_cycles = 0;
};

// Deterministic token bucket over simulated cycles. Starts full; refills
// `frames_per_refill` tokens every `refill_cycles` cycles of the clock the
// owner advances via AdvanceTo. Integer arithmetic only — no rates, no
// floating point — so two buckets fed the same cycle sequence agree bit for
// bit regardless of how the advancing calls are batched.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(uint64_t burst, uint64_t frames_per_refill,
              uint64_t refill_cycles)
      : burst_(burst),
        frames_per_refill_(frames_per_refill),
        refill_cycles_(refill_cycles),
        tokens_(burst) {}

  bool enabled() const {
    return refill_cycles_ > 0 && frames_per_refill_ > 0;
  }

  // Credits every whole refill period elapsed since the last credit. The
  // clock is monotone; stale cycles are ignored.
  void AdvanceTo(uint64_t cycle);

  // Takes one token. Always true when the bucket is disabled.
  bool TryConsume();
  // Pure availability check (no state change) for credit computations.
  bool HasToken() const { return !enabled() || tokens_ > 0; }

  uint64_t tokens() const { return tokens_; }

 private:
  uint64_t burst_ = 0;
  uint64_t frames_per_refill_ = 0;
  uint64_t refill_cycles_ = 0;
  uint64_t tokens_ = 0;
  uint64_t last_refill_cycle_ = 0;
};

// Circuit-breaker states, exported as the `accel.breaker_state` gauge.
enum class BreakerState : uint8_t {
  kClosed = 0,    // requests flow; consecutive failures are counted
  kOpen = 1,      // requests rejected until the open dwell elapses
  kHalfOpen = 2,  // probe requests allowed; outcome decides reopen/close
};

struct CircuitBreakerConfig {
  // Consecutive failures (while closed) that trip the breaker.
  uint32_t failures_to_open = 3;
  // Simulated cycles the breaker stays open before allowing probes.
  uint64_t open_cycles = 1024;
  // Consecutive successful probes (while half-open) that close it again.
  uint32_t half_open_successes = 2;
};

struct CircuitBreakerStats {
  uint64_t opens = 0;           // closed -> open trips
  uint64_t reopens = 0;         // half-open probe failures -> open
  uint64_t closes = 0;          // half-open -> closed recoveries
  uint64_t rejected = 0;        // requests refused while open
  uint64_t probes = 0;          // half-open requests admitted
  uint64_t probe_failures = 0;  // probes that failed (incl. injected)
};

// Deterministic circuit breaker over simulated cycles. The caller brackets
// each guarded request with AllowRequest(now) and RecordSuccess/
// RecordFailure(now); all transitions are functions of that event sequence.
// The half-open probe consults the fault plane at
// `fault::sites::kBreakerProbe`, so chaos schedules can force a probe
// failure without touching the guarded resource.
//
// Telemetry is bound at construction: the `accel.breaker_state{nf=...}`
// gauge in obs::DefaultRegistry(), kept current across transitions, and an
// accel.breaker instant (arg = state ordinal) per transition on
// obs::CurrentTraceRing() when one is installed, so forensics can line
// breaker trips up against the owner's packet spans.
class CircuitBreaker {
 public:
  CircuitBreaker(uint64_t nf_id, const CircuitBreakerConfig& config);

  // True when the request may proceed. While open, requests are rejected
  // until `open_cycles` have elapsed, then the breaker turns half-open and
  // admits probes one at a time.
  bool AllowRequest(uint64_t now);

  void RecordSuccess(uint64_t now);
  void RecordFailure(uint64_t now);

  BreakerState state() const { return state_; }
  const CircuitBreakerStats& stats() const { return stats_; }
  uint64_t nf_id() const { return nf_id_; }

 private:
  void TransitionTo(BreakerState next, uint64_t now);

  uint64_t nf_id_;
  CircuitBreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  uint32_t consecutive_failures_ = 0;
  uint32_t half_open_successes_ = 0;
  uint64_t opened_at_cycle_ = 0;
  CircuitBreakerStats stats_;
  obs::Gauge* obs_state_;
  obs::TraceRing* ring_;
  uint16_t ring_breaker_ = 0;
  uint16_t ring_arg_state_ = 0;
};

struct AccelDispatchGateStats {
  uint64_t dispatches = 0;          // requests that reached the accelerator
  uint64_t software_fallbacks = 0;  // requests refused by the open breaker
};

// The breaker wired in front of accelerator dispatch: a gate owner calls
// Dispatch instead of pool->ThreadAccess directly. While the breaker is
// open the request is answered kUnavailable immediately — the caller's cue
// to take its software path — without touching (or timing) the accelerator,
// which is what makes degradation graceful rather than wedging. Each
// request lands as an accel.dispatch or accel.fallback instant on the
// owner's lane of obs::CurrentTraceRing() (bound at construction).
class AccelDispatchGate {
 public:
  AccelDispatchGate(accel::VirtualAcceleratorPool* pool, uint64_t nf_id,
                    const CircuitBreakerConfig& config);

  Result<uint64_t> Dispatch(accel::AcceleratorType type, uint32_t cluster,
                            uint64_t virt_addr, bool is_write, uint64_t now);

  CircuitBreaker& breaker() { return breaker_; }
  const CircuitBreaker& breaker() const { return breaker_; }
  const AccelDispatchGateStats& stats() const { return stats_; }

 private:
  accel::VirtualAcceleratorPool* pool_;
  CircuitBreaker breaker_;
  AccelDispatchGateStats stats_;
  obs::TraceRing* ring_;
  uint16_t ring_dispatch_ = 0;
  uint16_t ring_fallback_ = 0;
};

}  // namespace snic::core

#endif  // SNIC_CORE_OVERLOAD_H_
