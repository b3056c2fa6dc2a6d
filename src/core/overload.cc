#include "src/core/overload.h"

#include <string>

#include "src/fault/fault.h"
#include "src/obs/span_names.h"

namespace snic::core {

void TokenBucket::AdvanceTo(uint64_t cycle) {
  if (!enabled() || cycle <= last_refill_cycle_) {
    return;
  }
  const uint64_t periods = (cycle - last_refill_cycle_) / refill_cycles_;
  if (periods == 0) {
    return;
  }
  const uint64_t credit = periods * frames_per_refill_;
  tokens_ = tokens_ + credit < burst_ ? tokens_ + credit : burst_;
  last_refill_cycle_ += periods * refill_cycles_;
}

bool TokenBucket::TryConsume() {
  if (!enabled()) {
    return true;
  }
  if (tokens_ == 0) {
    return false;
  }
  --tokens_;
  return true;
}

CircuitBreaker::CircuitBreaker(uint64_t nf_id,
                               const CircuitBreakerConfig& config)
    : nf_id_(nf_id),
      config_(config),
      obs_state_(&obs::DefaultRegistry().GetGauge(
          "accel.breaker_state", {{"nf", std::to_string(nf_id)}})),
      ring_(obs::CurrentTraceRing()) {
  obs_state_->Set(static_cast<double>(static_cast<uint8_t>(state_)));
  if (ring_ != nullptr) {
    ring_breaker_ = ring_->Intern(obs::spans::kAccelBreaker);
    ring_arg_state_ = ring_->Intern(obs::spans::kArgState);
  }
}

void CircuitBreaker::TransitionTo(BreakerState next, uint64_t now) {
  state_ = next;
  switch (next) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kOpen:
      opened_at_cycle_ = now;
      break;
    case BreakerState::kHalfOpen:
      half_open_successes_ = 0;
      break;
  }
  obs_state_->Set(static_cast<double>(static_cast<uint8_t>(next)));
  if (ring_ != nullptr) {
    ring_->EmitInstant(ring_breaker_, now, static_cast<uint32_t>(nf_id_),
                       /*tid=*/2, /*span=*/0,
                       static_cast<uint64_t>(static_cast<uint8_t>(next)),
                       ring_arg_state_);
  }
}

bool CircuitBreaker::AllowRequest(uint64_t now) {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now < opened_at_cycle_ + config_.open_cycles) {
        ++stats_.rejected;
        return false;
      }
      TransitionTo(BreakerState::kHalfOpen, now);
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      ++stats_.probes;
      // A scheduled probe fault models the resource failing exactly when
      // probed: the breaker reopens without the caller ever dispatching.
      if (SNIC_FAULT_FIRES(fault::sites::kBreakerProbe, nf_id_)) {
        ++stats_.probe_failures;
        ++stats_.reopens;
        TransitionTo(BreakerState::kOpen, now);
        return false;
      }
      return true;
  }
  return true;
}

void CircuitBreaker::RecordSuccess(uint64_t now) {
  switch (state_) {
    case BreakerState::kClosed:
      consecutive_failures_ = 0;
      break;
    case BreakerState::kHalfOpen:
      if (++half_open_successes_ >= config_.half_open_successes) {
        ++stats_.closes;
        TransitionTo(BreakerState::kClosed, now);
      }
      break;
    case BreakerState::kOpen:
      break;  // stale result from before the trip; the dwell stands
  }
}

void CircuitBreaker::RecordFailure(uint64_t now) {
  switch (state_) {
    case BreakerState::kClosed:
      if (++consecutive_failures_ >= config_.failures_to_open) {
        ++stats_.opens;
        TransitionTo(BreakerState::kOpen, now);
      }
      break;
    case BreakerState::kHalfOpen:
      ++stats_.probe_failures;
      ++stats_.reopens;
      TransitionTo(BreakerState::kOpen, now);
      break;
    case BreakerState::kOpen:
      break;
  }
}

AccelDispatchGate::AccelDispatchGate(accel::VirtualAcceleratorPool* pool,
                                     uint64_t nf_id,
                                     const CircuitBreakerConfig& config)
    : pool_(pool), breaker_(nf_id, config), ring_(obs::CurrentTraceRing()) {
  if (ring_ != nullptr) {
    ring_dispatch_ = ring_->Intern(obs::spans::kAccelDispatch);
    ring_fallback_ = ring_->Intern(obs::spans::kAccelFallback);
  }
}

Result<uint64_t> AccelDispatchGate::Dispatch(accel::AcceleratorType type,
                                             uint32_t cluster,
                                             uint64_t virt_addr, bool is_write,
                                             uint64_t now) {
  if (!breaker_.AllowRequest(now)) {
    ++stats_.software_fallbacks;
    if (ring_ != nullptr) {
      ring_->EmitInstant(ring_fallback_, now,
                         static_cast<uint32_t>(breaker_.nf_id()), /*tid=*/2);
    }
    return Unavailable("accelerator breaker open: take the software path");
  }
  ++stats_.dispatches;
  if (ring_ != nullptr) {
    ring_->EmitInstant(ring_dispatch_, now,
                       static_cast<uint32_t>(breaker_.nf_id()), /*tid=*/2);
  }
  auto access = pool_->ThreadAccess(type, cluster, virt_addr, is_write);
  if (access.ok()) {
    breaker_.RecordSuccess(now);
  } else if (access.status().code() == ErrorCode::kUnavailable) {
    // Transient accelerator failure (the fault plane's accel.thread_access
    // site): count it toward the trip threshold. Fatal TLB misses are the
    // owner's bug, not congestion — they bypass the breaker.
    breaker_.RecordFailure(now);
  }
  return access;
}

}  // namespace snic::core
