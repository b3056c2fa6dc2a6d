#include "src/mgmt/supervisor.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "src/core/attestation.h"
#include "src/core/attestation_wire.h"
#include "src/crypto/diffie_hellman.h"
#include "src/fault/fault.h"
#include "src/mgmt/verifier.h"
#include "src/obs/span_names.h"

namespace snic::mgmt {

std::string_view NfHealthName(NfHealth health) {
  switch (health) {
    case NfHealth::kRunning:
      return "RUNNING";
    case NfHealth::kRestarting:
      return "RESTARTING";
    case NfHealth::kQuarantined:
      return "QUARANTINED";
  }
  return "UNKNOWN";
}

Supervisor::Supervisor(NicOs* nic_os, crypto::RsaPublicKey vendor_key,
                       SupervisorConfig config)
    : nic_os_(nic_os),
      vendor_key_(std::move(vendor_key)),
      config_(config),
      rng_(config.seed),
      ring_(obs::CurrentTraceRing()) {
  obs::MetricRegistry& registry = obs::DefaultRegistry();
  obs_crashes_ = &registry.GetCounter("mgmt.supervisor.crashes");
  obs_restarts_ = &registry.GetCounter("mgmt.supervisor.restarts");
  obs_quarantines_ = &registry.GetCounter("mgmt.supervisor.quarantines");
  obs_downgrades_ = &registry.GetCounter("mgmt.supervisor.downgrades");
  obs_restart_queue_depth_ =
      &registry.GetGauge("mgmt.supervisor.restart_queue_depth");
  if (ring_ != nullptr) {
    ring_crash_ = ring_->Intern(obs::spans::kSupervisorCrash);
    ring_restart_ = ring_->Intern(obs::spans::kSupervisorRestart);
    ring_downgrade_ = ring_->Intern(obs::spans::kSupervisorDowngrade);
    ring_quarantine_ = ring_->Intern(obs::spans::kSupervisorQuarantine);
    ring_arg_cause_ = ring_->Intern(obs::spans::kArgCause);
  }
}

void Supervisor::Emit(uint16_t event, const Child& child) {
  if (ring_ != nullptr) {
    ring_->EmitInstant(
        event, now_, static_cast<uint32_t>(child.nf_id), /*tid=*/0, /*span=*/0,
        static_cast<uint64_t>(static_cast<uint8_t>(child.last_cause)),
        ring_arg_cause_);
  }
}

Status Supervisor::LaunchChild(const std::string& name, Child& child,
                               uint64_t attempt) {
  FunctionImage launch_image = child.image;
  if (child.degraded) {
    // Graceful degradation: the function's accelerator cluster keeps
    // failing, so relaunch on the software path with no reservations.
    launch_image.accel_clusters = {0, 0, 0};
  }
  auto launched = nic_os_->NfCreate(launch_image);
  if (!launched.ok()) {
    return launched.status();
  }
  const uint64_t nf_id = launched.value();

  // Mandatory re-measurement: the hardware hash of what actually launched
  // must equal what the tenant image predicts. A NIC OS that staged the
  // wrong bytes (or a bit-flipped image) is caught here, every restart.
  // The device re-measures every launch; the prediction is the tenant's own
  // and depends only on the launched image, its configuration and the page
  // size, so it comes from the process-wide memo keyed by exactly those.
  const crypto::Sha256Digest expected = MemoizedExpectedMeasurement(
      launch_image, nic_os_->device().memory().page_bytes());
  auto measured = nic_os_->device().MeasurementOf(nf_id);
  if (!measured.ok() || measured.value() != expected) {
    (void)nic_os_->NfDestroy(nf_id);
    return Status(ErrorCode::kInternal,
                  "relaunch measurement mismatch for " + name);
  }

  if (config_.verify_attestation) {
    // Fresh nonce + ephemeral DH share per launch: quotes never replay.
    core::AttestationRequest request;
    request.group = crypto::SmallTestGroup();
    request.nonce.resize(16);
    for (uint8_t& b : request.nonce) {
      b = static_cast<uint8_t>(rng_.NextU64());
    }
    crypto::DhParticipant nf_dh(request.group, rng_);
    request.g_x = nf_dh.public_value();
    auto quote = nic_os_->device().NfAttest(nf_id, request);
    if (!quote.ok()) {
      (void)nic_os_->NfDestroy(nf_id);
      return quote.status();
    }
    // The quote reaches the Supervisor as bytes. Crash-during-recovery site:
    // a firing hit flips one byte in transit (the last, in the vendor's
    // signature on the EK certificate), so the relaunch fails closed through
    // the real decode/verify path. The attempt number lets schedules target
    // "the Nth recovery attempt". The site is keyed by the child's PREVIOUS
    // nf id (still in child.nf_id here): that is the identity schedules
    // know, and RetargetRules keeps it current across successful restarts —
    // the fresh candidate id is unknowable to a schedule.
    std::vector<uint8_t> wire = core::SerializeQuote(quote.value());
    if (SNIC_FAULT_FIRES_ATTEMPT(fault::sites::kSupervisorReattest,
                                 child.nf_id, attempt)) {
      wire.back() ^= 0xff;
    }
    if (!ChallengeQuote(wire, vendor_key_, request.group, request.nonce,
                        expected, name)
             .ok()) {
      (void)nic_os_->NfDestroy(nf_id);
      return Status(ErrorCode::kInternal,
                    "relaunch attestation failed for " + name);
    }
    ++stats_.reattestations;
  }

  child.nf_id = nf_id;
  return OkStatus();
}

Result<uint64_t> Supervisor::Adopt(const FunctionImage& image) {
  if (children_.count(image.name) != 0) {
    return AlreadyOwned("function already supervised: " + image.name);
  }
  Child child;
  child.image = image;
  if (Status s = LaunchChild(image.name, child, /*attempt=*/0); !s.ok()) {
    return s;
  }
  child.health = NfHealth::kRunning;
  child.last_launch = now_;
  child.last_heartbeat = now_;
  const uint64_t nf_id = child.nf_id;
  children_.emplace(image.name, std::move(child));
  return nf_id;
}

void Supervisor::Heartbeat(const std::string& name) {
  auto it = children_.find(name);
  if (it == children_.end() || it->second.health != NfHealth::kRunning) {
    return;
  }
  it->second.last_heartbeat = now_;
}

uint64_t Supervisor::BackoffCycles(uint32_t consecutive_failures) {
  const uint32_t exponent =
      consecutive_failures > 0 ? consecutive_failures - 1 : 0;
  uint64_t backoff = config_.backoff_base_cycles;
  for (uint32_t i = 0; i < exponent && backoff < config_.backoff_max_cycles;
       ++i) {
    backoff *= 2;
  }
  backoff = std::min(backoff, config_.backoff_max_cycles);
  if (config_.backoff_jitter_pct > 0) {
    const uint64_t span = backoff * config_.backoff_jitter_pct / 100;
    if (span > 0) {
      backoff += rng_.NextBounded(span + 1);
    }
  }
  return backoff;
}

void Supervisor::HandleCrash(Child& child, CrashCause cause) {
  ++stats_.crashes;
  obs_crashes_->Inc();
  child.last_cause = cause;
  Emit(ring_crash_, child);

  // The instance is gone as far as the tenant is concerned; reclaim its
  // resources through the trusted teardown path. Failure just means the
  // device already lost it.
  (void)nic_os_->NfDestroy(child.nf_id);

  // A crash inside the stability window extends the failure streak; a crash
  // after a long healthy run starts a new one.
  if (now_ - child.last_launch <= config_.stable_cycles) {
    ++child.consecutive_failures;
  } else {
    child.consecutive_failures = 1;
  }

  if (cause == CrashCause::kAccelFault && !child.degraded) {
    bool has_accel = false;
    for (uint32_t c : child.image.accel_clusters) {
      has_accel |= c > 0;
    }
    if (has_accel) {
      child.degraded = true;
      ++stats_.accel_downgrades;
      obs_downgrades_->Inc();
      Emit(ring_downgrade_, child);
    }
  }

  if (child.consecutive_failures > config_.quarantine_after) {
    Quarantine(child);
    return;
  }
  child.health = NfHealth::kRestarting;
  child.restart_due = now_ + BackoffCycles(child.consecutive_failures);
}

void Supervisor::Quarantine(Child& child) {
  child.health = NfHealth::kQuarantined;
  ++stats_.quarantines;
  obs_quarantines_->Inc();
  Emit(ring_quarantine_, child);
}

void Supervisor::ReportCrash(const std::string& name, CrashCause cause) {
  auto it = children_.find(name);
  if (it == children_.end() || it->second.health != NfHealth::kRunning) {
    return;
  }
  HandleCrash(it->second, cause);
}

void Supervisor::Tick(uint64_t now_cycles) {
  now_ = std::max(now_, now_cycles);

  // Watchdog pass (map order => deterministic).
  if (config_.watchdog_timeout_cycles > 0) {
    for (auto& [name, child] : children_) {
      if (child.health == NfHealth::kRunning &&
          now_ - child.last_heartbeat > config_.watchdog_timeout_cycles) {
        ++stats_.watchdog_timeouts;
        HandleCrash(child, CrashCause::kWatchdog);
      }
    }
  }

  // Due restarts, capped per tick. The pending queue is deterministic:
  // due children sorted by (restart_due, name), the first
  // max_concurrent_restarts of them relaunched now, the rest deferred to
  // the next tick with their deadlines untouched. A correlated burst that
  // downs N children therefore costs at most cap relaunches (measurement +
  // attestation each) per tick instead of N.
  std::vector<std::pair<uint64_t, std::string>> due;
  for (auto& [name, child] : children_) {
    if (child.health == NfHealth::kRestarting && child.restart_due <= now_) {
      due.emplace_back(child.restart_due, name);
    }
  }
  std::sort(due.begin(), due.end());
  const size_t budget =
      config_.max_concurrent_restarts == 0
          ? due.size()
          : std::min<size_t>(due.size(), config_.max_concurrent_restarts);
  restart_queue_depth_ = due.size() - budget;
  restart_queue_peak_ = std::max(restart_queue_peak_, restart_queue_depth_);
  stats_.restart_deferrals += restart_queue_depth_;
  obs_restart_queue_depth_->Set(static_cast<double>(restart_queue_depth_));
  for (size_t i = 0; i < budget; ++i) {
    const std::string& name = due[i].second;
    Child& child = children_.find(name)->second;
    const uint64_t old_id = child.nf_id;
    if (Status s = LaunchChild(name, child, child.consecutive_failures);
        !s.ok()) {
      ++stats_.failed_restarts;
      ++child.consecutive_failures;
      if (child.consecutive_failures > config_.quarantine_after) {
        Quarantine(child);
      } else {
        child.restart_due = now_ + BackoffCycles(child.consecutive_failures);
      }
      continue;
    }
    child.health = NfHealth::kRunning;
    child.last_launch = now_;
    child.last_heartbeat = now_;
    ++stats_.restarts;
    obs_restarts_->Inc();
    Emit(ring_restart_, child);
    if (restart_callback_) {
      restart_callback_(name, old_id, child.nf_id);
    }
  }
}

NfHealth Supervisor::HealthOf(const std::string& name) const {
  auto it = children_.find(name);
  SNIC_CHECK(it != children_.end());
  return it->second.health;
}

Result<uint64_t> Supervisor::NfIdOf(const std::string& name) const {
  auto it = children_.find(name);
  if (it == children_.end()) {
    return NotFound("not supervised: " + name);
  }
  if (it->second.health != NfHealth::kRunning) {
    return Unavailable(name + " is " +
                       std::string(NfHealthName(it->second.health)));
  }
  return it->second.nf_id;
}

bool Supervisor::IsDegraded(const std::string& name) const {
  auto it = children_.find(name);
  return it != children_.end() && it->second.degraded;
}

uint32_t Supervisor::ConsecutiveFailures(const std::string& name) const {
  auto it = children_.find(name);
  return it == children_.end() ? 0 : it->second.consecutive_failures;
}

}  // namespace snic::mgmt
