// NF supervisor: crash detection, deterministic restart, quarantine
// (docs/ROBUSTNESS.md).
//
// The NIC OS can destroy and relaunch functions but cannot observe or forge
// their state — so recovery must go through the same trusted instructions as
// a first launch. The Supervisor leans on that: every restart re-runs
// NfCreate, re-checks the device's fresh launch measurement against the
// tenant image's (mgmt::MemoizedExpectedMeasurement: hashed once per
// distinct image, page size and configuration in the process) and
// re-verifies a fresh attestation quote. A restarted function is never
// trusted on the supervisor's say-so; the hardware measurement chain vouches
// for it each time.
//
// Time is the scenario's simulated cycle clock (the same clock the fault
// plane advances): the driver calls Tick(now) and the supervisor schedules
// watchdog expiries and backoff deadlines against it. All jitter comes from
// a seeded Rng, so a given (seed, crash sequence) always produces the same
// restart/quarantine schedule — chaos runs replay bit-for-bit.
//
// Threading: a Supervisor is SINGLE-OWNER — it lives on its scenario's
// thread beside the FaultPlane and the scenario's TraceRing, and carries no
// mutex (a lock here would serialize independent scenarios for nothing).
// The contract is checked dynamically by the TSan CI job; the mutex-guarded
// classes are covered statically by clang -Wthread-safety
// (docs/STATIC_ANALYSIS.md).

#ifndef SNIC_MGMT_SUPERVISOR_H_
#define SNIC_MGMT_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/crypto/keys.h"
#include "src/mgmt/nic_os.h"
#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"

namespace snic::mgmt {

enum class NfHealth : uint8_t {
  kRunning = 0,
  kRestarting = 1,  // crashed; relaunch scheduled at a backoff deadline
  kQuarantined = 2, // exceeded the consecutive-failure budget; needs operator
};

std::string_view NfHealthName(NfHealth health);

// Why a child went down. The cause picks the recovery flavour: an
// accelerator-cluster fault downgrades the function to its software path
// (accelerator reservations stripped on relaunch).
enum class CrashCause : uint8_t {
  kGeneric = 0,
  kAccelFault = 1,
  kDmaFault = 2,
  kWatchdog = 3,
  // The vNIC front-end flagged the child's VF as abusive (doorbell flood,
  // CQ squatting, malformed descriptors, quota churn — src/core/vnic).
  kVnicAbuse = 4,
};

struct SupervisorConfig {
  uint64_t seed = 0;  // jitter stream; part of the determinism contract

  // A running child that has not heartbeated for this many cycles is
  // declared hung and crash-handled with CrashCause::kWatchdog. 0 disables
  // the watchdog.
  uint64_t watchdog_timeout_cycles = 10000;

  // Restart backoff: base * 2^(consecutive_failures - 1), clamped to max,
  // plus a deterministic jitter drawn uniformly from
  // [0, backoff * jitter_pct / 100].
  uint64_t backoff_base_cycles = 1000;
  uint64_t backoff_max_cycles = 64000;
  uint32_t backoff_jitter_pct = 25;

  // Quarantine after this many consecutive failures. A crash counts as
  // consecutive when it lands within stable_cycles of the previous
  // (re)launch; surviving longer resets the streak.
  uint32_t quarantine_after = 3;
  uint64_t stable_cycles = 5000;

  // Every (re)launch re-checks the hardware measurement; with this set it
  // also runs the full attestation exchange against the vendor key.
  bool verify_attestation = true;

  // Restart-storm guard: at most this many relaunch attempts per Tick
  // (0 = unlimited). When a correlated fault burst downs many children at
  // once, the due set beyond the cap waits in a deterministic pending
  // queue ordered by (restart_due, name) and drains cap-per-tick, so
  // recovery cost per tick is bounded no matter how wide the burst. The
  // queue depth is published as mgmt.supervisor.restart_queue_depth.
  uint32_t max_concurrent_restarts = 0;
};

struct SupervisorStats {
  uint64_t crashes = 0;            // ReportCrash + watchdog expiries
  uint64_t watchdog_timeouts = 0;
  uint64_t restarts = 0;           // successful relaunches
  uint64_t failed_restarts = 0;    // relaunch attempts that errored
  uint64_t quarantines = 0;
  uint64_t accel_downgrades = 0;   // children demoted to the software path
  uint64_t reattestations = 0;     // fresh quotes verified on relaunch
  uint64_t restart_deferrals = 0;  // due relaunches held back by the cap
};

class Supervisor {
 public:
  // Fired after a successful relaunch, before the child is marked running.
  // Drivers use it to re-point per-NF plumbing (DMA banks, fault-plane
  // rules, NF objects) at the new id.
  using RestartCallback = std::function<void(
      const std::string& name, uint64_t old_nf_id, uint64_t new_nf_id)>;

  Supervisor(NicOs* nic_os, crypto::RsaPublicKey vendor_key,
             SupervisorConfig config);

  // Launches `image` under supervision (measurement + attestation checked
  // exactly like a restart). Returns the initial nf id.
  Result<uint64_t> Adopt(const FunctionImage& image);

  // Liveness signal from the child, stamped with the last Tick clock.
  void Heartbeat(const std::string& name);

  // The driver observed `name` crash (accelerator fault, DMA error, ...).
  // Tears the instance down and schedules recovery or quarantine.
  void ReportCrash(const std::string& name, CrashCause cause);

  // Advances the supervisor clock: expires watchdogs, then attempts every
  // relaunch whose backoff deadline has passed.
  void Tick(uint64_t now_cycles);

  NfHealth HealthOf(const std::string& name) const;
  // Current nf id of a running child (error while restarting/quarantined).
  Result<uint64_t> NfIdOf(const std::string& name) const;
  // True once the child has been demoted to its software path.
  bool IsDegraded(const std::string& name) const;
  uint32_t ConsecutiveFailures(const std::string& name) const;

  const SupervisorStats& stats() const { return stats_; }
  uint64_t now() const { return now_; }

  // Pending-restart queue introspection (satellite of the restart cap):
  // depth after the most recent Tick, and the high-water mark.
  uint64_t restart_queue_depth() const { return restart_queue_depth_; }
  uint64_t restart_queue_peak() const { return restart_queue_peak_; }

  void SetRestartCallback(RestartCallback callback) {
    restart_callback_ = std::move(callback);
  }

 private:
  struct Child {
    FunctionImage image;
    uint64_t nf_id = 0;
    NfHealth health = NfHealth::kRunning;
    bool degraded = false;
    uint64_t last_heartbeat = 0;
    uint64_t last_launch = 0;       // cycle of the most recent (re)launch
    uint64_t restart_due = 0;       // valid while kRestarting
    uint32_t consecutive_failures = 0;
    CrashCause last_cause = CrashCause::kGeneric;
  };

  // NfCreate (accelerators stripped when degraded) + measurement check +
  // optional attestation. On success the child's nf_id is updated.
  // `attempt` is the 1-based recovery-attempt number (0 for the initial
  // Adopt launch); it is forwarded to the supervisor.reattest fault site so
  // schedules can fail exactly the Nth re-attestation.
  Status LaunchChild(const std::string& name, Child& child, uint64_t attempt);
  // Shared crash path for ReportCrash and watchdog expiry.
  void HandleCrash(Child& child, CrashCause cause);
  // The one transition into kQuarantined (a crash or a failed restart past
  // quarantine_after): health, stat, counter and ring instant together.
  void Quarantine(Child& child);
  uint64_t BackoffCycles(uint32_t consecutive_failures);
  // One supervisor.* instant (`event` = its interned ring id) on the
  // child's lane; a no-op in an untraced run.
  void Emit(uint16_t event, const Child& child);

  NicOs* nic_os_;
  crypto::RsaPublicKey vendor_key_;
  SupervisorConfig config_;
  Rng rng_;
  uint64_t now_ = 0;
  SupervisorStats stats_;
  uint64_t restart_queue_depth_ = 0;
  uint64_t restart_queue_peak_ = 0;
  std::map<std::string, Child> children_;  // ordered: deterministic scans
  RestartCallback restart_callback_;
  // Telemetry bound at construction. Crash/restart/downgrade/quarantine
  // transitions count in `mgmt.supervisor.*` (obs::DefaultRegistry()) and,
  // when obs::CurrentTraceRing() is installed, land as fixed-size
  // supervisor.* span instants on the crashed child's lane (arg = crash-cause
  // ordinal), so forensics can correlate recovery with the victim's packet
  // spans.
  obs::TraceRing* ring_;
  uint16_t ring_crash_ = 0;
  uint16_t ring_restart_ = 0;
  uint16_t ring_downgrade_ = 0;
  uint16_t ring_quarantine_ = 0;
  uint16_t ring_arg_cause_ = 0;
  obs::Counter* obs_crashes_;
  obs::Counter* obs_restarts_;
  obs::Counter* obs_quarantines_;
  obs::Counter* obs_downgrades_;
  obs::Gauge* obs_restart_queue_depth_;
};

}  // namespace snic::mgmt

#endif  // SNIC_MGMT_SUPERVISOR_H_
