// Scenario runner: lowers a declarative ScenarioSpec onto the existing
// harness pieces — SnicDevice, Supervisor, FaultPlane, the vNIC front-end,
// the overload plane and the temporal-partition bus — and evaluates the
// spec's verdict predicates.
//
// RunConstellation is the one generic step loop for every robustness
// scenario: per-tenant roles pick behavior (workload = chaos victim with
// DMA/accel crash reporting; bystander = poll/digest/echo with the full
// observable record; attacker = hostile VF moves), the overload section
// drives an offered-load accumulator at the target (and, with `downstream`,
// chains the target's TX into that tenant over a credit-flow link), and
// the fault schedule is installed verbatim. Everything is seeded through
// runtime::DeriveTaskSeed lanes, so a (spec, seed) pair replays bit-for-bit
// at any --jobs count.
//
// EvaluateScenario runs the subject spec, runs the stripped BaselineTwin
// when a differential predicate needs it, and reduces both to a one-line
// pass/fail verdict. Every spec gets a verdict; there is no silent skip.

#ifndef SNIC_SCENARIO_RUNNER_H_
#define SNIC_SCENARIO_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/mgmt/supervisor.h"
#include "src/obs/trace_ring.h"
#include "src/scenario/spec.h"

namespace snic::scenario {

// Per-tenant outcome of one constellation run. `report` is the tenant's
// full observable record (the byte-identity artifact); the rest feed the
// containment/recovery predicates.
struct TenantOutcome {
  std::string report;
  mgmt::NfHealth final_health = mgmt::NfHealth::kRunning;
  bool degraded = false;
  bool edge_quarantined = false;   // vNIC front-end verdict (VF tenants)
  uint64_t restarts = 0;           // successful relaunches of this tenant
  uint64_t crashes_seen = 0;       // driver-observed crash reports
  // Recovery-deadline SLO inputs: the worst crash -> (Running|Quarantined)
  // gap in steps, and crashes still unresolved when the run ended (their
  // gap is measured against the final step).
  uint64_t worst_recovery_steps = 0;
  uint64_t unresolved_crashes = 0;
  uint64_t wire_packets = 0;       // frames this tenant put on the wire
};

struct RunResult {
  std::vector<TenantOutcome> tenants;  // spec declaration order
  mgmt::SupervisorStats supervisor;
  uint64_t restart_queue_peak = 0;
  uint64_t faults_injected = 0;
  // Overload-target accounting (zero when the spec has no overload section).
  uint64_t offered = 0;
  // Frames on the wire under the target's port. With a downstream tenant
  // these are end-of-chain frames: the target's own TX feeds only the link.
  uint64_t target_goodput = 0;
  uint64_t queue_peak_frames = 0;
  uint64_t queue_peak_bytes = 0;
  // The overload.downstream chain link, summed over every incarnation.
  uint64_t chain_frames_moved = 0;
  uint64_t chain_frames_stalled = 0;
  // Abuse verdicts routed by the front-end: per-kind counts on attacker
  // VFs, plus false flags on anyone else's VF.
  uint64_t abuse_reports[core::vnic::kNumVfAbuseKinds] = {};
  uint64_t false_abuse_flags = 0;
};

// Runs `spec` to completion from `seed`. Deterministic: same (spec, seed)
// always produces the same RunResult, on any thread. With `ring_out` set,
// the run's trace ring (device, vNIC front-end, Supervisor and fault-plane
// spans) is moved into it at the end, for tools/snic_trace forensics;
// otherwise it is dropped with the run.
RunResult RunConstellation(const ScenarioSpec& spec, uint64_t seed,
                           obs::TraceRing* ring_out = nullptr);

// One scenario's verdict. `detail` lists every evaluated predicate as
// name=ok or name=FAIL(reason), space-separated — a spec with no predicates
// evaluates to detail "no-predicates" and passes vacuously (the generator
// never mints such specs; curated ones always assert something).
struct ScenarioVerdict {
  bool pass = false;
  std::string detail;
};

// Runs the subject spec (and the BaselineTwin when bystander_identical,
// goodput_floor_pct or detect_abuse needs a differential), then checks
// every predicate in spec.verdicts.
ScenarioVerdict EvaluateScenario(const ScenarioSpec& spec, uint64_t seed);

// The frame geometry the runner's traffic generator uses: 54-byte headers
// plus payload 32 + NextBounded(4)*64. Byte-form queue bounds derive from
// this.
inline constexpr uint64_t kMaxFrameBytes = 54 + 32 + 3 * 64;

}  // namespace snic::scenario

#endif  // SNIC_SCENARIO_RUNNER_H_
