// Declarative chaos-scenario spec (docs/ROBUSTNESS.md, scenario matrix).
//
// A scenario composes, as data, everything a differential robustness run
// needs: a constellation of tenant NFs (roles, ports, accelerator and
// DMA placement, bus domains, per-VF vNIC attachment), workload parameters,
// a fault schedule over the registered fault sites (including correlated
// multi-site bursts and crash-during-recovery rules that fire inside the
// Supervisor's restart/re-attestation path via `on_attempt`), an overload
// policy, a vNIC attack mix, and the verdict predicates that decide
// pass/fail. The runner (src/scenario/runner.h) lowers a spec onto the
// existing harness pieces; the generator (src/scenario/generator.h) mints
// seeded families of specs; bench/scenario_matrix sweeps them.
//
// Parsing is DECODE-OR-REJECT, like the vNIC descriptor path: the JSON must
// be structurally exact — unknown keys, duplicate keys, wrong types,
// fractional or out-of-range numbers, unregistered fault sites, dangling
// tenant references all reject with a precise error. A spec either decodes
// into a fully-validated ScenarioSpec or it does not run at all; there is
// no lenient mode. spec.cc declares each section as one ordered table of
// rows, one per key; that table alone drives unknown- and duplicate-key
// rejection, decoding (in row order) and the canonical text (in the same
// order). tests/fuzz_roundtrip_test.cc holds every-prefix truncation and
// single-byte mutants to "clean error, never crash, never
// mis-decode-silently", and pins every one of those decode outcomes.

#ifndef SNIC_SCENARIO_SPEC_H_
#define SNIC_SCENARIO_SPEC_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"
#include "src/core/vnic/pf_vf.h"

namespace snic::scenario {

// Supervisor knobs, in steps (the runner multiplies by cycles_per_step).
struct SupervisorSpec {
  uint64_t watchdog_timeout_steps = 15;
  uint64_t backoff_base_steps = 2;
  uint64_t backoff_max_steps = 32;
  uint32_t backoff_jitter_pct = 25;
  uint32_t quarantine_after = 4;
  uint64_t stable_steps = 20;
  // Satellite of PR 10: restart-storm cap (0 = unlimited).
  uint32_t max_concurrent_restarts = 0;
  bool verify_attestation = true;
};

enum class TenantRole : uint8_t {
  // Drives traffic through its pipeline, stages DMA and touches its
  // accelerator when configured; transient failures become Supervisor
  // crash reports (the chaos-victim shape).
  kWorkload = 0,
  // The protected tenant: polls, digests and echoes; its full observable
  // record is the byte-identity invariant.
  kBystander = 1,
  // Hostile tenant behind a VF, driven by the scenario's attack mix.
  kAttacker = 2,
};

std::string_view TenantRoleName(TenantRole role);

// Optional per-tenant vNIC virtual function (src/core/vnic).
struct VfSpec {
  uint32_t ring_slots = 16;
  uint32_t cq_slots = 16;
  uint64_t posted_bytes_limit = 64 * 1024;
  uint32_t abuse_threshold = 16;
};

// Bounded-queue/admission policy for a tenant's pipeline
// (core::OverloadPolicy fields; 0 keeps the core default).
struct OverloadPolicySpec {
  uint32_t rx_queue_capacity_frames = 0;
  uint32_t tx_queue_capacity_frames = 0;
  bool priority_early_drop = false;
  uint64_t admission_burst_frames = 0;
  uint64_t admission_frames_per_refill = 0;
  uint64_t admission_refill_cycles = 0;
  uint64_t deadline_cycles = 0;
};

struct TenantSpec {
  std::string name;
  uint16_t port = 0;
  TenantRole role = TenantRole::kWorkload;
  uint32_t zip_clusters = 0;
  // Temporal bus-partition domain (-1 = not on the bus).
  int32_t bus_domain = -1;
  uint64_t frames_per_step = 1;
  bool dma = false;  // stage host<->NIC DMA each service step
  bool has_vf = false;
  VfSpec vf;
  bool has_policy = false;
  OverloadPolicySpec policy;
};

// One scheduled fault (fault::FaultRule, with the NF filter expressed by
// tenant name). `nf` may be a tenant name or "any"; `raw_id` addresses
// non-NF keys (bus domains) directly and is mutually exclusive with `nf`.
struct FaultRuleSpec {
  std::string site;
  std::string nf;  // tenant name, or empty = any
  bool has_raw_id = false;
  uint64_t raw_id = 0;
  uint64_t skip = 0;
  uint64_t count = 1;  // FaultRule::kForever when `forever` was given
  uint64_t period = 0;
  uint64_t stall_cycles = 0;
  uint64_t on_attempt = 0;  // crash-during-recovery predicate
};

// Offered-load sweep for one workload tenant: `load_pct` percent of
// `service_per_step` frames per step aimed at `target` in the subject run;
// the baseline twin offers `baseline_pct`. With `downstream` set, the
// target's TX feeds a credit-flow chain link into that workload tenant
// (§4.8 chaining), and only frames that went through the link reach the
// wire.
struct OverloadSpec {
  std::string target;
  uint64_t load_pct = 100;
  uint64_t baseline_pct = 100;
  uint64_t service_per_step = 4;
  std::string downstream;  // empty = the target's TX goes to the wire
};

// Driver-side hostile volume for attacker-role tenants; the vnic.* fault
// sites in `faults` supply the schedule-driven moves.
struct AttackSpec {
  std::string target;
  uint64_t flood_rings = 0;  // extra doorbell writes per step
  bool squat = false;        // never harvest completions
};

// Verdict predicates. Absent (default) predicates are not checked; every
// present predicate must hold for the scenario to pass.
struct VerdictSpec {
  // Every bystander-role tenant's record must be byte-identical between
  // the subject run and the stripped baseline twin.
  bool bystander_identical = false;
  // These tenants must end quarantined (Supervisor, and device edge when
  // behind a VF): containment latched.
  std::vector<std::string> containment;
  // These tenants must end Running again after at least one restart.
  std::vector<std::string> must_recover;
  // Recovery-deadline SLO: every crash must resolve (Running again or
  // quarantined) within this many steps. 0 = unchecked.
  uint64_t recovery_deadline_steps = 0;
  // Overload-target goodput in the subject run must hold this percentage
  // of the baseline twin's goodput. 0 = unchecked.
  uint64_t goodput_floor_pct = 0;
  // The overload target's RX queue peak must respect its configured cap.
  bool queue_bound = false;
  // Abuse kinds the attacker must get flagged for ("flood", "squat",
  // "desc", "churn"). Empty = unchecked.
  std::vector<std::string> detect_abuse;
};

struct ScenarioSpec {
  std::string name;
  uint64_t steps = 400;
  uint64_t cycles_per_step = 100;
  uint32_t bus_domains = 0;  // 0 = no bus modeled
  SupervisorSpec supervisor;
  std::vector<TenantSpec> tenants;
  std::vector<FaultRuleSpec> faults;
  bool has_overload = false;
  OverloadSpec overload;
  bool has_attack = false;
  AttackSpec attack;
  VerdictSpec verdicts;
};

// Every fault-site string a spec may reference (the wired-in registry,
// src/fault/fault.h namespace sites). Decode rejects any other site.
const std::vector<std::string_view>& KnownFaultSites();

// The front-end abuse kind a `verdicts.detect_abuse` name stands for
// ("flood", "squat", "desc", "churn"); nullopt for any other name. Decode
// and the runner share this one table.
std::optional<core::vnic::VfAbuse> AbuseKindFromName(std::string_view name);

// Decode-or-reject. On success the spec is fully validated: unique tenant
// names/ports, resolvable references, registered fault sites, in-range
// numbers. On failure the status message pinpoints the offending key.
Result<ScenarioSpec> ParseScenarioSpec(std::string_view json_text);

// Canonical JSON for a spec; SerializeScenarioSpec(s) always re-parses to
// an equal spec (the round-trip the fuzzers pin).
std::string SerializeScenarioSpec(const ScenarioSpec& spec);

// The baseline twin the differential verdicts compare against: fault
// schedule dropped, attack volume zeroed, overload at baseline_pct. The
// constellation itself (tenants, placement, policies) is untouched.
ScenarioSpec BaselineTwin(const ScenarioSpec& spec);

}  // namespace snic::scenario

#endif  // SNIC_SCENARIO_SPEC_H_
