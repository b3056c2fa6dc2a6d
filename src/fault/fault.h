// Deterministic fault-injection plane (docs/ROBUSTNESS.md).
//
// S-NIC's isolation claim is only meaningful if it holds when things break:
// accelerators stall, DMA staging errors, packets arrive corrupted, launches
// transiently fail, the bus times out. This module makes those failures
// first-class, *deterministic* scenarios. A FaultPlane holds a schedule of
// rules keyed by (site name, NF id); instrumented code consults the plane
// through the SNIC_FAULT_* macros at named injection sites.
//
// Determinism contract (mirrors src/runtime, docs/RUNTIME.md): every rule
// owns its own hit counter and draws no randomness, so a decision depends
// only on the sequence of matching hits at that rule — never on wall clock,
// thread ids, or interleaving with other sites. A rule scoped to NF A
// structurally cannot advance counters on NF B's hits, which is what makes
// the scenario matrix's bystander_identical verdict (B byte-identical with
// and without faults in A) provable rather than probabilistic, at every
// --jobs count.
//
// Installation is scoped and thread-local (like obs::ScopedDefaultRegistry):
// with no plane installed every site is one thread-local load plus a null
// check.

#ifndef SNIC_FAULT_FAULT_H_
#define SNIC_FAULT_FAULT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace_ring.h"

// Injection-site check: true when an installed FaultPlane schedules a fault
// for this execution of the site. The macros name every site in one greppable
// form, which the snic_lint fault-site rule audits against fault_sites.txt.
// Usage: if (SNIC_FAULT_FIRES(fault::sites::kVppRxDrop, nf_id)) { ... }
#define SNIC_FAULT_FIRES(site, nf_id) \
  (::snic::fault::SiteFires((site), (nf_id)))
#define SNIC_FAULT_STALL(site, nf_id) \
  (::snic::fault::SiteStall((site), (nf_id)))
// Attempt-carrying site: the caller supplies which recovery attempt it is on
// (1-based; 0 = not a retry). Rules with `on_attempt` set match only hits
// whose attempt equals theirs, which is how a schedule says "fail the Nth
// restart" without counting unrelated hits at the site.
#define SNIC_FAULT_FIRES_ATTEMPT(site, nf_id, attempt) \
  (::snic::fault::SiteFiresAttempt((site), (nf_id), (attempt)))

namespace snic::fault {

// Canonical site names. A site is just a string key — components may mint
// new ones — but the wired-in sites live here so schedules and docs agree.
namespace sites {
// Accelerator dispatch: a firing hit makes the cluster's thread access fail
// with kUnavailable (transient accelerator failure/stall).
inline constexpr std::string_view kAccelThreadAccess = "accel.thread_access";
// DMA staging between host and NIC windows: transfer fails with
// kUnavailable before any byte moves.
inline constexpr std::string_view kDmaHostToNic = "dma.host_to_nic";
inline constexpr std::string_view kDmaNicToHost = "dma.nic_to_host";
// VPP ingress: drop the frame, or flip one byte before it is buffered.
inline constexpr std::string_view kVppRxDrop = "vpp.rx.drop";
inline constexpr std::string_view kVppRxCorrupt = "vpp.rx.corrupt";
// VPP ingress admission (overload plane): the frame is rejected as if the
// admission token bucket were empty (`rx_dropped_admission` stat).
inline constexpr std::string_view kVppRxAdmissionReject =
    "vpp.rx.admission_reject";
// Chain credit grant: the link grants zero credits this tick, so the
// producer stalls one tick even though the consumer has room.
inline constexpr std::string_view kChainCreditGrant = "chain.credit_grant";
// Circuit-breaker half-open probe (overload plane): the probe fails and the
// breaker reopens without dispatching.
inline constexpr std::string_view kBreakerProbe = "overload.breaker.probe";
// Trusted-instruction layer: nf_launch fails with transient
// kResourceExhausted before touching any resource.
inline constexpr std::string_view kNfLaunch = "snic.nf_launch";
// Supervisor re-attestation during a restart (mgmt::Supervisor): a firing
// hit corrupts the relaunched child's quote in transit (one byte of its
// wire encoding flipped); the real decode/verify (mgmt::ChallengeQuote)
// rejects it, so the restart attempt is charged as a failed recovery and
// re-enters backoff.
// This is an attempt-carrying site — the Supervisor passes the 1-based
// recovery-attempt number, so `FaultRule::on_attempt` can target exactly
// the Nth attempt (crash-during-recovery scenarios).
inline constexpr std::string_view kSupervisorReattest = "supervisor.reattest";
// NF service loop: a firing hit makes the NF skip its heartbeat and all
// work this step (a silent hang the watchdog must catch). Consulted by the
// scenario runner's workload tenants.
inline constexpr std::string_view kNfHang = "nf.hang";
// Internal IO bus: the request is stalled by the rule's stall_cycles
// payload before arbitration (a modeled timeout).
inline constexpr std::string_view kBusTimeout = "sim.bus.timeout";
// vNIC front-end (src/core/vnic, docs/ROBUSTNESS.md attack taxonomy). Each
// site models one move of the hostile-tenant playbook on the firing VF's
// own resources — a victim VF is structurally unreachable.
// Doorbell write storm: the firing write drains the VF's doorbell token
// bucket, so this and following writes bounce until the next refill.
inline constexpr std::string_view kVnicDoorbellFlood = "vnic.doorbell.flood";
// Completion-queue squatting: the firing harvest is skipped, so completions
// pile up until deliveries drop against a full queue.
inline constexpr std::string_view kVnicCqSquat = "vnic.cq.squat";
// Malformed descriptor: one byte of the posted descriptor block is flipped
// before the strict decoder sees it (the decode must reject, never crash).
inline constexpr std::string_view kVnicDescCorrupt = "vnic.desc.corrupt";
// Descriptor replay: the first decoded descriptor's ring index is rewritten
// to an already-consumed slot, which the ring rejects as stale.
inline constexpr std::string_view kVnicDescStale = "vnic.desc.stale";
// Quota-exhaustion churn: a phantom reservation charges the VF's posted-byte
// quota to its limit; only a VF reset releases it.
inline constexpr std::string_view kVnicQuotaChurn = "vnic.quota.churn";
}  // namespace sites

// Matches every NF id (including 0, the "no NF yet" id used by nf_launch).
inline constexpr uint64_t kAnyNf = ~uint64_t{0};

// One scheduled fault. A rule observes the stream of hits matching its
// (site, nf_id) filter; hit numbering is per-rule. The first `skip` matching
// hits pass through unharmed ("arming delay"). With period == 0 the next
// `count` hits fire (kForever = keep firing); with period > 0 the armed
// stream fires cyclically whenever (armed_hit % period) < count.
struct FaultRule {
  static constexpr uint64_t kForever = ~uint64_t{0};

  std::string site;
  uint64_t nf_id = kAnyNf;
  uint64_t skip = 0;
  uint64_t count = 1;
  uint64_t period = 0;
  uint64_t stall_cycles = 0;  // payload for stall/timeout sites
  // Attempt predicate: 0 matches every hit (classic behavior). When set,
  // the rule only considers hits whose caller-supplied attempt number (see
  // SNIC_FAULT_FIRES_ATTEMPT) equals this value — e.g. on_attempt = 2
  // means "fire during the 2nd recovery attempt". Hits at sites that do
  // not carry an attempt (attempt 0) never match a rule with on_attempt
  // set, and non-matching hits do not advance the rule's counters, so an
  // attempt-scoped rule cannot be perturbed by unrelated traffic at the
  // same site.
  uint64_t on_attempt = 0;
};

// A schedule-driven fault injector. Single-threaded like a metric
// shard: a plane belongs to the scenario (thread) that installed it, so it
// carries no mutex by design — the single-owner contract is checked by the
// TSan CI job (scenario_matrix runs one plane per parallel scenario), not
// by clang -Wthread-safety (docs/STATIC_ANALYSIS.md).
class FaultPlane {
 public:
  // Binds obs::DefaultRegistry(), where AddRule publishes one
  // `fault.injected{site=...,nf=...}` counter per rule, and
  // obs::CurrentTraceRing(): each injection then lands as one fault.fired
  // span instant at the plane clock, on the faulted NF's lane, whose arg
  // resolves to the rule's site name (interned by AddRule, so the firing
  // path stays allocation-free).
  FaultPlane();

  FaultPlane(const FaultPlane&) = delete;
  FaultPlane& operator=(const FaultPlane&) = delete;

  void AddRule(FaultRule rule);

  // Decision for one execution of a site: advances every matching rule's hit
  // counter and returns true when at least one fires. `attempt` is the
  // caller-supplied recovery-attempt context (0 = none); rules with
  // on_attempt set match only hits carrying their attempt number.
  bool Fires(std::string_view site, uint64_t nf_id, uint64_t attempt = 0);

  // Like Fires, but returns the summed stall_cycles payload of the firing
  // rules (0 when none fire).
  uint64_t StallCycles(std::string_view site, uint64_t nf_id);

  // Re-points rules scoped to `old_nf` at `new_nf` (hit counters keep
  // running). Lets a schedule follow a supervised NF whose id
  // changes across restarts.
  void RetargetRules(uint64_t old_nf, uint64_t new_nf);

  // The plane's simulated clock: the timestamp of its trace-ring instants.
  // The scenario driver advances it.
  void AdvanceClockTo(uint64_t cycle) { now_ = cycle > now_ ? cycle : now_; }
  uint64_t now() const { return now_; }

  uint64_t injected_total() const { return injected_total_; }
  uint64_t InjectedAt(std::string_view site) const;

 private:
  struct RuleState {
    FaultRule rule;
    uint64_t hits = 0;
    uint64_t injected = 0;
    obs::Counter* obs_injected = nullptr;
    uint16_t ring_site = 0;  // interned site name while ring_ is non-null
  };

  // Shared evaluation: advances matching rules, returns whether any fired
  // and accumulates firing rules' stall payloads into *stall.
  bool Evaluate(std::string_view site, uint64_t nf_id, uint64_t attempt,
                uint64_t* stall);

  uint64_t now_ = 0;
  uint64_t injected_total_ = 0;
  std::vector<RuleState> rules_;
  obs::MetricRegistry* registry_;
  obs::TraceRing* ring_;
  uint16_t ring_fired_ = 0;
  uint16_t ring_arg_site_ = 0;
};

// The plane installed on the calling thread, or nullptr. Injection sites go
// through this so uninstrumented runs pay one thread-local load.
FaultPlane* CurrentFaultPlane();

// RAII thread-local installation (nestable; previous plane restored).
class ScopedFaultPlane {
 public:
  explicit ScopedFaultPlane(FaultPlane* plane);
  ~ScopedFaultPlane();

  ScopedFaultPlane(const ScopedFaultPlane&) = delete;
  ScopedFaultPlane& operator=(const ScopedFaultPlane&) = delete;

 private:
  FaultPlane* previous_;
};

namespace internal {
// The calling thread's installed plane (set by ScopedFaultPlane). Exposed so
// the injection-site macros below can test it inline: sites sit on hot loops
// (every bus grant crosses one), and an uninstrumented run must pay one
// thread-local load and a predicted branch, not an out-of-line call.
extern thread_local constinit FaultPlane* tls_plane;
}  // namespace internal

// Macro back-ends: inline null-plane fast path, then the out-of-line
// FaultPlane::Fires / StallCycles on the installed plane.
inline bool SiteFires(std::string_view site, uint64_t nf_id) {
  FaultPlane* plane = internal::tls_plane;
  return plane != nullptr && plane->Fires(site, nf_id);
}

inline uint64_t SiteStall(std::string_view site, uint64_t nf_id) {
  FaultPlane* plane = internal::tls_plane;
  return plane == nullptr ? 0 : plane->StallCycles(site, nf_id);
}

inline bool SiteFiresAttempt(std::string_view site, uint64_t nf_id,
                             uint64_t attempt) {
  FaultPlane* plane = internal::tls_plane;
  return plane != nullptr && plane->Fires(site, nf_id, attempt);
}

}  // namespace snic::fault

#endif  // SNIC_FAULT_FAULT_H_
