// Registered span and argument-key names for the binary trace ring.
//
// Every name a ring emission site interns must come from this header (or be
// an existing documented trace name), be listed in
// tools/snic_lint/span_names.txt, and appear verbatim in the "Binary tracing
// & spans" section of docs/OBSERVABILITY.md. The snic_lint
// `span-name-registry` rule enforces all three, so adding a span means
// touching this file, the registry and the doc together — exactly like fault
// sites and metric names.
//
// Values deliberately avoid every fault-site string (e.g. "vpp.rx.drop"):
// the fault-site uniqueness rule treats site strings as globally unique.

#ifndef SNIC_OBS_SPAN_NAMES_H_
#define SNIC_OBS_SPAN_NAMES_H_

#include <string_view>

namespace snic::obs::spans {

// VPP frame lifecycle. A span id is minted when a frame enters EnqueueRx and
// rides the packet through every queue and chain hop it touches.
inline constexpr std::string_view kVppRxEnqueue = "vpp.rx.enqueue";
inline constexpr std::string_view kVppRxDequeue = "vpp.rx.dequeue";
inline constexpr std::string_view kVppTxEnqueue = "vpp.tx.enqueue";
inline constexpr std::string_view kVppTxDequeue = "vpp.tx.dequeue";
inline constexpr std::string_view kVppRxRejected = "vpp.rx.rejected";
inline constexpr std::string_view kVppDeadlineShed = "vpp.deadline_shed";

// Inter-NF chaining (credit stalls included).
inline constexpr std::string_view kChainHop = "chain.hop";
inline constexpr std::string_view kChainStall = "chain.stall";

// Accelerator dispatch gate and circuit breaker.
inline constexpr std::string_view kAccelDispatch = "accel.dispatch";
inline constexpr std::string_view kAccelFallback = "accel.fallback";
inline constexpr std::string_view kAccelBreaker = "accel.breaker";

// Supervisor recovery lifecycle instants (docs/OBSERVABILITY.md).
inline constexpr std::string_view kSupervisorCrash = "supervisor.crash";
inline constexpr std::string_view kSupervisorRestart = "supervisor.restart";
inline constexpr std::string_view kSupervisorDowngrade = "supervisor.downgrade";
inline constexpr std::string_view kSupervisorQuarantine =
    "supervisor.quarantine";

// Fault-plane injections: one name, the fired site rides in the arg word as
// an interned name id (key "site").
inline constexpr std::string_view kFaultFired = "fault.fired";

// vNIC front-end (src/core/vnic): the device-edge leg of a frame's life.
// kVnicDeliver carries the frame's span id across the descriptor-ring hop;
// the others are per-VF instants on the owning NF's lane (arg key "vf").
inline constexpr std::string_view kVnicDescPost = "vnic.desc.post";
inline constexpr std::string_view kVnicDoorbellRing = "vnic.doorbell.ring";
inline constexpr std::string_view kVnicDeliver = "vnic.deliver";
inline constexpr std::string_view kVnicHarvest = "vnic.harvest";
inline constexpr std::string_view kVnicVfReset = "vnic.vf.reset";
inline constexpr std::string_view kVnicAbuseFlagged = "vnic.abuse.flagged";

// Argument keys (TraceRecord::arg_name). The arg word's meaning per key:
//   depth      queue depth after the enqueue
//   residency  cycles the frame spent queued (dequeue/shed time - enqueue)
//   cause      reason code (admission reject / crash cause enum value)
//   state      circuit-breaker state ordinal
//   peer       the other NF id on a chain hop or stall
//   site       interned name id of the fired fault site
//   vf         VF id of the vNIC front-end event
inline constexpr std::string_view kArgDepth = "depth";
inline constexpr std::string_view kArgResidency = "residency";
inline constexpr std::string_view kArgCause = "cause";
inline constexpr std::string_view kArgState = "state";
inline constexpr std::string_view kArgPeer = "peer";
inline constexpr std::string_view kArgSite = "site";
inline constexpr std::string_view kArgVf = "vf";

}  // namespace snic::obs::spans

#endif  // SNIC_OBS_SPAN_NAMES_H_
