// snic_trace: offline analyzer over the binary span stream
// (docs/OBSERVABILITY.md, "Binary tracing & spans").
//
// The simulator's hot path emits fixed-size TraceRecords into per-task
// rings; everything interpretive happens here, after the run. The analyzer
// reconstructs per-tenant timelines from a serialized ring (one tenant ==
// one pid lane): span latencies matched vpp.rx.enqueue -> vpp.tx.dequeue by
// span id, queue-residency breakdowns, rejection/shed/chain/accelerator/
// supervisor/fault event counts, and the tenant's lane digest
// (obs::DigestLane: order-sensitive FNV-1a with every name resolved to its
// string, so two rings that interned in different orders still compare
// equal when the tenant saw identical events).
//
// The forensics mode turns the chaos differential-isolation claim into a
// one-line verdict: given a baseline ring and a subject ring (same workload
// with faults injected into a victim tenant), the bystander tenant must be
// byte-identical — same record count, same digest, same latency profile —
// while the victim is allowed (expected) to differ.

#ifndef SNIC_TOOLS_SNIC_TRACE_ANALYZE_H_
#define SNIC_TOOLS_SNIC_TRACE_ANALYZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/trace_ring.h"

namespace snic::tools::trace {

// Nearest-rank percentile over an unsorted sample (copied + sorted inside);
// returns 0 on an empty sample. Exposed for the unit tests.
uint64_t Percentile(std::vector<uint64_t> sample, uint32_t pct);

// One tenant's reconstructed timeline.
struct TenantSummary {
  uint32_t pid = 0;
  std::string lane;  // registered process name ("nf3"), empty if unnamed

  uint64_t records = 0;          // records on this tenant's lanes
  uint64_t spans_started = 0;    // vpp.rx.enqueue instants
  uint64_t spans_completed = 0;  // spans with a matching vpp.tx.dequeue
  uint64_t latency_p50 = 0;      // ingress->egress cycles, nearest rank
  uint64_t latency_p90 = 0;
  uint64_t latency_p99 = 0;

  // Queue-residency breakdown (sums of the `residency` arg words).
  uint64_t rx_residency_cycles = 0;
  uint64_t tx_residency_cycles = 0;

  uint64_t rejected = 0;          // vpp.rx.rejected
  uint64_t shed = 0;              // vpp.deadline_shed (both queues)
  uint64_t chain_hops = 0;        // chain.hop (this tenant consuming)
  uint64_t chain_stalls = 0;      // chain.stall (this tenant producing)
  uint64_t accel_dispatches = 0;  // accel.dispatch
  uint64_t accel_fallbacks = 0;   // accel.fallback
  uint64_t breaker_events = 0;    // accel.breaker transitions
  uint64_t supervisor_events = 0; // supervisor.* instants
  uint64_t faults = 0;            // fault.fired instants

  // The tenant's lane identity: obs::DigestLane(ring, pid).digest.
  uint64_t digest = 0;
};

struct Timeline {
  std::vector<TenantSummary> tenants;  // ascending pid
  uint64_t total_records = 0;
  uint64_t evicted = 0;
};

Timeline AnalyzeRing(const obs::TraceRing& ring);

// Per-tenant baseline-vs-subject comparison.
struct TenantDelta {
  uint32_t pid = 0;
  bool in_baseline = false;
  bool in_subject = false;
  int64_t record_delta = 0;       // subject - baseline
  int64_t latency_p99_delta = 0;  // subject - baseline
  bool digest_match = false;
};

struct ForensicsReport {
  std::vector<TenantDelta> tenants;  // ascending pid, union of both rings
  uint32_t bystander_pid = 0;
  bool bystander_found = false;  // present in both rings
  // The isolation verdict: bystander found, record_delta == 0,
  // latency_p99_delta == 0 and digests equal.
  bool pass = false;
};

ForensicsReport Compare(const Timeline& baseline, const Timeline& subject,
                        uint32_t bystander_pid);

// JSON renderers (stable key order, no whitespace — byte-identical for
// identical inputs at any --jobs count).
std::string TimelineToJson(const Timeline& timeline);
std::string ForensicsToJson(const ForensicsReport& report);

// Human-readable timeline table for the CLI.
std::string TimelineToText(const Timeline& timeline);

}  // namespace snic::tools::trace

#endif  // SNIC_TOOLS_SNIC_TRACE_ANALYZE_H_
