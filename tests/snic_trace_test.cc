// tools/snic_trace analysis passes: timeline reconstruction, percentile
// math, digests, and the differential-isolation forensics verdict.

#include "tools/snic_trace/analyze.h"

#include <gtest/gtest.h>

#include "src/obs/span_names.h"
#include "src/obs/trace_ring.h"

namespace snic::tools::trace {
namespace {

namespace spans = obs::spans;

// A minimal tenant lifecycle on pid `pid`: `n` frames, each minted span
// (pid<<32|i), enqueued at t, dequeued rx at t+2, enqueued tx at t+3 and
// drained at t+3+latency.
void EmitTenant(obs::TraceRing* ring, uint32_t pid, uint64_t n,
                uint64_t latency) {
  const uint16_t rx_enq = ring->Intern(spans::kVppRxEnqueue);
  const uint16_t rx_deq = ring->Intern(spans::kVppRxDequeue);
  const uint16_t tx_enq = ring->Intern(spans::kVppTxEnqueue);
  const uint16_t tx_deq = ring->Intern(spans::kVppTxDequeue);
  const uint16_t depth = ring->Intern(spans::kArgDepth);
  const uint16_t residency = ring->Intern(spans::kArgResidency);
  ring->SetProcessName(pid, "nf" + std::to_string(pid));
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t span = (static_cast<uint64_t>(pid) << 32) | (i + 1);
    const uint64_t t = 100 * i;
    ring->EmitInstant(rx_enq, t, pid, 0, span, 1, depth);
    ring->EmitInstant(rx_deq, t + 2, pid, 0, span, 2, residency);
    ring->EmitInstant(tx_enq, t + 3, pid, 1, span, 1, depth);
    ring->EmitInstant(tx_deq, t + 3 + latency, pid, 1, span, latency,
                      residency);
  }
}

TEST(Percentile, NearestRank) {
  std::vector<uint64_t> sample = {10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_EQ(Percentile(sample, 50), 50u);
  EXPECT_EQ(Percentile(sample, 90), 90u);
  EXPECT_EQ(Percentile(sample, 99), 100u);
  EXPECT_EQ(Percentile({42}, 99), 42u);
  EXPECT_EQ(Percentile({}, 50), 0u);
}

TEST(AnalyzeRing, ReconstructsSpansAndResidency) {
  obs::TraceRing ring;
  EmitTenant(&ring, 3, /*n=*/10, /*latency=*/7);
  const Timeline timeline = AnalyzeRing(ring);
  ASSERT_EQ(timeline.tenants.size(), 1u);
  const TenantSummary& t = timeline.tenants[0];
  EXPECT_EQ(t.pid, 3u);
  EXPECT_EQ(t.lane, "nf3");
  EXPECT_EQ(t.records, 40u);
  EXPECT_EQ(t.spans_started, 10u);
  EXPECT_EQ(t.spans_completed, 10u);
  // Ingress (t) -> egress (t+3+7): every span takes 10 cycles.
  EXPECT_EQ(t.latency_p50, 10u);
  EXPECT_EQ(t.latency_p99, 10u);
  EXPECT_EQ(t.rx_residency_cycles, 10u * 2u);
  EXPECT_EQ(t.tx_residency_cycles, 10u * 7u);
}

TEST(AnalyzeRing, CountsControlPlaneEvents) {
  obs::TraceRing ring;
  const uint16_t rejected = ring.Intern(spans::kVppRxRejected);
  const uint16_t shed = ring.Intern(spans::kVppDeadlineShed);
  const uint16_t hop = ring.Intern(spans::kChainHop);
  const uint16_t stall = ring.Intern(spans::kChainStall);
  const uint16_t crash = ring.Intern(spans::kSupervisorCrash);
  const uint16_t fired = ring.Intern(spans::kFaultFired);
  const uint16_t site = ring.Intern(spans::kArgSite);
  const uint16_t site_name = ring.Intern("vpp.rx.drop");
  ring.EmitInstant(rejected, 1, 5, 0, 0, 1, ring.Intern(spans::kArgCause));
  ring.EmitInstant(shed, 2, 5, 1);
  ring.EmitInstant(hop, 3, 5, 0, 42, 4, ring.Intern(spans::kArgPeer));
  ring.EmitInstant(stall, 4, 5, 1, 42, 4, ring.Intern(spans::kArgPeer));
  ring.EmitInstant(crash, 5, 5, 0);
  ring.EmitInstant(fired, 6, 5, 0, 0, site_name, site, /*arg_is_name=*/true);
  const Timeline timeline = AnalyzeRing(ring);
  ASSERT_EQ(timeline.tenants.size(), 1u);
  const TenantSummary& t = timeline.tenants[0];
  EXPECT_EQ(t.rejected, 1u);
  EXPECT_EQ(t.shed, 1u);
  EXPECT_EQ(t.chain_hops, 1u);
  EXPECT_EQ(t.chain_stalls, 1u);
  EXPECT_EQ(t.supervisor_events, 1u);
  EXPECT_EQ(t.faults, 1u);
}

// A fault.fired instant whose `site` arg is a name id — the one
// name-valued arg the simulator records.
void EmitFault(obs::TraceRing* ring, uint32_t pid, uint64_t ts) {
  const uint16_t fired = ring->Intern(spans::kFaultFired);
  const uint16_t site = ring->Intern(spans::kArgSite);
  const uint16_t site_name = ring->Intern("vpp.rx.drop");
  ring->EmitInstant(fired, ts, pid, 0, 0, site_name, site,
                    /*arg_is_name=*/true);
}

TEST(AnalyzeRing, DigestIgnoresInterningOrder) {
  // Two rings record the same tenant events but intern names in opposite
  // orders; the string-resolved digest must agree — including for a
  // name-valued arg, whose raw word is a ring-local id.
  obs::TraceRing a, b;
  // Pre-intern decoys in b so every shared name lands on a different id.
  b.Intern("decoy.one");
  b.Intern("decoy.two");
  b.Intern("decoy.three");
  EmitTenant(&a, 7, 5, 3);
  EmitTenant(&b, 7, 5, 3);
  EmitFault(&a, 7, 1000);
  EmitFault(&b, 7, 1000);
  const Timeline ta = AnalyzeRing(a);
  const Timeline tb = AnalyzeRing(b);
  ASSERT_EQ(ta.tenants.size(), 1u);
  ASSERT_EQ(tb.tenants.size(), 1u);
  EXPECT_EQ(ta.tenants[0].digest, tb.tenants[0].digest);

  // The analyzer's per-pid digest is the obs lane identity the scenario
  // runner's bystander verdict compares.
  const obs::LaneDigest la = obs::DigestLane(a, 7);
  const obs::LaneDigest lb = obs::DigestLane(b, 7);
  EXPECT_EQ(la.count, ta.tenants[0].records);
  EXPECT_EQ(la.digest, ta.tenants[0].digest);
  EXPECT_EQ(lb.digest, tb.tenants[0].digest);
  EXPECT_EQ(obs::DigestLane(a, 8).count, 0u);
}

TEST(AnalyzeRing, DigestSeesPayloadChanges) {
  obs::TraceRing a, b;
  EmitTenant(&a, 7, 5, 3);
  EmitTenant(&b, 7, 5, 4);  // one cycle more TX residency
  EXPECT_NE(AnalyzeRing(a).tenants[0].digest,
            AnalyzeRing(b).tenants[0].digest);
  EXPECT_NE(obs::DigestLane(a, 7).digest, obs::DigestLane(b, 7).digest);

  // A change that is only in a complete span's duration.
  obs::TraceRing c, d;
  c.EmitComplete(c.Intern("dram"), 100, 40, 7, 0);
  d.EmitComplete(d.Intern("dram"), 100, 41, 7, 0);
  EXPECT_NE(AnalyzeRing(c).tenants[0].digest,
            AnalyzeRing(d).tenants[0].digest);
  EXPECT_NE(obs::DigestLane(c, 7).digest, obs::DigestLane(d, 7).digest);
}

TEST(Forensics, BystanderIdenticalPasses) {
  obs::TraceRing baseline, subject;
  EmitTenant(&baseline, 1, 20, 5);  // victim, fault-free
  EmitTenant(&baseline, 2, 30, 4);  // bystander
  EmitTenant(&subject, 1, 11, 9);   // victim diverges under faults
  EmitTenant(&subject, 2, 30, 4);   // bystander identical
  const ForensicsReport report =
      Compare(AnalyzeRing(baseline), AnalyzeRing(subject), /*bystander=*/2);
  EXPECT_TRUE(report.bystander_found);
  EXPECT_TRUE(report.pass);
  ASSERT_EQ(report.tenants.size(), 2u);
  EXPECT_EQ(report.tenants[0].pid, 1u);
  EXPECT_NE(report.tenants[0].record_delta, 0);
  EXPECT_FALSE(report.tenants[0].digest_match);
  EXPECT_EQ(report.tenants[1].record_delta, 0);
  EXPECT_TRUE(report.tenants[1].digest_match);
}

TEST(Forensics, BystanderDivergenceFails) {
  obs::TraceRing baseline, subject;
  EmitTenant(&baseline, 2, 30, 4);
  EmitTenant(&subject, 2, 30, 5);  // latency profile shifted: leak detected
  const ForensicsReport report =
      Compare(AnalyzeRing(baseline), AnalyzeRing(subject), /*bystander=*/2);
  EXPECT_TRUE(report.bystander_found);
  EXPECT_FALSE(report.pass);
}

TEST(Forensics, MissingBystanderFails) {
  obs::TraceRing baseline, subject;
  EmitTenant(&baseline, 2, 3, 4);
  EmitTenant(&subject, 2, 3, 4);
  const ForensicsReport report =
      Compare(AnalyzeRing(baseline), AnalyzeRing(subject), /*bystander=*/9);
  EXPECT_FALSE(report.bystander_found);
  EXPECT_FALSE(report.pass);
}

TEST(Forensics, JsonVerdictIsOneStableLine) {
  obs::TraceRing baseline, subject;
  EmitTenant(&baseline, 2, 3, 4);
  EmitTenant(&subject, 2, 3, 4);
  const ForensicsReport report =
      Compare(AnalyzeRing(baseline), AnalyzeRing(subject), /*bystander=*/2);
  const std::string json = ForensicsToJson(report);
  EXPECT_EQ(json.find('\n'), std::string::npos);
  EXPECT_NE(json.find("\"bench\":\"trace_forensics\""), std::string::npos);
  EXPECT_NE(json.find("\"record_delta\":0"), std::string::npos);
  EXPECT_NE(json.find("\"digest_match\":true"), std::string::npos);
  EXPECT_NE(json.find("\"pass\":true"), std::string::npos);
  // Byte-determinism: rendering twice gives the same bytes.
  EXPECT_EQ(json, ForensicsToJson(report));
}

TEST(Timeline, JsonRoundTripsThroughSerializedRing) {
  // The analyzer must see serialized+parsed rings identically to live ones
  // (the CLI always goes through a file).
  obs::TraceRing live;
  EmitTenant(&live, 4, 6, 2);
  obs::TraceRing parsed;
  ASSERT_TRUE(parsed.ParseBinary(live.SerializeBinary()).ok());
  EXPECT_EQ(TimelineToJson(AnalyzeRing(live)),
            TimelineToJson(AnalyzeRing(parsed)));
}

}  // namespace
}  // namespace snic::tools::trace
