// Behavioural tests for the six evaluation NFs plus the framework pieces
// (arena accounting, flow hash map, profiles).

#include <gtest/gtest.h>

#include <set>

#include "src/net/parser.h"
#include "src/nf/dpi_nf.h"
#include "src/nf/firewall.h"
#include "src/nf/flow_hash_map.h"
#include "src/nf/lpm.h"
#include "src/nf/maglev_lb.h"
#include "src/nf/monitor.h"
#include "src/nf/nat.h"
#include "src/nf/nf_factory.h"
#include "src/trace/trace_gen.h"

namespace snic::nf {
namespace {

net::Packet PacketFor(const net::FiveTuple& tuple, size_t frame_len = 0) {
  net::PacketBuilder builder;
  builder.SetTuple(tuple);
  if (frame_len != 0) {
    builder.SetFrameLen(frame_len);
  }
  return builder.Build();
}

net::FiveTuple Tuple(const char* src, uint16_t sport, const char* dst,
                     uint16_t dport, net::IpProto proto = net::IpProto::kTcp) {
  net::FiveTuple t;
  t.src_ip = net::Ipv4FromString(src);
  t.dst_ip = net::Ipv4FromString(dst);
  t.src_port = sport;
  t.dst_port = dport;
  t.protocol = static_cast<uint8_t>(proto);
  return t;
}

// ---- Arena & hash map ------------------------------------------------------

TEST(NfArenaTest, TracksLiveAndPeak) {
  NfArena arena("test");
  const auto a = arena.Alloc(1000, "a");
  const auto b = arena.Alloc(2000, "b");
  EXPECT_EQ(arena.live_bytes(), 3000u);
  arena.Free(a);
  EXPECT_EQ(arena.live_bytes(), 2000u);
  EXPECT_EQ(arena.peak_bytes(), 3000u);
  EXPECT_NE(a.base, b.base);
  EXPECT_EQ(arena.events().size(), 3u);
}

TEST(NfArenaTest, AllocationsDisjoint) {
  NfArena arena("test");
  const auto a = arena.Alloc(100, "a");
  const auto b = arena.Alloc(100, "b");
  EXPECT_GE(b.base, a.base + 100);
}

TEST(FlowHashMapTest, InsertFindUpdate) {
  NfArena arena("t");
  MemoryRecorder recorder;
  FlowHashMap<int> map(&arena, &recorder, 64, 0, "m");
  const auto t = Tuple("1.1.1.1", 1, "2.2.2.2", 2);
  EXPECT_EQ(map.Find(t), nullptr);
  EXPECT_TRUE(map.Insert(t, 10));
  ASSERT_NE(map.Find(t), nullptr);
  EXPECT_EQ(*map.Find(t), 10);
  EXPECT_TRUE(map.Insert(t, 20));
  EXPECT_EQ(*map.Find(t), 20);
  EXPECT_EQ(map.size(), 1u);
}

TEST(FlowHashMapTest, GrowsAndKeepsEntries) {
  NfArena arena("t");
  MemoryRecorder recorder;
  FlowHashMap<uint32_t> map(&arena, &recorder, 8, 0, "m");
  for (uint32_t i = 0; i < 1000; ++i) {
    map.Insert(Tuple("9.9.9.9", static_cast<uint16_t>(i), "8.8.8.8", 53), i);
  }
  EXPECT_EQ(map.size(), 1000u);
  EXPECT_GE(map.capacity(), 1000u);
  for (uint32_t i = 0; i < 1000; ++i) {
    const auto* v =
        map.Find(Tuple("9.9.9.9", static_cast<uint16_t>(i), "8.8.8.8", 53));
    ASSERT_NE(v, nullptr);
    EXPECT_EQ(*v, i);
  }
}

TEST(FlowHashMapTest, ResizeSpikesVisibleInArena) {
  NfArena arena("t");
  MemoryRecorder recorder;
  FlowHashMap<uint64_t> map(&arena, &recorder, 8, 0, "m");
  const uint64_t before_peak = arena.peak_bytes();
  for (uint32_t i = 0; i < 10'000; ++i) {
    map.Insert(Tuple("9.9.9.9", static_cast<uint16_t>(i % 65535),
                     "8.8.8.8", static_cast<uint16_t>(i / 65535 + 1)),
               i);
  }
  // Peak exceeds final live (old + new tables coexist during a resize).
  EXPECT_GT(arena.peak_bytes(), arena.live_bytes());
  EXPECT_GT(arena.peak_bytes(), before_peak);
}

TEST(FlowHashMapTest, BoundedMapStopsCachingWhenFull) {
  NfArena arena("t");
  MemoryRecorder recorder;
  FlowHashMap<int> map(&arena, &recorder, 256, 100, "m");
  const size_t capacity_before = map.capacity();
  int rejected = 0;
  for (uint32_t i = 0; i < 500; ++i) {
    rejected += map.Insert(Tuple("1.2.3.4", static_cast<uint16_t>(i + 1),
                                 "4.3.2.1", 80),
                           static_cast<int>(i))
                    ? 0
                    : 1;
  }
  EXPECT_EQ(map.capacity(), capacity_before);  // never grew
  EXPECT_EQ(map.size(), 100u);
  EXPECT_EQ(rejected, 400);
  // Early entries remain cached; updating one still works.
  EXPECT_NE(map.Find(Tuple("1.2.3.4", 1, "4.3.2.1", 80)), nullptr);
  EXPECT_TRUE(map.Insert(Tuple("1.2.3.4", 1, "4.3.2.1", 80), 999));
}

// ---- Firewall ---------------------------------------------------------------

TEST(FirewallTest, DefaultRuleAllows) {
  FirewallConfig config;
  config.num_rules = 16;
  Firewall fw(config);
  net::Packet p = PacketFor(Tuple("1.2.3.4", 1000, "5.6.7.8", 12345));
  // A random high-port flow is unlikely to match generated rules; the final
  // default rule allows.
  EXPECT_EQ(fw.Process(p), Verdict::kForward);
}

TEST(FirewallTest, ExplicitDenyRuleDrops) {
  std::vector<FirewallRule> rules;
  FirewallRule deny;
  deny.match.dst_port = 23;  // telnet
  deny.allow = false;
  rules.push_back(deny);
  FirewallRule allow_all;
  allow_all.allow = true;
  rules.push_back(allow_all);
  Firewall fw(std::move(rules), 1024);

  net::Packet telnet = PacketFor(Tuple("1.1.1.1", 1, "2.2.2.2", 23));
  net::Packet http = PacketFor(Tuple("1.1.1.1", 1, "2.2.2.2", 80));
  EXPECT_EQ(fw.Process(telnet), Verdict::kDrop);
  EXPECT_EQ(fw.Process(http), Verdict::kForward);
  EXPECT_EQ(fw.counters().dropped, 1u);
  EXPECT_EQ(fw.counters().forwarded, 1u);
}

TEST(FirewallTest, CacheHitsOnRepeatFlows) {
  Firewall fw(FirewallConfig{.num_rules = 64, .cache_max_entries = 1024});
  const auto t = Tuple("3.3.3.3", 333, "4.4.4.4", 80);
  for (int i = 0; i < 5; ++i) {
    net::Packet p = PacketFor(t);
    fw.Process(p);
  }
  EXPECT_EQ(fw.cache_misses(), 1u);
  EXPECT_EQ(fw.cache_hits(), 4u);
}

TEST(FirewallTest, CachedVerdictMatchesRuleScan) {
  std::vector<FirewallRule> rules;
  FirewallRule deny;
  deny.match.dst_port = 23;
  deny.allow = false;
  rules.push_back(deny);
  FirewallRule allow_all;
  allow_all.allow = true;
  rules.push_back(allow_all);
  Firewall fw(std::move(rules), 1024);
  const auto t = Tuple("1.1.1.1", 9, "2.2.2.2", 23);
  net::Packet first = PacketFor(t);
  net::Packet second = PacketFor(t);
  EXPECT_EQ(fw.Process(first), Verdict::kDrop);
  EXPECT_EQ(fw.Process(second), Verdict::kDrop);  // served from cache
  EXPECT_EQ(fw.cache_hits(), 1u);
}

TEST(FirewallTest, GeneratedRulesDeterministic) {
  const auto r1 = Firewall::GenerateRules(100, 5);
  const auto r2 = Firewall::GenerateRules(100, 5);
  ASSERT_EQ(r1.size(), r2.size());
  EXPECT_EQ(r1.size(), 100u);
  EXPECT_TRUE(r1.back().allow);  // default-allow tail rule
}

// ---- DPI ---------------------------------------------------------------------

TEST(DpiNfTest, CleanPayloadForwards) {
  DpiConfig config;
  config.num_patterns = 64;
  DpiNf dpi(config);
  net::PacketBuilder builder;
  const std::string payload = "totally benign payload zzz";
  builder.SetPayload(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size()));
  net::Packet p = builder.Build();
  EXPECT_EQ(dpi.Process(p), Verdict::kForward);
  EXPECT_EQ(dpi.matches(), 0u);
}

TEST(DpiNfTest, MaliciousPayloadDropped) {
  DpiConfig config;
  config.num_patterns = 64;
  config.seed = 3;
  DpiNf dpi(config);
  // Embed one of the actual generated patterns in the payload.
  const auto patterns = accel::GenerateDpiRuleset(64, 3);
  std::string payload = "prefix " + patterns[10] + " suffix";
  net::PacketBuilder builder;
  builder.SetPayload(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(payload.data()), payload.size()));
  net::Packet p = builder.Build();
  EXPECT_EQ(dpi.Process(p), Verdict::kDrop);
  EXPECT_EQ(dpi.matches(), 1u);
}

TEST(DpiNfTest, GraphRegisteredInArena) {
  DpiConfig config;
  config.num_patterns = 256;
  DpiNf dpi(config);
  EXPECT_GT(dpi.arena().peak_bytes(), 0u);
  EXPECT_EQ(dpi.arena().peak_bytes(), dpi.automaton().GraphBytes());
}

// ---- NAT ---------------------------------------------------------------------

TEST(NatTest, OutboundTranslationRewritesSource) {
  Nat nat;
  net::Packet p = PacketFor(Tuple("10.0.0.5", 1234, "93.184.216.34", 80));
  EXPECT_EQ(nat.Process(p), Verdict::kForward);
  const auto parsed = net::Parse(p.bytes());
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().Tuple().src_ip, kNatExternalIp);
  EXPECT_EQ(parsed.value().Tuple().src_port, 1);  // first port assigned
  EXPECT_EQ(nat.translations_installed(), 1u);
  // IPv4 checksum still valid after the rewrite.
  const auto header =
      p.bytes().subspan(net::kEthernetHeaderLen, net::kIpv4MinHeaderLen);
  EXPECT_EQ(net::InternetChecksum(header), 0);
}

TEST(NatTest, SameFlowKeepsPort) {
  Nat nat;
  const auto t = Tuple("10.0.0.5", 1234, "93.184.216.34", 80);
  net::Packet p1 = PacketFor(t);
  net::Packet p2 = PacketFor(t);
  nat.Process(p1);
  nat.Process(p2);
  EXPECT_EQ(nat.translations_installed(), 1u);
  const auto t1 = net::Parse(p1.bytes()).value().Tuple();
  const auto t2 = net::Parse(p2.bytes()).value().Tuple();
  EXPECT_EQ(t1, t2);
}

TEST(NatTest, DistinctFlowsDistinctPorts) {
  Nat nat;
  std::set<uint16_t> ports;
  for (uint16_t i = 0; i < 100; ++i) {
    net::Packet p = PacketFor(
        Tuple("10.0.0.5", static_cast<uint16_t>(1000 + i), "8.8.8.8", 80));
    nat.Process(p);
    ports.insert(net::Parse(p.bytes()).value().Tuple().src_port);
  }
  EXPECT_EQ(ports.size(), 100u);
}

TEST(NatTest, ReturnTrafficRestored) {
  Nat nat;
  const auto out_tuple = Tuple("10.0.0.5", 1234, "93.184.216.34", 80);
  net::Packet outbound = PacketFor(out_tuple);
  nat.Process(outbound);
  const auto translated = net::Parse(outbound.bytes()).value().Tuple();

  // Build the return packet: server -> NAT external endpoint.
  net::Packet inbound = PacketFor(translated.Reversed());
  EXPECT_EQ(nat.Process(inbound), Verdict::kForward);
  const auto restored = net::Parse(inbound.bytes()).value().Tuple();
  EXPECT_EQ(restored.dst_ip, out_tuple.src_ip);
  EXPECT_EQ(restored.dst_port, out_tuple.src_port);
}

TEST(NatTest, PortPoolExhaustionPassesThrough) {
  NatConfig config;
  config.first_port = 1;
  config.last_port = 10;  // tiny pool
  Nat nat(config);
  for (uint16_t i = 0; i < 10; ++i) {
    net::Packet p = PacketFor(
        Tuple("10.0.0.5", static_cast<uint16_t>(100 + i), "8.8.8.8", 80));
    nat.Process(p);
  }
  EXPECT_EQ(nat.translations_installed(), 10u);
  net::Packet eleventh = PacketFor(Tuple("10.0.0.5", 999, "8.8.8.8", 80));
  EXPECT_EQ(nat.Process(eleventh), Verdict::kForward);
  EXPECT_EQ(nat.port_pool_exhausted(), 1u);
  // Untranslated: source unchanged.
  EXPECT_EQ(net::Parse(eleventh.bytes()).value().Tuple().src_ip,
            net::Ipv4FromString("10.0.0.5"));
}

// ---- Maglev LB ---------------------------------------------------------------

TEST(MaglevTest, TableFullyPopulated) {
  MaglevConfig config;
  config.num_backends = 10;
  config.table_size = 4099;
  MaglevLb lb(config);
  for (int32_t b : lb.table()) {
    EXPECT_GE(b, 0);
    EXPECT_LT(b, 10);
  }
}

TEST(MaglevTest, TableRoughlyBalanced) {
  MaglevConfig config;
  config.num_backends = 10;
  config.table_size = 4099;
  MaglevLb lb(config);
  std::vector<int> counts(10, 0);
  for (int32_t b : lb.table()) {
    ++counts[static_cast<size_t>(b)];
  }
  // Maglev guarantees near-perfect balance: each backend within ~2% of m/n.
  const double expected = 4099.0 / 10.0;
  for (int c : counts) {
    EXPECT_NEAR(c, expected, expected * 0.05);
  }
}

TEST(MaglevTest, ConsistentForSameTuple) {
  MaglevConfig config;
  config.num_backends = 10;
  config.table_size = 4099;
  MaglevLb lb(config);
  const auto t = Tuple("5.5.5.5", 500, "6.6.6.6", 600);
  EXPECT_EQ(lb.BackendForTuple(t), lb.BackendForTuple(t));
}

TEST(MaglevTest, RemovalDisruptsFewFlows) {
  MaglevConfig config;
  config.num_backends = 10;
  config.table_size = 4099;
  MaglevLb with_all(config);
  MaglevLb with_failure(config);
  with_failure.RemoveBackend(3);
  // Fraction of *table slots* that changed owner (ignoring those that had to
  // move off backend 3) should be small — the consistent-hashing property.
  int moved = 0, total = 0;
  for (size_t i = 0; i < with_all.table().size(); ++i) {
    if (with_all.table()[i] == 3) {
      continue;
    }
    ++total;
    moved += with_all.table()[i] != with_failure.table()[i];
  }
  EXPECT_LT(static_cast<double>(moved) / total, 0.25);
}

TEST(MaglevTest, ConnectionTablePinsAcrossRebuild) {
  MaglevConfig config;
  config.num_backends = 10;
  config.table_size = 4099;
  MaglevLb lb(config);
  // Find a tuple mapped to backend != 3 so removal would not force a move.
  const auto t = Tuple("5.5.5.5", 123, "6.6.6.6", 80);
  const uint32_t before = lb.BackendForTuple(t);
  lb.RemoveBackend((before + 1) % 10);  // remove some other backend
  EXPECT_EQ(lb.BackendForTuple(t), before);  // pinned by connection table
}

TEST(MaglevTest, ProcessRewritesMac) {
  MaglevConfig config;
  config.num_backends = 4;
  config.table_size = 251;
  MaglevLb lb(config);
  net::Packet p = PacketFor(Tuple("1.1.1.1", 1, "2.2.2.2", 2));
  EXPECT_EQ(lb.Process(p), Verdict::kForward);
  const uint32_t backend = lb.BackendForTuple(Tuple("1.1.1.1", 1, "2.2.2.2", 2));
  EXPECT_EQ(p.bytes()[5], static_cast<uint8_t>(backend));
}

// ---- LPM ---------------------------------------------------------------------

TEST(LpmTest, ExactPrefixSemantics) {
  std::vector<LpmRoute> routes = {
      {net::Ipv4FromString("10.0.0.0"), 8, 100},
      {net::Ipv4FromString("10.1.0.0"), 16, 200},
      {net::Ipv4FromString("10.1.1.0"), 24, 300},
      {net::Ipv4FromString("10.1.1.128"), 25, 400},
  };
  Lpm lpm(routes);
  EXPECT_EQ(lpm.Lookup(net::Ipv4FromString("10.9.9.9")), 100u);
  EXPECT_EQ(lpm.Lookup(net::Ipv4FromString("10.1.9.9")), 200u);
  EXPECT_EQ(lpm.Lookup(net::Ipv4FromString("10.1.1.5")), 300u);
  EXPECT_EQ(lpm.Lookup(net::Ipv4FromString("10.1.1.200")), 400u);
  EXPECT_EQ(lpm.Lookup(net::Ipv4FromString("11.0.0.1")), 0u);  // default
}

TEST(LpmTest, SlashThirtyTwoRoute) {
  std::vector<LpmRoute> routes = {
      {net::Ipv4FromString("1.2.3.0"), 24, 7},
      {net::Ipv4FromString("1.2.3.4"), 32, 9},
  };
  Lpm lpm(routes);
  EXPECT_EQ(lpm.Lookup(net::Ipv4FromString("1.2.3.4")), 9u);
  EXPECT_EQ(lpm.Lookup(net::Ipv4FromString("1.2.3.5")), 7u);
}

TEST(LpmTest, MatchesLinearReference) {
  const auto routes = Lpm::GenerateRoutes(500, 21);
  Lpm lpm(routes);
  // Linear-scan reference: longest matching prefix wins; ties by later
  // insertion are impossible since (prefix, len) pairs may repeat — accept
  // any route with the same (masked prefix, len).
  Rng rng(22);
  for (int i = 0; i < 2000; ++i) {
    const uint32_t ip = rng.NextU32();
    int best_len = -1;
    uint32_t expect = 0;
    for (const LpmRoute& r : routes) {
      const uint32_t mask =
          r.prefix_len == 0
              ? 0
              : (r.prefix_len >= 32 ? 0xffffffffu
                                    : ~((1u << (32 - r.prefix_len)) - 1));
      if ((ip & mask) == (r.prefix & mask) &&
          static_cast<int>(r.prefix_len) >= best_len) {
        // For equal length, later routes overwrite earlier ones in DIR-24-8
        // build order (stable sort preserves insertion order).
        best_len = r.prefix_len;
        expect = r.next_hop;
      }
    }
    if (best_len < 0) {
      EXPECT_EQ(lpm.Lookup(ip), 0u);
    } else {
      // The reference must track the build's overwrite-by-sort-order rule;
      // recompute with the same ordering to compare apples to apples.
      EXPECT_EQ(lpm.Lookup(ip), expect) << "ip=" << ip;
    }
  }
}

TEST(LpmTest, FootprintDominatedByTbl24) {
  Lpm lpm(LpmConfig{.num_routes = 1000, .seed = 2});
  // TBL24 alone is 64 MB with 32-bit entries.
  EXPECT_GE(lpm.arena().peak_bytes(), 64ull << 20);
}

// ---- Monitor -----------------------------------------------------------------

TEST(MonitorTest, CountsPerFlow) {
  Monitor mon;
  const auto t1 = Tuple("1.1.1.1", 1, "2.2.2.2", 2);
  const auto t2 = Tuple("3.3.3.3", 3, "4.4.4.4", 4);
  for (int i = 0; i < 5; ++i) {
    net::Packet p = PacketFor(t1);
    mon.Process(p);
  }
  net::Packet p = PacketFor(t2);
  mon.Process(p);
  EXPECT_EQ(mon.CountForFlow(t1), 5u);
  EXPECT_EQ(mon.CountForFlow(t2), 1u);
  EXPECT_EQ(mon.CountForFlow(Tuple("9.9.9.9", 9, "9.9.9.9", 9)), 0u);
  EXPECT_EQ(mon.distinct_flows(), 2u);
}

TEST(MonitorTest, MemoryGrowsWithFlows) {
  Monitor mon;
  const uint64_t before = mon.live_bytes();
  trace::PacketStream stream(trace::TraceConfig::CaidaLike(33));
  for (int i = 0; i < 20'000; ++i) {
    net::Packet p = stream.Next();
    mon.Process(p);
  }
  EXPECT_GT(mon.live_bytes(), before);
  EXPECT_GT(mon.distinct_flows(), 1000u);
}

TEST(MonitorTest, HugepageInitSpike) {
  MonitorConfig config;
  config.model_hugepage_init = true;
  config.hugepage_pool_mib = 16.0;
  Monitor mon(config);
  // The transient staging allocation doubles the pool briefly.
  EXPECT_GE(mon.arena().peak_bytes(), 2 * (16ull << 20));
}

// ---- Factory & profiles --------------------------------------------------------

TEST(NfFactoryTest, BuildsAllSixKinds) {
  for (NfKind kind : AllNfKinds()) {
    const auto nf = MakeNf(kind, /*light=*/true);
    ASSERT_NE(nf, nullptr);
    EXPECT_EQ(nf->name(), NfKindName(kind));
    net::Packet p = PacketFor(Tuple("10.0.0.1", 1111, "20.0.0.2", 80));
    nf->Process(p);  // must not crash, any verdict acceptable
    EXPECT_EQ(nf->counters().packets, 1u);
  }
}

TEST(NfProfileTest, HeapMatchesArenaPeak) {
  const auto nf = MakeNf(NfKind::kLpm, /*light=*/true);
  const NfMemoryProfile profile = nf->Profile();
  EXPECT_DOUBLE_EQ(profile.heap_stack_mib,
                   static_cast<double>(nf->arena().peak_bytes()) /
                       (1024.0 * 1024.0));
  EXPECT_EQ(profile.RegionsMib().size(), 4u);
  EXPECT_GT(profile.TotalMib(), profile.heap_stack_mib);
}

TEST(NfRecorderTest, TracesCapturedWhenAttached) {
  const auto nf = MakeNf(NfKind::kMonitor);
  sim::InstructionTrace trace;
  nf->recorder().Attach(&trace);
  net::Packet p = PacketFor(Tuple("10.0.0.1", 1, "20.0.0.2", 80));
  nf->Process(p);
  nf->recorder().Detach();
  EXPECT_GT(trace.size(), 0u);
  EXPECT_GT(trace.TotalInstructions(), trace.size());
  const size_t traced = trace.size();
  net::Packet q = PacketFor(Tuple("10.0.0.1", 2, "20.0.0.2", 80));
  nf->Process(q);
  EXPECT_EQ(trace.size(), traced);  // detached: no more recording
}

}  // namespace
}  // namespace snic::nf
