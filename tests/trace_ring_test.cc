// Tests for the binary trace ring (src/obs/trace_ring.h): Chrome JSON
// rendering against a golden string, bounded-ring wraparound with eviction
// accounting, interning-table collisions and growth, cross-shard Append
// ordering, and binary serialization round-trips.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/json.h"
#include "src/obs/trace_ring.h"
#include "src/runtime/sweep.h"

namespace snic::obs {
namespace {

// Golden fixture: lane metadata plus one record of each kind and one
// args-bearing span. The literal pins the byte format every --trace-out
// file has always had: metadata first, "dur" only on 'X', "s":"t" on 'i',
// %.17g counter values, the named arg before "span", and the
// displayTimeUnit trailer.
TEST(TraceRingConverter, MatchesLegacyTraceLogByteForByte) {
  TraceRing ring;
  const uint16_t dram = ring.Intern("dram");
  const uint16_t xfer = ring.Intern("xfer");
  const uint16_t warmup = ring.Intern("warmup_done");
  const uint16_t occupancy = ring.Intern("occupancy");
  const uint16_t deliver = ring.Intern("vnic.deliver");
  const uint16_t residency = ring.Intern("residency");
  ring.SetProcessName(0, "core0");
  ring.SetProcessName(1, "bus");
  ring.SetThreadName(1, 0, "domain0");
  ring.EmitComplete(dram, 100, 40, 0, 0);
  ring.EmitComplete(xfer, 110, 8, 1, 0);
  ring.EmitInstant(warmup, 150, 0, 0);
  ring.EmitCounter(occupancy, 160, 0, 3.5);
  ring.EmitComplete(deliver, 170, 12, 2, 1, /*span=*/42, /*arg=*/9,
                   residency);

  const std::string rendered = ring.ToChromeJson();
  EXPECT_EQ(
      rendered,
      R"({"traceEvents":[)"
      R"({"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"core0"}},)"
      R"({"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"bus"}},)"
      R"({"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"domain0"}},)"
      R"({"name":"dram","ph":"X","ts":100,"pid":0,"tid":0,"dur":40},)"
      R"({"name":"xfer","ph":"X","ts":110,"pid":1,"tid":0,"dur":8},)"
      R"({"name":"warmup_done","ph":"i","ts":150,"pid":0,"tid":0,"s":"t"},)"
      R"({"name":"occupancy","ph":"C","ts":160,"pid":0,"tid":0,"args":{"value":3.5}},)"
      R"({"name":"vnic.deliver","ph":"X","ts":170,"pid":2,"tid":1,"dur":12,)"
      R"("args":{"residency":"9","span":"42"}}],"displayTimeUnit":"ns"})");

  // Structure: valid JSON, metadata records first, then one event per
  // record; a complete span carries ts/dur and its args.
  auto parsed = json::Value::Parse(rendered);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const json::Value* events = parsed.value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->AsArray().size(), 3u + ring.size());
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(events->AsArray()[i].Find("ph")->AsString(), "M");
  }
  const json::Value& span = events->AsArray().back();
  EXPECT_EQ(span.Find("ph")->AsString(), "X");
  EXPECT_EQ(span.Find("name")->AsString(), "vnic.deliver");
  EXPECT_DOUBLE_EQ(span.Find("ts")->AsNumber(), 170.0);
  EXPECT_DOUBLE_EQ(span.Find("dur")->AsNumber(), 12.0);
  EXPECT_EQ(span.Find("args")->Find("residency")->AsString(), "9");
}

TEST(TraceRingConverter, RendersSpanAndArgWords) {
  TraceRing ring;
  const uint16_t name = ring.Intern("vpp.rx.dequeue");
  const uint16_t residency = ring.Intern("residency");
  ring.EmitInstant(name, 500, /*pid=*/7, /*tid=*/0, /*span=*/42,
                   /*arg=*/9, residency);

  auto parsed = json::Value::Parse(ring.ToChromeJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto& events = parsed.value().Find("traceEvents")->AsArray();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Find("name")->AsString(), "vpp.rx.dequeue");
  EXPECT_EQ(events[0].Find("args")->Find("residency")->AsString(), "9");
  EXPECT_EQ(events[0].Find("args")->Find("span")->AsString(), "42");
}

TEST(TraceRingConverter, ResolvesNameValuedArgs) {
  TraceRing ring;
  const uint16_t fired = ring.Intern("fault.fired");
  const uint16_t site = ring.Intern("site");
  const uint16_t which = ring.Intern("vpp.rx.drop");
  ring.EmitInstant(fired, 10, 1, 0, 0, which, site, /*arg_is_name=*/true);

  auto parsed = json::Value::Parse(ring.ToChromeJson());
  ASSERT_TRUE(parsed.ok());
  const auto& events = parsed.value().Find("traceEvents")->AsArray();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].Find("args")->Find("site")->AsString(), "vpp.rx.drop");
}

TEST(TraceRing, WraparoundEvictsOldestAndCountsEvictions) {
  TraceRing ring(/*capacity_records=*/4);
  const uint16_t name = ring.Intern("ev");
  for (uint64_t ts = 0; ts < 7; ++ts) {
    ring.EmitInstant(name, ts, 0, 0);
  }
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.evicted(), 3u);
  // Oldest-first iteration resumes at the overwrite cursor: the three oldest
  // records (ts 0..2) were evicted, the survivors read back in order.
  for (size_t i = 0; i < ring.size(); ++i) {
    EXPECT_EQ(ring.record(i).ts, i + 3) << i;
  }
}

TEST(TraceRing, WraparoundExactlyAtCapacityEvictsNothing) {
  TraceRing ring(3);
  const uint16_t name = ring.Intern("ev");
  for (uint64_t ts = 0; ts < 3; ++ts) {
    ring.EmitInstant(name, ts, 0, 0);
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.evicted(), 0u);
  EXPECT_EQ(ring.record(0).ts, 0u);
  EXPECT_EQ(ring.record(2).ts, 2u);
}

TEST(NameTable, InterningIsIdempotentAndOrdered) {
  NameTable table;
  const uint16_t a = table.Intern("alpha");
  const uint16_t b = table.Intern("beta");
  EXPECT_NE(a, NameTable::kNoName);
  EXPECT_NE(b, NameTable::kNoName);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.Intern("alpha"), a);
  EXPECT_EQ(table.NameOf(a), "alpha");
  EXPECT_EQ(table.NameOf(b), "beta");
  EXPECT_EQ(table.Find("beta"), b);
  EXPECT_EQ(table.Find("gamma"), NameTable::kNoName);
  EXPECT_EQ(table.NameOf(NameTable::kNoName), "");
}

TEST(NameTable, CollidingNamesProbeToDistinctIds) {
  // Brute-force two distinct names landing in the same initial bucket, so
  // the second Intern must linear-probe past the first.
  const std::string first = "collide0";
  const size_t target =
      NameTable::HashName(first) % NameTable::kInitialBuckets;
  std::string second;
  for (int i = 1; i < 10'000; ++i) {
    std::string candidate = "collide" + std::to_string(i);
    if (NameTable::HashName(candidate) % NameTable::kInitialBuckets ==
        target) {
      second = std::move(candidate);
      break;
    }
  }
  ASSERT_FALSE(second.empty()) << "no colliding candidate found";

  NameTable table;
  const uint16_t a = table.Intern(first);
  const uint16_t b = table.Intern(second);
  EXPECT_NE(a, b);
  EXPECT_EQ(table.NameOf(a), first);
  EXPECT_EQ(table.NameOf(b), second);
  EXPECT_EQ(table.Intern(first), a);
  EXPECT_EQ(table.Intern(second), b);
  EXPECT_EQ(table.Find(second), b);
}

TEST(NameTable, SurvivesGrowthPastInitialBuckets) {
  NameTable table;
  std::vector<uint16_t> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(table.Intern("name" + std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(table.NameOf(ids[i]), "name" + std::to_string(i)) << i;
    EXPECT_EQ(table.Find("name" + std::to_string(i)), ids[i]) << i;
    EXPECT_EQ(table.Intern("name" + std::to_string(i)), ids[i]) << i;
  }
}

// Append must remap the source ring's name ids: two shards interning the
// same names in different orders still merge into records that read back
// with the right strings, and stitching shards in task order reproduces the
// ring a serial run would have produced, byte for byte.
TEST(TraceRing, AppendRemapsNamesAndPreservesTaskOrder) {
  TraceRing shard0;
  const uint16_t s0_a = shard0.Intern("stage.a");
  const uint16_t s0_b = shard0.Intern("stage.b");
  shard0.EmitInstant(s0_a, 1, 0, 0);
  shard0.EmitInstant(s0_b, 2, 0, 0);

  TraceRing shard1;  // same names, opposite interning order
  const uint16_t s1_b = shard1.Intern("stage.b");
  const uint16_t s1_a = shard1.Intern("stage.a");
  EXPECT_NE(s1_b, s0_b);  // ids differ across shards...
  shard1.EmitInstant(s1_b, 3, 1, 0);
  shard1.EmitInstant(s1_a, 4, 1, 0);

  TraceRing sink;
  sink.Append(shard0);
  sink.Append(shard1);
  ASSERT_EQ(sink.size(), 4u);
  EXPECT_EQ(sink.NameOf(sink.record(0).name), "stage.a");
  EXPECT_EQ(sink.NameOf(sink.record(1).name), "stage.b");
  EXPECT_EQ(sink.NameOf(sink.record(2).name), "stage.b");  // ...but remap
  EXPECT_EQ(sink.NameOf(sink.record(3).name), "stage.a");
  EXPECT_EQ(sink.record(2).ts, 3u);

  // Serial-equivalence: one ring recording the same sequence directly.
  TraceRing serial;
  const uint16_t a = serial.Intern("stage.a");
  const uint16_t b = serial.Intern("stage.b");
  serial.EmitInstant(a, 1, 0, 0);
  serial.EmitInstant(b, 2, 0, 0);
  serial.EmitInstant(b, 3, 1, 0);
  serial.EmitInstant(a, 4, 1, 0);
  EXPECT_EQ(sink.SerializeBinary(), serial.SerializeBinary());
  EXPECT_EQ(sink.ToChromeJson(), serial.ToChromeJson());
}

TEST(TraceRing, AppendCarriesLanesAndEvictions) {
  TraceRing shard(2);
  const uint16_t name = shard.Intern("ev");
  shard.SetProcessName(5, "nf5");
  for (uint64_t ts = 0; ts < 5; ++ts) {
    shard.EmitInstant(name, ts, 5, 0);
  }
  EXPECT_EQ(shard.evicted(), 3u);

  TraceRing sink;
  sink.Append(shard);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.evicted(), 3u);
  EXPECT_NE(sink.ToChromeJson().find("\"nf5\""), std::string::npos);
}

TEST(TraceRingShards, MergeIntoStitchesInTaskIndexOrder) {
  runtime::TraceRingShards shards(3, /*capacity_records=*/8);
  for (size_t task = 0; task < 3; ++task) {
    TraceRing& ring = shards.shard(task);
    const uint16_t name = ring.Intern("task.ev");
    ring.EmitInstant(name, 100 + task, static_cast<uint32_t>(task), 0);
  }
  TraceRing sink;
  shards.MergeInto(&sink);
  ASSERT_EQ(sink.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.record(i).pid, i);
    EXPECT_EQ(sink.record(i).ts, 100 + i);
  }
}

TEST(TraceRing, BinaryRoundTripIsLossless) {
  TraceRing ring;
  const uint16_t name = ring.Intern("vpp.rx.enqueue");
  const uint16_t depth = ring.Intern("depth");
  ring.SetProcessName(1, "nf1");
  ring.SetThreadName(1, 0, "rx");
  ring.EmitComplete(name, 10, 5, 1, 0, /*span=*/7, /*arg=*/3, depth);
  ring.EmitInstant(name, 20, 1, 0, /*span=*/8);
  ring.EmitCounter(depth, 30, 1, 2.25);

  const std::string image = ring.SerializeBinary();
  TraceRing parsed;
  ASSERT_TRUE(parsed.ParseBinary(image).ok());
  EXPECT_EQ(parsed.size(), ring.size());
  EXPECT_EQ(parsed.evicted(), ring.evicted());
  EXPECT_EQ(parsed.SerializeBinary(), image);
  EXPECT_EQ(parsed.ToChromeJson(), ring.ToChromeJson());
}

TEST(TraceRing, BinaryRoundTripPreservesEvictionCount) {
  TraceRing ring(2);
  const uint16_t name = ring.Intern("ev");
  for (uint64_t ts = 0; ts < 6; ++ts) {
    ring.EmitInstant(name, ts, 0, 0);
  }
  TraceRing parsed;
  ASSERT_TRUE(parsed.ParseBinary(ring.SerializeBinary()).ok());
  EXPECT_EQ(parsed.size(), 2u);
  EXPECT_EQ(parsed.evicted(), 4u);
  EXPECT_EQ(parsed.record(0).ts, 4u);
}

TEST(TraceRing, ParseRejectsCorruptImages) {
  TraceRing ring;
  const uint16_t name = ring.Intern("ev");
  ring.EmitInstant(name, 1, 0, 0);
  const std::string image = ring.SerializeBinary();

  TraceRing out;
  EXPECT_FALSE(out.ParseBinary("not a trace").ok());
  EXPECT_FALSE(out.ParseBinary(image.substr(0, image.size() - 3)).ok());
  EXPECT_FALSE(out.ParseBinary(image + "x").ok());
  EXPECT_TRUE(out.ParseBinary(image).ok());
}

TEST(TraceRing, ClearKeepsInternedNames) {
  TraceRing ring(4);
  const uint16_t name = ring.Intern("ev");
  for (uint64_t ts = 0; ts < 6; ++ts) {
    ring.EmitInstant(name, ts, 0, 0);
  }
  ring.SetProcessName(0, "p");
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.evicted(), 0u);
  // Cached ids from attach time stay valid across reps.
  EXPECT_EQ(ring.NameOf(name), "ev");
  ring.EmitInstant(name, 9, 0, 0);
  EXPECT_EQ(ring.record(0).ts, 9u);
  EXPECT_EQ(ring.NameOf(ring.record(0).name), "ev");
}

}  // namespace
}  // namespace snic::obs
