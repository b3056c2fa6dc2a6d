// Tests for the accelerator substrate: Aho-Corasick correctness (naive and
// hash-set matcher cross-checks over automata with and without sparse
// states, known answers and pinned graph sizes for the DPI corpus), ZIP
// round-trips (property-style over random inputs), the virtual cluster
// pool's single-owner semantics, and the DPI timing model's shape.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "src/accel/accelerator.h"
#include "src/accel/aho_corasick.h"
#include "src/accel/crypto_coproc.h"
#include "src/accel/zip.h"
#include "src/common/rng.h"
#include "src/common/units.h"
#include "src/net/parser.h"
#include "src/trace/trace_gen.h"

namespace snic::accel {
namespace {

std::span<const uint8_t> Bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

// 16 clusters x 4 threads for each accelerator type.
std::vector<ClusterConfig> SnicPoolForTest() {
  std::vector<ClusterConfig> configs;
  for (auto type : {AcceleratorType::kDpi, AcceleratorType::kZip,
                    AcceleratorType::kRaid}) {
    ClusterConfig c;
    c.type = type;
    c.total_threads = 64;
    c.threads_per_cluster = 4;
    c.tlb_entries_per_cluster = 8;
    configs.push_back(c);
  }
  return configs;
}

// Naive reference matcher: counts all (overlapping) occurrences.
uint64_t NaiveCount(const std::vector<std::string>& patterns,
                    const std::string& text) {
  uint64_t count = 0;
  for (const auto& p : patterns) {
    for (size_t pos = 0; pos + p.size() <= text.size(); ++pos) {
      if (text.compare(pos, p.size(), p) == 0) {
        ++count;
      }
    }
  }
  return count;
}

// Naive reference for the pattern a scan reports first: the earliest end
// position of any match; at that position the longest pattern; among
// duplicates of it, the smallest id. Returns {UINT32_MAX, text size} when
// nothing matches, else {id, bytes up to and including the match's end}.
std::pair<uint32_t, uint64_t> NaiveFirst(
    const std::vector<std::string>& patterns, const std::string& text) {
  for (size_t end = 1; end <= text.size(); ++end) {
    uint32_t best = UINT32_MAX;
    for (size_t id = 0; id < patterns.size(); ++id) {
      const std::string& p = patterns[id];
      if (p.size() <= end && text.compare(end - p.size(), p.size(), p) == 0 &&
          (best == UINT32_MAX || p.size() > patterns[best].size())) {
        best = static_cast<uint32_t>(id);
      }
    }
    if (best != UINT32_MAX) {
      return {best, end};
    }
  }
  return {UINT32_MAX, text.size()};
}

// Checks both scans of `ac` on `text` against the naive matchers.
void ExpectScansMatchNaive(const AhoCorasick& ac,
                           const std::vector<std::string>& patterns,
                           const std::string& text) {
  const auto [first, end] = NaiveFirst(patterns, text);
  const MatchResult scan = ac.Scan(Bytes(text));
  EXPECT_EQ(scan.match_count, NaiveCount(patterns, text));
  EXPECT_EQ(scan.first_pattern, first);
  EXPECT_EQ(scan.bytes_scanned, text.size());
  const MatchResult stop = ac.ScanFirstMatch(Bytes(text));
  EXPECT_EQ(stop.match_count, first == UINT32_MAX ? 0u : 1u);
  EXPECT_EQ(stop.first_pattern, first);
  EXPECT_EQ(stop.bytes_scanned, end);
}

TEST(AhoCorasickTest, BasicMatch) {
  AhoCorasick ac({"he", "she", "his", "hers"});
  const auto result = ac.Scan(Bytes("ushers"));
  // "ushers" contains "she", "he", "hers".
  EXPECT_EQ(result.match_count, 3u);
}

TEST(AhoCorasickTest, NoMatch) {
  AhoCorasick ac({"abc", "def"});
  EXPECT_EQ(ac.Scan(Bytes("xyzxyzxyz")).match_count, 0u);
  EXPECT_FALSE(ac.Scan(Bytes("xyz")).Matched());
}

TEST(AhoCorasickTest, OverlappingMatchesCounted) {
  AhoCorasick ac({"aa"});
  EXPECT_EQ(ac.Scan(Bytes("aaaa")).match_count, 3u);
}

TEST(AhoCorasickTest, DuplicatePatternsCountedTwice) {
  AhoCorasick ac({"ab", "ab"});
  EXPECT_EQ(ac.Scan(Bytes("ab")).match_count, 2u);
}

TEST(AhoCorasickTest, FirstPatternIdReported) {
  AhoCorasick ac({"foo", "bar"});
  const auto result = ac.Scan(Bytes("xxbarfoo"));
  EXPECT_EQ(result.first_pattern, 1u);  // "bar" matches first
}

TEST(AhoCorasickTest, ScanFirstMatchStopsEarly) {
  AhoCorasick ac({"needle"});
  std::string text(1000, 'x');
  text.insert(10, "needle");
  const auto result = ac.ScanFirstMatch(Bytes(text));
  EXPECT_TRUE(result.Matched());
  EXPECT_EQ(result.first_pattern, 0u);
  EXPECT_LT(result.bytes_scanned, 20u);
}

// Rounds 0-39 build at most 61 nodes, so every state has a dense row; rounds
// 40-79 build hundreds, so scans also take the sparse path and fail chases
// that end in a row.
TEST(AhoCorasickTest, MatchesNaiveOnRandomInputs) {
  Rng rng(31337);
  size_t small_rounds = 0;
  size_t large_rounds = 0;
  for (int round = 0; round < 80; ++round) {
    const bool large = round >= 40;
    // Small alphabet maximizes overlaps and fail-link traffic.
    const uint64_t letters = large ? 3 + rng.NextBounded(2) : 3;
    const uint64_t count = large ? 40 + rng.NextBounded(161) : 12;
    const uint64_t max_len = large ? 8 : 5;
    std::vector<std::string> patterns;
    for (uint64_t i = 0; i < count; ++i) {
      std::string p;
      const size_t len = 1 + rng.NextBounded(max_len);
      for (size_t j = 0; j < len; ++j) {
        p.push_back(static_cast<char>('a' + rng.NextBounded(letters)));
      }
      patterns.push_back(p);
      // Every other round repeats earlier patterns: duplicates share one
      // terminal node, and the smallest id must be the one reported.
      if (round % 2 == 1 && rng.NextBounded(3) == 0) {
        patterns.push_back(patterns[rng.NextBounded(patterns.size())]);
      }
    }
    // The two letters after the alphabet and 0xff occur in no pattern: they
    // must reset the walk.
    std::string text;
    for (int i = 0; i < 300; ++i) {
      const uint64_t pick =
          rng.NextBounded(round % 4 < 2 ? letters : letters + 3);
      text.push_back(pick == letters + 2 ? '\xff'
                                         : static_cast<char>('a' + pick));
    }
    AhoCorasick ac(patterns);
    (ac.node_count() > 64 ? large_rounds : small_rounds) += 1;
    SCOPED_TRACE(testing::Message() << "round " << round);
    ExpectScansMatchNaive(ac, patterns, text);
    // Short prefixes exercise early first matches and clean misses.
    for (size_t len : {0, 1, 2, 3, 5, 8}) {
      ExpectScansMatchNaive(ac, patterns, text.substr(0, len));
    }
  }
  EXPECT_EQ(small_rounds, 40u);
  EXPECT_EQ(large_rounds, 40u);

  // No patterns: the root alone, which nothing leaves.
  const AhoCorasick empty(std::vector<std::string>{});
  EXPECT_EQ(empty.node_count(), 1u);
  for (const std::string text : {"", "abc", "\xff GET /"}) {
    ExpectScansMatchNaive(empty, {}, text);
  }
}

// Differential test on the paper-sized DPI corpus: CAIDA-like payloads plus
// payloads with planted and overlapping patterns, checked against a hash set
// of the patterns keyed by length.
TEST(AhoCorasickTest, DpiCorpusMatchesHashOracle) {
  const auto patterns = GenerateDpiRuleset(33471, 11);
  const AhoCorasick ac(patterns);

  // by_length[L]: pattern -> {smallest id, number of copies}.
  std::map<size_t, std::unordered_map<std::string_view,
                                      std::pair<uint32_t, uint32_t>>>
      by_length;
  for (size_t id = 0; id < patterns.size(); ++id) {
    ++by_length[patterns[id].size()]
          .try_emplace(patterns[id], static_cast<uint32_t>(id), 0)
          .first->second.second;
  }
  auto expect_oracle = [&](const std::string& text) {
    uint64_t count = 0;
    uint32_t first = UINT32_MAX;
    uint64_t first_end = text.size();
    const std::string_view view(text);
    for (size_t end = 1; end <= text.size(); ++end) {
      // Longest length first, so the first hit at an end is the longest.
      for (auto it = by_length.rbegin(); it != by_length.rend(); ++it) {
        if (it->first > end) {
          continue;
        }
        const auto hit = it->second.find(view.substr(end - it->first,
                                                     it->first));
        if (hit == it->second.end()) {
          continue;
        }
        count += hit->second.second;
        if (first == UINT32_MAX) {
          first = hit->second.first;
          first_end = end;
        }
      }
    }
    const MatchResult scan = ac.Scan(Bytes(text));
    EXPECT_EQ(scan.match_count, count);
    EXPECT_EQ(scan.first_pattern, first);
    const MatchResult stop = ac.ScanFirstMatch(Bytes(text));
    EXPECT_EQ(stop.Matched(), first != UINT32_MAX);
    EXPECT_EQ(stop.first_pattern, first);
    EXPECT_EQ(stop.bytes_scanned, first_end);
    return first != UINT32_MAX;
  };

  Rng rng(2024);
  trace::PacketStream stream(trace::TraceConfig::CaidaLike(7));
  size_t matched = 0;
  for (int i = 0; i < 300; ++i) {
    const net::Packet packet = stream.Next();
    const auto parsed = net::Parse(packet.bytes());
    ASSERT_TRUE(parsed.ok());
    const auto payload =
        packet.bytes().subspan(parsed.value().payload_offset);
    std::string text(payload.begin(), payload.end());
    matched += expect_oracle(text) ? 1 : 0;
    // Planted: a whole pattern somewhere in the payload.
    const std::string& p = patterns[rng.NextBounded(patterns.size())];
    const size_t at = rng.NextBounded(text.size() + 1);
    std::string planted = text.substr(0, at) + p + text.substr(at);
    matched += expect_oracle(planted) ? 1 : 0;
    // Overlapping: a second pattern inserted inside the first, so the walk
    // abandons a deep partial match through its fail links; then two
    // patterns back to back behind a false start on the second.
    const std::string& q = patterns[rng.NextBounded(patterns.size())];
    const size_t cut = 1 + rng.NextBounded(p.size() - 1);
    std::string overlapped = planted.substr(0, at + cut) + q +
                             planted.substr(at + cut);
    matched += expect_oracle(overlapped) ? 1 : 0;
    matched += expect_oracle(q.substr(0, q.size() / 2) + p + q) ? 1 : 0;
  }
  // Every planted, overlapped and back-to-back payload holds a whole
  // pattern.
  EXPECT_GE(matched, 900u);
}

// Known answers for both scans over the paper-sized corpus: an FNV-1a hash
// of (match_count, first_pattern, bytes_scanned) of Scan and of
// ScanFirstMatch over 2,000 CAIDA-like payloads, every other one with a
// pattern planted in it. The DPI NFs of a chain share one automaton, so the
// datapath's own checks compare a scan with itself; this pin, recorded with
// the plain goto-and-fail walk, is what holds any faster walk to the same
// answers.
TEST(AhoCorasickTest, DpiCorpusScanKnownAnswers) {
  const auto patterns = GenerateDpiRuleset(33471, 11);
  const AhoCorasick ac(patterns);
  uint64_t hash = 0xcbf29ce484222325ULL;
  auto mix = [&hash](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  Rng rng(77);
  trace::PacketStream stream(trace::TraceConfig::CaidaLike(7));
  uint64_t matched = 0;
  uint64_t occurrences = 0;
  for (int i = 0; i < 2000; ++i) {
    const net::Packet packet = stream.Next();
    const auto parsed = net::Parse(packet.bytes());
    ASSERT_TRUE(parsed.ok());
    const auto payload =
        packet.bytes().subspan(parsed.value().payload_offset);
    std::string text(payload.begin(), payload.end());
    if (i % 2 == 1) {
      // Every other plant follows a false start: half of another pattern,
      // which the walk abandons through its fail links.
      std::string p = patterns[rng.NextBounded(patterns.size())];
      if (i % 4 == 3) {
        const std::string& q = patterns[rng.NextBounded(patterns.size())];
        p.insert(0, q.substr(0, q.size() / 2));
      }
      text.insert(rng.NextBounded(text.size() + 1), p);
    }
    const MatchResult scan = ac.Scan(Bytes(text));
    const MatchResult stop = ac.ScanFirstMatch(Bytes(text));
    for (const MatchResult& r : {scan, stop}) {
      mix(r.match_count);
      mix(r.first_pattern);
      mix(r.bytes_scanned);
    }
    occurrences += scan.match_count;
    matched += stop.Matched() ? 1 : 0;
  }
  EXPECT_EQ(matched, 1000u);
  EXPECT_EQ(occurrences, 1000u);
  EXPECT_EQ(hash, 14837138408600143015ULL);
}

// The DPI graph sizes of the paper-sized corpus. They size the DPI NF's
// arena allocation, and with it every Fig. 5 trace address and the Table 6/7
// rows, so any change to the trie shape or to the size models shows here.
TEST(AhoCorasickTest, DpiCorpusGraphSizesPinned) {
  const AhoCorasick ac(GenerateDpiRuleset(33471, 11));
  EXPECT_EQ(ac.pattern_count(), 33471u);
  EXPECT_EQ(ac.node_count(), 639063u);
  EXPECT_EQ(ac.GraphBytes(), 46012528u);
  EXPECT_EQ(ac.HardwareGraphBytes(), 97139616u);
}

TEST(AhoCorasickTest, GeneratedRulesetProperties) {
  const auto patterns = GenerateDpiRuleset(1000, 5);
  EXPECT_EQ(patterns.size(), 1000u);
  // Deterministic per seed.
  EXPECT_EQ(GenerateDpiRuleset(1000, 5), patterns);
  EXPECT_NE(GenerateDpiRuleset(1000, 6), patterns);
  // Unique by construction.
  std::set<std::string> unique(patterns.begin(), patterns.end());
  EXPECT_EQ(unique.size(), patterns.size());
}

TEST(AhoCorasickTest, GraphBytesScaleWithPatterns) {
  AhoCorasick small(GenerateDpiRuleset(100, 1));
  AhoCorasick large(GenerateDpiRuleset(1000, 1));
  EXPECT_GT(large.GraphBytes(), small.GraphBytes());
  EXPECT_GT(large.node_count(), small.node_count());
}

// Property-style parameterized ZIP round-trip over payload shapes.
struct ZipCase {
  const char* name;
  double entropy;       // 0 = repeating text, 1 = random bytes
  size_t length;
};

// Print the case by name: gtest's default byte dump would put the address of
// `name` into the listed test name, which then changes with every build.
void PrintTo(const ZipCase& c, std::ostream* os) { *os << c.name; }

class ZipRoundTripTest : public ::testing::TestWithParam<ZipCase> {};

TEST_P(ZipRoundTripTest, RoundTrips) {
  const ZipCase& c = GetParam();
  Rng rng(0xccdd);
  std::vector<uint8_t> input(c.length);
  static constexpr char kText[] = "all work and no play makes jack ";
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = rng.NextDouble() < c.entropy
                   ? static_cast<uint8_t>(rng.NextU32())
                   : static_cast<uint8_t>(kText[i % (sizeof(kText) - 1)]);
  }
  const ZipResult compressed =
      ZipCompress(std::span<const uint8_t>(input.data(), input.size()));
  const std::vector<uint8_t> output = ZipDecompress(std::span<const uint8_t>(
      compressed.data.data(), compressed.data.size()));
  EXPECT_EQ(output, input);
  if (c.entropy == 0.0 && c.length > 1000) {
    EXPECT_GT(compressed.CompressionRatio(), 3.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Payloads, ZipRoundTripTest,
    ::testing::Values(ZipCase{"empty", 0.0, 0}, ZipCase{"tiny", 0.0, 3},
                      ZipCase{"text1k", 0.0, 1024},
                      ZipCase{"text64k", 0.0, 65536},
                      ZipCase{"mixed4k", 0.5, 4096},
                      ZipCase{"random4k", 1.0, 4096},
                      ZipCase{"random128k", 1.0, 131072},
                      ZipCase{"text200k", 0.1, 200000}),
    [](const ::testing::TestParamInfo<ZipCase>& param_info) {
      return param_info.param.name;
    });

TEST(ZipTest, CompressesRepetitiveData) {
  std::vector<uint8_t> input(100'000, 'A');
  const ZipResult r =
      ZipCompress(std::span<const uint8_t>(input.data(), input.size()));
  EXPECT_GT(r.CompressionRatio(), 50.0);
}

TEST(ZipTest, WindowLimitRespected) {
  // A repeat separated by more than the 32 KB window cannot be matched, but
  // the stream must still round-trip.
  Rng rng(5);
  std::vector<uint8_t> input;
  std::vector<uint8_t> chunk(1000);
  for (auto& b : chunk) {
    b = static_cast<uint8_t>(rng.NextU32());
  }
  input.insert(input.end(), chunk.begin(), chunk.end());
  for (int i = 0; i < 40; ++i) {  // 40 KB of noise
    for (int j = 0; j < 1000; ++j) {
      input.push_back(static_cast<uint8_t>(rng.NextU32()));
    }
  }
  input.insert(input.end(), chunk.begin(), chunk.end());
  const ZipResult r =
      ZipCompress(std::span<const uint8_t>(input.data(), input.size()));
  EXPECT_EQ(ZipDecompress(std::span<const uint8_t>(r.data.data(),
                                                   r.data.size())),
            input);
}

TEST(MemoryProfileTest, PaperBufferSizes) {
  const auto dpi = AcceleratorMemoryProfile::Dpi(MiB(97));
  const auto zip = AcceleratorMemoryProfile::Zip();
  const auto raid = AcceleratorMemoryProfile::Raid();
  // Totals per Table 7 (DPI ~101.9 MB with a 97.28 MB graph; ZIP 132.24 MB;
  // RAID 8.13 MB).
  EXPECT_NEAR(BytesToMiB(zip.TotalBytes()), 132.24, 0.1);
  EXPECT_NEAR(BytesToMiB(raid.TotalBytes()), 8.13, 0.01);
  EXPECT_GT(dpi.TotalBytes(), MiB(97));
}

TEST(ClusterPoolTest, AllocateAndRelease) {
  VirtualAcceleratorPool pool(SnicPoolForTest());
  const auto got = pool.Allocate(AcceleratorType::kDpi, 2, 42);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().size(), 2u);
  EXPECT_EQ(pool.FreeClusters(AcceleratorType::kDpi), 14u);
  EXPECT_EQ(pool.Owner(AcceleratorType::kDpi, got.value()[0]).value_or(0), 42u);
  pool.ReleaseAll(42);
  EXPECT_EQ(pool.FreeClusters(AcceleratorType::kDpi), 16u);
}

TEST(ClusterPoolTest, ExhaustionFailsAtomically) {
  VirtualAcceleratorPool pool(SnicPoolForTest());
  ASSERT_TRUE(pool.Allocate(AcceleratorType::kZip, 10, 1).ok());
  const auto too_many = pool.Allocate(AcceleratorType::kZip, 7, 2);
  EXPECT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.status().code(), ErrorCode::kResourceExhausted);
  // Nothing was taken by the failed request.
  EXPECT_EQ(pool.FreeClusters(AcceleratorType::kZip), 6u);
}

TEST(ClusterPoolTest, ThreadAccessRequiresOwnerAndMapping) {
  VirtualAcceleratorPool pool(SnicPoolForTest());
  // Unbound cluster: denied.
  EXPECT_EQ(pool.ThreadAccess(AcceleratorType::kDpi, 0, 0, false)
                .status()
                .code(),
            ErrorCode::kPermissionDenied);
  const auto got = pool.Allocate(AcceleratorType::kDpi, 1, 7);
  ASSERT_TRUE(got.ok());
  const uint32_t cluster = got.value()[0];
  // Bound but unmapped: TLB miss (fatal).
  EXPECT_EQ(pool.ThreadAccess(AcceleratorType::kDpi, cluster, 0, false)
                .status()
                .code(),
            ErrorCode::kPermissionDenied);
  // Map a window and retry.
  sim::LockedTlb& tlb = pool.ClusterTlb(AcceleratorType::kDpi, cluster);
  ASSERT_TRUE(
      tlb.Install(sim::TlbEntry{0, MiB(2), MiB(2), /*writable=*/false}).ok());
  tlb.Lock();
  const auto ok = pool.ThreadAccess(AcceleratorType::kDpi, cluster, 0x10, false);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), MiB(2) + 0x10);
  // Write through a read-only mapping: denied.
  EXPECT_EQ(pool.ThreadAccess(AcceleratorType::kDpi, cluster, 0x10, true)
                .status()
                .code(),
            ErrorCode::kPermissionDenied);
}

TEST(ClusterPoolTest, ReleaseResetsTlb) {
  VirtualAcceleratorPool pool(SnicPoolForTest());
  const auto got = pool.Allocate(AcceleratorType::kRaid, 1, 9);
  ASSERT_TRUE(got.ok());
  sim::LockedTlb& tlb = pool.ClusterTlb(AcceleratorType::kRaid, got.value()[0]);
  ASSERT_TRUE(tlb.Install(sim::TlbEntry{0, 0, MiB(2)}).ok());
  tlb.Lock();
  pool.ReleaseAll(9);
  EXPECT_EQ(tlb.entry_count(), 0u);
  EXPECT_FALSE(tlb.locked());
}

TEST(DpiTimingModelTest, SmallFramesFeedLimited) {
  DpiTimingModel model;
  // 64 B frames: adding threads beyond 16 barely helps (feed-limited).
  const double t16 = model.ThroughputMpps(16, 64);
  const double t48 = model.ThroughputMpps(48, 64);
  EXPECT_NEAR(t16, t48, 0.01 * t16);
}

TEST(DpiTimingModelTest, JumboFramesScaleWithThreads) {
  DpiTimingModel model;
  const double t16 = model.ThroughputMpps(16, 9000);
  const double t48 = model.ThroughputMpps(48, 9000);
  EXPECT_NEAR(t48 / t16, 3.0, 0.05);
}

TEST(DpiTimingModelTest, ThroughputDecreasesWithFrameSize) {
  DpiTimingModel model;
  double prev = 1e18;
  for (size_t frame : {64u, 512u, 1514u, 9000u}) {
    const double mpps = model.ThroughputMpps(32, frame);
    EXPECT_LT(mpps, prev);
    prev = mpps;
  }
}

TEST(CryptoCoprocTest, LatencyAccounting) {
  CryptoCoprocessor coproc;
  std::vector<uint8_t> data(470'000);  // 1 ms at 470 MB/s
  coproc.Digest(std::span<const uint8_t>(data.data(), data.size()));
  EXPECT_NEAR(coproc.elapsed_ms(), 1.0, 0.01);
  coproc.AccountRsaSign();
  EXPECT_NEAR(coproc.elapsed_ms(), 1.0 + 5.596 + 0.004, 0.02);
  coproc.ResetElapsed();
  EXPECT_DOUBLE_EQ(coproc.elapsed_ms(), 0.0);
}

TEST(CryptoCoprocTest, DigestMatchesLibrary) {
  CryptoCoprocessor coproc;
  const std::string msg = "abc";
  EXPECT_EQ(coproc.Digest(Bytes(msg)), crypto::Sha256::Hash(Bytes(msg)));
}

}  // namespace
}  // namespace snic::accel
