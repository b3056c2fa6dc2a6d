// Record digesting for the scenario runner's byte-identity verdicts.
//
// The byte-identity verdicts all reduce a tenant's observable record —
// packet bytes, bus grant times, stat words, trace-ring lane spans — to
// FNV-1a digests and compare those. The primitives live in this lowest
// scenario-layer header (no deps beyond obs), so perfbench's checks and the
// tests digest records the same way the runner does.

#ifndef SNIC_SCENARIO_DIGEST_H_
#define SNIC_SCENARIO_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "src/obs/trace_ring.h"

namespace snic::scenario {

// FNV-1a 64-bit running digest over packet bytes, grant times, stat words —
// the byte-identity invariant is "these digests match".
struct Fnv {
  uint64_t h = 1469598103934665603ull;
  void Mix(const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ull;
    }
  }
  void Mix64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Mix(b, 8);
  }
};

// A tenant's lane of a trace, reduced to (event count, digest).
struct LaneDigest {
  uint64_t count = 0;
  uint64_t digest = 0;
};

// Digest of the binary span records on `pid`'s lane. Names are resolved to
// strings so the digest is independent of interning order.
inline LaneDigest DigestRingLane(const obs::TraceRing& ring, uint32_t pid) {
  Fnv fnv;
  LaneDigest lane;
  for (size_t i = 0; i < ring.size(); ++i) {
    const obs::TraceRecord& r = ring.record(i);
    if (r.pid != pid) {
      continue;
    }
    const std::string_view name = ring.NameOf(r.name);
    fnv.Mix(reinterpret_cast<const uint8_t*>(name.data()), name.size());
    fnv.Mix64(r.ts);
    fnv.Mix64(r.span);
    fnv.Mix64(r.arg);
    fnv.Mix64(r.tid);
    ++lane.count;
  }
  lane.digest = fnv.h;
  return lane;
}

}  // namespace snic::scenario

#endif  // SNIC_SCENARIO_DIGEST_H_
