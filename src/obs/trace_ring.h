// Fixed-record binary ring-buffer trace: the one definition of a trace in
// this repo — its records, its Chrome JSON and its lane identity.
//
// Each event is a POD record: interned 16-bit name ids (registered once, when
// the emitting component is constructed), a 64-bit span id minted at VPP
// ingress and propagated across layers, and one free argument word.
// Recording is a handful of stores into a preallocated ring; serialization,
// JSON rendering and analysis all happen offline after the run
// (tools/snic_trace).
//
// Determinism contract (docs/RUNTIME.md): a TraceRing is SINGLE-OWNER — the
// parallel sweep runtime records into one ring per task and stitches them
// with Append() on the joining thread in task-index order, so ToChromeJson()
// and SerializeBinary() are byte-identical at every --jobs count. There is
// deliberately no mutex; the TSan CI job enforces the contract dynamically.
//
// Bounded rings overwrite their oldest record once full and count the
// evictions; capacity 0 means unbounded (used for merge sinks and parsed
// files). Emitters bind CurrentTraceRing() when they are constructed and hold
// it as a nullable pointer: an untraced run (no ScopedTraceRing installed)
// costs each emission site one null check.

#ifndef SNIC_OBS_TRACE_RING_H_
#define SNIC_OBS_TRACE_RING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/common/status.h"

namespace snic::obs {

// FNV-1a 64-bit running digest. Everything that reduces a record to a
// comparable fingerprint — interned names, trace lanes, the scenario
// runner's packet/grant/stat digests — mixes through this one hash.
struct Fnv {
  uint64_t h = 1469598103934665603ull;  // offset basis
  void Mix(const uint8_t* p, size_t n) {
    for (size_t i = 0; i < n; ++i) {
      h = (h ^ p[i]) * 1099511628211ull;  // FNV prime
    }
  }
  void Mix(std::string_view s) {
    Mix(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  // Little-endian bytes of `v`.
  void Mix64(uint64_t v) {
    uint8_t b[8];
    for (int i = 0; i < 8; ++i) {
      b[i] = static_cast<uint8_t>(v >> (8 * i));
    }
    Mix(b, 8);
  }
};

// One trace event. Plain data, fixed size, no ownership: strings live in the
// owning ring's NameTable and are referenced by id.
struct TraceRecord {
  enum Kind : uint8_t { kComplete = 0, kInstant = 1, kCounter = 2 };

  uint64_t ts = 0;        // simulated cycles
  uint64_t dur = 0;       // span length (kComplete) or double bits (kCounter)
  uint64_t span = 0;      // causal span id; 0 = none
  uint64_t arg = 0;       // free word, keyed by arg_name
  uint32_t pid = 0;       // process lane: NF / security-domain id
  uint32_t tid = 0;       // thread lane within the process
  uint16_t name = 0;      // interned event name id
  uint16_t arg_name = 0;  // interned key for `arg`; 0 = no argument
  uint8_t kind = kComplete;
  uint8_t arg_is_name = 0;  // `arg` is itself an interned name id
};
static_assert(std::is_trivially_copyable_v<TraceRecord>,
              "TraceRecord must stay POD: the ring memcpy-merges records");
static_assert(sizeof(TraceRecord) <= 48, "keep the hot-path record small");

// String interning table: stable 16-bit ids for event/argument names,
// assigned in first-Intern order (so merge order stays deterministic). Open
// addressing with linear probing; the bucket count is a power of two
// starting at kInitialBuckets and doubling past 50% load. Id 0 (kNoName) is
// reserved for "no name"; the table holds at most kMaxNames real names and
// Intern() degrades to kNoName when exhausted rather than aborting a run.
class NameTable {
 public:
  static constexpr uint16_t kNoName = 0;
  static constexpr size_t kMaxNames = 65535;
  static constexpr size_t kInitialBuckets = 16;

  // Fnv over the name bytes. Public so tests can construct deliberate
  // bucket collisions (two names with equal hash % kInitialBuckets).
  static uint64_t HashName(std::string_view name) {
    Fnv fnv;
    fnv.Mix(name);
    return fnv.h;
  }

  // Returns the existing id for `name` or assigns the next one.
  uint16_t Intern(std::string_view name);
  // kNoName when absent.
  uint16_t Find(std::string_view name) const;
  // Empty string for kNoName and out-of-range ids.
  std::string_view NameOf(uint16_t id) const;
  // Number of interned names including the reserved kNoName slot.
  size_t size() const { return names_.size(); }

 private:
  void Grow();

  std::vector<std::string> names_ = {std::string()};  // slot 0 = kNoName
  std::vector<uint16_t> buckets_;  // name ids; 0 = empty slot
};

// The ring itself: records + lane metadata + the name table.
class TraceRing {
 public:
  // capacity_records == 0 means unbounded (merge sinks, parsed files).
  // Bounded rings preallocate and, once full, overwrite the oldest record.
  explicit TraceRing(size_t capacity_records = 0) : capacity_(capacity_records) {
    if (capacity_ != 0) {
      storage_.reserve(capacity_);
    }
  }

  // --- Hot path -----------------------------------------------------------
  // Name ids come from Intern() at construction of the emitter; each Emit is a
  // fixed-size store with no allocation (bounded ring) past warm-up.

  void EmitComplete(uint16_t name, uint64_t ts, uint64_t dur, uint32_t pid,
                    uint32_t tid, uint64_t span = 0, uint64_t arg = 0,
                    uint16_t arg_name = 0) {
    Push(TraceRecord{ts, dur, span, arg, pid, tid, name, arg_name,
                     TraceRecord::kComplete, 0});
  }
  void EmitInstant(uint16_t name, uint64_t ts, uint32_t pid, uint32_t tid,
                   uint64_t span = 0, uint64_t arg = 0, uint16_t arg_name = 0,
                   bool arg_is_name = false) {
    Push(TraceRecord{ts, 0, span, arg, pid, tid, name, arg_name,
                     TraceRecord::kInstant,
                     static_cast<uint8_t>(arg_is_name ? 1 : 0)});
  }
  void EmitCounter(uint16_t name, uint64_t ts, uint32_t pid, double value) {
    uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    Push(TraceRecord{ts, bits, 0, 0, pid, 0, name, 0, TraceRecord::kCounter,
                     0});
  }

  // --- Registration -------------------------------------------------------

  uint16_t Intern(std::string_view name) { return names_.Intern(name); }
  std::string_view NameOf(uint16_t id) const { return names_.NameOf(id); }
  size_t name_count() const { return names_.size(); }

  // Lane metadata, kept in recorded order (duplicates preserved); each
  // renders as one Chrome 'M' record.
  void SetProcessName(uint32_t pid, std::string_view name);
  void SetThreadName(uint32_t pid, uint32_t tid, std::string_view name);

  // --- Access (oldest record first) ---------------------------------------

  size_t size() const { return storage_.size(); }
  bool empty() const { return storage_.empty(); }
  size_t capacity() const { return capacity_; }
  // Records dropped to make room since construction / Clear().
  uint64_t evicted() const { return evicted_; }
  const TraceRecord& record(size_t i) const {
    return storage_[wrapped_ ? (next_ + i) % storage_.size() : i];
  }

  // Drops records, lanes and eviction counts; interned names survive so the
  // ids emitters cached at construction stay valid across reps.
  void Clear();

  // Appends another ring's records (oldest first) and lanes, remapping its
  // name ids into this ring's table. The sweep runtime calls this on the
  // joining thread in task-index order; evictions are carried over.
  void Append(const TraceRing& other);

  // --- Offline rendering / serialization ----------------------------------

  // Chrome-trace / Perfetto JSON ({"traceEvents":[...]}, loadable in
  // chrome://tracing and ui.perfetto.dev): lane metadata ('M') first, then
  // one event per record — 'X' spans with "dur", thread-scoped 'i' instants,
  // 'C' counter samples. `pid` is the NF / security-domain lane and `ts`
  // the simulated cycle. The arg word renders as a string arg keyed by its
  // arg_name (resolved to a string when arg_is_name), then the span id as
  // "span".
  std::string ToChromeJson() const;
  Status WriteChromeJsonFile(const std::string& path) const;

  // Compact binary image (magic "SNICTRB1", little-endian, name table +
  // lanes + records). Parse accepts exactly what Serialize emits.
  std::string SerializeBinary() const;
  Status ParseBinary(std::string_view data);
  Status WriteBinaryFile(const std::string& path) const;
  Status ReadBinaryFile(const std::string& path);

  struct Lane {
    uint32_t pid;
    uint32_t tid;  // ignored for process names
    uint16_t name;
    bool is_process;
  };
  // Recorded lane metadata, in registration order (tools/snic_trace reads
  // these to label tenants in its timelines).
  const std::vector<Lane>& lanes() const { return lanes_; }

 private:
  void Push(const TraceRecord& r) {
    if (capacity_ == 0 || storage_.size() < capacity_) {
      storage_.push_back(r);
      return;
    }
    storage_[next_] = r;
    wrapped_ = true;
    next_ = next_ + 1 == capacity_ ? 0 : next_ + 1;
    ++evicted_;
  }

  size_t capacity_;
  std::vector<TraceRecord> storage_;
  size_t next_ = 0;      // overwrite cursor == index of the oldest record
  bool wrapped_ = false;
  uint64_t evicted_ = 0;
  std::vector<Lane> lanes_;
  NameTable names_;
};

// Lane identity: mixes one record into `fnv` as (name string, ts, dur,
// span, tid, kind, arg — its name string when arg_is_name — and the
// arg-name string). Names are resolved to strings, so two rings that
// interned in different orders mix identical event streams identically.
void MixRecord(const TraceRing& ring, const TraceRecord& r, Fnv* fnv);

// A tenant's lane of a trace, reduced to (record count, digest): every
// record on `pid`'s lane, oldest first, through MixRecord. Equal lane
// digests <=> the tenant recorded the same events in the same order with
// the same payloads.
struct LaneDigest {
  uint64_t count = 0;
  uint64_t digest = 0;
};
LaneDigest DigestLane(const TraceRing& ring, uint32_t pid);

// The ring newly constructed emitters bind: the innermost ScopedTraceRing on
// the calling thread, else nullptr (untraced). Unlike DefaultRegistry() there
// is no process-wide fallback: a trace exists only where a run asks for one.
TraceRing* CurrentTraceRing();

// RAII thread-local installation of CurrentTraceRing(), the trace twin of
// ScopedDefaultRegistry. Nestable; the previous ring is restored on
// destruction. Install it before constructing the components that should
// record into `ring`, and keep `ring` alive as long as they are.
class ScopedTraceRing {
 public:
  explicit ScopedTraceRing(TraceRing* ring);
  ~ScopedTraceRing();

  ScopedTraceRing(const ScopedTraceRing&) = delete;
  ScopedTraceRing& operator=(const ScopedTraceRing&) = delete;

 private:
  TraceRing* previous_;
};

}  // namespace snic::obs

#endif  // SNIC_OBS_TRACE_RING_H_
