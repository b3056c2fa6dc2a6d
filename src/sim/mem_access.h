// Memory-access trace vocabulary for the timing simulator.
//
// The paper's gem5 methodology feeds packets directly into RAM and measures
// IPC over the NF's instruction stream (§5.3). We reproduce that with a
// trace-driven model: NFs execute natively against an instrumented arena
// (src/nf/nf_memory.h) that records every load/store plus interleaved
// compute-instruction counts; the replay engine then times the stream
// against a configurable cache/bus/DRAM hierarchy.
//
// Traces exist in two forms:
//  - InstructionTrace: the recording form, a materialized vector of 16-byte
//    TraceEvents. Convenient, but at sweep scale the replay engine spends
//    much of its time pulling cold trace bytes through the host caches.
//  - EncodedTrace: a compact run-length/delta encoding (format below)
//    consumed through the streaming TraceDecoder without materializing the
//    event vector. The Fig. 5 benches and soaks replay from this form; the
//    round trip is exact (tests/fuzz_roundtrip_test.cc).
//
// Encoded format (all multi-byte integers little-endian / LEB128):
//   header:  'S' 'N' 'T' 'C' | version=1 | 3 reserved zero bytes |
//            u64 event_count
//   tokens:  one per event or per run —
//     bits 0-1  AccessType
//     bit  2    run flag: token covers `count >= 2` events with one shared
//               address stride and compute count
//     bit  3    new-compute flag: a LEB128 compute count follows (and
//               becomes the running default); otherwise the event reuses
//               the previous event's compute count (initially 0)
//     bits 4-7  reserved, must be zero (decoder rejects otherwise)
//   token payload, in order:
//     run flag set:  LEB128 run count (>= 2, <= events remaining)
//     always:        zigzag-LEB128 address delta vs. the previous event's
//                    address (wrapping u64 arithmetic; initial address 0)
//     new-compute:   LEB128 compute count (<= UINT32_MAX)
//   The stream must contain exactly `event_count` events and no trailing
//   bytes. Every violation — bad magic/version/reserved bytes, nonzero
//   token bits 4-7, a varint longer than 10 bytes or overflowing 64 bits,
//   a run shorter than 2 or longer than the events remaining, truncation,
//   trailing bytes — is a deterministic InvalidArgument from the decoder,
//   never undefined behaviour. See docs/PERFORMANCE.md "Trace codec".

#ifndef SNIC_SIM_MEM_ACCESS_H_
#define SNIC_SIM_MEM_ACCESS_H_

#include <cstdint>
#include <vector>

#include "src/common/status.h"

namespace snic::sim {

enum class AccessType : uint8_t {
  kRead = 0,
  kWrite = 1,
  // Uncacheable accesses bypass L1/L2 and hit the bus directly — semaphore
  // and device-register operations (the §3.3 Agilio `test_subsat` DoS loop
  // is a stream of uncached read-modify-writes). Uncached writes retire
  // through a store queue (non-blocking until the queue fills).
  kUncachedRead = 2,
  kUncachedWrite = 3,
};

// One element of an instruction stream: `compute_instructions` plain ALU
// instructions followed by one memory access at `addr`.
struct TraceEvent {
  uint64_t addr;
  uint32_t compute_instructions;
  AccessType type;
};

// A recorded instruction stream for one NF/core.
class InstructionTrace {
 public:
  void Record(uint64_t addr, AccessType type, uint32_t compute_before = 0) {
    events_.push_back(TraceEvent{addr, compute_before, type});
  }

  // Appends pure compute work; folded into the next memory event (or kept
  // as a trailing batch applied at stream end).
  void RecordCompute(uint32_t instructions) { pending_compute_ += instructions; }

  // Flushes pending compute onto an access.
  void RecordAccess(uint64_t addr, AccessType type) {
    events_.push_back(TraceEvent{addr, pending_compute_, type});
    pending_compute_ = 0;
  }

  const std::vector<TraceEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  size_t size() const { return events_.size(); }
  void clear() {
    events_.clear();
    pending_compute_ = 0;
  }

  // Total instruction count represented by the trace (memory + compute).
  uint64_t TotalInstructions() const {
    uint64_t total = pending_compute_;
    for (const TraceEvent& e : events_) {
      total += 1 + e.compute_instructions;
    }
    return total;
  }

  uint32_t pending_compute() const { return pending_compute_; }

 private:
  std::vector<TraceEvent> events_;
  uint32_t pending_compute_ = 0;
};

// An instruction stream in the encoded on-wire form described above.
// Produced by Encode() (always well-formed) or wrapped around arbitrary
// bytes with FromBytes() (validated by the decoder, never trusted).
class EncodedTrace {
 public:
  EncodedTrace() = default;

  // Encodes a materialized trace. The result round-trips exactly:
  // decoding it yields `trace.events()` element for element.
  static EncodedTrace Encode(const InstructionTrace& trace);

  // Wraps raw bytes (fuzz inputs, files). No validation happens here; a
  // TraceDecoder over the result reports malformed input via status().
  static EncodedTrace FromBytes(std::vector<uint8_t> bytes) {
    EncodedTrace t;
    t.bytes_ = std::move(bytes);
    return t;
  }

  const std::vector<uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<uint8_t> bytes_;
};

// Streaming decoder: yields TraceEvents in blocks without materializing the
// whole vector. Runs may straddle Fill() boundaries; the decoder carries
// the open run across calls. All input is bounds-checked; malformed input
// flips status() to InvalidArgument and Fill() returns 0 from then on.
class TraceDecoder {
 public:
  explicit TraceDecoder(const EncodedTrace& trace)
      : TraceDecoder(trace.bytes().data(), trace.bytes().size()) {}
  TraceDecoder(const uint8_t* data, size_t size);

  // OkStatus() while the stream is well-formed so far.
  const Status& status() const { return status_; }
  bool ok() const { return status_.ok(); }

  // Event count promised by the header (0 when the header was rejected).
  uint64_t event_count() const { return event_count_; }
  // Events produced so far.
  uint64_t decoded() const { return decoded_; }
  // True once every promised event has been produced (and the stream had
  // no trailing bytes — otherwise status() reports the violation).
  bool done() const { return ok() && decoded_ == event_count_; }

  // Decodes up to `max` events into `out`. Returns the number produced
  // (0 at end-of-stream). On malformed input it returns the events decoded
  // before the violation, sets status(), and every later call returns 0.
  size_t Fill(TraceEvent* out, size_t max);

  // Convenience: full decode into a materialized trace. Returns
  // InvalidArgument (and leaves `out` cleared) on malformed input.
  static Status DecodeAll(const EncodedTrace& trace, InstructionTrace* out);

 private:
  Status Reject(const char* why);
  // Bounds-checked LEB128 read; Rejects (and returns false) on truncation,
  // >10 bytes, or 64-bit overflow.
  bool ReadVarint(uint64_t* v);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  uint64_t event_count_ = 0;
  uint64_t decoded_ = 0;
  // Decode state: previous event's address and compute count.
  uint64_t prev_addr_ = 0;
  uint32_t prev_compute_ = 0;
  // Open run straddling a Fill() boundary.
  uint64_t run_left_ = 0;
  uint64_t run_delta_ = 0;
  uint32_t run_compute_ = 0;
  AccessType run_type_ = AccessType::kRead;
  Status status_;
};

}  // namespace snic::sim

#endif  // SNIC_SIM_MEM_ACCESS_H_
