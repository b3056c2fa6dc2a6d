#include "src/obs/trace_ring.h"

#include <cstdio>
#include <utility>

#include "src/obs/json.h"

namespace snic::obs {

namespace {

constexpr char kMagic[8] = {'S', 'N', 'I', 'C', 'T', 'R', 'B', '1'};

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU16(std::string* out, uint16_t v) {
  PutU8(out, static_cast<uint8_t>(v & 0xff));
  PutU8(out, static_cast<uint8_t>(v >> 8));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    PutU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    PutU8(out, static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

// Bounds-checked little-endian cursor over the serialized image.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) {
      return false;
    }
    *v = static_cast<uint8_t>(data_[pos_++]);
    return true;
  }
  bool ReadU16(uint16_t* v) {
    uint8_t lo = 0;
    uint8_t hi = 0;
    if (!ReadU8(&lo) || !ReadU8(&hi)) {
      return false;
    }
    *v = static_cast<uint16_t>(lo | (hi << 8));
    return true;
  }
  bool ReadU32(uint32_t* v) {
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      uint8_t b = 0;
      if (!ReadU8(&b)) {
        return false;
      }
      *v |= static_cast<uint32_t>(b) << (8 * i);
    }
    return true;
  }
  bool ReadU64(uint64_t* v) {
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      uint8_t b = 0;
      if (!ReadU8(&b)) {
        return false;
      }
      *v |= static_cast<uint64_t>(b) << (8 * i);
    }
    return true;
  }
  bool ReadBytes(size_t n, std::string_view* v) {
    if (pos_ + n > data_.size()) {
      return false;
    }
    *v = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

uint16_t NameTable::Intern(std::string_view name) {
  if (name.empty()) {
    return kNoName;
  }
  if (buckets_.empty()) {
    buckets_.assign(kInitialBuckets, 0);
  }
  const size_t mask = buckets_.size() - 1;
  size_t slot = HashName(name) & mask;
  while (buckets_[slot] != 0) {
    if (names_[buckets_[slot]] == name) {
      return buckets_[slot];
    }
    slot = (slot + 1) & mask;
  }
  if (names_.size() > kMaxNames) {
    return kNoName;  // table exhausted; degrade rather than abort the run
  }
  const uint16_t id = static_cast<uint16_t>(names_.size());
  names_.emplace_back(name);
  buckets_[slot] = id;
  // Keep load below 50% so probe chains stay short.
  if ((names_.size() - 1) * 2 > buckets_.size()) {
    Grow();
  }
  return id;
}

uint16_t NameTable::Find(std::string_view name) const {
  if (name.empty() || buckets_.empty()) {
    return kNoName;
  }
  const size_t mask = buckets_.size() - 1;
  size_t slot = HashName(name) & mask;
  while (buckets_[slot] != 0) {
    if (names_[buckets_[slot]] == name) {
      return buckets_[slot];
    }
    slot = (slot + 1) & mask;
  }
  return kNoName;
}

std::string_view NameTable::NameOf(uint16_t id) const {
  if (id >= names_.size()) {
    return std::string_view();
  }
  return names_[id];
}

void NameTable::Grow() {
  std::vector<uint16_t> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, 0);
  const size_t mask = buckets_.size() - 1;
  for (uint16_t id : old) {
    if (id == 0) {
      continue;
    }
    size_t slot = HashName(names_[id]) & mask;
    while (buckets_[slot] != 0) {
      slot = (slot + 1) & mask;
    }
    buckets_[slot] = id;
  }
}

void TraceRing::SetProcessName(uint32_t pid, std::string_view name) {
  lanes_.push_back(Lane{pid, 0, Intern(name), /*is_process=*/true});
}

void TraceRing::SetThreadName(uint32_t pid, uint32_t tid,
                              std::string_view name) {
  lanes_.push_back(Lane{pid, tid, Intern(name), /*is_process=*/false});
}

void TraceRing::Clear() {
  storage_.clear();
  next_ = 0;
  wrapped_ = false;
  evicted_ = 0;
  lanes_.clear();
}

void TraceRing::Append(const TraceRing& other) {
  // Remap the other ring's name ids into this table, preserving first-seen
  // order so serial and stitched-parallel sinks intern identically.
  std::vector<uint16_t> remap(other.names_.size(), NameTable::kNoName);
  bool identity = true;
  for (size_t id = 1; id < other.names_.size(); ++id) {
    remap[id] = Intern(other.names_.NameOf(static_cast<uint16_t>(id)));
    identity = identity && remap[id] == id;
  }
  auto map_id = [&remap](uint16_t id) {
    return id < remap.size() ? remap[id] : NameTable::kNoName;
  };
  for (const Lane& lane : other.lanes_) {
    lanes_.push_back(Lane{lane.pid, lane.tid, map_id(lane.name),
                          lane.is_process});
  }
  // Oldest-first as at most two contiguous slices, so the merge loop never
  // pays record(i)'s wraparound arithmetic per record. Sweep merges are the
  // common case: shards attach/intern in the same deterministic order, so
  // the remap is the identity and an unbounded sink takes the slices as two
  // bulk (memcpy) inserts.
  const TraceRecord* base = other.storage_.data();
  const size_t n = other.storage_.size();
  const std::pair<const TraceRecord*, size_t> slices[2] = {
      other.wrapped_ ? std::pair{base + other.next_, n - other.next_}
                     : std::pair{base, n},
      other.wrapped_ ? std::pair{base, other.next_}
                     : std::pair{base, size_t{0}},
  };
  for (const auto& [first, count] : slices) {
    if (count == 0) {
      continue;
    }
    if (identity && capacity_ == 0) {
      storage_.insert(storage_.end(), first, first + count);
      continue;
    }
    for (size_t i = 0; i < count; ++i) {
      TraceRecord r = first[i];
      r.name = map_id(r.name);
      r.arg_name = map_id(r.arg_name);
      if (r.arg_is_name != 0) {
        r.arg = map_id(static_cast<uint16_t>(r.arg));
      }
      Push(r);
    }
  }
  evicted_ += other.evicted_;
}

std::string TraceRing::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  auto comma = [&out, &first] {
    if (!first) {
      out += ",";
    }
    first = false;
  };
  // Metadata records first so viewers label lanes before any event needs
  // them.
  for (const Lane& lane : lanes_) {
    comma();
    out += "{\"name\":";
    out += lane.is_process ? "\"process_name\"" : "\"thread_name\"";
    out += ",\"ph\":\"M\",\"pid\":" + std::to_string(lane.pid) +
           ",\"tid\":" + std::to_string(lane.tid) +
           ",\"args\":{\"name\":" + json::Quote(NameOf(lane.name)) + "}}";
  }
  for (size_t i = 0; i < size(); ++i) {
    const TraceRecord& r = record(i);
    char ph = 0;
    switch (r.kind) {
      case TraceRecord::kComplete:
        ph = 'X';
        break;
      case TraceRecord::kInstant:
        ph = 'i';
        break;
      case TraceRecord::kCounter:
        ph = 'C';
        break;
      default:
        continue;  // unknown kind (hand-built image): no event
    }
    comma();
    out += "{\"name\":" + json::Quote(NameOf(r.name)) + ",\"ph\":\"" + ph +
           "\",\"ts\":" + std::to_string(r.ts) +
           ",\"pid\":" + std::to_string(r.pid) +
           ",\"tid\":" + std::to_string(r.tid);
    if (ph == 'X') {
      out += ",\"dur\":" + std::to_string(r.dur);
    } else if (ph == 'i') {
      out += ",\"s\":\"t\"";  // instant scope: thread
    }
    const bool has_arg = r.arg_name != NameTable::kNoName;
    if (ph == 'C') {
      double value = 0.0;
      std::memcpy(&value, &r.dur, sizeof(value));
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out += ",\"args\":{\"value\":";
      out += buf;
      out += "}";
    } else if (has_arg || r.span != 0) {
      out += ",\"args\":{";
      if (has_arg) {
        const std::string value =
            r.arg_is_name != 0
                ? std::string(NameOf(static_cast<uint16_t>(r.arg)))
                : std::to_string(r.arg);
        out += json::Quote(NameOf(r.arg_name)) + ":" + json::Quote(value);
      }
      if (r.span != 0) {
        out += has_arg ? ",\"span\":\"" : "\"span\":\"";
        out += std::to_string(r.span) + "\"";
      }
      out += "}";
    }
    out += "}";
  }
  // displayTimeUnit keeps Perfetto's ruler in sane units for cycle counts.
  out += "],\"displayTimeUnit\":\"ns\"}";
  return out;
}

Status TraceRing::WriteChromeJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InvalidArgument("cannot open trace output file: " + path);
  }
  const std::string body = ToChromeJson();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return Internal("short write to trace output file: " + path);
  }
  return OkStatus();
}

std::string TraceRing::SerializeBinary() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(&out, static_cast<uint32_t>(names_.size()));
  for (size_t id = 0; id < names_.size(); ++id) {
    const std::string_view name = names_.NameOf(static_cast<uint16_t>(id));
    PutU32(&out, static_cast<uint32_t>(name.size()));
    out.append(name.data(), name.size());
  }
  PutU32(&out, static_cast<uint32_t>(lanes_.size()));
  for (const Lane& lane : lanes_) {
    PutU32(&out, lane.pid);
    PutU32(&out, lane.tid);
    PutU16(&out, lane.name);
    PutU8(&out, lane.is_process ? 1 : 0);
  }
  PutU64(&out, evicted_);
  PutU64(&out, static_cast<uint64_t>(size()));
  for (size_t i = 0; i < size(); ++i) {
    const TraceRecord& r = record(i);
    PutU64(&out, r.ts);
    PutU64(&out, r.dur);
    PutU64(&out, r.span);
    PutU64(&out, r.arg);
    PutU32(&out, r.pid);
    PutU32(&out, r.tid);
    PutU16(&out, r.name);
    PutU16(&out, r.arg_name);
    PutU8(&out, r.kind);
    PutU8(&out, r.arg_is_name);
  }
  return out;
}

Status TraceRing::ParseBinary(std::string_view data) {
  Reader in(data);
  std::string_view magic;
  if (!in.ReadBytes(sizeof(kMagic), &magic) ||
      magic != std::string_view(kMagic, sizeof(kMagic))) {
    return InvalidArgument("trace ring: bad magic (not a SNICTRB1 image)");
  }
  TraceRing parsed(0);
  uint32_t name_count = 0;
  if (!in.ReadU32(&name_count) || name_count == 0) {
    return InvalidArgument("trace ring: truncated name table");
  }
  std::vector<uint16_t> ids(name_count, NameTable::kNoName);
  for (uint32_t i = 0; i < name_count; ++i) {
    uint32_t len = 0;
    std::string_view name;
    if (!in.ReadU32(&len) || !in.ReadBytes(len, &name)) {
      return InvalidArgument("trace ring: truncated name entry");
    }
    ids[i] = i == 0 ? NameTable::kNoName : parsed.Intern(name);
  }
  auto map_id = [&ids](uint16_t id) {
    return id < ids.size() ? ids[id] : NameTable::kNoName;
  };
  uint32_t lane_count = 0;
  if (!in.ReadU32(&lane_count)) {
    return InvalidArgument("trace ring: truncated lane table");
  }
  for (uint32_t i = 0; i < lane_count; ++i) {
    Lane lane{};
    uint8_t is_process = 0;
    uint16_t name = 0;
    if (!in.ReadU32(&lane.pid) || !in.ReadU32(&lane.tid) ||
        !in.ReadU16(&name) || !in.ReadU8(&is_process)) {
      return InvalidArgument("trace ring: truncated lane entry");
    }
    lane.name = map_id(name);
    lane.is_process = is_process != 0;
    parsed.lanes_.push_back(lane);
  }
  uint64_t evicted = 0;
  uint64_t record_count = 0;
  if (!in.ReadU64(&evicted) || !in.ReadU64(&record_count)) {
    return InvalidArgument("trace ring: truncated record header");
  }
  for (uint64_t i = 0; i < record_count; ++i) {
    TraceRecord r;
    if (!in.ReadU64(&r.ts) || !in.ReadU64(&r.dur) || !in.ReadU64(&r.span) ||
        !in.ReadU64(&r.arg) || !in.ReadU32(&r.pid) || !in.ReadU32(&r.tid) ||
        !in.ReadU16(&r.name) || !in.ReadU16(&r.arg_name) ||
        !in.ReadU8(&r.kind) || !in.ReadU8(&r.arg_is_name)) {
      return InvalidArgument("trace ring: truncated record");
    }
    r.name = map_id(r.name);
    r.arg_name = map_id(r.arg_name);
    if (r.arg_is_name != 0) {
      r.arg = map_id(static_cast<uint16_t>(r.arg));
    }
    parsed.Push(r);
  }
  if (!in.AtEnd()) {
    return InvalidArgument("trace ring: trailing bytes after records");
  }
  parsed.evicted_ = evicted;
  *this = std::move(parsed);
  return OkStatus();
}

Status TraceRing::WriteBinaryFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return InvalidArgument("cannot open trace ring output file: " + path);
  }
  const std::string body = SerializeBinary();
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  if (written != body.size()) {
    return Internal("short write to trace ring output file: " + path);
  }
  return OkStatus();
}

Status TraceRing::ReadBinaryFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return InvalidArgument("cannot open trace ring input file: " + path);
  }
  std::string body;
  char buf[65536];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    body.append(buf, n);
  }
  std::fclose(f);
  return ParseBinary(body);
}

void MixRecord(const TraceRing& ring, const TraceRecord& r, Fnv* fnv) {
  fnv->Mix(ring.NameOf(r.name));
  fnv->Mix64(r.ts);
  fnv->Mix64(r.dur);
  fnv->Mix64(r.span);
  fnv->Mix64(r.tid);
  fnv->Mix64(r.kind);
  if (r.arg_is_name != 0) {
    fnv->Mix(ring.NameOf(static_cast<uint16_t>(r.arg)));
  } else {
    fnv->Mix64(r.arg);
  }
  fnv->Mix(ring.NameOf(r.arg_name));
}

LaneDigest DigestLane(const TraceRing& ring, uint32_t pid) {
  Fnv fnv;
  LaneDigest lane;
  for (size_t i = 0; i < ring.size(); ++i) {
    const TraceRecord& r = ring.record(i);
    if (r.pid == pid) {
      MixRecord(ring, r, &fnv);
      ++lane.count;
    }
  }
  lane.digest = fnv.h;
  return lane;
}

namespace {
// Thread-local ring override behind ScopedTraceRing, the same audited
// pattern as tls_default_registry (tools/snic_lint/allowlist.txt): per
// thread, RAII-scoped, never shared, so sweep workers each trace into their
// own task's ring.
thread_local TraceRing* tls_trace_ring = nullptr;
}  // namespace

TraceRing* CurrentTraceRing() { return tls_trace_ring; }

ScopedTraceRing::ScopedTraceRing(TraceRing* ring) : previous_(tls_trace_ring) {
  tls_trace_ring = ring;
}

ScopedTraceRing::~ScopedTraceRing() { tls_trace_ring = previous_; }

}  // namespace snic::obs
