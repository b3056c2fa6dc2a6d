#include "tools/snic_trace/analyze.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "src/obs/json.h"
#include "src/obs/span_names.h"

namespace snic::tools::trace {

namespace {

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return std::string(buf);
}

// Per-tenant accumulation state while walking the ring.
struct TenantState {
  TenantSummary summary;
  std::map<uint64_t, uint64_t> span_start;  // span id -> rx.enqueue ts
  std::vector<uint64_t> latencies;
  obs::Fnv digest;
};

}  // namespace

uint64_t Percentile(std::vector<uint64_t> sample, uint32_t pct) {
  if (sample.empty()) {
    return 0;
  }
  std::sort(sample.begin(), sample.end());
  // Nearest rank: smallest index whose rank covers pct% of the sample.
  size_t rank = (sample.size() * pct + 99) / 100;
  if (rank == 0) {
    rank = 1;
  }
  if (rank > sample.size()) {
    rank = sample.size();
  }
  return sample[rank - 1];
}

Timeline AnalyzeRing(const obs::TraceRing& ring) {
  namespace spans = obs::spans;
  std::map<uint32_t, TenantState> tenants;

  for (size_t i = 0; i < ring.size(); ++i) {
    const obs::TraceRecord& r = ring.record(i);
    auto [slot, inserted] = tenants.try_emplace(r.pid);
    TenantState& t = slot->second;
    if (inserted) {
      t.summary.pid = r.pid;
    }
    ++t.summary.records;

    const std::string_view name = ring.NameOf(r.name);
    if (name == spans::kVppRxEnqueue) {
      ++t.summary.spans_started;
      if (r.span != 0) {
        // First sighting wins: a chained frame re-enters a consumer's VPP
        // with the same span id, and ingress means the first enqueue.
        t.span_start.emplace(r.span, r.ts);
      }
    } else if (name == spans::kVppRxDequeue) {
      t.summary.rx_residency_cycles += r.arg;
    } else if (name == spans::kVppTxDequeue) {
      t.summary.tx_residency_cycles += r.arg;
      if (r.span != 0) {
        auto it = t.span_start.find(r.span);
        if (it != t.span_start.end()) {
          ++t.summary.spans_completed;
          t.latencies.push_back(r.ts - it->second);
        }
      }
    } else if (name == spans::kVppRxRejected) {
      ++t.summary.rejected;
    } else if (name == spans::kVppDeadlineShed) {
      ++t.summary.shed;
    } else if (name == spans::kChainHop) {
      ++t.summary.chain_hops;
    } else if (name == spans::kChainStall) {
      ++t.summary.chain_stalls;
    } else if (name == spans::kAccelDispatch) {
      ++t.summary.accel_dispatches;
    } else if (name == spans::kAccelFallback) {
      ++t.summary.accel_fallbacks;
    } else if (name == spans::kAccelBreaker) {
      ++t.summary.breaker_events;
    } else if (name.substr(0, 11) == "supervisor.") {
      ++t.summary.supervisor_events;
    } else if (name == spans::kFaultFired) {
      ++t.summary.faults;
    }

    // Same fold as obs::DigestLane, one record at a time.
    obs::MixRecord(ring, r, &t.digest);
  }

  // Lane labels: the last registered process name per pid wins (matches
  // Chrome's metadata semantics).
  for (const auto& lane : ring.lanes()) {
    if (!lane.is_process) {
      continue;
    }
    auto it = tenants.find(lane.pid);
    if (it != tenants.end()) {
      it->second.summary.lane = std::string(ring.NameOf(lane.name));
    }
  }

  Timeline out;
  out.total_records = ring.size();
  out.evicted = ring.evicted();
  for (auto& [pid, state] : tenants) {
    state.summary.latency_p50 = Percentile(state.latencies, 50);
    state.summary.latency_p90 = Percentile(state.latencies, 90);
    state.summary.latency_p99 = Percentile(state.latencies, 99);
    state.summary.digest = state.digest.h;
    out.tenants.push_back(std::move(state.summary));
  }
  return out;
}

ForensicsReport Compare(const Timeline& baseline, const Timeline& subject,
                        uint32_t bystander_pid) {
  std::map<uint32_t, const TenantSummary*> base, subj;
  for (const TenantSummary& t : baseline.tenants) {
    base[t.pid] = &t;
  }
  for (const TenantSummary& t : subject.tenants) {
    subj[t.pid] = &t;
  }

  ForensicsReport report;
  report.bystander_pid = bystander_pid;
  for (const auto& [pid, b] : base) {
    TenantDelta delta;
    delta.pid = pid;
    delta.in_baseline = true;
    auto it = subj.find(pid);
    if (it != subj.end()) {
      const TenantSummary* s = it->second;
      delta.in_subject = true;
      delta.record_delta = static_cast<int64_t>(s->records) -
                           static_cast<int64_t>(b->records);
      delta.latency_p99_delta = static_cast<int64_t>(s->latency_p99) -
                                static_cast<int64_t>(b->latency_p99);
      delta.digest_match = s->digest == b->digest;
    }
    report.tenants.push_back(delta);
  }
  for (const auto& [pid, s] : subj) {
    if (base.find(pid) == base.end()) {
      TenantDelta delta;
      delta.pid = pid;
      delta.in_subject = true;
      delta.record_delta = static_cast<int64_t>(s->records);
      report.tenants.push_back(delta);
    }
  }
  std::sort(report.tenants.begin(), report.tenants.end(),
            [](const TenantDelta& a, const TenantDelta& b) {
              return a.pid < b.pid;
            });

  for (const TenantDelta& delta : report.tenants) {
    if (delta.pid != bystander_pid) {
      continue;
    }
    report.bystander_found = delta.in_baseline && delta.in_subject;
    report.pass = report.bystander_found && delta.record_delta == 0 &&
                  delta.latency_p99_delta == 0 && delta.digest_match;
  }
  return report;
}

std::string TimelineToJson(const Timeline& timeline) {
  std::string out = "{\"bench\":\"trace_timeline\",\"total_records\":";
  out += std::to_string(timeline.total_records);
  out += ",\"evicted\":";
  out += std::to_string(timeline.evicted);
  out += ",\"tenants\":[";
  bool first = true;
  for (const TenantSummary& t : timeline.tenants) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"pid\":" + std::to_string(t.pid);
    out += ",\"lane\":" + obs::json::Quote(t.lane);
    out += ",\"records\":" + std::to_string(t.records);
    out += ",\"spans_started\":" + std::to_string(t.spans_started);
    out += ",\"spans_completed\":" + std::to_string(t.spans_completed);
    out += ",\"latency_p50\":" + std::to_string(t.latency_p50);
    out += ",\"latency_p90\":" + std::to_string(t.latency_p90);
    out += ",\"latency_p99\":" + std::to_string(t.latency_p99);
    out += ",\"rx_residency\":" + std::to_string(t.rx_residency_cycles);
    out += ",\"tx_residency\":" + std::to_string(t.tx_residency_cycles);
    out += ",\"rejected\":" + std::to_string(t.rejected);
    out += ",\"shed\":" + std::to_string(t.shed);
    out += ",\"chain_hops\":" + std::to_string(t.chain_hops);
    out += ",\"chain_stalls\":" + std::to_string(t.chain_stalls);
    out += ",\"accel_dispatches\":" + std::to_string(t.accel_dispatches);
    out += ",\"accel_fallbacks\":" + std::to_string(t.accel_fallbacks);
    out += ",\"breaker_events\":" + std::to_string(t.breaker_events);
    out += ",\"supervisor_events\":" + std::to_string(t.supervisor_events);
    out += ",\"faults\":" + std::to_string(t.faults);
    out += ",\"digest\":\"" + Hex64(t.digest) + "\"}";
  }
  out += "]}";
  return out;
}

std::string ForensicsToJson(const ForensicsReport& report) {
  const TenantDelta* bystander = nullptr;
  for (const TenantDelta& delta : report.tenants) {
    if (delta.pid == report.bystander_pid) {
      bystander = &delta;
    }
  }
  std::string out = "{\"bench\":\"trace_forensics\",\"bystander_pid\":";
  out += std::to_string(report.bystander_pid);
  out += ",\"bystander_found\":";
  out += report.bystander_found ? "true" : "false";
  out += ",\"record_delta\":";
  out += std::to_string(bystander != nullptr ? bystander->record_delta : 0);
  out += ",\"latency_p99_delta\":";
  out +=
      std::to_string(bystander != nullptr ? bystander->latency_p99_delta : 0);
  out += ",\"digest_match\":";
  out += (bystander != nullptr && bystander->digest_match) ? "true" : "false";
  out += ",\"tenants\":[";
  bool first = true;
  for (const TenantDelta& delta : report.tenants) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += "{\"pid\":" + std::to_string(delta.pid);
    out += ",\"record_delta\":" + std::to_string(delta.record_delta);
    out += ",\"latency_p99_delta\":" + std::to_string(delta.latency_p99_delta);
    out += ",\"digest_match\":";
    out += delta.digest_match ? "true" : "false";
    out += "}";
  }
  out += "],\"pass\":";
  out += report.pass ? "true" : "false";
  out += "}";
  return out;
}

std::string TimelineToText(const Timeline& timeline) {
  std::string out;
  out += "records: " + std::to_string(timeline.total_records) +
         "  evicted: " + std::to_string(timeline.evicted) + "\n";
  for (const TenantSummary& t : timeline.tenants) {
    out += "tenant pid=" + std::to_string(t.pid);
    if (!t.lane.empty()) {
      out += " (" + t.lane + ")";
    }
    out += ": records=" + std::to_string(t.records);
    out += " spans=" + std::to_string(t.spans_completed) + "/" +
           std::to_string(t.spans_started);
    out += " p50=" + std::to_string(t.latency_p50);
    out += " p90=" + std::to_string(t.latency_p90);
    out += " p99=" + std::to_string(t.latency_p99);
    out += " rx_res=" + std::to_string(t.rx_residency_cycles);
    out += " tx_res=" + std::to_string(t.tx_residency_cycles);
    out += " rejected=" + std::to_string(t.rejected);
    out += " shed=" + std::to_string(t.shed);
    out += " hops=" + std::to_string(t.chain_hops);
    out += " stalls=" + std::to_string(t.chain_stalls);
    out += " accel=" + std::to_string(t.accel_dispatches) + "+" +
           std::to_string(t.accel_fallbacks) + "fb";
    out += " breaker=" + std::to_string(t.breaker_events);
    out += " supervisor=" + std::to_string(t.supervisor_events);
    out += " faults=" + std::to_string(t.faults);
    out += " digest=" + Hex64(t.digest);
    out += "\n";
  }
  return out;
}

}  // namespace snic::tools::trace
