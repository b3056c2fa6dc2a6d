#include "src/scenario/spec.h"

#include <cmath>
#include <iterator>
#include <set>
#include <utility>

#include "src/fault/fault.h"
#include "src/obs/json.h"

namespace snic::scenario {

namespace {

using obs::json::Value;

Status Bad(const std::string& where, const std::string& what) {
  return InvalidArgument("scenario spec: " + where + ": " + what);
}

// Strict integer extraction: a JSON number that is non-negative, integral
// and within `max`. Anything else rejects.
Result<uint64_t> U64(const Value& v, const std::string& where, uint64_t max) {
  if (!v.is_number()) {
    return Bad(where, "expected an integer");
  }
  const double d = v.AsNumber();
  if (d < 0.0 || d != std::floor(d)) {
    return Bad(where, "expected a non-negative integer");
  }
  if (d > static_cast<double>(max)) {
    return Bad(where, "value out of range");
  }
  return static_cast<uint64_t>(d);
}

Result<bool> AsBool(const Value& v, const std::string& where) {
  if (!v.is_bool()) {
    return Bad(where, "expected true or false");
  }
  return v.AsBool();
}

Result<std::string> AsString(const Value& v, const std::string& where) {
  if (!v.is_string()) {
    return Bad(where, "expected a string");
  }
  return v.AsString();
}

// Per-object strict decoding: every member key must be consumed by the
// caller's dispatch. `seen` collects the handled keys; any leftover key in
// the object is an unknown-key rejection.
Status RejectUnknownKeys(const Value& obj, const std::set<std::string>& known,
                         const std::string& where) {
  for (const auto& [key, value] : obj.AsObject()) {
    (void)value;
    if (known.count(key) == 0) {
      return Bad(where, "unknown key \"" + key + "\"");
    }
  }
  return OkStatus();
}

Status ParseSupervisor(const Value& v, SupervisorSpec* out) {
  const std::string where = "supervisor";
  if (!v.is_object()) {
    return Bad(where, "expected an object");
  }
  if (Status s = RejectUnknownKeys(
          v,
          {"watchdog_timeout_steps", "backoff_base_steps", "backoff_max_steps",
           "backoff_jitter_pct", "quarantine_after", "stable_steps",
           "max_concurrent_restarts", "verify_attestation"},
          where);
      !s.ok()) {
    return s;
  }
  for (const auto& [key, val] : v.AsObject()) {
    const std::string at = where + "." + key;
    if (key == "verify_attestation") {
      auto b = AsBool(val, at);
      if (!b.ok()) return b.status();
      out->verify_attestation = b.value();
      continue;
    }
    auto n = U64(val, at, key == "backoff_jitter_pct" ? 100 : 1000000);
    if (!n.ok()) return n.status();
    if (key == "watchdog_timeout_steps") out->watchdog_timeout_steps = n.value();
    else if (key == "backoff_base_steps") out->backoff_base_steps = n.value();
    else if (key == "backoff_max_steps") out->backoff_max_steps = n.value();
    else if (key == "backoff_jitter_pct")
      out->backoff_jitter_pct = static_cast<uint32_t>(n.value());
    else if (key == "quarantine_after")
      out->quarantine_after = static_cast<uint32_t>(n.value());
    else if (key == "stable_steps") out->stable_steps = n.value();
    else if (key == "max_concurrent_restarts")
      out->max_concurrent_restarts = static_cast<uint32_t>(n.value());
  }
  return OkStatus();
}

Status ParseVf(const Value& v, const std::string& where, VfSpec* out) {
  if (!v.is_object()) {
    return Bad(where, "expected an object");
  }
  if (Status s = RejectUnknownKeys(
          v, {"ring_slots", "cq_slots", "posted_bytes_limit", "abuse_threshold"},
          where);
      !s.ok()) {
    return s;
  }
  for (const auto& [key, val] : v.AsObject()) {
    auto n = U64(val, where + "." + key, 1u << 30);
    if (!n.ok()) return n.status();
    if (key == "ring_slots") out->ring_slots = static_cast<uint32_t>(n.value());
    else if (key == "cq_slots") out->cq_slots = static_cast<uint32_t>(n.value());
    else if (key == "posted_bytes_limit") out->posted_bytes_limit = n.value();
    else if (key == "abuse_threshold")
      out->abuse_threshold = static_cast<uint32_t>(n.value());
  }
  if (out->ring_slots == 0 || out->cq_slots == 0) {
    return Bad(where, "ring_slots and cq_slots must be positive");
  }
  return OkStatus();
}

Status ParsePolicy(const Value& v, const std::string& where,
                   OverloadPolicySpec* out) {
  if (!v.is_object()) {
    return Bad(where, "expected an object");
  }
  if (Status s = RejectUnknownKeys(
          v,
          {"rx_queue_capacity_frames", "tx_queue_capacity_frames",
           "priority_early_drop", "admission_burst_frames",
           "admission_frames_per_refill", "admission_refill_cycles",
           "deadline_cycles"},
          where);
      !s.ok()) {
    return s;
  }
  for (const auto& [key, val] : v.AsObject()) {
    const std::string at = where + "." + key;
    if (key == "priority_early_drop") {
      auto b = AsBool(val, at);
      if (!b.ok()) return b.status();
      out->priority_early_drop = b.value();
      continue;
    }
    auto n = U64(val, at, 1u << 30);
    if (!n.ok()) return n.status();
    if (key == "rx_queue_capacity_frames")
      out->rx_queue_capacity_frames = static_cast<uint32_t>(n.value());
    else if (key == "tx_queue_capacity_frames")
      out->tx_queue_capacity_frames = static_cast<uint32_t>(n.value());
    else if (key == "admission_burst_frames")
      out->admission_burst_frames = n.value();
    else if (key == "admission_frames_per_refill")
      out->admission_frames_per_refill = n.value();
    else if (key == "admission_refill_cycles")
      out->admission_refill_cycles = n.value();
    else if (key == "deadline_cycles") out->deadline_cycles = n.value();
  }
  return OkStatus();
}

Status ParseTenant(const Value& v, size_t index, uint32_t bus_domains,
                   TenantSpec* out) {
  const std::string where = "tenants[" + std::to_string(index) + "]";
  if (!v.is_object()) {
    return Bad(where, "expected an object");
  }
  if (Status s = RejectUnknownKeys(
          v,
          {"name", "port", "role", "zip_clusters", "bus_domain",
           "frames_per_step", "dma", "vf", "policy"},
          where);
      !s.ok()) {
    return s;
  }
  const Value* name = v.Find("name");
  const Value* port = v.Find("port");
  if (name == nullptr || port == nullptr) {
    return Bad(where, "name and port are required");
  }
  auto name_s = AsString(*name, where + ".name");
  if (!name_s.ok()) return name_s.status();
  out->name = name_s.value();
  if (out->name.empty()) {
    return Bad(where, "name must be non-empty");
  }
  auto port_n = U64(*port, where + ".port", 65535);
  if (!port_n.ok()) return port_n.status();
  if (port_n.value() == 0) {
    return Bad(where, "port must be in [1, 65535]");
  }
  out->port = static_cast<uint16_t>(port_n.value());
  if (const Value* role = v.Find("role"); role != nullptr) {
    auto role_s = AsString(*role, where + ".role");
    if (!role_s.ok()) return role_s.status();
    if (role_s.value() == "workload") out->role = TenantRole::kWorkload;
    else if (role_s.value() == "bystander") out->role = TenantRole::kBystander;
    else if (role_s.value() == "attacker") out->role = TenantRole::kAttacker;
    else return Bad(where + ".role", "unknown role \"" + role_s.value() + "\"");
  }
  if (const Value* zip = v.Find("zip_clusters"); zip != nullptr) {
    auto n = U64(*zip, where + ".zip_clusters", 8);
    if (!n.ok()) return n.status();
    out->zip_clusters = static_cast<uint32_t>(n.value());
  }
  if (const Value* dom = v.Find("bus_domain"); dom != nullptr) {
    auto n = U64(*dom, where + ".bus_domain", 255);
    if (!n.ok()) return n.status();
    if (n.value() >= bus_domains) {
      return Bad(where + ".bus_domain",
                 "domain exceeds declared bus_domains (" +
                     std::to_string(bus_domains) + ")");
    }
    out->bus_domain = static_cast<int32_t>(n.value());
  }
  if (const Value* fps = v.Find("frames_per_step"); fps != nullptr) {
    auto n = U64(*fps, where + ".frames_per_step", 1024);
    if (!n.ok()) return n.status();
    out->frames_per_step = n.value();
  }
  if (const Value* dma = v.Find("dma"); dma != nullptr) {
    auto b = AsBool(*dma, where + ".dma");
    if (!b.ok()) return b.status();
    out->dma = b.value();
  }
  if (const Value* vf = v.Find("vf"); vf != nullptr) {
    out->has_vf = true;
    if (Status s = ParseVf(*vf, where + ".vf", &out->vf); !s.ok()) {
      return s;
    }
  }
  if (const Value* policy = v.Find("policy"); policy != nullptr) {
    out->has_policy = true;
    if (Status s = ParsePolicy(*policy, where + ".policy", &out->policy);
        !s.ok()) {
      return s;
    }
  }
  if (out->role == TenantRole::kAttacker && !out->has_vf) {
    return Bad(where, "attacker-role tenants require a vf");
  }
  return OkStatus();
}

Status ParseFaultRule(const Value& v, size_t index,
                      const std::set<std::string>& tenant_names,
                      FaultRuleSpec* out) {
  const std::string where = "faults[" + std::to_string(index) + "]";
  if (!v.is_object()) {
    return Bad(where, "expected an object");
  }
  if (Status s = RejectUnknownKeys(v,
                                   {"site", "nf", "raw_id", "skip", "count",
                                    "period", "stall_cycles", "on_attempt"},
                                   where);
      !s.ok()) {
    return s;
  }
  const Value* site = v.Find("site");
  if (site == nullptr) {
    return Bad(where, "site is required");
  }
  auto site_s = AsString(*site, where + ".site");
  if (!site_s.ok()) return site_s.status();
  out->site = site_s.value();
  bool known = false;
  for (std::string_view s : KnownFaultSites()) {
    known |= s == out->site;
  }
  if (!known) {
    return Bad(where + ".site",
               "\"" + out->site + "\" is not a registered fault site");
  }
  const Value* nf = v.Find("nf");
  const Value* raw = v.Find("raw_id");
  if (nf != nullptr && raw != nullptr) {
    return Bad(where, "nf and raw_id are mutually exclusive");
  }
  if (nf != nullptr) {
    auto nf_s = AsString(*nf, where + ".nf");
    if (!nf_s.ok()) return nf_s.status();
    if (nf_s.value() != "any") {
      if (tenant_names.count(nf_s.value()) == 0) {
        return Bad(where + ".nf",
                   "\"" + nf_s.value() + "\" is not a declared tenant");
      }
      out->nf = nf_s.value();
    }
  }
  if (raw != nullptr) {
    auto n = U64(*raw, where + ".raw_id", ~uint64_t{0} >> 1);
    if (!n.ok()) return n.status();
    out->has_raw_id = true;
    out->raw_id = n.value();
  }
  if (const Value* skip = v.Find("skip"); skip != nullptr) {
    auto n = U64(*skip, where + ".skip", 1u << 30);
    if (!n.ok()) return n.status();
    out->skip = n.value();
  }
  if (const Value* count = v.Find("count"); count != nullptr) {
    if (count->is_string()) {
      if (count->AsString() != "forever") {
        return Bad(where + ".count", "expected an integer or \"forever\"");
      }
      out->count = fault::FaultRule::kForever;
    } else {
      auto n = U64(*count, where + ".count", 1u << 30);
      if (!n.ok()) return n.status();
      if (n.value() == 0) {
        return Bad(where + ".count", "count must be positive");
      }
      out->count = n.value();
    }
  }
  if (const Value* period = v.Find("period"); period != nullptr) {
    auto n = U64(*period, where + ".period", 1u << 30);
    if (!n.ok()) return n.status();
    out->period = n.value();
  }
  if (const Value* stall = v.Find("stall_cycles"); stall != nullptr) {
    auto n = U64(*stall, where + ".stall_cycles", 1u << 30);
    if (!n.ok()) return n.status();
    out->stall_cycles = n.value();
  }
  if (const Value* attempt = v.Find("on_attempt"); attempt != nullptr) {
    auto n = U64(*attempt, where + ".on_attempt", 1u << 20);
    if (!n.ok()) return n.status();
    out->on_attempt = n.value();
  }
  return OkStatus();
}

Status ParseOverload(const Value& v, const std::vector<TenantSpec>& tenants,
                     OverloadSpec* out) {
  const std::string where = "overload";
  if (!v.is_object()) {
    return Bad(where, "expected an object");
  }
  if (Status s = RejectUnknownKeys(v,
                                   {"target", "load_pct", "baseline_pct",
                                    "service_per_step", "downstream"},
                                   where);
      !s.ok()) {
    return s;
  }
  const auto find = [&tenants](const std::string& name) -> const TenantSpec* {
    for (const TenantSpec& t : tenants) {
      if (t.name == name) {
        return &t;
      }
    }
    return nullptr;
  };
  const Value* target = v.Find("target");
  if (target == nullptr) {
    return Bad(where, "target is required");
  }
  auto target_s = AsString(*target, where + ".target");
  if (!target_s.ok()) return target_s.status();
  if (find(target_s.value()) == nullptr) {
    return Bad(where + ".target",
               "\"" + target_s.value() + "\" is not a declared tenant");
  }
  out->target = target_s.value();
  for (const char* key : {"load_pct", "baseline_pct", "service_per_step"}) {
    if (const Value* val = v.Find(key); val != nullptr) {
      auto n = U64(*val, where + "." + key, 100000);
      if (!n.ok()) return n.status();
      if (std::string_view(key) == "load_pct") out->load_pct = n.value();
      else if (std::string_view(key) == "baseline_pct")
        out->baseline_pct = n.value();
      else out->service_per_step = n.value();
    }
  }
  if (out->service_per_step == 0) {
    return Bad(where + ".service_per_step", "must be positive");
  }
  if (const Value* downstream = v.Find("downstream"); downstream != nullptr) {
    const std::string at = where + ".downstream";
    auto name = AsString(*downstream, at);
    if (!name.ok()) return name.status();
    const TenantSpec* tenant = find(name.value());
    if (tenant == nullptr) {
      return Bad(at, "\"" + name.value() + "\" is not a declared tenant");
    }
    if (name.value() == out->target) {
      return Bad(at, "must differ from the target");
    }
    if (tenant->role != TenantRole::kWorkload) {
      return Bad(at, "\"" + name.value() + "\" is not a workload-role tenant");
    }
    out->downstream = name.value();
  }
  return OkStatus();
}

Status ParseAttack(const Value& v, const std::vector<TenantSpec>& tenants,
                   AttackSpec* out) {
  const std::string where = "attack";
  if (!v.is_object()) {
    return Bad(where, "expected an object");
  }
  if (Status s =
          RejectUnknownKeys(v, {"target", "flood_rings", "squat"}, where);
      !s.ok()) {
    return s;
  }
  const Value* target = v.Find("target");
  if (target == nullptr) {
    return Bad(where, "target is required");
  }
  auto target_s = AsString(*target, where + ".target");
  if (!target_s.ok()) return target_s.status();
  bool is_attacker = false;
  for (const TenantSpec& t : tenants) {
    if (t.name == target_s.value()) {
      is_attacker = t.role == TenantRole::kAttacker;
    }
  }
  if (!is_attacker) {
    return Bad(where + ".target",
               "\"" + target_s.value() + "\" is not an attacker-role tenant");
  }
  out->target = target_s.value();
  if (const Value* flood = v.Find("flood_rings"); flood != nullptr) {
    auto n = U64(*flood, where + ".flood_rings", 4096);
    if (!n.ok()) return n.status();
    out->flood_rings = n.value();
  }
  if (const Value* squat = v.Find("squat"); squat != nullptr) {
    auto b = AsBool(*squat, where + ".squat");
    if (!b.ok()) return b.status();
    out->squat = b.value();
  }
  return OkStatus();
}

Status ParseVerdicts(const Value& v, const std::set<std::string>& tenant_names,
                     VerdictSpec* out) {
  const std::string where = "verdicts";
  if (!v.is_object()) {
    return Bad(where, "expected an object");
  }
  if (Status s = RejectUnknownKeys(
          v,
          {"bystander_identical", "containment", "must_recover",
           "recovery_deadline_steps", "goodput_floor_pct", "queue_bound",
           "detect_abuse"},
          where);
      !s.ok()) {
    return s;
  }
  const auto parse_names = [&](const Value& arr, const std::string& at,
                               std::vector<std::string>* names) -> Status {
    if (!arr.is_array()) {
      return Bad(at, "expected an array of tenant names");
    }
    for (const Value& item : arr.AsArray()) {
      auto s = AsString(item, at);
      if (!s.ok()) return s.status();
      if (tenant_names.count(s.value()) == 0) {
        return Bad(at, "\"" + s.value() + "\" is not a declared tenant");
      }
      names->push_back(s.value());
    }
    return OkStatus();
  };
  if (const Value* b = v.Find("bystander_identical"); b != nullptr) {
    auto val = AsBool(*b, where + ".bystander_identical");
    if (!val.ok()) return val.status();
    out->bystander_identical = val.value();
  }
  if (const Value* c = v.Find("containment"); c != nullptr) {
    if (Status s = parse_names(*c, where + ".containment", &out->containment);
        !s.ok()) {
      return s;
    }
  }
  if (const Value* r = v.Find("must_recover"); r != nullptr) {
    if (Status s = parse_names(*r, where + ".must_recover", &out->must_recover);
        !s.ok()) {
      return s;
    }
  }
  if (const Value* d = v.Find("recovery_deadline_steps"); d != nullptr) {
    auto n = U64(*d, where + ".recovery_deadline_steps", 1u << 30);
    if (!n.ok()) return n.status();
    out->recovery_deadline_steps = n.value();
  }
  if (const Value* g = v.Find("goodput_floor_pct"); g != nullptr) {
    auto n = U64(*g, where + ".goodput_floor_pct", 1000);
    if (!n.ok()) return n.status();
    out->goodput_floor_pct = n.value();
  }
  if (const Value* q = v.Find("queue_bound"); q != nullptr) {
    auto val = AsBool(*q, where + ".queue_bound");
    if (!val.ok()) return val.status();
    out->queue_bound = val.value();
  }
  if (const Value* a = v.Find("detect_abuse"); a != nullptr) {
    if (!a->is_array()) {
      return Bad(where + ".detect_abuse", "expected an array");
    }
    for (const Value& item : a->AsArray()) {
      auto s = AsString(item, where + ".detect_abuse");
      if (!s.ok()) return s.status();
      if (!AbuseKindFromName(s.value()).has_value()) {
        return Bad(where + ".detect_abuse",
                   "unknown abuse kind \"" + s.value() + "\"");
      }
      out->detect_abuse.push_back(s.value());
    }
  }
  return OkStatus();
}

void AppendQuoted(std::string& out, std::string_view s) {
  out += obs::json::Quote(s);
}

}  // namespace

std::string_view TenantRoleName(TenantRole role) {
  switch (role) {
    case TenantRole::kWorkload:
      return "workload";
    case TenantRole::kBystander:
      return "bystander";
    case TenantRole::kAttacker:
      return "attacker";
  }
  return "unknown";
}

std::optional<core::vnic::VfAbuse> AbuseKindFromName(std::string_view name) {
  using core::vnic::VfAbuse;
  static constexpr std::pair<std::string_view, VfAbuse> kKinds[] = {
      {"flood", VfAbuse::kDoorbellFlood},
      {"squat", VfAbuse::kCqSquat},
      {"desc", VfAbuse::kBadDescriptor},
      {"churn", VfAbuse::kQuotaChurn},
  };
  static_assert(std::size(kKinds) == core::vnic::kNumVfAbuseKinds);
  for (const auto& [kind_name, kind] : kKinds) {
    if (kind_name == name) {
      return kind;
    }
  }
  return std::nullopt;
}

const std::vector<std::string_view>& KnownFaultSites() {
  static const std::vector<std::string_view> kSites = {
      fault::sites::kAccelThreadAccess,
      fault::sites::kDmaHostToNic,
      fault::sites::kDmaNicToHost,
      fault::sites::kVppRxDrop,
      fault::sites::kVppRxCorrupt,
      fault::sites::kVppRxAdmissionReject,
      fault::sites::kChainCreditGrant,
      fault::sites::kBreakerProbe,
      fault::sites::kNfLaunch,
      fault::sites::kSupervisorReattest,
      fault::sites::kNfHang,
      fault::sites::kBusTimeout,
      fault::sites::kVnicDoorbellFlood,
      fault::sites::kVnicCqSquat,
      fault::sites::kVnicDescCorrupt,
      fault::sites::kVnicDescStale,
      fault::sites::kVnicQuotaChurn,
  };
  return kSites;
}

Result<ScenarioSpec> ParseScenarioSpec(std::string_view json_text) {
  auto parsed = Value::Parse(json_text);
  if (!parsed.ok()) {
    return InvalidArgument("scenario spec: " + parsed.status().message());
  }
  const Value& root = parsed.value();
  if (!root.is_object()) {
    return InvalidArgument("scenario spec: top level must be an object");
  }
  if (Status s = RejectUnknownKeys(
          root,
          {"name", "steps", "cycles_per_step", "bus_domains", "supervisor",
           "tenants", "faults", "overload", "attack", "verdicts"},
          "top level");
      !s.ok()) {
    return s;
  }

  ScenarioSpec spec;
  const Value* name = root.Find("name");
  if (name == nullptr) {
    return InvalidArgument("scenario spec: name is required");
  }
  auto name_s = AsString(*name, "name");
  if (!name_s.ok()) return name_s.status();
  spec.name = name_s.value();
  if (spec.name.empty()) {
    return InvalidArgument("scenario spec: name must be non-empty");
  }

  if (const Value* steps = root.Find("steps"); steps != nullptr) {
    auto n = U64(*steps, "steps", 10000000);
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      return InvalidArgument("scenario spec: steps must be positive");
    }
    spec.steps = n.value();
  }
  if (const Value* cps = root.Find("cycles_per_step"); cps != nullptr) {
    auto n = U64(*cps, "cycles_per_step", 1000000);
    if (!n.ok()) return n.status();
    if (n.value() == 0) {
      return InvalidArgument("scenario spec: cycles_per_step must be positive");
    }
    spec.cycles_per_step = n.value();
  }
  if (const Value* domains = root.Find("bus_domains"); domains != nullptr) {
    auto n = U64(*domains, "bus_domains", 64);
    if (!n.ok()) return n.status();
    spec.bus_domains = static_cast<uint32_t>(n.value());
  }
  if (const Value* sup = root.Find("supervisor"); sup != nullptr) {
    if (Status s = ParseSupervisor(*sup, &spec.supervisor); !s.ok()) {
      return s;
    }
  }

  const Value* tenants = root.Find("tenants");
  if (tenants == nullptr || !tenants->is_array() ||
      tenants->AsArray().empty()) {
    return InvalidArgument(
        "scenario spec: tenants must be a non-empty array");
  }
  std::set<std::string> names;
  std::set<uint16_t> ports;
  for (size_t i = 0; i < tenants->AsArray().size(); ++i) {
    TenantSpec tenant;
    if (Status s = ParseTenant(tenants->AsArray()[i], i, spec.bus_domains,
                               &tenant);
        !s.ok()) {
      return s;
    }
    if (!names.insert(tenant.name).second) {
      return InvalidArgument("scenario spec: duplicate tenant name \"" +
                             tenant.name + "\"");
    }
    if (!ports.insert(tenant.port).second) {
      return InvalidArgument("scenario spec: duplicate tenant port " +
                             std::to_string(tenant.port));
    }
    spec.tenants.push_back(std::move(tenant));
  }

  if (const Value* faults = root.Find("faults"); faults != nullptr) {
    if (!faults->is_array()) {
      return InvalidArgument("scenario spec: faults must be an array");
    }
    for (size_t i = 0; i < faults->AsArray().size(); ++i) {
      FaultRuleSpec rule;
      if (Status s = ParseFaultRule(faults->AsArray()[i], i, names, &rule);
          !s.ok()) {
        return s;
      }
      spec.faults.push_back(std::move(rule));
    }
  }
  if (const Value* overload = root.Find("overload"); overload != nullptr) {
    spec.has_overload = true;
    if (Status s = ParseOverload(*overload, spec.tenants, &spec.overload);
        !s.ok()) {
      return s;
    }
  }
  if (const Value* attack = root.Find("attack"); attack != nullptr) {
    spec.has_attack = true;
    if (Status s = ParseAttack(*attack, spec.tenants, &spec.attack); !s.ok()) {
      return s;
    }
  }
  if (const Value* verdicts = root.Find("verdicts"); verdicts != nullptr) {
    if (Status s = ParseVerdicts(*verdicts, names, &spec.verdicts); !s.ok()) {
      return s;
    }
  }

  // Cross-cutting semantic checks that need the whole spec.
  if (spec.verdicts.bystander_identical) {
    bool has_bystander = false;
    for (const TenantSpec& t : spec.tenants) {
      has_bystander |= t.role == TenantRole::kBystander;
    }
    if (!has_bystander) {
      return InvalidArgument(
          "scenario spec: verdicts.bystander_identical requires a "
          "bystander-role tenant");
    }
  }
  if (spec.verdicts.queue_bound) {
    if (!spec.has_overload) {
      return InvalidArgument(
          "scenario spec: verdicts.queue_bound requires an overload section");
    }
    for (const TenantSpec& t : spec.tenants) {
      if (t.name == spec.overload.target &&
          (!t.has_policy || t.policy.rx_queue_capacity_frames == 0)) {
        return InvalidArgument(
            "scenario spec: verdicts.queue_bound requires the overload "
            "target to declare policy.rx_queue_capacity_frames");
      }
    }
  }
  if (spec.verdicts.goodput_floor_pct > 0 && !spec.has_overload) {
    return InvalidArgument(
        "scenario spec: verdicts.goodput_floor_pct requires an overload "
        "section");
  }
  if (!spec.verdicts.detect_abuse.empty() && !spec.has_attack) {
    return InvalidArgument(
        "scenario spec: verdicts.detect_abuse requires an attack section");
  }
  for (const FaultRuleSpec& rule : spec.faults) {
    if (rule.on_attempt > 0 && rule.site != fault::sites::kSupervisorReattest) {
      return InvalidArgument(
          "scenario spec: on_attempt is only meaningful at the "
          "supervisor.reattest site");
    }
  }
  return spec;
}

std::string SerializeScenarioSpec(const ScenarioSpec& spec) {
  std::string out = "{";
  out += "\"name\":";
  AppendQuoted(out, spec.name);
  out += ",\"steps\":" + std::to_string(spec.steps);
  out += ",\"cycles_per_step\":" + std::to_string(spec.cycles_per_step);
  out += ",\"bus_domains\":" + std::to_string(spec.bus_domains);

  const SupervisorSpec& sup = spec.supervisor;
  out += ",\"supervisor\":{";
  out += "\"watchdog_timeout_steps\":" +
         std::to_string(sup.watchdog_timeout_steps);
  out += ",\"backoff_base_steps\":" + std::to_string(sup.backoff_base_steps);
  out += ",\"backoff_max_steps\":" + std::to_string(sup.backoff_max_steps);
  out += ",\"backoff_jitter_pct\":" + std::to_string(sup.backoff_jitter_pct);
  out += ",\"quarantine_after\":" + std::to_string(sup.quarantine_after);
  out += ",\"stable_steps\":" + std::to_string(sup.stable_steps);
  out += ",\"max_concurrent_restarts\":" +
         std::to_string(sup.max_concurrent_restarts);
  out += ",\"verify_attestation\":";
  out += sup.verify_attestation ? "true" : "false";
  out += "}";

  out += ",\"tenants\":[";
  for (size_t i = 0; i < spec.tenants.size(); ++i) {
    const TenantSpec& t = spec.tenants[i];
    out += i == 0 ? "{" : ",{";
    out += "\"name\":";
    AppendQuoted(out, t.name);
    out += ",\"port\":" + std::to_string(t.port);
    out += ",\"role\":";
    AppendQuoted(out, TenantRoleName(t.role));
    out += ",\"zip_clusters\":" + std::to_string(t.zip_clusters);
    if (t.bus_domain >= 0) {
      out += ",\"bus_domain\":" + std::to_string(t.bus_domain);
    }
    out += ",\"frames_per_step\":" + std::to_string(t.frames_per_step);
    if (t.dma) {
      out += ",\"dma\":true";
    }
    if (t.has_vf) {
      out += ",\"vf\":{\"ring_slots\":" + std::to_string(t.vf.ring_slots);
      out += ",\"cq_slots\":" + std::to_string(t.vf.cq_slots);
      out += ",\"posted_bytes_limit\":" +
             std::to_string(t.vf.posted_bytes_limit);
      out +=
          ",\"abuse_threshold\":" + std::to_string(t.vf.abuse_threshold) + "}";
    }
    if (t.has_policy) {
      const OverloadPolicySpec& p = t.policy;
      out += ",\"policy\":{\"rx_queue_capacity_frames\":" +
             std::to_string(p.rx_queue_capacity_frames);
      out += ",\"tx_queue_capacity_frames\":" +
             std::to_string(p.tx_queue_capacity_frames);
      out += ",\"priority_early_drop\":";
      out += p.priority_early_drop ? "true" : "false";
      out += ",\"admission_burst_frames\":" +
             std::to_string(p.admission_burst_frames);
      out += ",\"admission_frames_per_refill\":" +
             std::to_string(p.admission_frames_per_refill);
      out += ",\"admission_refill_cycles\":" +
             std::to_string(p.admission_refill_cycles);
      out += ",\"deadline_cycles\":" + std::to_string(p.deadline_cycles) + "}";
    }
    out += "}";
  }
  out += "]";

  if (!spec.faults.empty()) {
    out += ",\"faults\":[";
    for (size_t i = 0; i < spec.faults.size(); ++i) {
      const FaultRuleSpec& r = spec.faults[i];
      out += i == 0 ? "{" : ",{";
      out += "\"site\":";
      AppendQuoted(out, r.site);
      if (!r.nf.empty()) {
        out += ",\"nf\":";
        AppendQuoted(out, r.nf);
      }
      if (r.has_raw_id) {
        out += ",\"raw_id\":" + std::to_string(r.raw_id);
      }
      out += ",\"skip\":" + std::to_string(r.skip);
      if (r.count == fault::FaultRule::kForever) {
        out += ",\"count\":\"forever\"";
      } else {
        out += ",\"count\":" + std::to_string(r.count);
      }
      out += ",\"period\":" + std::to_string(r.period);
      if (r.stall_cycles > 0) {
        out += ",\"stall_cycles\":" + std::to_string(r.stall_cycles);
      }
      if (r.on_attempt > 0) {
        out += ",\"on_attempt\":" + std::to_string(r.on_attempt);
      }
      out += "}";
    }
    out += "]";
  }

  if (spec.has_overload) {
    const OverloadSpec& o = spec.overload;
    out += ",\"overload\":{\"target\":";
    AppendQuoted(out, o.target);
    out += ",\"load_pct\":" + std::to_string(o.load_pct);
    out += ",\"baseline_pct\":" + std::to_string(o.baseline_pct);
    out += ",\"service_per_step\":" + std::to_string(o.service_per_step);
    if (!o.downstream.empty()) {
      out += ",\"downstream\":";
      AppendQuoted(out, o.downstream);
    }
    out += "}";
  }
  if (spec.has_attack) {
    const AttackSpec& a = spec.attack;
    out += ",\"attack\":{\"target\":";
    AppendQuoted(out, a.target);
    out += ",\"flood_rings\":" + std::to_string(a.flood_rings);
    out += ",\"squat\":";
    out += a.squat ? "true" : "false";
    out += "}";
  }

  const VerdictSpec& verdict = spec.verdicts;
  out += ",\"verdicts\":{";
  out += "\"bystander_identical\":";
  out += verdict.bystander_identical ? "true" : "false";
  const auto names_array = [&out](const char* key,
                                  const std::vector<std::string>& names) {
    out += ",\"";
    out += key;
    out += "\":[";
    for (size_t i = 0; i < names.size(); ++i) {
      if (i > 0) out += ",";
      AppendQuoted(out, names[i]);
    }
    out += "]";
  };
  if (!verdict.containment.empty()) {
    names_array("containment", verdict.containment);
  }
  if (!verdict.must_recover.empty()) {
    names_array("must_recover", verdict.must_recover);
  }
  if (verdict.recovery_deadline_steps > 0) {
    out += ",\"recovery_deadline_steps\":" +
           std::to_string(verdict.recovery_deadline_steps);
  }
  if (verdict.goodput_floor_pct > 0) {
    out +=
        ",\"goodput_floor_pct\":" + std::to_string(verdict.goodput_floor_pct);
  }
  out += ",\"queue_bound\":";
  out += verdict.queue_bound ? "true" : "false";
  if (!verdict.detect_abuse.empty()) {
    names_array("detect_abuse", verdict.detect_abuse);
  }
  out += "}}";
  return out;
}

ScenarioSpec BaselineTwin(const ScenarioSpec& spec) {
  ScenarioSpec twin = spec;
  twin.faults.clear();
  if (twin.has_attack) {
    twin.attack.flood_rings = 0;
    twin.attack.squat = false;
  }
  if (twin.has_overload) {
    twin.overload.load_pct = twin.overload.baseline_pct;
  }
  return twin;
}

}  // namespace snic::scenario
