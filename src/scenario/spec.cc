#include "src/scenario/spec.h"

#include <cmath>
#include <iterator>
#include <type_traits>
#include <utility>

#include "src/fault/fault.h"
#include "src/obs/json.h"

namespace snic::scenario {

namespace {

using obs::json::Value;

Status Bad(const std::string& where, const std::string& what) {
  return InvalidArgument("scenario spec: " + where + ": " + what);
}

// A rejection of a whole section; at the top level (`where` empty) the
// message follows the "scenario spec: " prefix directly.
Status SectionBad(const std::string& where, const std::string& what) {
  return where.empty() ? InvalidArgument("scenario spec: " + what)
                       : Bad(where, what);
}

// What a row's decoder sees besides its own value: the section's path (""
// at the top level) and the spec decoded so far (rows decode in table
// order, so tenants and bus_domains are in place before any section that
// refers to them).
struct Ctx {
  const std::string& where;
  std::string_view key;
  const ScenarioSpec& root;

  // The key's path for error messages, built only when one rejects.
  std::string at() const {
    return where.empty() ? std::string(key) : where + "." + std::string(key);
  }
};

// Strict integer extraction: a JSON number that is non-negative, integral
// and within `max`. Anything else rejects.
Result<uint64_t> U64(const Value& v, const Ctx& ctx, uint64_t max) {
  if (!v.is_number()) {
    return Bad(ctx.at(), "expected an integer");
  }
  const double d = v.AsNumber();
  if (d < 0.0 || d != std::floor(d)) {
    return Bad(ctx.at(), "expected a non-negative integer");
  }
  if (d > static_cast<double>(max)) {
    return Bad(ctx.at(), "value out of range");
  }
  return static_cast<uint64_t>(d);
}

Result<std::string> AsString(const Value& v, const Ctx& ctx) {
  if (!v.is_string()) {
    return Bad(ctx.at(), "expected a string");
  }
  return v.AsString();
}

const TenantSpec* FindTenant(const ScenarioSpec& root, std::string_view name) {
  for (const TenantSpec& t : root.tenants) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

// Whether canonical text carries a row's key always or only when its value
// is set (nonzero, true, non-empty). Rows with a presence flag (below) are
// carried only when the flag is set.
enum class Emit : uint8_t { kAlways, kWhenSet };

// One key of one section. The section's table of rows, in order, is the
// whole codec for that section: the walker below rejects keys that have no
// row and keys given twice, then decodes the rows in table order; the
// emitter writes them in the same order. Every key of the schema is named
// in exactly one row.
template <typename T>
struct Row {
  std::string_view key;
  // Decodes the key's value into `out`; `v` is nullptr when the key is
  // absent (the member keeps its default unless the row says otherwise).
  Status (*decode)(const Row& row, const Value* v, const Ctx& ctx, T& out);
  // Appends the key's value to `out`; false omits the key (special rows
  // decide for themselves; generic ones follow `emit`).
  bool (*encode)(const Row& row, const T& in, std::string& out);
  // Required key: the section-level rejection when it is absent.
  const char* missing = nullptr;
  // Number rows: inclusive upper bound, and the rejection for zero.
  uint64_t max = 0;
  const char* zero = nullptr;
  bool zero_at_key = false;  // reported at the key instead of the section
  Emit emit = Emit::kAlways;
  // Set as soon as the walker finds the key, before any row decodes; the
  // key is emitted only when it is set.
  bool T::*present = nullptr;

  constexpr Row Required(const char* why) const {
    Row r = *this;
    r.missing = why;
    return r;
  }
  constexpr Row Positive(const char* why, bool at_key = false) const {
    Row r = *this;
    r.zero = why;
    r.zero_at_key = at_key;
    return r;
  }
  constexpr Row WhenSet() const {
    Row r = *this;
    r.emit = Emit::kWhenSet;
    return r;
  }
  constexpr Row WhenPresent(bool T::*flag) const {
    Row r = *this;
    r.present = flag;
    return r;
  }
};

// Decodes one section object: one pass over its members resolves each to
// its row (rejecting unknown and duplicate keys, setting presence flags),
// then required keys are checked and every row decodes in table order.
template <typename T, size_t N>
Status Walk(const Row<T> (&rows)[N], const Value& object,
            const std::string& where, const ScenarioSpec& root, T& out) {
  if (!object.is_object()) {
    return Bad(where, "expected an object");
  }
  const Value* found[N] = {};
  for (const auto& [key, value] : object.AsObject()) {
    size_t i = 0;
    while (i < N && rows[i].key != key) {
      ++i;
    }
    if (i == N || found[i] != nullptr) {
      return Bad(where.empty() ? "top level" : where,
                 (i == N ? "unknown key \"" : "duplicate key \"") + key +
                     "\"");
    }
    found[i] = &value;
    if (rows[i].present != nullptr) {
      out.*rows[i].present = true;
    }
  }
  for (size_t i = 0; i < N; ++i) {
    if (found[i] == nullptr && rows[i].missing != nullptr) {
      return SectionBad(where, rows[i].missing);
    }
  }
  for (size_t i = 0; i < N; ++i) {
    const Row<T>& row = rows[i];
    const Ctx ctx{where, row.key, root};
    if (Status s = row.decode(row, found[i], ctx, out); !s.ok()) {
      return s;
    }
  }
  return OkStatus();
}

// Canonical text of one section object: its rows in table order.
template <typename T, size_t N>
void EmitObject(const Row<T> (&rows)[N], const T& in, std::string& out) {
  out += '{';
  const char* separator = "";
  for (const Row<T>& row : rows) {
    if (row.present != nullptr && !(in.*row.present)) {
      continue;
    }
    const size_t mark = out.size();
    out += separator;
    out += '"';
    out += row.key;
    out += "\":";
    if (row.encode(row, in, out)) {
      separator = ",";
    } else {
      out.resize(mark);
    }
  }
  out += '}';
}

template <typename T, size_t N>
void EmitList(const Row<T> (&rows)[N], const std::vector<T>& items,
              std::string& out) {
  out += '[';
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    EmitObject(rows, items[i], out);
  }
  out += ']';
}

// --- Generic rows, by member pointer.

template <typename M>
struct MemberOf;
template <typename C, typename F>
struct MemberOf<F C::*> {
  using Class = C;
  using Field = F;
};
template <auto M>
using ClassOf = typename MemberOf<decltype(M)>::Class;
template <auto M>
using FieldOf = typename MemberOf<decltype(M)>::Field;
template <auto M>
using DecoderOf = Status (*)(const Row<ClassOf<M>>&, const Value*,
                             const Ctx&, ClassOf<M>&);

// The canonical text of a bool, unsigned, string or string-array member.
template <auto M>
bool EncodeMember(const Row<ClassOf<M>>& row, const ClassOf<M>& in,
                  std::string& out) {
  using F = FieldOf<M>;
  const F& value = in.*M;
  bool set;
  if constexpr (std::is_arithmetic_v<F>) {
    set = value != F{};
  } else {
    set = !value.empty();
  }
  if (row.emit == Emit::kWhenSet && !set) {
    return false;
  }
  if constexpr (std::is_same_v<F, bool>) {
    out += value ? "true" : "false";
  } else if constexpr (std::is_arithmetic_v<F>) {
    out += std::to_string(value);
  } else if constexpr (std::is_same_v<F, std::string>) {
    out += obs::json::Quote(value);
  } else {
    out += '[';
    for (size_t i = 0; i < value.size(); ++i) {
      if (i > 0) {
        out += ',';
      }
      out += obs::json::Quote(value[i]);
    }
    out += ']';
  }
  return true;
}

// A member with its own decoder (sites, references, abuse kinds).
template <auto M>
constexpr Row<ClassOf<M>> Custom(std::string_view key, DecoderOf<M> decode) {
  return {.key = key, .decode = decode, .encode = EncodeMember<M>};
}

template <auto M>
Status DecodeNumber(const Row<ClassOf<M>>& row, const Value* v,
                    const Ctx& ctx, ClassOf<M>& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  auto n = U64(*v, ctx, row.max);
  if (!n.ok()) return n.status();
  if (n.value() == 0 && row.zero != nullptr) {
    return row.zero_at_key ? Bad(ctx.at(), row.zero)
                           : SectionBad(ctx.where, row.zero);
  }
  out.*M = static_cast<FieldOf<M>>(n.value());
  return OkStatus();
}

// A non-negative integer member of at most `max`.
template <auto M>
constexpr Row<ClassOf<M>> Number(std::string_view key, uint64_t max) {
  static_assert(std::is_unsigned_v<FieldOf<M>>);
  Row<ClassOf<M>> row = Custom<M>(key, DecodeNumber<M>);
  row.max = max;
  return row;
}

template <auto M>
Status DecodeFlag(const Row<ClassOf<M>>&, const Value* v, const Ctx& ctx,
                  ClassOf<M>& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  if (!v->is_bool()) {
    return Bad(ctx.at(), "expected true or false");
  }
  out.*M = v->AsBool();
  return OkStatus();
}

template <auto M>
constexpr Row<ClassOf<M>> Flag(std::string_view key) {
  return Custom<M>(key, DecodeFlag<M>);
}

template <auto M>
Status DecodeName(const Row<ClassOf<M>>&, const Value* v, const Ctx& ctx,
                  ClassOf<M>& out) {
  auto name = AsString(*v, ctx);  // present: the row is Required
  if (!name.ok()) return name.status();
  if (name.value().empty()) {
    return SectionBad(ctx.where, "name must be non-empty");
  }
  out.*M = std::move(name).value();
  return OkStatus();
}

// A non-empty name (the spec's, a tenant's).
template <auto M>
constexpr Row<ClassOf<M>> Name(std::string_view key) {
  return Custom<M>(key, DecodeName<M>);
}

template <auto M>
Status DecodeTenantNames(const Row<ClassOf<M>>&, const Value* v,
                         const Ctx& ctx, ClassOf<M>& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  if (!v->is_array()) {
    return Bad(ctx.at(), "expected an array of tenant names");
  }
  for (const Value& item : v->AsArray()) {
    auto name = AsString(item, ctx);
    if (!name.ok()) return name.status();
    if (FindTenant(ctx.root, name.value()) == nullptr) {
      return Bad(ctx.at(), "\"" + name.value() + "\" is not a declared tenant");
    }
    (out.*M).push_back(std::move(name).value());
  }
  return OkStatus();
}

// An array of declared tenant names.
template <auto M>
constexpr Row<ClassOf<M>> Names(std::string_view key) {
  return Custom<M>(key, DecodeTenantNames<M>);
}

template <auto M, const auto& Rows>
Status DecodeObject(const Row<ClassOf<M>>&, const Value* v, const Ctx& ctx,
                    ClassOf<M>& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  return Walk(Rows, *v, ctx.at(), ctx.root, out.*M);
}

template <auto M, const auto& Rows>
bool EncodeObject(const Row<ClassOf<M>>&, const ClassOf<M>& in,
                  std::string& out) {
  EmitObject(Rows, in.*M, out);
  return true;
}

// A nested section decoded and emitted by its own table.
template <auto M, const auto& Rows>
constexpr Row<ClassOf<M>> Object(std::string_view key) {
  return {.key = key,
          .decode = DecodeObject<M, Rows>,
          .encode = EncodeObject<M, Rows>};
}

// --- Section tables, leaves first.

constexpr Row<SupervisorSpec> kSupervisorRows[] = {
    Number<&SupervisorSpec::watchdog_timeout_steps>("watchdog_timeout_steps",
                                                    1000000),
    Number<&SupervisorSpec::backoff_base_steps>("backoff_base_steps", 1000000),
    Number<&SupervisorSpec::backoff_max_steps>("backoff_max_steps", 1000000),
    Number<&SupervisorSpec::backoff_jitter_pct>("backoff_jitter_pct", 100),
    Number<&SupervisorSpec::quarantine_after>("quarantine_after", 1000000),
    Number<&SupervisorSpec::stable_steps>("stable_steps", 1000000),
    Number<&SupervisorSpec::max_concurrent_restarts>("max_concurrent_restarts",
                                                     1000000),
    Flag<&SupervisorSpec::verify_attestation>("verify_attestation"),
};

constexpr const char* kSlotsPositive =
    "ring_slots and cq_slots must be positive";
constexpr Row<VfSpec> kVfRows[] = {
    Number<&VfSpec::ring_slots>("ring_slots", 1u << 30).Positive(kSlotsPositive),
    Number<&VfSpec::cq_slots>("cq_slots", 1u << 30).Positive(kSlotsPositive),
    Number<&VfSpec::posted_bytes_limit>("posted_bytes_limit", 1u << 30),
    Number<&VfSpec::abuse_threshold>("abuse_threshold", 1u << 30),
};

constexpr Row<OverloadPolicySpec> kPolicyRows[] = {
    Number<&OverloadPolicySpec::rx_queue_capacity_frames>(
        "rx_queue_capacity_frames", 1u << 30),
    Number<&OverloadPolicySpec::tx_queue_capacity_frames>(
        "tx_queue_capacity_frames", 1u << 30),
    Flag<&OverloadPolicySpec::priority_early_drop>("priority_early_drop"),
    Number<&OverloadPolicySpec::admission_burst_frames>(
        "admission_burst_frames", 1u << 30),
    Number<&OverloadPolicySpec::admission_frames_per_refill>(
        "admission_frames_per_refill", 1u << 30),
    Number<&OverloadPolicySpec::admission_refill_cycles>(
        "admission_refill_cycles", 1u << 30),
    Number<&OverloadPolicySpec::deadline_cycles>("deadline_cycles", 1u << 30),
};

Status DecodeRole(const Row<TenantSpec>&, const Value* v, const Ctx& ctx,
                  TenantSpec& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  auto name = AsString(*v, ctx);
  if (!name.ok()) return name.status();
  for (TenantRole role : {TenantRole::kWorkload, TenantRole::kBystander,
                          TenantRole::kAttacker}) {
    if (TenantRoleName(role) == name.value()) {
      out.role = role;
      return OkStatus();
    }
  }
  return Bad(ctx.at(), "unknown role \"" + name.value() + "\"");
}

bool EncodeRole(const Row<TenantSpec>&, const TenantSpec& in,
                std::string& out) {
  out += obs::json::Quote(TenantRoleName(in.role));
  return true;
}

// -1 (absent) keeps the tenant off the bus.
Status DecodeBusDomain(const Row<TenantSpec>&, const Value* v, const Ctx& ctx,
                       TenantSpec& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  auto n = U64(*v, ctx, 255);
  if (!n.ok()) return n.status();
  if (n.value() >= ctx.root.bus_domains) {
    return Bad(ctx.at(), "domain exceeds declared bus_domains (" +
                             std::to_string(ctx.root.bus_domains) + ")");
  }
  out.bus_domain = static_cast<int32_t>(n.value());
  return OkStatus();
}

bool EncodeBusDomain(const Row<TenantSpec>&, const TenantSpec& in,
                     std::string& out) {
  if (in.bus_domain < 0) {
    return false;
  }
  out += std::to_string(in.bus_domain);
  return true;
}

constexpr const char* kNameAndPort = "name and port are required";
constexpr Row<TenantSpec> kTenantRows[] = {
    Name<&TenantSpec::name>("name")
        .Required(kNameAndPort),
    Number<&TenantSpec::port>("port", 65535)
        .Required(kNameAndPort)
        .Positive("port must be in [1, 65535]"),
    {.key = "role", .decode = DecodeRole, .encode = EncodeRole},
    Number<&TenantSpec::zip_clusters>("zip_clusters", 8),
    {.key = "bus_domain", .decode = DecodeBusDomain, .encode = EncodeBusDomain},
    Number<&TenantSpec::frames_per_step>("frames_per_step", 1024),
    Flag<&TenantSpec::dma>("dma").WhenSet(),
    Object<&TenantSpec::vf, kVfRows>("vf").WhenPresent(&TenantSpec::has_vf),
    Object<&TenantSpec::policy, kPolicyRows>("policy").WhenPresent(
        &TenantSpec::has_policy),
};

Status DecodeSite(const Row<FaultRuleSpec>&, const Value* v, const Ctx& ctx,
                  FaultRuleSpec& out) {
  auto site = AsString(*v, ctx);  // present: the row is Required
  if (!site.ok()) return site.status();
  for (std::string_view known : KnownFaultSites()) {
    if (known == site.value()) {
      out.site = std::move(site).value();
      return OkStatus();
    }
  }
  return Bad(ctx.at(),
             "\"" + site.value() + "\" is not a registered fault site");
}

// A tenant name or "any" (kept empty); exclusive with raw_id.
Status DecodeFaultNf(const Row<FaultRuleSpec>&, const Value* v,
                     const Ctx& ctx, FaultRuleSpec& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  if (out.has_raw_id) {
    return Bad(ctx.where, "nf and raw_id are mutually exclusive");
  }
  auto nf = AsString(*v, ctx);
  if (!nf.ok()) return nf.status();
  if (nf.value() == "any") {
    return OkStatus();
  }
  if (FindTenant(ctx.root, nf.value()) == nullptr) {
    return Bad(ctx.at(), "\"" + nf.value() + "\" is not a declared tenant");
  }
  out.nf = std::move(nf).value();
  return OkStatus();
}

// A positive integer, or "forever".
Status DecodeCount(const Row<FaultRuleSpec>&, const Value* v, const Ctx& ctx,
                   FaultRuleSpec& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  if (v->is_string()) {
    if (v->AsString() != "forever") {
      return Bad(ctx.at(), "expected an integer or \"forever\"");
    }
    out.count = fault::FaultRule::kForever;
    return OkStatus();
  }
  auto n = U64(*v, ctx, 1u << 30);
  if (!n.ok()) return n.status();
  if (n.value() == 0) {
    return Bad(ctx.at(), "count must be positive");
  }
  out.count = n.value();
  return OkStatus();
}

bool EncodeCount(const Row<FaultRuleSpec>&, const FaultRuleSpec& in,
                 std::string& out) {
  out += in.count == fault::FaultRule::kForever ? "\"forever\""
                                                : std::to_string(in.count);
  return true;
}

constexpr Row<FaultRuleSpec> kFaultRows[] = {
    Custom<&FaultRuleSpec::site>("site", DecodeSite).Required("site is required"),
    Custom<&FaultRuleSpec::nf>("nf", DecodeFaultNf).WhenSet(),
    Number<&FaultRuleSpec::raw_id>("raw_id", ~uint64_t{0} >> 1)
        .WhenPresent(&FaultRuleSpec::has_raw_id),
    Number<&FaultRuleSpec::skip>("skip", 1u << 30),
    {.key = "count", .decode = DecodeCount, .encode = EncodeCount},
    Number<&FaultRuleSpec::period>("period", 1u << 30),
    Number<&FaultRuleSpec::stall_cycles>("stall_cycles", 1u << 30).WhenSet(),
    Number<&FaultRuleSpec::on_attempt>("on_attempt", 1u << 20).WhenSet(),
};

Status DecodeOverloadTarget(const Row<OverloadSpec>&, const Value* v,
                            const Ctx& ctx, OverloadSpec& out) {
  auto target = AsString(*v, ctx);  // present: the row is Required
  if (!target.ok()) return target.status();
  if (FindTenant(ctx.root, target.value()) == nullptr) {
    return Bad(ctx.at(),
               "\"" + target.value() + "\" is not a declared tenant");
  }
  out.target = std::move(target).value();
  return OkStatus();
}

// A workload-role tenant other than the target.
Status DecodeDownstream(const Row<OverloadSpec>&, const Value* v,
                        const Ctx& ctx, OverloadSpec& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  auto name = AsString(*v, ctx);
  if (!name.ok()) return name.status();
  const TenantSpec* tenant = FindTenant(ctx.root, name.value());
  if (tenant == nullptr) {
    return Bad(ctx.at(), "\"" + name.value() + "\" is not a declared tenant");
  }
  if (name.value() == out.target) {
    return Bad(ctx.at(), "must differ from the target");
  }
  if (tenant->role != TenantRole::kWorkload) {
    return Bad(ctx.at(),
               "\"" + name.value() + "\" is not a workload-role tenant");
  }
  out.downstream = std::move(name).value();
  return OkStatus();
}

constexpr Row<OverloadSpec> kOverloadRows[] = {
    Custom<&OverloadSpec::target>("target", DecodeOverloadTarget)
        .Required("target is required"),
    Number<&OverloadSpec::load_pct>("load_pct", 100000),
    Number<&OverloadSpec::baseline_pct>("baseline_pct", 100000),
    Number<&OverloadSpec::service_per_step>("service_per_step", 100000)
        .Positive("must be positive", /*at_key=*/true),
    Custom<&OverloadSpec::downstream>("downstream", DecodeDownstream).WhenSet(),
};

Status DecodeAttackTarget(const Row<AttackSpec>&, const Value* v,
                          const Ctx& ctx, AttackSpec& out) {
  auto target = AsString(*v, ctx);  // present: the row is Required
  if (!target.ok()) return target.status();
  const TenantSpec* tenant = FindTenant(ctx.root, target.value());
  if (tenant == nullptr || tenant->role != TenantRole::kAttacker) {
    return Bad(ctx.at(),
               "\"" + target.value() + "\" is not an attacker-role tenant");
  }
  out.target = std::move(target).value();
  return OkStatus();
}

constexpr Row<AttackSpec> kAttackRows[] = {
    Custom<&AttackSpec::target>("target", DecodeAttackTarget)
        .Required("target is required"),
    Number<&AttackSpec::flood_rings>("flood_rings", 4096),
    Flag<&AttackSpec::squat>("squat"),
};

Status DecodeAbuseKinds(const Row<VerdictSpec>&, const Value* v,
                        const Ctx& ctx, VerdictSpec& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  if (!v->is_array()) {
    return Bad(ctx.at(), "expected an array");
  }
  for (const Value& item : v->AsArray()) {
    auto kind = AsString(item, ctx);
    if (!kind.ok()) return kind.status();
    if (!AbuseKindFromName(kind.value()).has_value()) {
      return Bad(ctx.at(), "unknown abuse kind \"" + kind.value() + "\"");
    }
    out.detect_abuse.push_back(std::move(kind).value());
  }
  return OkStatus();
}

constexpr Row<VerdictSpec> kVerdictRows[] = {
    Flag<&VerdictSpec::bystander_identical>("bystander_identical"),
    Names<&VerdictSpec::containment>("containment").WhenSet(),
    Names<&VerdictSpec::must_recover>("must_recover").WhenSet(),
    Number<&VerdictSpec::recovery_deadline_steps>("recovery_deadline_steps",
                                                  1u << 30)
        .WhenSet(),
    Number<&VerdictSpec::goodput_floor_pct>("goodput_floor_pct", 1000)
        .WhenSet(),
    Flag<&VerdictSpec::queue_bound>("queue_bound"),
    Custom<&VerdictSpec::detect_abuse>("detect_abuse", DecodeAbuseKinds)
        .WhenSet(),
};

// A non-empty array of tenants with unique names and ports.
Status DecodeTenants(const Row<ScenarioSpec>&, const Value* v, const Ctx& ctx,
                     ScenarioSpec& out) {
  if (v == nullptr || !v->is_array() || v->AsArray().empty()) {
    return SectionBad(ctx.where, "tenants must be a non-empty array");
  }
  for (size_t i = 0; i < v->AsArray().size(); ++i) {
    const std::string where = "tenants[" + std::to_string(i) + "]";
    TenantSpec tenant;
    if (Status s = Walk(kTenantRows, v->AsArray()[i], where, ctx.root, tenant);
        !s.ok()) {
      return s;
    }
    if (tenant.role == TenantRole::kAttacker && !tenant.has_vf) {
      return Bad(where, "attacker-role tenants require a vf");
    }
    if (FindTenant(out, tenant.name) != nullptr) {
      return SectionBad(ctx.where,
                        "duplicate tenant name \"" + tenant.name + "\"");
    }
    for (const TenantSpec& earlier : out.tenants) {
      if (earlier.port == tenant.port) {
        return SectionBad(ctx.where, "duplicate tenant port " +
                                         std::to_string(tenant.port));
      }
    }
    out.tenants.push_back(std::move(tenant));
  }
  return OkStatus();
}

bool EncodeTenants(const Row<ScenarioSpec>&, const ScenarioSpec& in,
                   std::string& out) {
  EmitList(kTenantRows, in.tenants, out);
  return true;
}

Status DecodeFaults(const Row<ScenarioSpec>&, const Value* v, const Ctx& ctx,
                    ScenarioSpec& out) {
  if (v == nullptr) {
    return OkStatus();
  }
  if (!v->is_array()) {
    return SectionBad(ctx.where, "faults must be an array");
  }
  for (size_t i = 0; i < v->AsArray().size(); ++i) {
    FaultRuleSpec rule;
    if (Status s = Walk(kFaultRows, v->AsArray()[i],
                        "faults[" + std::to_string(i) + "]", ctx.root, rule);
        !s.ok()) {
      return s;
    }
    out.faults.push_back(std::move(rule));
  }
  return OkStatus();
}

bool EncodeFaults(const Row<ScenarioSpec>&, const ScenarioSpec& in,
                  std::string& out) {
  if (in.faults.empty()) {
    return false;
  }
  EmitList(kFaultRows, in.faults, out);
  return true;
}

constexpr Row<ScenarioSpec> kSpecRows[] = {
    Name<&ScenarioSpec::name>("name")
        .Required("name is required"),
    Number<&ScenarioSpec::steps>("steps", 10000000)
        .Positive("steps must be positive"),
    Number<&ScenarioSpec::cycles_per_step>("cycles_per_step", 1000000)
        .Positive("cycles_per_step must be positive"),
    Number<&ScenarioSpec::bus_domains>("bus_domains", 64),
    Object<&ScenarioSpec::supervisor, kSupervisorRows>("supervisor"),
    {.key = "tenants", .decode = DecodeTenants, .encode = EncodeTenants},
    {.key = "faults", .decode = DecodeFaults, .encode = EncodeFaults},
    Object<&ScenarioSpec::overload, kOverloadRows>("overload").WhenPresent(
        &ScenarioSpec::has_overload),
    Object<&ScenarioSpec::attack, kAttackRows>("attack").WhenPresent(
        &ScenarioSpec::has_attack),
    Object<&ScenarioSpec::verdicts, kVerdictRows>("verdicts"),
};

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
  ScenarioSpec spec;
  if (Status s = Walk(kSpecRows, root, std::string(), spec, spec); !s.ok()) {
    return s;
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
  std::string out;
  EmitObject(kSpecRows, spec, out);
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
