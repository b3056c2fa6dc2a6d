#include "src/core/snic_device.h"

#include <algorithm>

#include "src/core/vnic/pf_vf.h"
#include "src/fault/fault.h"
#include "src/net/parser.h"

namespace snic::core {
namespace {

constexpr size_t kCoreTlbEntries = 512;  // per programmable core (Table 2)
constexpr uint64_t kBootSeed = 0x51c0b007ULL;  // boot-time entropy stream

}  // namespace

std::vector<accel::ClusterConfig> SnicConfig::DefaultAccelClusters() {
  std::vector<accel::ClusterConfig> configs;
  for (auto type : {accel::AcceleratorType::kDpi, accel::AcceleratorType::kZip,
                    accel::AcceleratorType::kRaid}) {
    accel::ClusterConfig c;
    c.type = type;
    c.total_threads = 64;
    c.threads_per_cluster = 4;  // 16 clusters (Table 3 first row)
    c.tlb_entries_per_cluster = 70;
    configs.push_back(c);
  }
  return configs;
}

SnicDevice::SnicDevice(const SnicConfig& config,
                       const crypto::VendorAuthority& vendor)
    : config_(config),
      memory_(config.dram_bytes, config.page_bytes),
      mgmt_denylist_(memory_.num_pages()),
      accel_pool_(config.accel_clusters),
      rng_(kBootSeed),
      root_of_trust_(vendor, config.rsa_modulus_bits, rng_) {
  SNIC_CHECK(config_.num_cores >= 2);  // NIC-OS core + at least one NF core
  SNIC_CHECK(config_.num_cores <= 64);
  obs::MetricRegistry& registry = obs::DefaultRegistry();
  obs_launches_ = &registry.GetCounter("snic.nf.launches");
  obs_launch_failures_ = &registry.GetCounter("snic.nf.launch_failures");
  obs_teardowns_ = &registry.GetCounter("snic.nf.teardowns");
  obs_attests_ = &registry.GetCounter("snic.nf.attests");
  obs_denylist_rejections_ = &registry.GetCounter("snic.denylist.rejections");
  obs_unmatched_drops_ = &registry.GetCounter("snic.rx.unmatched_drops");
  obs_live_nfs_ = &registry.GetGauge("snic.nf.live");
}

Result<const SnicDevice::NfRecord*> SnicDevice::FindNf(uint64_t nf_id) const {
  const auto it = nfs_.find(nf_id);
  if (it == nfs_.end()) {
    return Status(ErrorCode::kNotFound, "unknown nf id");
  }
  return it->second.get();
}

Result<SnicDevice::NfRecord*> SnicDevice::FindNf(uint64_t nf_id) {
  const auto it = nfs_.find(nf_id);
  if (it == nfs_.end()) {
    return Status(ErrorCode::kNotFound, "unknown nf id");
  }
  return it->second.get();
}

Status SnicDevice::CheckLaunchArgs(const NfLaunchArgs& args) const {
  if (args.core_mask == 0) {
    return InvalidArgument("core_mask must name at least one core");
  }
  if (args.core_mask & 1) {
    return InvalidArgument("core 0 is the dedicated NIC-OS core");
  }
  if (config_.num_cores < 64 && (args.core_mask >> config_.num_cores) != 0) {
    return InvalidArgument("core_mask names nonexistent cores");
  }
  if (args.core_mask & core_allocation_mask_) {
    return AlreadyOwned("requested cores bound to a live function");
  }
  if (args.image_pages.empty()) {
    return InvalidArgument("function image is empty");
  }
  for (uint64_t page : args.image_pages) {
    if (page >= memory_.num_pages()) {
      return InvalidArgument("image page out of range");
    }
    const uint64_t owner = memory_.OwnerOf(page);
    if (owner != kPageNicOs && owner != kPageFree) {
      return AlreadyOwned("image page belongs to a live function");
    }
  }
  return OkStatus();
}

Result<uint64_t> SnicDevice::NfLaunch(const NfLaunchArgs& args) {
  if (config_.mode != SecurityMode::kSnic) {
    return FailedPrecondition("nf_launch requires S-NIC mode");
  }
  if (SNIC_FAULT_FIRES(fault::sites::kNfLaunch, next_nf_id_)) {
    obs_launch_failures_->Inc();
    return ResourceExhausted("injected transient launch failure");
  }
  if (Status check = CheckLaunchArgs(args); !check.ok()) {
    obs_launch_failures_->Inc();
    return check;
  }
  // Reserve accelerator clusters first (atomic failure path: nothing else
  // has been mutated yet; ReleaseAll undoes a partial grab below).
  const uint64_t nf_id = next_nf_id_;
  std::array<std::vector<uint32_t>, accel::kNumAcceleratorTypes> clusters;
  for (size_t t = 0; t < accel::kNumAcceleratorTypes; ++t) {
    if (args.accel_clusters[t] == 0) {
      continue;
    }
    auto allocated = accel_pool_.Allocate(static_cast<accel::AcceleratorType>(t),
                                          args.accel_clusters[t], nf_id);
    if (!allocated.ok()) {
      accel_pool_.ReleaseAll(nf_id);
      obs_launch_failures_->Inc();
      return allocated.status();
    }
    clusters[t] = std::move(allocated.value());
  }

  // Heap pages.
  std::vector<uint64_t> pages = args.image_pages;
  if (args.heap_pages > 0) {
    auto heap = memory_.AllocatePages(args.heap_pages, nf_id);
    if (!heap.ok()) {
      accel_pool_.ReleaseAll(nf_id);
      obs_launch_failures_->Inc();
      return heap.status();
    }
    pages.insert(pages.end(), heap.value().begin(), heap.value().end());
  }

  // Commit: build the record.
  ++next_nf_id_;
  auto record = std::make_unique<NfRecord>(nf_id, kCoreTlbEntries);
  obs::Labels tlb_labels;
  tlb_labels.emplace_back("nf_id", std::to_string(nf_id));
  record->tlb.AttachObs(&obs::DefaultRegistry(), tlb_labels);
  record->core_mask = args.core_mask;
  record->pages = pages;
  record->clusters = clusters;
  core_allocation_mask_ |= args.core_mask;

  coproc_.AccountTlbSetup();
  launch_latency_ = LaunchLatency{};
  launch_latency_.tlb_setup_ms = coproc_.rates().tlb_setup_ms;

  // Bind pages: ownership, denylist, and the function's locked TLB (virtual
  // address space starts at 0; one entry per physical page).
  crypto::Sha256 measurement;
  // Image pages are hashed where they lie; a page the NIC OS never wrote
  // reads as zeros, and only then is a zero page materialized to hash.
  std::vector<uint8_t> zero_page;
  const double sha_before = coproc_.elapsed_ms();
  for (size_t i = 0; i < record->pages.size(); ++i) {
    const uint64_t page = record->pages[i];
    memory_.SetOwner(page, nf_id);
    mgmt_denylist_.Deny(page);
    sim::TlbEntry entry;
    entry.virt_base = static_cast<uint64_t>(i) * memory_.page_bytes();
    entry.phys_base = page * memory_.page_bytes();
    entry.page_bytes = memory_.page_bytes();
    entry.writable = true;
    SNIC_CHECK_OK(record->tlb.Install(entry));
    // The measurement covers the *initial image* pages (heap pages are
    // zero-filled and excluded, like SGX's unmeasured heap).
    if (i < args.image_pages.size()) {
      std::span<const uint8_t> bytes = memory_.PageView(page);
      if (bytes.empty()) {
        zero_page.resize(memory_.page_bytes(), 0);
        bytes = zero_page;
      }
      coproc_.DigestUpdate(measurement, bytes);
    }
  }
  record->tlb.Lock();
  coproc_.AccountDenylistUpdate();
  launch_latency_.denylist_ms = coproc_.rates().denylist_ms;

  // Configure the TLB banks of every allocated accelerator cluster with the
  // same virtual->physical mapping the cores received, then lock them
  // (§4.3: "hardware threads can only access the physical memory that
  // belongs to the new function").
  for (size_t t = 0; t < accel::kNumAcceleratorTypes; ++t) {
    for (uint32_t cluster : clusters[t]) {
      sim::LockedTlb& bank =
          accel_pool_.ClusterTlb(static_cast<accel::AcceleratorType>(t),
                                 cluster);
      for (size_t i = 0; i < record->pages.size(); ++i) {
        if (bank.entry_count() >= bank.max_entries()) {
          break;  // bank reach is bounded by its Table 3 capacity
        }
        sim::TlbEntry entry;
        entry.virt_base = static_cast<uint64_t>(i) * memory_.page_bytes();
        entry.phys_base = record->pages[i] * memory_.page_bytes();
        entry.page_bytes = memory_.page_bytes();
        entry.writable = true;
        SNIC_CHECK_OK(bank.Install(entry));
      }
      bank.Lock();
    }
  }

  // Fold in the configuration blob (switch rules, resource requests).
  coproc_.DigestUpdate(measurement,
                       std::span<const uint8_t>(args.config_blob.data(),
                                                args.config_blob.size()));
  record->measurement = measurement.Finalize();
  launch_latency_.sha_digest_ms = coproc_.elapsed_ms() - sha_before;

  // Install the VPP; its switch rules become live immediately. It joins
  // the device clock mid-flight.
  record->vpp = std::make_unique<VirtualPacketPipeline>(nf_id, args.vpp);
  record->vpp->AdvanceClockTo(now_);

  nfs_[nf_id] = std::move(record);
  obs_launches_->Inc();
  obs_live_nfs_->Set(static_cast<double>(nfs_.size()));
  return nf_id;
}

Status SnicDevice::NfTeardown(uint64_t nf_id) {
  if (config_.mode != SecurityMode::kSnic) {
    return FailedPrecondition("nf_teardown requires S-NIC mode");
  }
  auto found = FindNf(nf_id);
  if (!found.ok()) {
    return found.status();
  }
  NfRecord* record = found.value();

  teardown_latency_ = TeardownLatency{};
  const double scrub_before = coproc_.elapsed_ms();
  // Zero every physical page, then return it to the free pool and remove it
  // from the denylist.
  for (uint64_t page : record->pages) {
    memory_.ZeroPage(page);
    coproc_.AccountScrub(memory_.page_bytes());
    memory_.SetOwner(page, kPageFree);
    mgmt_denylist_.Allow(page);
  }
  teardown_latency_.scrub_ms = coproc_.elapsed_ms() - scrub_before;
  coproc_.AccountAllowlistUpdate();
  teardown_latency_.allowlist_ms = coproc_.rates().allowlist_ms;

  core_allocation_mask_ &= ~record->core_mask;
  accel_pool_.ReleaseAll(nf_id);
  // nf ids never repeat, so the function's per-NF series would only pile
  // up: release them, and a device that churns through tenants keeps its
  // registry bounded.
  record->tlb.DetachObs();
  record->vpp->ReleaseObs();
  nfs_.erase(nf_id);
  obs_teardowns_->Inc();
  obs_live_nfs_->Set(static_cast<double>(nfs_.size()));
  return OkStatus();
}

Result<AttestationQuote> SnicDevice::NfAttest(uint64_t nf_id,
                                              const AttestationRequest& request) {
  if (config_.mode != SecurityMode::kSnic) {
    return FailedPrecondition("nf_attest requires S-NIC mode");
  }
  auto found = FindNf(nf_id);
  if (!found.ok()) {
    return found.status();
  }
  const NfRecord* record = found.value();

  AttestationQuote quote;
  quote.measurement = record->measurement;
  quote.group = request.group;
  quote.nonce = request.nonce;
  quote.g_x = request.g_x;
  const std::vector<uint8_t> payload =
      QuotePayload(quote.measurement, quote.group, quote.nonce, quote.g_x);
  coproc_.AccountRsaSign();
  quote.signature = root_of_trust_.SignWithAk(
      std::span<const uint8_t>(payload.data(), payload.size()));
  obs_attests_->Inc();
  quote.ak_public = root_of_trust_.ak_public();
  quote.ak_endorsement = root_of_trust_.ak_endorsement();
  quote.ek_certificate = root_of_trust_.ek_certificate();
  return quote;
}

Status SnicDevice::NfReadBlock(uint64_t nf_id, uint64_t vaddr,
                               std::span<uint8_t> out) const {
  auto found = FindNf(nf_id);
  if (!found.ok()) {
    return found.status();
  }
  const NfRecord* record = found.value();
  // Translate page-by-page: a block may span entries.
  size_t done = 0;
  while (done < out.size()) {
    const auto translation = record->tlb.Translate(vaddr + done);
    if (!translation.has_value()) {
      return PermissionDenied("TLB miss: address not mapped for this NF");
    }
    const uint64_t page_off = (vaddr + done) % memory_.page_bytes();
    const size_t chunk = static_cast<size_t>(std::min<uint64_t>(
        out.size() - done, memory_.page_bytes() - page_off));
    memory_.Read(translation->phys_addr, out.subspan(done, chunk));
    done += chunk;
  }
  return OkStatus();
}

Status SnicDevice::NfWriteBlock(uint64_t nf_id, uint64_t vaddr,
                                std::span<const uint8_t> data) {
  auto found = FindNf(nf_id);
  if (!found.ok()) {
    return found.status();
  }
  const NfRecord* record = found.value();
  size_t done = 0;
  while (done < data.size()) {
    const auto translation = record->tlb.Translate(vaddr + done);
    if (!translation.has_value()) {
      return PermissionDenied("TLB miss: address not mapped for this NF");
    }
    if (!translation->writable) {
      return PermissionDenied("write to read-only mapping");
    }
    const uint64_t page_off = (vaddr + done) % memory_.page_bytes();
    const size_t chunk = static_cast<size_t>(std::min<uint64_t>(
        data.size() - done, memory_.page_bytes() - page_off));
    memory_.Write(translation->phys_addr, data.subspan(done, chunk));
    done += chunk;
  }
  return OkStatus();
}

Result<uint8_t> SnicDevice::NfRead(uint64_t nf_id, uint64_t vaddr) const {
  uint8_t byte = 0;
  if (Status s = NfReadBlock(nf_id, vaddr, std::span<uint8_t>(&byte, 1));
      !s.ok()) {
    return s;
  }
  return byte;
}

Status SnicDevice::NfWrite(uint64_t nf_id, uint64_t vaddr, uint8_t value) {
  return NfWriteBlock(nf_id, vaddr, std::span<const uint8_t>(&value, 1));
}

Result<uint8_t> SnicDevice::MgmtReadPhys(uint64_t paddr) const {
  if (paddr >= memory_.total_bytes()) {
    return InvalidArgument("physical address out of range");
  }
  if (config_.mode == SecurityMode::kSnic &&
      mgmt_denylist_.IsDenied(paddr / memory_.page_bytes())) {
    obs_denylist_rejections_->Inc();
    return PermissionDenied("denylisted page (owned by a live NF)");
  }
  return memory_.ReadByte(paddr);
}

Status SnicDevice::MgmtWritePhys(uint64_t paddr, uint8_t value) {
  if (paddr >= memory_.total_bytes()) {
    return InvalidArgument("physical address out of range");
  }
  if (config_.mode == SecurityMode::kSnic &&
      mgmt_denylist_.IsDenied(paddr / memory_.page_bytes())) {
    obs_denylist_rejections_->Inc();
    return PermissionDenied("denylisted page (owned by a live NF)");
  }
  memory_.WriteByte(paddr, value);
  return OkStatus();
}

Result<uint8_t> SnicDevice::CoreReadPhys(uint32_t core, uint64_t paddr) const {
  if (core >= config_.num_cores) {
    return InvalidArgument("no such core");
  }
  if (config_.mode == SecurityMode::kSnic) {
    return PermissionDenied(
        "S-NIC programmable cores have no physical addressing");
  }
  if (paddr >= memory_.total_bytes()) {
    return InvalidArgument("physical address out of range");
  }
  return memory_.ReadByte(paddr);
}

Status SnicDevice::CoreWritePhys(uint32_t core, uint64_t paddr, uint8_t value) {
  if (core >= config_.num_cores) {
    return InvalidArgument("no such core");
  }
  if (config_.mode == SecurityMode::kSnic) {
    return PermissionDenied(
        "S-NIC programmable cores have no physical addressing");
  }
  if (paddr >= memory_.total_bytes()) {
    return InvalidArgument("physical address out of range");
  }
  memory_.WriteByte(paddr, value);
  return OkStatus();
}

Status SnicDevice::DeliverFromWire(net::Packet packet) {
  const auto parsed = net::Parse(packet.bytes());
  if (!parsed.ok()) {
    ++unmatched_rx_drops_;
    obs_unmatched_drops_->Inc();
    return parsed.status();
  }
  for (auto& [id, record] : nfs_) {
    if (record->vpp->Matches(parsed.value())) {
      // With the vNIC front-end attached, a matched frame goes through the
      // owning VF's descriptor ring and quotas first; NFs without a VF keep
      // the direct path.
      if (vnic_front_end_ != nullptr) {
        const auto vf = vnic_front_end_->VfForNf(id);
        if (vf.ok()) {
          return vnic_front_end_->DeliverToVf(vf.value(), std::move(packet));
        }
      }
      return record->vpp->EnqueueRx(std::move(packet));
    }
  }
  ++unmatched_rx_drops_;
  obs_unmatched_drops_->Inc();
  return NotFound("no switch rule matched");
}

Result<net::Packet> SnicDevice::NfReceive(uint64_t nf_id) {
  auto found = FindNf(nf_id);
  if (!found.ok()) {
    return found.status();
  }
  return found.value()->vpp->DequeueRx();
}

Status SnicDevice::NfSend(uint64_t nf_id, net::Packet packet) {
  auto found = FindNf(nf_id);
  if (!found.ok()) {
    return found.status();
  }
  return found.value()->vpp->EnqueueTx(std::move(packet));
}

Result<net::Packet> SnicDevice::TransmitToWire() {
  if (nfs_.empty()) {
    return NotFound("no live functions");
  }
  // Round-robin across NFs with pending TX, starting after the last served.
  std::vector<NfRecord*> records;
  records.reserve(nfs_.size());
  for (auto& [id, record] : nfs_) {
    records.push_back(record.get());
  }
  for (size_t k = 0; k < records.size(); ++k) {
    NfRecord* record = records[(rr_tx_cursor_ + k + 1) % records.size()];
    // PeekTx sheds stale frames first, so a queue holding only expired
    // frames does not stall the round-robin on a NotFound dequeue.
    if (!record->tx_chained && record->vpp->PeekTx() != nullptr) {
      rr_tx_cursor_ = (rr_tx_cursor_ + k + 1) % records.size();
      return record->vpp->DequeueTx();
    }
  }
  return NotFound("no pending TX");
}

Status SnicDevice::SetTxChained(uint64_t nf_id, bool chained) {
  auto found = FindNf(nf_id);
  if (!found.ok()) {
    return found.status();
  }
  found.value()->tx_chained = chained;
  return OkStatus();
}

void SnicDevice::AdvanceClockTo(uint64_t cycle) {
  if (cycle <= now_) {
    return;
  }
  now_ = cycle;
  for (auto& [id, record] : nfs_) {
    record->vpp->AdvanceClockTo(cycle);
  }
  if (vnic_front_end_ != nullptr) {
    vnic_front_end_->AdvanceClockTo(cycle);
  }
}

void SnicDevice::AttachVnicFrontEnd(vnic::PfVfManager* front_end) {
  vnic_front_end_ = front_end;
  if (vnic_front_end_ != nullptr) {
    vnic_front_end_->AdvanceClockTo(now_);
  }
}

bool SnicDevice::IsLive(uint64_t nf_id) const { return nfs_.count(nf_id) > 0; }

std::vector<uint64_t> SnicDevice::LiveNfIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(nfs_.size());
  for (const auto& [id, record] : nfs_) {
    ids.push_back(id);
  }
  return ids;
}

Result<crypto::Sha256Digest> SnicDevice::MeasurementOf(uint64_t nf_id) const {
  auto found = FindNf(nf_id);
  if (!found.ok()) {
    return found.status();
  }
  return found.value()->measurement;
}

Result<uint64_t> SnicDevice::CoresOf(uint64_t nf_id) const {
  auto found = FindNf(nf_id);
  if (!found.ok()) {
    return found.status();
  }
  return found.value()->core_mask;
}

VirtualPacketPipeline* SnicDevice::Vpp(uint64_t nf_id) {
  auto found = FindNf(nf_id);
  return found.ok() ? found.value()->vpp.get() : nullptr;
}

uint32_t SnicDevice::FreeCores() const {
  uint32_t free_count = 0;
  for (uint32_t c = 1; c < config_.num_cores; ++c) {
    if ((core_allocation_mask_ & (1ull << c)) == 0) {
      ++free_count;
    }
  }
  return free_count;
}

}  // namespace snic::core
