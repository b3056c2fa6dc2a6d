#include "src/nf/monitor.h"

#include "src/common/units.h"
#include "src/net/parser.h"

namespace snic::nf {
namespace {

constexpr size_t kInitialFlowCapacity = 1024;

}  // namespace

Monitor::Monitor(const MonitorConfig& config) : NetworkFunction("Mon") {
  if (config.model_hugepage_init) {
    // DPDK allocates a temporary normal-memory block, copies the hugepage
    // data through it, then releases it — a transient doubling at startup.
    const uint64_t pool = MiBToBytes(config.hugepage_pool_mib);
    ArenaAllocation staging = arena().Alloc(pool, "dpdk-staging");
    ArenaAllocation hugepages = arena().Alloc(pool, "dpdk-hugepages");
    arena().Free(staging);
    // The hugepage pool itself is replaced by demand allocations below; the
    // model releases it so steady-state accounting tracks the flow table.
    arena().Free(hugepages);
  }
  flows_ = std::make_unique<FlowHashMap<uint64_t>>(
      &arena(), &recorder_, kInitialFlowCapacity, 0, "mon-flows");
}

uint64_t Monitor::CountForFlow(const net::FiveTuple& tuple) {
  const uint64_t* count = flows_->Find(tuple);
  return count == nullptr ? 0 : *count;
}

Verdict Monitor::HandlePacket(net::Packet& packet) {
  const auto parsed = net::Parse(packet.bytes());
  if (!parsed.ok()) {
    return Verdict::kDrop;
  }
  const net::FiveTuple tuple = parsed.value().Tuple();
  uint64_t* count = flows_->Find(tuple);
  if (count != nullptr) {
    ++*count;
    recorder_.Store(flows_->last_touched_addr());  // counter write-back
    recorder_.Compute(16);
  } else {
    flows_->Insert(tuple, 1);
  }
  return Verdict::kForward;
}

}  // namespace snic::nf
