// Umbrella header: the public API of the S-NIC reproduction, for the
// examples. snic_lint's unreached-module rule does not follow its
// includes: every header below must also be reached from a bench, tool or
// example through their own #include edges.
//
// Library map (see DESIGN.md for the full inventory):
//   core/     the paper's contribution — trusted instructions, denylists,
//             virtual packet pipelines, vNIC front-end, attestation and its
//             quote wire format, chaining, attack scenarios
//   mgmt/     NIC OS management plane, host DMA, secure constellations,
//             verifier, autoscaler
//   nf/       the evaluation network functions + the packet compressor
//   accel/    virtualized accelerators (DPI/ZIP/RAID) + crypto co-processor
//   sim/      cache/bus/DRAM timing simulator (gem5-lite); SecDCP is a
//             sim::Cache partitioning policy
//   hwmodel/  McPAT-lite TLB costs + TCO model
//   runtime/  deterministic parallel sweep runtime (docs/RUNTIME.md)
//   net/      packets, headers, switching rules
//   trace/    synthetic CAIDA/iCTF-like workload generation
//   crypto/   SHA-256, RSA, Diffie-Hellman (attestation substrate)
// Not included here: fault/, obs/ and scenario/, which the benches and
// tools include directly.

#ifndef SNIC_SNIC_H_
#define SNIC_SNIC_H_

#include "src/accel/accelerator.h"
#include "src/accel/aho_corasick.h"
#include "src/accel/crypto_coproc.h"
#include "src/accel/zip.h"
#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/common/table_printer.h"
#include "src/common/units.h"
#include "src/common/zipf.h"
#include "src/core/attacks.h"
#include "src/core/attestation.h"
#include "src/core/attestation_wire.h"
#include "src/core/chaining.h"
#include "src/core/watermark.h"
#include "src/core/denylist.h"
#include "src/core/physical_memory.h"
#include "src/core/snic_device.h"
#include "src/core/tlb_sizing.h"
#include "src/core/vpp.h"
#include "src/crypto/diffie_hellman.h"
#include "src/crypto/keys.h"
#include "src/crypto/rsa.h"
#include "src/crypto/sha256.h"
#include "src/hwmodel/tco.h"
#include "src/hwmodel/tlb_cost.h"
#include "src/mgmt/constellation.h"
#include "src/mgmt/dma.h"
#include "src/mgmt/nic_os.h"
#include "src/mgmt/verifier.h"
#include "src/net/packet.h"
#include "src/net/parser.h"
#include "src/net/switching.h"
#include "src/mgmt/autoscaler.h"
#include "src/nf/compressor.h"
#include "src/nf/dpi_nf.h"
#include "src/nf/firewall.h"
#include "src/nf/lpm.h"
#include "src/nf/maglev_lb.h"
#include "src/nf/monitor.h"
#include "src/nf/nat.h"
#include "src/nf/nf_factory.h"
#include "src/runtime/sweep.h"
#include "src/runtime/thread_pool.h"
#include "src/sim/bus.h"
#include "src/sim/cache.h"
#include "src/sim/replay.h"
#include "src/sim/tlb.h"
#include "src/trace/trace_gen.h"

#endif  // SNIC_SNIC_H_
