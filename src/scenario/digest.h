// Record digesting for the scenario runner's byte-identity verdicts.
//
// The byte-identity verdicts all reduce a tenant's observable record —
// packet bytes, bus grant times, stat words, trace-ring lanes — to FNV-1a
// digests and compare those. Both primitives live in obs: obs::Fnv is the
// one FNV-1a, and obs::DigestLane is the one definition of a tenant's
// trace-ring lane identity (shared with tools/snic_trace forensics). This
// lowest scenario-layer header re-exports the hash so perfbench's checks
// and the tests digest records the same way the runner does.

#ifndef SNIC_SCENARIO_DIGEST_H_
#define SNIC_SCENARIO_DIGEST_H_

#include "src/obs/trace_ring.h"

namespace snic::scenario {

using obs::Fnv;

}  // namespace snic::scenario

#endif  // SNIC_SCENARIO_DIGEST_H_
