// Wire format for attestation quotes.
//
// A quote is only useful if it can cross the untrusted datacenter network
// between the function and a remote verifier (Fig. 4). This is a canonical,
// self-delimiting binary encoding of AttestationQuote — every field
// length-prefixed, fixed byte order — with strict-parse semantics: any
// trailing bytes, truncation, or malformed length is rejected (a verifier
// must never sign-check attacker-shaped garbage). mgmt::ChallengeQuote is
// the one decoder call: the Supervisor, EstablishChannel and quickstart send
// every quote they check through this codec.

#ifndef SNIC_CORE_ATTESTATION_WIRE_H_
#define SNIC_CORE_ATTESTATION_WIRE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/status.h"
#include "src/core/attestation.h"

namespace snic::core {

std::vector<uint8_t> SerializeQuote(const AttestationQuote& quote);
Result<AttestationQuote> DeserializeQuote(std::span<const uint8_t> bytes);

}  // namespace snic::core

#endif  // SNIC_CORE_ATTESTATION_WIRE_H_
