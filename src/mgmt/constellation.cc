#include "src/mgmt/constellation.h"

#include <cstring>
#include <utility>

#include "src/core/attestation_wire.h"
#include "src/mgmt/verifier.h"

namespace snic::mgmt {

SnicFunctionParty::SnicFunctionParty(std::string name,
                                     core::SnicDevice* device, uint64_t nf_id,
                                     const crypto::RsaPublicKey& vendor_key,
                                     const crypto::Sha256Digest& expected)
    : name_(std::move(name)),
      device_(device),
      nf_id_(nf_id),
      vendor_key_(vendor_key),
      expected_(expected) {}

Result<core::AttestationQuote> SnicFunctionParty::Attest(
    const core::AttestationRequest& request) {
  return device_->NfAttest(nf_id_, request);
}

EnclaveParty::EnclaveParty(std::string name, std::vector<uint8_t> code,
                           const crypto::VendorAuthority& platform_vendor,
                           size_t rsa_modulus_bits, Rng& rng)
    : name_(std::move(name)),
      measurement_(crypto::Sha256::Hash(
          std::span<const uint8_t>(code.data(), code.size()))),
      root_of_trust_(platform_vendor, rsa_modulus_bits, rng),
      vendor_key_(platform_vendor.public_key()) {}

Result<core::AttestationQuote> EnclaveParty::Attest(
    const core::AttestationRequest& request) {
  core::AttestationQuote quote;
  quote.measurement = measurement_;
  quote.group = request.group;
  quote.nonce = request.nonce;
  quote.g_x = request.g_x;
  const std::vector<uint8_t> payload = core::QuotePayload(
      quote.measurement, quote.group, quote.nonce, quote.g_x);
  quote.signature = root_of_trust_.SignWithAk(
      std::span<const uint8_t>(payload.data(), payload.size()));
  quote.ak_public = root_of_trust_.ak_public();
  quote.ak_endorsement = root_of_trust_.ak_endorsement();
  quote.ek_certificate = root_of_trust_.ek_certificate();
  return quote;
}

std::vector<uint8_t> SecureChannel::Seal(std::span<const uint8_t> plaintext,
                                         uint64_t seq) const {
  std::vector<uint8_t> out(plaintext.begin(), plaintext.end());
  // Counter-mode keystream: block i = HMAC(key, "ks" || seq || i).
  for (size_t block = 0; block * 32 < out.size(); ++block) {
    uint8_t info[2 + 8 + 8] = {'k', 's'};
    for (int i = 0; i < 8; ++i) {
      info[2 + i] = static_cast<uint8_t>(seq >> (56 - 8 * i));
      info[10 + i] = static_cast<uint8_t>(static_cast<uint64_t>(block) >>
                                          (56 - 8 * i));
    }
    const crypto::Sha256Digest ks = crypto::HmacSha256(
        std::span<const uint8_t>(key_.data(), key_.size()),
        std::span<const uint8_t>(info, sizeof(info)));
    for (size_t i = 0; i < 32 && block * 32 + i < out.size(); ++i) {
      out[block * 32 + i] ^= ks[i];
    }
  }
  // Tag = HMAC(key, "tag" || seq || ciphertext).
  std::vector<uint8_t> tag_input = {'t', 'a', 'g'};
  for (int i = 0; i < 8; ++i) {
    tag_input.push_back(static_cast<uint8_t>(seq >> (56 - 8 * i)));
  }
  tag_input.insert(tag_input.end(), out.begin(), out.end());
  const crypto::Sha256Digest tag = crypto::HmacSha256(
      std::span<const uint8_t>(key_.data(), key_.size()),
      std::span<const uint8_t>(tag_input.data(), tag_input.size()));
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

Result<std::vector<uint8_t>> SecureChannel::Open(
    std::span<const uint8_t> sealed, uint64_t seq) const {
  if (sealed.size() < 32) {
    return InvalidArgument("sealed message shorter than its tag");
  }
  const std::span<const uint8_t> ciphertext = sealed.first(sealed.size() - 32);
  const std::span<const uint8_t> tag = sealed.last(32);

  std::vector<uint8_t> tag_input = {'t', 'a', 'g'};
  for (int i = 0; i < 8; ++i) {
    tag_input.push_back(static_cast<uint8_t>(seq >> (56 - 8 * i)));
  }
  tag_input.insert(tag_input.end(), ciphertext.begin(), ciphertext.end());
  const crypto::Sha256Digest expected = crypto::HmacSha256(
      std::span<const uint8_t>(key_.data(), key_.size()),
      std::span<const uint8_t>(tag_input.data(), tag_input.size()));
  if (std::memcmp(expected.data(), tag.data(), 32) != 0) {
    return PermissionDenied("channel tag mismatch (tampered or replayed)");
  }

  std::vector<uint8_t> plain(ciphertext.begin(), ciphertext.end());
  for (size_t block = 0; block * 32 < plain.size(); ++block) {
    uint8_t info[2 + 8 + 8] = {'k', 's'};
    for (int i = 0; i < 8; ++i) {
      info[2 + i] = static_cast<uint8_t>(seq >> (56 - 8 * i));
      info[10 + i] = static_cast<uint8_t>(static_cast<uint64_t>(block) >>
                                          (56 - 8 * i));
    }
    const crypto::Sha256Digest ks = crypto::HmacSha256(
        std::span<const uint8_t>(key_.data(), key_.size()),
        std::span<const uint8_t>(info, sizeof(info)));
    for (size_t i = 0; i < 32 && block * 32 + i < plain.size(); ++i) {
      plain[block * 32 + i] ^= ks[i];
    }
  }
  return plain;
}

namespace {

// One direction of the mutual exchange: the challenger draws a fresh nonce
// and sends it, with the responder's DH share, to `responder`; the quote
// comes back as bytes. Returns the decoded quote if it passes the
// challenger's check.
std::optional<core::AttestationQuote> Challenge(
    AttestedParty& responder, const crypto::DhGroup& group,
    const crypto::BigUint& responder_g_x, Rng& rng) {
  core::AttestationRequest request;
  request.group = group;
  request.nonce.resize(16);
  for (auto& byte : request.nonce) {
    byte = static_cast<uint8_t>(rng.NextU32());
  }
  request.g_x = responder_g_x;
  const auto quote = responder.Attest(request);
  if (!quote.ok()) {
    return std::nullopt;
  }
  auto checked = ChallengeQuote(core::SerializeQuote(quote.value()),
                                responder.vendor_key(), group, request.nonce,
                                responder.expected_measurement(),
                                responder.name());
  if (!checked.ok()) {
    return std::nullopt;
  }
  return std::move(checked).value();
}

}  // namespace

PairwiseResult EstablishChannel(AttestedParty& a, AttestedParty& b,
                                const crypto::DhGroup& group, Rng& rng) {
  PairwiseResult result;

  // Each side holds an ephemeral DH participant.
  crypto::DhParticipant dh_a(group, rng);
  crypto::DhParticipant dh_b(group, rng);

  // A challenges B, then B challenges A.
  const auto quote_b = Challenge(b, group, dh_b.public_value(), rng);
  const auto quote_a = Challenge(a, group, dh_a.public_value(), rng);
  result.a_verified_b = quote_b.has_value();
  result.b_verified_a = quote_a.has_value();

  // Each side keys from the g^x its peer's verified quote carries.
  if (quote_a && quote_b) {
    result.channel_a = SecureChannel(dh_a.DeriveChannelKey(quote_b->g_x));
    result.channel_b = SecureChannel(dh_b.DeriveChannelKey(quote_a->g_x));
  }
  return result;
}

}  // namespace snic::mgmt
