#include "src/mgmt/constellation.h"

#include <cstring>

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

PairwiseResult EstablishChannel(AttestedParty& a, AttestedParty& b,
                                const crypto::DhGroup& group, Rng& rng) {
  PairwiseResult result;

  // Each side holds an ephemeral DH participant.
  crypto::DhParticipant dh_a(group, rng);
  crypto::DhParticipant dh_b(group, rng);

  // A challenges B.
  std::vector<uint8_t> nonce_a(16);
  for (auto& byte : nonce_a) {
    byte = static_cast<uint8_t>(rng.NextU32());
  }
  core::AttestationRequest request_b;
  request_b.group = group;
  request_b.nonce = nonce_a;
  request_b.g_x = dh_b.public_value();
  const auto quote_b = b.Attest(request_b);
  if (quote_b.ok()) {
    const crypto::Sha256Digest expected = b.expected_measurement();
    const auto verification = core::VerifyQuote(b.vendor_key(), quote_b.value(),
                                                nonce_a, &expected);
    result.a_verified_b = verification.Ok();
  }

  // B challenges A.
  std::vector<uint8_t> nonce_b(16);
  for (auto& byte : nonce_b) {
    byte = static_cast<uint8_t>(rng.NextU32());
  }
  core::AttestationRequest request_a;
  request_a.group = group;
  request_a.nonce = nonce_b;
  request_a.g_x = dh_a.public_value();
  const auto quote_a = a.Attest(request_a);
  if (quote_a.ok()) {
    const crypto::Sha256Digest expected = a.expected_measurement();
    const auto verification = core::VerifyQuote(a.vendor_key(), quote_a.value(),
                                                nonce_b, &expected);
    result.b_verified_a = verification.Ok();
  }

  if (result.a_verified_b && result.b_verified_a) {
    result.channel_a = SecureChannel(dh_a.DeriveChannelKey(dh_b.public_value()));
    result.channel_b = SecureChannel(dh_b.DeriveChannelKey(dh_a.public_value()));
  }
  return result;
}

}  // namespace snic::mgmt
