#include "core/mutual_auth.hpp"

#include <array>
#include <stdexcept>

#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"

namespace neuropuls::core {

namespace {

constexpr std::size_t kMacLen = 32;
constexpr std::size_t kHashLen = 32;

// Deterministic challenge update shared by both parties:
// c_{i+1} = RNG(r_i), where RNG is the ChaCha DRBG seeded with r_i.
puf::Challenge next_challenge(crypto::ByteView response,
                              std::size_t challenge_bytes) {
  crypto::ChaChaDrbg rng(
      crypto::concat({crypto::bytes_of("np-auth-rng"), response}));
  return rng.generate(challenge_bytes);
}

crypto::Bytes mac_over(crypto::ByteView key, std::uint64_t session_id,
                       crypto::ByteView data) {
  crypto::HmacSha256 mac(key);
  // Stack scratch, not a heap Bytes: mac_over runs on every frame of
  // every session, and the engine's steady-state allocation budget
  // charges each stray allocation here to every authentication step.
  std::array<std::uint8_t, 8> sid;
  crypto::put_u64_be(sid, session_id);
  mac.update(sid);
  mac.update(data);
  return mac.finalize();
}

}  // namespace

AuthDevice::AuthDevice(puf::Puf& puf, ProvisionedCrp initial,
                       crypto::Bytes memory_snapshot)
    : puf_(puf),
      current_response_(common::SecretBytes(std::move(initial.response))),
      memory_(std::move(memory_snapshot)) {
  if (current_response_.empty()) {
    throw std::invalid_argument("AuthDevice: empty provisioned response");
  }
}

void AuthDevice::corrupt_memory(std::size_t offset, std::uint8_t value) {
  memory_.at(offset) = value;
}

std::optional<net::Message> AuthDevice::handle_request(
    const net::Message& request) {
  if (request.type != net::MessageType::kAuthRequest ||
      request.payload.size() != 8) {
    return std::nullopt;
  }
  const std::uint64_t nonce = crypto::get_u64_be(request.payload);

  // Replayed request for the in-flight session: answer from the wire cache.
  // The response is deterministic given (r_i, sid, nonce), so this changes
  // no transcript bytes — it only stops a request flood from driving one
  // PUF evaluation (and one derived CRP) per replayed frame.
  if (cached_response_ && pending_challenge_ &&
      request.session_id == active_session_ && nonce == cached_nonce_) {
    return *cached_response_;
  }
  active_session_ = request.session_id;

  // Fresh CRP derived from the current secret. r_{i+1} is born straight
  // into the taint wrapper — it never exists as a loose buffer.
  puf::Challenge next_chal =
      next_challenge(current_response_.reveal(), puf_.challenge_bytes());
  common::SecretBytes next_resp(puf_.evaluate(next_chal));

  ++clock_count_;

  // m = (r_{i+1} ^ r_i) || H || CC || N
  crypto::Bytes m =
      crypto::xor_bytes(next_resp.reveal(), current_response_.reveal());
  const crypto::Bytes h = crypto::Sha256::hash(memory_);
  m.insert(m.end(), h.begin(), h.end());
  crypto::append_u64_be(m, clock_count_);
  crypto::append_u64_be(m, nonce);

  const crypto::Bytes mac =
      mac_over(current_response_.reveal(), active_session_, m);
  m.insert(m.end(), mac.begin(), mac.end());

  pending_challenge_ = std::move(next_chal);
  pending_response_ = std::move(next_resp);

  net::Message response{net::MessageType::kAuthResponse, active_session_,
                        std::move(m)};
  cached_response_ = response;
  cached_nonce_ = nonce;
  return response;
}

AuthStatus AuthDevice::handle_confirm(const net::Message& confirm) {
  if (confirm.type != net::MessageType::kAuthConfirm ||
      confirm.payload.size() != kMacLen) {
    return AuthStatus::kMalformed;
  }
  if (!pending_challenge_ || confirm.session_id != active_session_) {
    return AuthStatus::kBadSession;
  }
  const crypto::Bytes expected = mac_over(
      pending_response_.reveal(), active_session_, *pending_challenge_);
  if (!crypto::ct_equal(confirm.payload, expected)) {
    return AuthStatus::kBadMac;
  }
  // Move-assignment wipes the superseded r_i before installing r_{i+1}.
  current_response_ = std::move(pending_response_);
  pending_challenge_.reset();
  cached_response_.reset();
  ++sessions_;
  return AuthStatus::kOk;
}

AuthVerifier::AuthVerifier(puf::Response initial_response,
                           crypto::Bytes expected_memory_hash,
                           std::size_t challenge_bytes)
    : secret_(common::SecretBytes(std::move(initial_response))),
      expected_memory_hash_(std::move(expected_memory_hash)),
      challenge_bytes_(challenge_bytes) {
  if (secret_.empty() || challenge_bytes_ == 0) {
    throw std::invalid_argument("AuthVerifier: bad provisioning");
  }
}

net::Message AuthVerifier::start(std::uint64_t session_id,
                                 std::uint64_t nonce) {
  active_session_ = session_id;
  nonce_ = nonce;
  session_complete_ = false;
  crypto::Bytes payload(8);
  crypto::put_u64_be(payload, nonce);
  return net::Message{net::MessageType::kAuthRequest, session_id,
                      std::move(payload)};
}

AuthVerifier::Outcome AuthVerifier::try_secret(const net::Message& response,
                                               crypto::ByteView secret) {
  Outcome outcome;
  const std::size_t response_len = secret.size();
  const std::size_t expected_len = response_len + kHashLen + 8 + 8 + kMacLen;
  if (response.payload.size() != expected_len) {
    outcome.status = AuthStatus::kMalformed;
    return outcome;
  }

  const crypto::ByteView payload(response.payload);
  const crypto::ByteView m = payload.first(expected_len - kMacLen);
  const crypto::ByteView mac = payload.subspan(expected_len - kMacLen);

  const crypto::Bytes expected_mac =
      mac_over(secret, response.session_id, m);
  if (!crypto::ct_equal(mac, expected_mac)) {
    outcome.status = AuthStatus::kBadMac;
    return outcome;
  }

  // Freshness: the echoed nonce must match the active session's.
  const crypto::ByteView nonce_view = m.subspan(response_len + kHashLen + 8, 8);
  if (crypto::get_u64_be(nonce_view) != nonce_) {
    outcome.status = AuthStatus::kBadSession;
    return outcome;
  }

  // Unmask the new response and inspect the integrity fields.
  const crypto::ByteView masked = m.first(response_len);
  const crypto::ByteView memory_hash = m.subspan(response_len, kHashLen);
  outcome.clock_count =
      crypto::get_u64_be(m.subspan(response_len + kHashLen, 8));
  outcome.memory_hash_ok =
      crypto::ct_equal(memory_hash, expected_memory_hash_);

  common::SecretBytes next_secret(crypto::xor_bytes(masked, secret));
  const puf::Challenge next_chal = next_challenge(secret, challenge_bytes_);
  const crypto::Bytes confirm_mac =
      mac_over(next_secret.reveal(), response.session_id, next_chal);

  // The fallback becomes the secret that actually authenticated: if the
  // device is stale (missed our previous confirm) this keeps its secret
  // recoverable across repeated confirm losses. Copy first — `secret` may
  // view fallback_'s buffer, which the assignment below wipes.
  common::SecretBytes used = common::SecretBytes::copy_of(secret);
  fallback_ = std::move(used);
  secret_ = std::move(next_secret);
  ++sessions_;

  outcome.status = AuthStatus::kOk;
  outcome.confirm = net::Message{net::MessageType::kAuthConfirm,
                                 response.session_id, confirm_mac};
  return outcome;
}

AuthVerifier::Outcome AuthVerifier::process_response(
    const net::Message& response) {
  Outcome outcome;
  if (response.type != net::MessageType::kAuthResponse) {
    outcome.status = AuthStatus::kMalformed;
    return outcome;
  }
  if (response.session_id != active_session_) {
    outcome.status = AuthStatus::kBadSession;
    return outcome;
  }
  // Replay latch: the active session already rotated. Reject before any
  // MAC computation — the fallback secret would otherwise re-verify a
  // byte-identical replay of the response that just authenticated, and
  // each accepted replay costs a full rotation (a fresh derived CRP).
  if (session_complete_) {
    outcome.status = AuthStatus::kReplayed;
    return outcome;
  }
  outcome = try_secret(response, secret_.reveal());
  if (outcome.status == AuthStatus::kOk) {
    session_complete_ = true;
    return outcome;
  }

  // Desync recovery: the device may still hold the pre-rotation secret
  // (our confirm of the previous session was lost). Accept exactly one
  // session under the fallback.
  if (!fallback_.empty()) {
    Outcome fallback_outcome = try_secret(response, fallback_.reveal());
    if (fallback_outcome.status == AuthStatus::kOk) {
      session_complete_ = true;
      return fallback_outcome;
    }
  }
  return outcome;
}

crypto::Bytes serialize_crp(const ProvisionedCrp& crp) {
  crypto::Bytes out;
  crypto::append_u32_be(out, static_cast<std::uint32_t>(crp.challenge.size()));
  out.insert(out.end(), crp.challenge.begin(), crp.challenge.end());
  crypto::append_u32_be(out, static_cast<std::uint32_t>(crp.response.size()));
  out.insert(out.end(), crp.response.begin(), crp.response.end());
  return out;
}

ProvisionedCrp deserialize_crp(crypto::ByteView blob) {
  if (blob.size() < 8) {
    throw std::runtime_error("deserialize_crp: truncated");
  }
  const std::uint32_t chal_len = crypto::get_u32_be(blob.first(4));
  if (blob.size() < 4 + chal_len + 4 || chal_len > (1u << 20)) {
    throw std::runtime_error("deserialize_crp: bad challenge length");
  }
  ProvisionedCrp crp;
  crp.challenge.assign(blob.begin() + 4,
                       blob.begin() + 4 + static_cast<std::ptrdiff_t>(chal_len));
  const std::uint32_t resp_len =
      crypto::get_u32_be(blob.subspan(4 + chal_len, 4));
  if (blob.size() != 4 + chal_len + 4 + resp_len) {
    throw std::runtime_error("deserialize_crp: length mismatch");
  }
  crp.response.assign(blob.begin() + 4 + static_cast<std::ptrdiff_t>(chal_len) + 4,
                      blob.end());
  return crp;
}

ProvisioningResult provision(puf::Puf& puf, crypto::ChaChaDrbg& rng) {
  ProvisioningResult result;
  result.device_crp.challenge = rng.generate(puf.challenge_bytes());
  result.device_crp.response =
      puf::enroll_majority(puf, result.device_crp.challenge, 5);
  result.verifier_secret = result.device_crp.response;
  return result;
}

}  // namespace neuropuls::core
