// HSC-IoT mutual authentication (§III-A, Fig. 4; Hossain et al. [19]).
//
// One CRP is the entire shared state: the Device holds (c_i, r_i) and the
// Verifier holds r_i. Per session:
//
//   Verifier -> Device : auth request (nonce)
//   Device             : c_{i+1} = RNG(r_i)         (challenge update)
//                        r_{i+1} = PUF(c_{i+1})
//                        m = (r_{i+1} ^ r_i) || H || CC || N
//   Device  -> Verifier: m, MAC(m, r_i)
//   Verifier           : check MAC with r_i  -> Device authentic
//                        r_{i+1} = (r_{i+1} ^ r_i) ^ r_i  (unmask)
//   Verifier-> Device  : MAC(c_{i+1}, r_{i+1})
//   Device             : check               -> Verifier authentic
//   both               : current CRP := (c_{i+1}, r_{i+1})
//
// H is a hash of device memory (a lightweight integrity hint), CC a clock
// count standing in for "time needed to perform a given task", N a fresh
// nonce. CRPs never cross the wire in clear; the Verifier stores exactly
// one response per device (O(1), vs the O(#CRPs) database baseline in
// `puf/crp_db.hpp`).
//
// Desynchronisation: if the confirm message is lost the Verifier has
// rotated but the Device has not. The Verifier therefore retains the
// previous response as a fallback secret for exactly one session — the
// standard recovery, exercised by the protocol-attack tests.
//
// What the PUF buys here — and what it does not: each session's MAC
// proves knowledge of the *current shared secret*, not possession of the
// physical PUF; an adversary who extracts r_i from the device can run
// sessions (the protocol's security reduces to the secrecy of one
// ephemeral value instead of a long-term NVM key, which is the HSC-IoT
// improvement). Verifying the *physical assembly* — that the genuine
// PIC+ASIC pair is still present — is the job of the model-based
// attestation path (`attestation.hpp`), where the Verifier owns a clone
// of the composite PUF and any swapped chip diverges (see the
// CompositeBindingGatesAttestation integration test).
#pragma once

#include <cstdint>
#include <optional>

#include "common/secret.hpp"
#include "crypto/bytes.hpp"
#include "crypto/chacha20.hpp"
#include "net/message.hpp"
#include "puf/puf.hpp"

namespace neuropuls::core {

/// Result of a completed (or failed) authentication step.
enum class AuthStatus {
  kOk,
  kBadMac,
  kBadSession,
  kMalformed,
  // A re-sent response for a session that already authenticated. Rejected
  // before any MAC work or secret rotation: a replay storm burns the
  // attacker's rate-limit tokens, never a fresh CRP.
  kReplayed,
};

/// Shared provisioning record created at manufacturing time: the first CRP.
struct ProvisionedCrp {
  puf::Challenge challenge;
  puf::Response response;
};

/// Device-side endpoint. Owns the PUF and the current CRP.
class AuthDevice {
 public:
  /// `memory_view` is hashed into H each session (integrity hint);
  /// `clock_count` models the CC field.
  AuthDevice(puf::Puf& puf, ProvisionedCrp initial,
             crypto::Bytes memory_snapshot);

  /// Handles an auth request; produces the signed message m.
  /// Returns kMalformed / kBadSession without touching state on bad input.
  std::optional<net::Message> handle_request(const net::Message& request);

  /// Handles the verifier's confirm; on success rotates the CRP.
  AuthStatus handle_confirm(const net::Message& confirm);

  /// Current (secret) response — exposed for tests only; taint-typed so
  /// test assertions must go through common::ct_equal, never `==`.
  const common::SecretBytes& current_response() const noexcept {
    return current_response_;
  }
  std::uint64_t completed_sessions() const noexcept { return sessions_; }

  /// Mutates the device memory snapshot (models a compromise; the H field
  /// then mismatches on the next session).
  void corrupt_memory(std::size_t offset, std::uint8_t value);

 private:
  puf::Puf& puf_;
  common::SecretBytes current_response_;  // r_i — the live shared secret
  // Pending next CRP, applied when the verifier's confirm checks out. The
  // challenge is public; the response rides in its own taint wrapper.
  std::optional<puf::Challenge> pending_challenge_;
  common::SecretBytes pending_response_;
  crypto::Bytes memory_;
  std::uint64_t clock_count_ = 0;
  std::uint64_t sessions_ = 0;
  std::uint64_t active_session_ = 0;
  // Wire copy of the in-flight response: a byte-identical re-sent request
  // (replay, or a verifier retry after a lost frame) gets this back verbatim
  // instead of burning a fresh PUF evaluation per replayed frame.
  std::optional<net::Message> cached_response_;
  std::uint64_t cached_nonce_ = 0;
};

/// Verifier-side endpoint. Stores one response (plus a one-deep fallback).
class AuthVerifier {
 public:
  /// `challenge_bytes` is the device PUF's challenge size — the Verifier
  /// needs it to regenerate c_{i+1} = RNG(r_i) on its side.
  AuthVerifier(puf::Response initial_response,
               crypto::Bytes expected_memory_hash,
               std::size_t challenge_bytes);

  /// Starts session `session_id`; returns the request message.
  net::Message start(std::uint64_t session_id, std::uint64_t nonce);

  /// Processes the device's response. On success returns the confirm
  /// message and rotates the stored secret (keeping a fallback).
  struct Outcome {
    AuthStatus status = AuthStatus::kMalformed;
    std::optional<net::Message> confirm;
    bool memory_hash_ok = false;
    std::uint64_t clock_count = 0;
  };
  Outcome process_response(const net::Message& response);

  const common::SecretBytes& current_secret() const noexcept {
    return secret_;
  }
  std::uint64_t completed_sessions() const noexcept { return sessions_; }

 private:
  Outcome try_secret(const net::Message& response, crypto::ByteView secret);

  common::SecretBytes secret_;
  common::SecretBytes fallback_;  // pre-rotation secret; empty = none
  crypto::Bytes expected_memory_hash_;
  std::size_t challenge_bytes_;
  std::uint64_t active_session_ = 0;
  std::uint64_t nonce_ = 0;
  std::uint64_t sessions_ = 0;
  // Set once the active session authenticates. A second acceptable-looking
  // response for the same session is a replay: without this latch the
  // fallback secret (== the secret that just authenticated) would verify
  // the replayed MAC and rotate the stored secret a second time.
  bool session_complete_ = false;
};

/// Persists a provisioned CRP for device NVM / verifier database.
/// Format: u32 challenge-len || challenge || u32 response-len || response.
crypto::Bytes serialize_crp(const ProvisionedCrp& crp);

/// Parses a persisted CRP. Throws std::runtime_error on malformed input.
ProvisionedCrp deserialize_crp(crypto::ByteView blob);

/// Factory performing the manufacturing-time step: evaluates the PUF on a
/// random challenge and hands matching state to both parties.
struct ProvisioningResult {
  ProvisionedCrp device_crp;
  puf::Response verifier_secret;
};
ProvisioningResult provision(puf::Puf& puf, crypto::ChaChaDrbg& rng);

}  // namespace neuropuls::core
