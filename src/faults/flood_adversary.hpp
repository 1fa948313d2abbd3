// Hostile-client session machines for flood/abuse chaos scenarios.
//
// ROADMAP item 4 wants the verifier attacked, not just used. The abuse
// model here matches the stack's session architecture: each attacker is
// a core::SessionMachine submitted to the SessionEngine alongside honest
// sessions, competing for the same admission slots, memory budget, and
// worker time. Four attack shapes cover the flood taxonomy:
//
//   kMalformed  — answers the auth request with random garbage framed as
//                 a plausible kAuthResponse. Exercises the verifier's
//                 length/MAC guards; every rejected frame increments
//                 SessionReport::malformed_frames, which the engine
//                 charges back to the attacker's rate bucket.
//   kReplay     — answers with a captured stale response from a donor
//                 session (session id rewritten). The MAC is keyed on a
//                 different secret, so the verifier must reject it and,
//                 per the mutual_auth replay latch, never re-rotate or
//                 spend fresh PUF/CRP material on it.
//   kOversized  — answers with a payload far above core::kMaxFrameBytes.
//                 The verifier machine's size guard discards it before
//                 any parse code runs and counts it as malformed.
//   kHalfOpen   — opens the session and then goes silent: no frame is
//                 ever sent, every attempt burns its full poll budget.
//                 The cheapest attack per byte, and exactly what the
//                 admission controller's half-open eviction exists for.
//
// None of these can converge against a correct verifier; the machine
// counts any accept in false_accepts() so chaos tests can assert the
// zero-false-accept invariant directly.
#pragma once

#include <cstdint>

#include "core/mutual_auth.hpp"
#include "core/session_driver.hpp"
#include "crypto/chacha20.hpp"
#include "net/channel.hpp"
#include "net/message.hpp"

namespace neuropuls::faults {

enum class FloodMode {
  kMalformed,
  kReplay,
  kOversized,
  kHalfOpen,
};

/// An attacker client as a resumable session machine (see file comment).
/// Borrows the verifier endpoint under attack; `replay_seed` is the
/// captured frame a kReplay attacker re-sends (ignored otherwise).
class FloodAuthMachine final : public core::SessionMachine {
 public:
  FloodAuthMachine(net::DuplexChannel& channel,
                   const core::RetryPolicy& policy, crypto::ChaChaDrbg& rng,
                   core::AuthVerifier& verifier, FloodMode mode,
                   net::Message replay_seed = {});

  /// Sessions the verifier wrongly accepted. The invariant every flood
  /// test pins: this is zero, always.
  std::uint64_t false_accepts() const noexcept { return false_accepts_; }
  FloodMode mode() const noexcept { return mode_; }

 private:
  void begin_attempt() override;
  FrameOutcome on_frame(const net::Message& frame) override;

  net::Message forged_response();

  core::AuthVerifier& verifier_;
  FloodMode mode_;
  net::Message replay_seed_;
  unsigned phase_ = 0;
  std::uint64_t false_accepts_ = 0;
};

/// Captures the device's genuine kAuthResponse of one full honest session
/// so a kReplay attacker has real stale material to storm with. Runs the
/// session over `channel` (which must be fresh); returns the recorded
/// response frame. Leaves verifier/device rotated one session forward —
/// i.e., the captured frame is stale by construction.
net::Message capture_replay_material(core::AuthVerifier& verifier,
                                     core::AuthDevice& device,
                                     net::DuplexChannel& channel,
                                     std::uint64_t session_id,
                                     std::uint64_t seed);

}  // namespace neuropuls::faults
