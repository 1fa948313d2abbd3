#include "faults/flood_adversary.hpp"

#include <stdexcept>
#include <utility>

namespace neuropuls::faults {

FloodAuthMachine::FloodAuthMachine(net::DuplexChannel& channel,
                                   const core::RetryPolicy& policy,
                                   crypto::ChaChaDrbg& rng,
                                   core::AuthVerifier& verifier,
                                   FloodMode mode, net::Message replay_seed)
    : SessionMachine(channel, policy, rng, /*session_base=*/0),
      verifier_(verifier),
      mode_(mode),
      replay_seed_(std::move(replay_seed)) {}

void FloodAuthMachine::begin_attempt() {
  phase_ = 0;
  if (mode_ == FloodMode::kHalfOpen) {
    // Open and go silent: the expectation below can never be satisfied,
    // so every attempt burns its full poll budget while the session
    // squats on its admission slot.
    expect_next(net::Direction::kAtoB, net::MessageType::kAuthConfirm);
    return;
  }
  const std::uint64_t nonce = rng_.next_u64();
  channel_.send(net::Direction::kAtoB, verifier_.start(sid_, nonce));
  expect_next(net::Direction::kAtoB, net::MessageType::kAuthRequest);
}

net::Message FloodAuthMachine::forged_response() {
  switch (mode_) {
    case FloodMode::kMalformed: {
      // Random garbage at a plausible-but-wrong length: fails the
      // verifier's exact-length check before any MAC work.
      crypto::Bytes junk = rng_.generate(24);
      return net::Message{net::MessageType::kAuthResponse, sid_,
                          std::move(junk)};
    }
    case FloodMode::kOversized: {
      // Far above the machine's frame cap. The byte pattern is
      // irrelevant — no parser may ever see it.
      return net::Message{net::MessageType::kAuthResponse, sid_,
                          crypto::Bytes(core::kMaxFrameBytes + 1024, 0xA5)};
    }
    case FloodMode::kReplay: {
      net::Message stale = replay_seed_;
      stale.session_id = sid_;  // smuggle past the session-id check
      return stale;
    }
    case FloodMode::kHalfOpen:
      break;
  }
  throw std::logic_error("FloodAuthMachine: no response in this mode");
}

core::SessionMachine::FrameOutcome FloodAuthMachine::on_frame(
    const net::Message& frame) {
  switch (phase_) {
    case 0: {
      (void)frame;  // the request only tells us the verifier is listening
      channel_.send(net::Direction::kBtoA, forged_response());
      phase_ = 1;
      expect_next(net::Direction::kBtoA, net::MessageType::kAuthResponse);
      return FrameOutcome::kAdvance;
    }
    default: {
      const auto outcome = verifier_.process_response(frame);
      report_.last_auth_status = outcome.status;
      if (outcome.status == core::AuthStatus::kOk) {
        // A correct verifier never reaches this: the chaos suite pins
        // false_accepts() == 0 under every flood mix.
        ++false_accepts_;
        return FrameOutcome::kConverged;
      }
      return FrameOutcome::kFailAttempt;
    }
  }
}

net::Message capture_replay_material(core::AuthVerifier& verifier,
                                     core::AuthDevice& device,
                                     net::DuplexChannel& channel,
                                     std::uint64_t session_id,
                                     std::uint64_t seed) {
  net::Message captured;
  channel.set_adversary([&](net::Direction direction,
                            const net::Message& message) {
    if (direction == net::Direction::kBtoA &&
        message.type == net::MessageType::kAuthResponse) {
      captured = message;
    }
    return net::Verdict::pass();
  });
  const bool converged =
      core::run_auth_session(verifier, device, channel, session_id, seed);
  channel.set_adversary(nullptr);
  if (!converged || captured.payload.empty()) {
    throw std::runtime_error(
        "capture_replay_material: donor session did not converge");
  }
  return captured;
}

}  // namespace neuropuls::faults
