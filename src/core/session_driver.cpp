#include "core/session_driver.hpp"

#include <algorithm>
#include <limits>

namespace neuropuls::core {

crypto::Bytes session_driver_seed_bytes(std::uint64_t seed) {
  crypto::Bytes bytes = crypto::bytes_of("np-session-driver");
  crypto::append_u64_be(bytes, seed);
  return bytes;
}

SessionMachine::SessionMachine(net::DuplexChannel& channel,
                               const RetryPolicy& policy,
                               crypto::ChaChaDrbg& rng,
                               std::uint64_t session_base)
    : channel_(channel),
      policy_(policy),
      rng_(rng),
      session_base_(session_base) {}

void SessionMachine::expect_next(net::Direction direction,
                                 net::MessageType type) {
  expect_direction_ = direction;
  expect_type_ = type;
  expect_polls_ = 0;
  mode_ = Mode::kExpect;
}

void SessionMachine::start_attempt() {
  sid_ = session_base_ + attempt_;
  begin_attempt();
}

void SessionMachine::fail_attempt() {
  ++attempt_;
  mode_ = Mode::kStartAttempt;
}

std::size_t SessionMachine::backoff_ticks(unsigned attempt) {
  const std::size_t base = std::max<std::size_t>(1, policy_.backoff_base_polls);
  // Saturate at backoff_max_polls *before* shifting: base << shift wraps
  // (or is UB past the type width) long before attempt reaches its
  // policy-configurable maximum, which would collapse the exponential
  // term to zero instead of holding it at the cap.
  const unsigned shift = attempt - 1;
  std::size_t exp = policy_.backoff_max_polls;
  if (shift < static_cast<unsigned>(std::numeric_limits<std::size_t>::digits) &&
      base <= (policy_.backoff_max_polls >> shift)) {
    exp = base << shift;
  }
  return exp + static_cast<std::size_t>(rng_.uniform(base));
}

void SessionMachine::drain() {
  while (channel_.receive(net::Direction::kAtoB)) ++report_.discarded_frames;
  while (channel_.receive(net::Direction::kBtoA)) ++report_.discarded_frames;
}

std::size_t SessionMachine::wait_hint() const noexcept {
  switch (mode_) {
    case Mode::kDone:
    case Mode::kStartAttempt:
      return 0;
    case Mode::kBackoff:
      return backoff_remaining_;
    case Mode::kExpect:
      if (channel_.readable(expect_direction_)) return 0;
      // A pollable channel (delay-injecting fault layer) may deliver the
      // expected frame on any tick, so the next poll is worth running
      // soon. A bare channel cannot conjure a frame: the remaining budget
      // is pure waiting, plus one step to trigger the attempt failure.
      if (channel_.pollable()) return 1;
      return policy_.receive_poll_budget >= expect_polls_
                 ? policy_.receive_poll_budget - expect_polls_ + 1
                 : 1;
  }
  return 0;
}

bool SessionMachine::step() {
  for (;;) {
    switch (mode_) {
      case Mode::kDone:
        return false;

      case Mode::kStartAttempt: {
        if (attempt_ > policy_.max_attempts) {
          mode_ = Mode::kDone;
          return false;
        }
        report_.attempts = attempt_;
        if (attempt_ > 1) {
          // Jitter is drawn now, before the first backoff poll, so the
          // DRBG draw order is fixed: jitter, then the attempt's nonce.
          backoff_remaining_ = backoff_ticks(attempt_ - 1);
          mode_ = Mode::kBackoff;
          continue;
        }
        start_attempt();
        continue;
      }

      case Mode::kBackoff: {
        if (backoff_remaining_ == 0) {
          drain();
          start_attempt();
          continue;
        }
        --backoff_remaining_;
        ++report_.backoff_ticks;
        channel_.poll();
        return true;
      }

      case Mode::kExpect: {
        bool matched = false;
        std::size_t discards_this_step = 0;
        while (auto frame = channel_.receive(expect_direction_)) {
          if (frame->type != expect_type_ || frame->session_id != sid_) {
            // Duplicate, stale-attempt, or type-corrupted frame: skip it.
            // Each discard consumes a queued frame, and the per-step
            // budget below yields to the scheduler under a flood — a
            // hostile inbox can cost us steps, never an unbounded one.
            ++report_.discarded_frames;
            if (++discards_this_step >= kMaxDiscardsPerStep) {
              // Yield without polling: the remaining frames are handled
              // on the next step, so transcripts are byte-identical to
              // an unbudgeted run.
              return true;
            }
            continue;
          }
          if (frame->payload.size() > kMaxFrameBytes) {
            // Matches the expectation but cannot be legitimate: reject on
            // length alone, before any parse or MAC code touches it.
            ++report_.discarded_frames;
            ++report_.malformed_frames;
            if (++discards_this_step >= kMaxDiscardsPerStep) return true;
            continue;
          }
          matched = true;
          switch (on_frame(*frame)) {
            case FrameOutcome::kAdvance:
              break;  // on_frame installed the next expectation
            case FrameOutcome::kConverged:
              report_.result = SessionResult::kConverged;
              mode_ = Mode::kDone;
              break;
            case FrameOutcome::kFailAttempt:
              // The frame parsed as ours but failed protocol checks —
              // corruption or hostility either way.
              ++report_.malformed_frames;
              fail_attempt();
              break;
          }
          break;
        }
        if (matched) continue;
        if (expect_polls_ >= policy_.receive_poll_budget) {
          fail_attempt();
          continue;
        }
        ++expect_polls_;
        ++report_.poll_ticks;
        channel_.poll();
        return true;
      }
    }
  }
}

AuthSessionMachine::AuthSessionMachine(net::DuplexChannel& channel,
                                       const RetryPolicy& policy,
                                       crypto::ChaChaDrbg& rng,
                                       AuthVerifier& verifier,
                                       AuthDevice& device,
                                       std::uint64_t session_base)
    : SessionMachine(channel, policy, rng, session_base),
      verifier_(verifier),
      device_(device) {}

void AuthSessionMachine::begin_attempt() {
  phase_ = 0;
  const std::uint64_t nonce = rng_.next_u64();
  channel_.send(net::Direction::kAtoB, verifier_.start(sid_, nonce));
  expect_next(net::Direction::kAtoB, net::MessageType::kAuthRequest);
}

SessionMachine::FrameOutcome AuthSessionMachine::on_frame(
    const net::Message& frame) {
  using net::Direction;
  using net::MessageType;
  switch (phase_) {
    case 0: {
      const auto response = device_.handle_request(frame);
      if (!response) return FrameOutcome::kFailAttempt;  // corrupted payload
      channel_.send(Direction::kBtoA, *response);
      phase_ = 1;
      expect_next(Direction::kBtoA, MessageType::kAuthResponse);
      return FrameOutcome::kAdvance;
    }
    case 1: {
      const auto outcome = verifier_.process_response(frame);
      report_.last_auth_status = outcome.status;
      if (outcome.status != AuthStatus::kOk || !outcome.confirm) {
        return FrameOutcome::kFailAttempt;
      }
      channel_.send(Direction::kAtoB, *outcome.confirm);
      phase_ = 2;
      // The verifier has already rotated; if the confirm is lost the
      // device stays on the old secret and the *next* attempt recovers
      // through the verifier's one-deep fallback (mutual_auth.hpp).
      expect_next(Direction::kAtoB, MessageType::kAuthConfirm);
      return FrameOutcome::kAdvance;
    }
    default: {
      if (device_.handle_confirm(frame) != AuthStatus::kOk) {
        return FrameOutcome::kFailAttempt;
      }
      report_.last_auth_status = AuthStatus::kOk;
      return FrameOutcome::kConverged;
    }
  }
}

EkeSessionMachine::EkeSessionMachine(net::DuplexChannel& channel,
                                     const RetryPolicy& policy,
                                     crypto::ChaChaDrbg& rng,
                                     EkeParty& initiator, EkeParty& responder,
                                     std::uint64_t session_base)
    : SessionMachine(channel, policy, rng, session_base),
      initiator_(initiator),
      responder_(responder) {}

void EkeSessionMachine::begin_attempt() {
  phase_ = 0;
  // initiate() rolls fresh ephemerals per attempt, so a replayed or
  // delayed hello of a dead attempt can never be completed later.
  channel_.send(net::Direction::kAtoB, initiator_.initiate(sid_));
  expect_next(net::Direction::kAtoB, net::MessageType::kEkeClientHello);
}

SessionMachine::FrameOutcome EkeSessionMachine::on_frame(
    const net::Message& frame) {
  using net::Direction;
  using net::MessageType;
  switch (phase_) {
    case 0: {
      const auto server_hello = responder_.respond(frame);
      if (!server_hello) return FrameOutcome::kFailAttempt;  // bad hello
      channel_.send(Direction::kBtoA, *server_hello);
      phase_ = 1;
      expect_next(Direction::kBtoA, MessageType::kEkeServerHello);
      return FrameOutcome::kAdvance;
    }
    case 1: {
      const auto client_confirm = initiator_.confirm(frame);
      // MAC mismatch wipes the key — retry with fresh ephemerals.
      if (!client_confirm) return FrameOutcome::kFailAttempt;
      channel_.send(Direction::kAtoB, *client_confirm);
      phase_ = 2;
      expect_next(Direction::kAtoB, MessageType::kEkeClientConfirm);
      return FrameOutcome::kAdvance;
    }
    default: {
      if (!responder_.finalize(frame)) return FrameOutcome::kFailAttempt;
      return FrameOutcome::kConverged;
    }
  }
}

SessionReport run_serial(std::uint64_t seed, const MachineFactory& build) {
  crypto::ChaChaDrbg rng(session_driver_seed_bytes(seed));
  const std::unique_ptr<SessionMachine> machine = build(rng);
  while (machine->step()) {
  }
  return machine->report();
}

namespace {

// One attempt with the default 8-poll receive budget: a lost frame fails
// the exchange instead of retrying it.
constexpr RetryPolicy kOneShot{.max_attempts = 1};

}  // namespace

bool run_auth_session(AuthVerifier& verifier, AuthDevice& device,
                      net::DuplexChannel& channel, std::uint64_t session_id,
                      std::uint64_t seed) {
  const SessionReport report =
      run_serial(seed, [&](crypto::ChaChaDrbg& rng) {
        return std::make_unique<AuthSessionMachine>(
            channel, kOneShot, rng, verifier, device, session_id - 1);
      });
  return report.result == SessionResult::kConverged;
}

EkeHandshakeOutcome run_eke_handshake(const crypto::Bytes& initiator_secret,
                                      const crypto::Bytes& responder_secret,
                                      const crypto::DhGroup& group,
                                      std::uint64_t session_id,
                                      std::uint64_t seed) {
  crypto::Bytes seed_i = crypto::bytes_of("eke-i");
  crypto::append_u64_be(seed_i, seed);
  crypto::Bytes seed_r = crypto::bytes_of("eke-r");
  crypto::append_u64_be(seed_r, seed);
  EkeParty initiator(initiator_secret, group, crypto::ChaChaDrbg(seed_i));
  EkeParty responder(responder_secret, group, crypto::ChaChaDrbg(seed_r));

  net::DuplexChannel channel;
  const SessionReport report =
      run_serial(seed, [&](crypto::ChaChaDrbg& rng) {
        return std::make_unique<EkeSessionMachine>(
            channel, kOneShot, rng, initiator, responder, session_id - 1);
      });
  EkeHandshakeOutcome outcome;
  if (report.result != SessionResult::kConverged) return outcome;
  outcome.initiator_key = initiator.session_key().clone();
  outcome.responder_key = responder.session_key().clone();
  outcome.keys_match =
      common::ct_equal(outcome.initiator_key, outcome.responder_key);
  return outcome;
}

}  // namespace neuropuls::core
