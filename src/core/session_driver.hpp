// Session machines: the one place each protocol exchange is sequenced.
//
// A SessionMachine wraps one protocol exchange (HSC-IoT mutual auth or
// EKE) in a bounded retry/timeout/backoff state machine, so a dropped or
// corrupted frame over a faulty link (faults::FaultyChannel) costs a
// retry instead of hanging or aborting the exchange:
//
//   attempt k (session id = base + k):
//     run the handshake, each receive bounded by `receive_poll_budget`
//     channel polls (stale/wrong-type frames of other attempts are
//     discarded, not consumed against the budget);
//   on failure: drain both directions, back off for a deterministic
//     jittered number of poll ticks, and retry with a fresh session id —
//     up to `max_attempts` attempts, then report kExhausted.
//
// Security invariants (asserted by tests/chaos):
//   * no false accept — a corrupted frame can only fail a MAC/length
//     check and trigger a retry, never complete a session with divergent
//     secrets;
//   * bounded work — every receive and every backoff consumes budget, so
//     a session terminates for any fault schedule (no deadlock at 100%
//     drop);
//   * determinism — nonces and backoff jitter come from a per-session
//     ChaCha DRBG seeded by the session's seed (protocol layer: crypto
//     DRBG, never the simulation PRNGs), so the same seeds reproduce the
//     same transcript byte-for-byte.
//
// step() advances a session until its next channel poll (the unit of
// simulated time) and then yields. run_serial() steps one machine to
// completion on the calling thread; core::SessionEngine multiplexes many.
// Both take the same (seed, factory) pair, so a serial run and an engine
// run execute the identical operation sequence per session — that
// equivalence is what the engine's determinism tests pin.
// run_auth_session() and run_eke_handshake() are one-shot run_serial()
// calls: a single attempt, no retry.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "core/aka_eke.hpp"
#include "core/mutual_auth.hpp"
#include "crypto/chacha20.hpp"
#include "net/channel.hpp"

namespace neuropuls::core {

struct RetryPolicy {
  unsigned max_attempts = 4;
  /// Channel polls a single receive may burn before declaring the frame
  /// lost (also how long a delayed frame can be outwaited).
  std::size_t receive_poll_budget = 8;
  /// Exponential backoff between attempts, in poll ticks: attempt k waits
  /// min(base << (k-1), max) + jitter ticks, jitter in [0, base).
  std::size_t backoff_base_polls = 2;
  std::size_t backoff_max_polls = 32;
};

/// Stale/duplicate frames one step may discard before yielding back to
/// the scheduler — bounds per-step work under a frame flood so one
/// hostile session cannot monopolise a worker. The budget only defers
/// the remaining discards to the next step, so transcripts are unchanged.
inline constexpr std::size_t kMaxDiscardsPerStep = 32;

/// Frames with a larger payload are discarded (and counted as malformed)
/// before the protocol's on_frame parse code ever runs. Generous: every
/// legitimate frame in this stack is < 4 KiB.
inline constexpr std::size_t kMaxFrameBytes = std::size_t{1} << 16;

enum class SessionResult {
  kConverged,  // both parties completed and agree
  kExhausted,  // retry budget spent without convergence
  kShed,       // rejected by admission control before any protocol work
  kEvicted,    // killed half-open by admission control's eviction policy
};

/// DRBG seed bytes of a session stream ("np-session-driver" || seed
/// big-endian) — shared by run_serial and core::SessionEngine so an
/// engine session with seed s reproduces run_serial(s, ...) byte-for-byte.
crypto::Bytes session_driver_seed_bytes(std::uint64_t seed);

struct SessionReport {
  SessionResult result = SessionResult::kExhausted;
  unsigned attempts = 0;           // attempts started (1-based)
  std::uint64_t poll_ticks = 0;    // polls burned waiting on receives
  std::uint64_t backoff_ticks = 0;  // polls burned backing off
  std::uint64_t discarded_frames = 0;  // stale/wrong-type frames skipped
  /// Frames that matched the expected (direction, type, sid) but were
  /// oversized or failed protocol processing — the sender either garbled
  /// a frame or is attacking; an admission controller charges these
  /// against the client's rate bucket.
  std::uint64_t malformed_frames = 0;
  /// Last verifier-side status of a failed mutual-auth attempt (kOk when
  /// the session converged; meaningless for EKE).
  AuthStatus last_auth_status = AuthStatus::kOk;

  bool operator==(const SessionReport&) const = default;
};

/// One retried protocol exchange as a resumable state machine. step()
/// advances the session until it performs exactly one channel poll (or
/// terminates), so a scheduler can hold many sessions in flight without
/// any session blocking a thread. The DRBG draw order is fixed: backoff
/// jitter at backoff entry, then the attempt's nonce.
///
/// The machine borrows everything it touches — channel, DRBG, protocol
/// endpoints — and owns only control state; run_serial and the engine
/// each give a session its own DRBG.
class SessionMachine {
 public:
  virtual ~SessionMachine() = default;
  SessionMachine(const SessionMachine&) = delete;
  SessionMachine& operator=(const SessionMachine&) = delete;

  /// Advances until the next channel poll or a terminal state. Returns
  /// true while the session is still running.
  bool step();

  bool done() const noexcept { return mode_ == Mode::kDone; }
  const SessionReport& report() const noexcept { return report_; }

  /// Scheduling hint for reactors: how many channel polls this machine
  /// will necessarily burn before it can make protocol progress. Every
  /// frame it can receive is produced inside its own step(), so nothing
  /// else can shorten that wait. 0 means "may progress now" (a frame is
  /// readable, or an attempt is about to start). Stepping earlier than
  /// the hint is always *correct* — every poll is an explicit step, so
  /// the transcript cannot depend on when a scheduler chooses to run
  /// them — the hint only tells a reactor how long parking is profitable.
  std::size_t wait_hint() const noexcept;

 protected:
  SessionMachine(net::DuplexChannel& channel, const RetryPolicy& policy,
                 crypto::ChaChaDrbg& rng, std::uint64_t session_base);

  /// What a protocol did with a matching frame.
  enum class FrameOutcome {
    kAdvance,      // sent the next frame and updated the expectation
    kConverged,    // exchange complete
    kFailAttempt,  // processing failed — retry with the next attempt
  };

  /// Sends the attempt's opening frame(s) and installs the first
  /// expectation via expect_next(). `sid_` is already set.
  virtual void begin_attempt() = 0;
  /// Handles a frame matching the current expectation.
  virtual FrameOutcome on_frame(const net::Message& frame) = 0;

  /// Installs the next expected (direction, type) and resets the
  /// per-receive poll budget.
  void expect_next(net::Direction direction, net::MessageType type);

  net::DuplexChannel& channel_;
  RetryPolicy policy_;
  crypto::ChaChaDrbg& rng_;
  std::uint64_t sid_ = 0;
  SessionReport report_;

 private:
  enum class Mode { kStartAttempt, kBackoff, kExpect, kDone };

  void start_attempt();
  void fail_attempt();
  std::size_t backoff_ticks(unsigned attempt);
  void drain();

  std::uint64_t session_base_;
  Mode mode_ = Mode::kStartAttempt;
  unsigned attempt_ = 1;
  std::size_t backoff_remaining_ = 0;
  std::size_t expect_polls_ = 0;
  net::Direction expect_direction_ = net::Direction::kAtoB;
  net::MessageType expect_type_{};
};

/// HSC-IoT mutual authentication as a SessionMachine. Session ids are
/// `session_base + attempt` so late frames of a failed attempt can never
/// satisfy a later one.
class AuthSessionMachine final : public SessionMachine {
 public:
  AuthSessionMachine(net::DuplexChannel& channel, const RetryPolicy& policy,
                     crypto::ChaChaDrbg& rng, AuthVerifier& verifier,
                     AuthDevice& device, std::uint64_t session_base);

 private:
  void begin_attempt() override;
  FrameOutcome on_frame(const net::Message& frame) override;

  AuthVerifier& verifier_;
  AuthDevice& device_;
  unsigned phase_ = 0;
};

/// EKE AKA as a SessionMachine. On kConverged both parties hold matching
/// session keys (asserted via common::ct_equal in tests).
class EkeSessionMachine final : public SessionMachine {
 public:
  EkeSessionMachine(net::DuplexChannel& channel, const RetryPolicy& policy,
                    crypto::ChaChaDrbg& rng, EkeParty& initiator,
                    EkeParty& responder, std::uint64_t session_base);

 private:
  void begin_attempt() override;
  FrameOutcome on_frame(const net::Message& frame) override;

  EkeParty& initiator_;
  EkeParty& responder_;
  unsigned phase_ = 0;
};

/// Builds one session's machine bound to the session's DRBG, which stays
/// at a stable address for the machine's lifetime. The caller keeps the
/// channel and protocol endpoints the machine borrows alive until the
/// session completes.
using MachineFactory =
    std::function<std::unique_ptr<SessionMachine>(crypto::ChaChaDrbg& rng)>;

/// The serial reference: seeds a DRBG from session_driver_seed_bytes(seed),
/// builds the machine, and steps it to completion on the calling thread.
/// Takes exactly what SessionEngine::submit takes.
SessionReport run_serial(std::uint64_t seed, const MachineFactory& build);

/// One HSC-IoT session (session id `session_id`, nonce drawn from the
/// run_serial DRBG of `seed`), single attempt. Returns true iff both
/// sides authenticated and rotated.
bool run_auth_session(AuthVerifier& verifier, AuthDevice& device,
                      net::DuplexChannel& channel, std::uint64_t session_id,
                      std::uint64_t seed);

/// Both parties' keys of a one-shot EKE handshake; empty unless the
/// handshake converged.
struct EkeHandshakeOutcome {
  common::SecretBytes initiator_key;
  common::SecretBytes responder_key;
  bool keys_match = false;
};

/// One EKE handshake in-process (session id `session_id`), single
/// attempt. The parties' ephemeral DRBGs are seeded "eke-i"/"eke-r" ||
/// `seed`.
EkeHandshakeOutcome run_eke_handshake(const crypto::Bytes& initiator_secret,
                                      const crypto::Bytes& responder_secret,
                                      const crypto::DhGroup& group,
                                      std::uint64_t session_id,
                                      std::uint64_t seed);

}  // namespace neuropuls::core
