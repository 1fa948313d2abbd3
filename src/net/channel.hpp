// In-process duplex channel with an adversarial interception layer.
//
// Protocol security in §III/§IV is a property of message ordering and
// content, independent of physical transport, so an in-process queue pair
// is a faithful substrate. The `Adversary` hook sees every frame in both
// directions and may pass, drop, modify, or replace it, and may inject
// recorded frames later — enough to express replay, tampering,
// man-in-the-middle, and desynchronisation attacks (exercised in
// `src/attacks/protocol_attacks.hpp`).
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "net/message.hpp"

namespace neuropuls::net {

enum class Direction { kAtoB, kBtoA };

/// What the adversary decided to do with an intercepted frame.
struct Verdict {
  enum class Action { kPass, kDrop, kReplace } action = Action::kPass;
  Message replacement;  // used when action == kReplace

  static Verdict pass() { return {Action::kPass, {}}; }
  static Verdict drop() { return {Action::kDrop, {}}; }
  static Verdict replace(Message m) { return {Action::kReplace, std::move(m)}; }
};

/// Adversary callback: full knowledge of direction and content.
using Adversary = std::function<Verdict(Direction, const Message&)>;

/// Poll callback: invoked by `poll()` each time a receiver waits on an
/// empty queue. This is the channel's notion of
/// time passing — a delay-injecting adversary (faults::FaultyChannel)
/// uses it to tick held frames toward delivery.
using PollHook = std::function<void()>;

struct TranscriptEntry {
  Direction direction;
  Message message;
  bool delivered;  // false when the adversary dropped it
};

/// Resource limits a network-facing endpoint imposes on the channel. The
/// defaults (all zero) mean "unbounded" — exactly the historical
/// behavior, so determinism suites that serialize transcripts are
/// unaffected unless a limit is configured.
struct ChannelLimits {
  /// Frames with a payload larger than this are dropped at send()/
  /// inject() time — before they ever occupy a queue and long before any
  /// parse code sees them. 0 = unlimited.
  std::size_t max_frame_bytes = 0;
  /// Per-direction inbox capacity: a sender whose receiver never polls
  /// cannot grow the queue without bound — a full inbox drops the frame
  /// (with a stat) instead of allocating. 0 = unlimited.
  std::size_t max_inbox_frames = 0;
  /// Transcript entries recorded before further traffic is only counted,
  /// not stored — a flood must not turn the debugging transcript into an
  /// allocation amplifier. 0 = unlimited.
  std::size_t max_transcript_frames = 0;
};

/// Shed/overflow counters, per direction, for inspection. Nothing charges
/// them to a client: the engine charges only a session's
/// SessionReport::malformed_frames to its rate bucket.
struct ChannelShedStats {
  std::uint64_t dropped_oversized = 0;  // payload > max_frame_bytes
  std::uint64_t dropped_overflow = 0;   // inbox at max_inbox_frames
  std::uint64_t transcript_truncated = 0;
};

/// Duplex channel between endpoints A (verifier) and B (device).
///
/// Threading contract: the whole channel — queues, transcript,
/// adversary, poll hook — is owned by the single session that owns it.
/// The engine steps one session on one worker at a time, and both ends
/// of the channel send only from inside that session's step(), so the
/// channel holds no lock.
class DuplexChannel {
 public:
  DuplexChannel() = default;
  explicit DuplexChannel(ChannelLimits limits) : limits_(limits) {}

  /// Installs (or replaces) the resource limits. Owned by the receiving
  /// endpoint; call before traffic flows (limits are not synchronized).
  void set_limits(ChannelLimits limits) { limits_ = limits; }
  const ChannelLimits& limits() const noexcept { return limits_; }

  /// Shed counters for frames travelling in `direction`.
  const ChannelShedStats& shed_stats(Direction direction) const noexcept {
    return direction == Direction::kAtoB ? shed_ab_ : shed_ba_;
  }

  /// Installs (or clears, with nullptr) the adversary hook.
  void set_adversary(Adversary adversary) {
    adversary_ = std::move(adversary);
  }

  /// Installs (or clears, with nullptr) the poll hook.
  void set_poll_hook(PollHook hook) { poll_hook_ = std::move(hook); }

  /// Advances channel time by one tick (runs the poll hook, if any).
  void poll() {
    if (poll_hook_) poll_hook_();
  }

  /// True when a frame is waiting for the far end of `direction` — the
  /// receiver-side readiness test a reactor checks before parking.
  bool readable(Direction direction) const noexcept {
    return !queue_for(direction).empty();
  }

  /// True when polling this channel can change its state (a poll hook is
  /// installed — e.g. a delay-injecting fault layer holding frames). A
  /// non-pollable channel with nothing readable cannot produce a frame on
  /// its own, so a receiver's remaining poll budget is pure waiting and a
  /// scheduler may park it for the full budget.
  bool pollable() const noexcept { return static_cast<bool>(poll_hook_); }

  /// Sends in the given direction; the adversary (if any) rules first,
  /// and a frame it passes or substitutes is delivered as by inject().
  void send(Direction direction, Message message);

  /// Receives the next pending frame for the far end of `direction`
  /// (i.e., receive(kAtoB) pops what B should read).
  std::optional<Message> receive(Direction direction);

  /// Injects a frame directly into a queue, bypassing the adversary —
  /// used by the adversary itself to replay recorded frames.
  void inject(Direction direction, Message message);

  const std::vector<TranscriptEntry>& transcript() const noexcept {
    return transcript_;
  }

  std::size_t pending(Direction direction) const noexcept {
    return queue_for(direction).size();
  }

 private:
  std::deque<Message>& queue_for(Direction direction) noexcept {
    return direction == Direction::kAtoB ? a_to_b_ : b_to_a_;
  }
  const std::deque<Message>& queue_for(Direction direction) const noexcept {
    return direction == Direction::kAtoB ? a_to_b_ : b_to_a_;
  }

  ChannelShedStats& shed_for(Direction direction) noexcept {
    return direction == Direction::kAtoB ? shed_ab_ : shed_ba_;
  }

  /// Records a transcript entry unless the transcript cap is reached
  /// (then only counts it).
  void record(Direction direction, Message message, bool delivered);

  /// Applies the limits to a frame about to enqueue. Returns true when
  /// the frame may be admitted; false means it was shed (recorded
  /// undelivered, stat bumped).
  bool admit_frame(Direction direction, Message& message);

  std::deque<Message> a_to_b_;
  std::deque<Message> b_to_a_;
  Adversary adversary_;
  PollHook poll_hook_;
  std::vector<TranscriptEntry> transcript_;
  ChannelLimits limits_;
  ChannelShedStats shed_ab_;
  ChannelShedStats shed_ba_;
};

}  // namespace neuropuls::net
