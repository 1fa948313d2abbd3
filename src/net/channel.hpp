// In-process duplex channel with an adversarial interception layer.
//
// Protocol security in §III/§IV is a property of message ordering and
// content, independent of physical transport, so an in-process transcript
// of frames is a faithful substrate. The `Adversary` hook sees every frame
// in both directions and may pass, drop, modify, or replace it, and may
// inject recorded frames later — enough to express replay, tampering,
// man-in-the-middle, and desynchronisation attacks (exercised in
// `src/attacks/protocol_attacks.hpp`).
#pragma once

#include <cstddef>
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

/// Poll callback: invoked by `poll()` each time a receiver waits with
/// nothing pending. This is the channel's notion of time passing — a
/// delay-injecting adversary (faults::FaultyChannel) uses it to tick held
/// frames toward delivery.
using PollHook = std::function<void()>;

struct TranscriptEntry {
  Direction direction;
  Message message;
  bool delivered;  // false when the adversary dropped or replaced it
};

/// Duplex channel between endpoints A (verifier) and B (device).
///
/// The transcript is the channel's only frame store: a direction delivers
/// its delivered transcript entries in order, tracked by a read cursor.
///
/// Threading contract: the whole channel — transcript, cursors,
/// adversary, poll hook — is owned by the single session that owns it.
/// The engine steps one session on one worker at a time, and both ends
/// of the channel send only from inside that session's step(), so the
/// channel holds no lock.
class DuplexChannel {
 public:
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
    return cursor_for(direction).pending != 0;
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

  /// Receives a copy of the next pending frame for the far end of
  /// `direction` (i.e., receive(kAtoB) returns what B should read).
  std::optional<Message> receive(Direction direction);

  /// Delivers a frame directly, bypassing the adversary —
  /// used by the adversary itself to replay recorded frames.
  void inject(Direction direction, Message message);

  const std::vector<TranscriptEntry>& transcript() const noexcept {
    return transcript_;
  }

  std::size_t pending(Direction direction) const noexcept {
    return cursor_for(direction).pending;
  }

 private:
  /// A direction's read position in the transcript.
  struct Cursor {
    std::size_t next = 0;     // no delivered entry before it is unread
    std::size_t pending = 0;  // delivered entries not yet received
  };

  Cursor& cursor_for(Direction direction) noexcept {
    return direction == Direction::kAtoB ? a_to_b_ : b_to_a_;
  }
  const Cursor& cursor_for(Direction direction) const noexcept {
    return direction == Direction::kAtoB ? a_to_b_ : b_to_a_;
  }

  Adversary adversary_;
  PollHook poll_hook_;
  std::vector<TranscriptEntry> transcript_;
  Cursor a_to_b_;
  Cursor b_to_a_;
};

}  // namespace neuropuls::net
