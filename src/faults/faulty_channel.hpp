// Lossy/adversarial transport faults over net::DuplexChannel.
//
// The protocol stack (§III/§IV) is exercised over an in-process channel
// that never loses a frame; a real verifier link drops, duplicates,
// reorders, corrupts, and delays them. FaultyChannel injects exactly
// those failures as a reusable `net::Adversary` plus a poll hook:
//
//   * drop      — frame vanishes (recorded undelivered in the transcript);
//   * corrupt   — one seeded bit of the payload flips (empty payloads get
//                 their type flipped), so MAC checks must catch it;
//   * duplicate — a second copy is injected ahead of the original;
//   * delay     — the frame is held for a seeded number of poll ticks
//                 (DuplexChannel::poll) and then injected — "late",
//                 not "lost";
//   * reorder   — the frame is held until the *next* frame in the same
//                 direction is sent, then released on the following poll
//                 tick, so it arrives behind a later frame.
//
// Determinism contract: all decisions come from one Xoshiro256 stream per
// direction, seeded from (seed, direction). Given the same seed and the
// same sequence of sends/polls, the fault schedule — and therefore the
// whole channel transcript — is bit-identical across runs. The chaos
// suite asserts this byte-for-byte.
#pragma once

#include <cstdint>
#include <vector>

#include "crypto/prng.hpp"
#include "net/channel.hpp"

namespace neuropuls::faults {

/// Per-direction fault rates, all independent probabilities in [0, 1].
struct LinkFaultRates {
  double drop = 0.0;
  double corrupt = 0.0;
  double duplicate = 0.0;
  double delay = 0.0;
  double reorder = 0.0;
  unsigned max_delay_polls = 4;  // delay holds for 1..max_delay_polls ticks
};

/// Convenience: the same rates in both directions.
LinkFaultRates symmetric_drop(double drop_rate);

struct ChannelFaultConfig {
  LinkFaultRates a_to_b;
  LinkFaultRates b_to_a;
};

/// Both directions share `rates`.
ChannelFaultConfig symmetric_faults(LinkFaultRates rates);

struct ChannelFaultStats {
  std::uint64_t intercepted = 0;
  std::uint64_t dropped = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t delayed = 0;
  std::uint64_t reordered = 0;
};

/// Installs a seeded fault-injecting adversary (and the matching poll
/// hook) on a DuplexChannel. The FaultyChannel must outlive any use of
/// the channel; its destructor detaches both hooks.
///
/// Threading contract: like the channel's queues, all FaultyChannel
/// state (held frames, fault PRNG streams, stats) belongs to the single
/// session that owns the channel — the adversary and poll hooks only run
/// inside that session's send()/poll() calls, which the engine already
/// serializes (one worker steps a session at a time), so it holds no
/// lock of its own. Delayed/reordered frames re-enter the channel via
/// inject() from inside that same poll(), so they too arrive on the
/// owning session's thread.
class FaultyChannel {
 public:
  FaultyChannel(net::DuplexChannel& channel, ChannelFaultConfig config,
                std::uint64_t seed);
  ~FaultyChannel();

  FaultyChannel(const FaultyChannel&) = delete;
  FaultyChannel& operator=(const FaultyChannel&) = delete;

  net::DuplexChannel& channel() noexcept { return channel_; }
  const ChannelFaultStats& stats(net::Direction direction) const noexcept {
    return direction == net::Direction::kAtoB ? stats_ab_ : stats_ba_;
  }

  /// Frames currently held by the delay/reorder machinery.
  std::size_t held() const noexcept { return held_.size(); }

  /// Delivers every held frame immediately (e.g. at the end of a chaos
  /// scenario, so "delayed" never silently becomes "lost").
  void flush();

 private:
  struct HeldFrame {
    net::Direction direction;
    net::Message message;
    unsigned ticks_remaining = 0;
    bool waiting_for_send = false;  // reorder: release after the next send
  };

  net::Verdict intercept(net::Direction direction, const net::Message& message);
  void on_poll();
  rng::Xoshiro256& rng_for(net::Direction direction) noexcept {
    return direction == net::Direction::kAtoB ? rng_ab_ : rng_ba_;
  }
  ChannelFaultStats& stats_for(net::Direction direction) noexcept {
    return direction == net::Direction::kAtoB ? stats_ab_ : stats_ba_;
  }

  net::DuplexChannel& channel_;
  ChannelFaultConfig config_;
  rng::Xoshiro256 rng_ab_;
  rng::Xoshiro256 rng_ba_;
  ChannelFaultStats stats_ab_;
  ChannelFaultStats stats_ba_;
  std::vector<HeldFrame> held_;
};

}  // namespace neuropuls::faults
