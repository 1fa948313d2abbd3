// Fault-injection subsystem unit tests: the DeviceFaultModel oracle, the
// ADC stuck-bit hook, the PhotonicPuf fault path (including quiet-model
// bit-identity and batch/serial identity), CRP health/quarantine, and the
// FaultyChannel transport adversary (rates, delay/reorder mechanics, and
// the seed-determinism contract).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <optional>

#include "crypto/bytes.hpp"
#include "faults/device_faults.hpp"
#include "faults/faulty_channel.hpp"
#include "net/channel.hpp"
#include "photonic/detector.hpp"
#include "puf/crp_db.hpp"
#include "puf/photonic_puf.hpp"

namespace neuropuls {
namespace {

using faults::ChannelFaultConfig;
using faults::DeviceFaultConfig;
using faults::DeviceFaultModel;
using faults::FaultyChannel;
using faults::LinkFaultRates;
using net::Direction;
using net::DuplexChannel;
using net::Message;
using net::MessageType;

// ---------------------------------------------------------------- device

TEST(DeviceFaultModel, QuietByDefaultAndIdentity) {
  const DeviceFaultModel model(DeviceFaultConfig{}, 7);
  EXPECT_TRUE(model.quiet());
  EXPECT_DOUBLE_EQ(model.photodiode_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(model.laser_scale(1000), 1.0);
  EXPECT_DOUBLE_EQ(model.temperature_offset(1000), 0.0);
  EXPECT_DOUBLE_EQ(model.phase_drift(1000, 3), 0.0);
}

TEST(DeviceFaultModel, PhotodiodeScaleTargetsOnePort) {
  DeviceFaultConfig config;
  config.photodiodes.push_back({/*port=*/1, /*responsivity_scale=*/0.25});
  const DeviceFaultModel model(config, 7);
  EXPECT_FALSE(model.quiet());
  EXPECT_DOUBLE_EQ(model.photodiode_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(model.photodiode_scale(1), 0.25);
}

TEST(DeviceFaultModel, LaserDroopIsMonotoneWithFloor) {
  DeviceFaultConfig config;
  config.laser_droop = {/*droop_per_eval=*/0.01, /*floor_scale=*/0.7};
  const DeviceFaultModel model(config, 7);
  EXPECT_DOUBLE_EQ(model.laser_scale(0), 1.0);
  EXPECT_DOUBLE_EQ(model.laser_scale(10), 0.9);
  EXPECT_DOUBLE_EQ(model.laser_scale(1000), 0.7);  // clamped at the floor
  double prev = 1.0;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    const double s = model.laser_scale(i);
    EXPECT_LE(s, prev);
    prev = s;
  }
}

TEST(DeviceFaultModel, ThermalSpikesMatchProbabilityAndSeed) {
  DeviceFaultConfig config;
  config.thermal = {/*spike_probability=*/0.2, /*magnitude_kelvin=*/5.0};
  const DeviceFaultModel model(config, 7);
  const DeviceFaultModel same(config, 7);
  const DeviceFaultModel other(config, 8);
  int spikes = 0;
  int diverged = 0;
  constexpr int kEvals = 2000;
  for (int i = 0; i < kEvals; ++i) {
    const double offset = model.temperature_offset(i);
    EXPECT_TRUE(offset == 0.0 || offset == 5.0);
    // Pure function of (seed, index): repeated queries agree.
    EXPECT_DOUBLE_EQ(same.temperature_offset(i), offset);
    if (offset != 0.0) ++spikes;
    if (other.temperature_offset(i) != offset) ++diverged;
  }
  EXPECT_NEAR(static_cast<double>(spikes) / kEvals, 0.2, 0.04);
  EXPECT_GT(diverged, 0);  // different seed, different schedule
}

TEST(DeviceFaultModel, PhaseDriftGrowsAndSaturates) {
  DeviceFaultConfig config;
  config.phase_aging = {/*drift_rad_per_eval=*/1e-3, /*max_drift_rad=*/0.1};
  const DeviceFaultModel model(config, 7);
  for (std::size_t port = 0; port < 4; ++port) {
    EXPECT_DOUBLE_EQ(model.phase_drift(0, port), 0.0);
    const double early = std::abs(model.phase_drift(10, port));
    const double late = std::abs(model.phase_drift(1000, port));
    EXPECT_LE(early, late + 1e-12);
    EXPECT_LE(late, 0.1);
  }
  // Ports age independently (seeded direction/magnitude factors differ).
  EXPECT_NE(model.phase_drift(1000, 0), model.phase_drift(1000, 1));
}

TEST(AdcStuckBits, MasksApplyInsideCodeRange) {
  photonic::Adc adc(photonic::AdcParameters{8, 1.0, 0.0});
  const std::uint32_t healthy = adc.quantize(0.5);
  adc.set_stuck_bits(/*or_mask=*/0x01, /*and_mask=*/~0x80u);
  const std::uint32_t faulty = adc.quantize(0.5);
  EXPECT_EQ(faulty, ((healthy | 0x01u) & ~0x80u) & adc.max_code());
  EXPECT_EQ(faulty & 0x01u, 0x01u);
  EXPECT_EQ(faulty & 0x80u, 0u);
  // Saturated input still saturates within the masked range.
  EXPECT_EQ(adc.quantize(10.0), (adc.max_code() & ~0x80u) | 0x01u);
  // Identity masks restore exact pre-fault behaviour.
  adc.set_stuck_bits(0, 0xFFFFFFFFu);
  EXPECT_EQ(adc.quantize(0.5), healthy);
}

TEST(AdcStuckBits, ReadoutChainForwards) {
  photonic::ReadoutChain chain(photonic::PhotodiodeParameters{},
                               photonic::TiaParameters{},
                               photonic::AdcParameters{8, 1.0, 0.0},
                               25e9, /*seed=*/3);
  const std::vector<photonic::Complex> fields(16, photonic::Complex{0.5, 0.2});
  photonic::ReadoutChain stuck(photonic::PhotodiodeParameters{},
                               photonic::TiaParameters{},
                               photonic::AdcParameters{8, 1.0, 0.0},
                               25e9, /*seed=*/3);
  stuck.set_adc_stuck_bits(0xFF, 0xFF);  // low byte forced to all-ones
  const auto healthy = chain.integrate(fields);
  const auto faulty = stuck.integrate(fields);
  // Identical seeds -> identical analog chain; only the code differs.
  EXPECT_DOUBLE_EQ(faulty.mean_volts, healthy.mean_volts);
  EXPECT_EQ(faulty.code, 0xFFu);
}

// ------------------------------------------------------------- puf hooks

puf::PhotonicPuf make_puf() {
  return puf::PhotonicPuf(puf::small_photonic_config(), /*wafer_seed=*/2024,
                          /*device_index=*/0);
}

puf::Challenge make_challenge(std::uint64_t i, std::size_t bytes) {
  crypto::Bytes c(bytes, 0);
  for (std::size_t k = 0; k < bytes; ++k) {
    c[k] = static_cast<std::uint8_t>((i >> (8 * (k % 8))) ^ (0x5A + k));
  }
  return c;
}

TEST(PhotonicPufFaults, QuietModelIsBitIdentical) {
  auto healthy = make_puf();
  auto with_quiet = make_puf();
  with_quiet.set_fault_model(
      std::make_shared<const DeviceFaultModel>(DeviceFaultConfig{}, 99));
  for (int i = 0; i < 8; ++i) {
    const auto c = make_challenge(i, healthy.challenge_bytes());
    EXPECT_EQ(healthy.evaluate(c), with_quiet.evaluate(c)) << i;
  }
}

TEST(PhotonicPufFaults, NoiselessModelNeverSeesFaults) {
  auto healthy = make_puf();
  auto faulted = make_puf();
  DeviceFaultConfig config;
  config.photodiodes.push_back({0, 0.0});  // dead photodiode on port 0
  config.thermal = {1.0, 10.0};
  faulted.set_fault_model(std::make_shared<const DeviceFaultModel>(config, 5));
  for (int i = 0; i < 4; ++i) {
    const auto c = make_challenge(i, healthy.challenge_bytes());
    EXPECT_EQ(healthy.evaluate_noiseless(c), faulted.evaluate_noiseless(c));
  }
}

TEST(PhotonicPufFaults, DeadPhotodiodeCorruptsResponses) {
  auto healthy = make_puf();
  auto faulted = make_puf();
  DeviceFaultConfig config;
  config.photodiodes.push_back({0, 0.0});
  faulted.set_fault_model(std::make_shared<const DeviceFaultModel>(config, 5));
  // Same device seed, same counter sequence: any divergence is the fault.
  int diverged = 0;
  for (int i = 0; i < 8; ++i) {
    const auto c = make_challenge(i, healthy.challenge_bytes());
    if (healthy.evaluate(c) != faulted.evaluate(c)) ++diverged;
  }
  EXPECT_GT(diverged, 0);
}

TEST(PhotonicPufFaults, BatchMatchesSerialUnderFaults) {
  DeviceFaultConfig config;
  config.thermal = {0.3, 3.0};
  config.laser_droop = {1e-3, 0.8};
  config.phase_aging = {1e-4, 0.2};
  const auto model = std::make_shared<const DeviceFaultModel>(config, 11);

  auto serial = make_puf();
  serial.set_fault_model(model);
  auto batched = make_puf();
  batched.set_fault_model(model);

  std::vector<puf::Challenge> challenges;
  for (int i = 0; i < 12; ++i) {
    challenges.push_back(make_challenge(i, serial.challenge_bytes()));
  }
  std::vector<puf::Response> expected;
  for (const auto& c : challenges) expected.push_back(serial.evaluate(c));
  const auto got = batched.evaluate_batch(challenges);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], expected[i]) << "item " << i;
  }
}

TEST(PhotonicPufFaults, EvaluateRobustReducesThermalFaultErrors) {
  DeviceFaultConfig config;
  config.thermal = {/*spike_probability=*/0.3, /*magnitude_kelvin=*/2.0};
  const auto model = std::make_shared<const DeviceFaultModel>(config, 13);

  auto puf = make_puf();
  const auto c = make_challenge(1, puf.challenge_bytes());
  const auto reference = puf.evaluate_noiseless(c);
  puf.set_fault_model(model);

  // Average per-read error vs the model reference, single reads...
  double single_err = 0.0;
  constexpr int kReads = 15;
  for (int i = 0; i < kReads; ++i) {
    single_err +=
        crypto::fractional_hamming_distance(puf.evaluate(c), reference);
  }
  single_err /= kReads;
  // ...vs 5-of-n majority re-measurement. Majority voting averages the
  // transient spikes out, so it can only do as well or better.
  double robust_err = 0.0;
  constexpr int kRobustReads = 3;
  for (int i = 0; i < kRobustReads; ++i) {
    robust_err += crypto::fractional_hamming_distance(
        puf.evaluate_robust(c, 5), reference);
  }
  robust_err /= kRobustReads;
  EXPECT_LE(robust_err, single_err + 1e-9);
}

// ------------------------------------------------------------ crp health

puf::Crp synthetic_crp(std::uint8_t tag) {
  return puf::Crp{crypto::Bytes(8, tag), crypto::Bytes(16, tag)};
}

TEST(CrpHealth, FailuresQuarantineAtThreshold) {
  puf::CrpDatabase db;
  db.set_quarantine_threshold(3);
  db.insert(synthetic_crp(1));
  const auto challenge = crypto::Bytes(8, 1);

  db.record_failure(challenge);
  db.record_failure(challenge);
  EXPECT_FALSE(db.health(challenge)->quarantined);
  EXPECT_TRUE(db.lookup(challenge).has_value());

  db.record_failure(challenge);
  const auto health = db.health(challenge);
  ASSERT_TRUE(health.has_value());
  EXPECT_TRUE(health->quarantined);
  EXPECT_EQ(health->failures, 3u);
  EXPECT_EQ(db.quarantined(), 1u);
  // Quarantined CRPs are never served.
  EXPECT_FALSE(db.lookup(challenge).has_value());
  EXPECT_FALSE(db.take(challenge).has_value());
}

TEST(CrpHealth, SuccessResetsConsecutiveRun) {
  puf::CrpDatabase db;
  db.set_quarantine_threshold(3);
  db.insert(synthetic_crp(1));
  const auto challenge = crypto::Bytes(8, 1);
  db.record_failure(challenge);
  db.record_failure(challenge);
  db.record_success(challenge);
  db.record_failure(challenge);
  db.record_failure(challenge);
  const auto health = db.health(challenge);
  EXPECT_FALSE(health->quarantined);
  EXPECT_EQ(health->successes, 1u);
  EXPECT_EQ(health->failures, 4u);
  EXPECT_EQ(health->consecutive_failures, 2u);
}

TEST(CrpHealth, TakeSkipsQuarantinedAndEvictionRemoves) {
  puf::CrpDatabase db;
  db.set_quarantine_threshold(1);
  db.insert(synthetic_crp(1));
  db.insert(synthetic_crp(2));
  db.insert(synthetic_crp(3));
  db.record_failure(crypto::Bytes(8, 3));  // quarantine the back entry

  EXPECT_FALSE(db.take(crypto::Bytes(8, 3)).has_value());
  const auto taken = db.take(crypto::Bytes(8, 1));
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->response, crypto::Bytes(16, 1));
  EXPECT_EQ(db.size(), 2u);

  EXPECT_EQ(db.evict_quarantined(), 1u);
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.quarantined(), 0u);
  // Index stays consistent after swap-removals.
  const auto remaining = db.take(crypto::Bytes(8, 2));
  ASSERT_TRUE(remaining.has_value());
  EXPECT_EQ(remaining->response, crypto::Bytes(16, 2));
  EXPECT_TRUE(db.empty());
}

// Regression: a take must erase the consumed challenge from the index
// *before* moving the CRP out. Erasing afterwards probed the map with a
// moved-from (empty) key, stranding a stale index entry that pointed at a
// popped slot (out-of-bounds) or at whichever CRP got swap-compacted in
// (misattributed lookups/health counters). Taking the front entry makes
// the back one move into its slot.
TEST(CrpHealth, TakeRemovesConsumedChallengeFromIndex) {
  puf::CrpDatabase db;
  db.insert(synthetic_crp(1));
  db.insert(synthetic_crp(2));
  db.insert(synthetic_crp(3));

  const auto taken = db.take(crypto::Bytes(8, 1));
  ASSERT_TRUE(taken.has_value());
  // The consumed pair is gone from every index-backed accessor...
  EXPECT_FALSE(db.lookup(taken->challenge).has_value());
  EXPECT_FALSE(db.health(taken->challenge).has_value());
  // ...and outcomes recorded against it are dropped, not charged to the
  // entry now occupying the freed slot.
  db.record_failure(taken->challenge);
  db.record_failure(taken->challenge);
  db.record_failure(taken->challenge);
  EXPECT_EQ(db.quarantined(), 0u);
  EXPECT_EQ(db.health(crypto::Bytes(8, 2))->failures, 0u);
  EXPECT_EQ(db.health(crypto::Bytes(8, 3))->failures, 0u);
  // Survivors still resolve to their own responses through the index.
  EXPECT_EQ(db.lookup(crypto::Bytes(8, 2)), crypto::Bytes(16, 2));
  EXPECT_EQ(db.lookup(crypto::Bytes(8, 3)), crypto::Bytes(16, 3));
}

TEST(CrpHealth, TakePastQuarantineKeepsHealthCountersTargeted) {
  puf::CrpDatabase db;
  db.set_quarantine_threshold(1);
  db.insert(synthetic_crp(1));
  db.insert(synthetic_crp(2));
  db.record_failure(crypto::Bytes(8, 2));  // quarantine the back entry

  // Consuming entry 1 swap-compacts the quarantined back entry into the
  // freed slot.
  const auto taken = db.take(crypto::Bytes(8, 1));
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ(taken->challenge, crypto::Bytes(8, 1));
  EXPECT_FALSE(db.health(taken->challenge).has_value());
  // A failure against the consumed challenge must not land on the
  // survivor that now lives in its old slot.
  db.record_failure(taken->challenge);
  const auto survivor = db.health(crypto::Bytes(8, 2));
  ASSERT_TRUE(survivor.has_value());
  EXPECT_EQ(survivor->failures, 1u);
  EXPECT_EQ(db.quarantined(), 1u);
}

// -------------------------------------------------------------- channel

Message frame(std::uint8_t tag, std::uint64_t sid = 1) {
  return Message{MessageType::kData, sid, crypto::Bytes(4, tag)};
}

// Receives from `direction`, polling the channel (which ticks held
// frames toward delivery) up to `max_polls` times while nothing is queued.
std::optional<Message> poll_receive(DuplexChannel& channel, Direction direction,
                                    std::size_t max_polls) {
  for (std::size_t polls = 0;; ++polls) {
    if (auto message = channel.receive(direction)) return message;
    if (polls >= max_polls) return std::nullopt;
    channel.poll();
  }
}

TEST(FaultyChannel, ZeroRatesArePassThrough) {
  DuplexChannel channel;
  FaultyChannel faulty(channel, ChannelFaultConfig{}, 1);
  for (std::uint8_t i = 0; i < 10; ++i) {
    channel.send(Direction::kAtoB, frame(i));
  }
  for (std::uint8_t i = 0; i < 10; ++i) {
    const auto m = channel.receive(Direction::kAtoB);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(m->payload, crypto::Bytes(4, i));  // order preserved
  }
  EXPECT_EQ(faulty.stats(Direction::kAtoB).intercepted, 10u);
  EXPECT_EQ(faulty.stats(Direction::kAtoB).dropped, 0u);
}

TEST(FaultyChannel, DropRateIsRoughlyNominal) {
  DuplexChannel channel;
  LinkFaultRates rates;
  rates.drop = 0.2;
  FaultyChannel faulty(channel, faults::symmetric_faults(rates), 42);
  constexpr int kFrames = 2000;
  int delivered = 0;
  for (int i = 0; i < kFrames; ++i) {
    channel.send(Direction::kAtoB, frame(static_cast<std::uint8_t>(i)));
    if (channel.receive(Direction::kAtoB)) ++delivered;
  }
  const auto& stats = faulty.stats(Direction::kAtoB);
  EXPECT_EQ(stats.dropped, static_cast<std::uint64_t>(kFrames - delivered));
  EXPECT_NEAR(static_cast<double>(stats.dropped) / kFrames, 0.2, 0.04);
}

TEST(FaultyChannel, CorruptionFlipsExactlyOneBit) {
  DuplexChannel channel;
  LinkFaultRates rates;
  rates.corrupt = 1.0;
  FaultyChannel faulty(channel, faults::symmetric_faults(rates), 7);
  const Message original = frame(0xAA);
  channel.send(Direction::kAtoB, original);
  const auto received = channel.receive(Direction::kAtoB);
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(received->type, original.type);
  ASSERT_EQ(received->payload.size(), original.payload.size());
  int flipped = 0;
  for (std::size_t i = 0; i < original.payload.size(); ++i) {
    flipped += std::popcount(
        static_cast<unsigned>(original.payload[i] ^ received->payload[i]));
  }
  EXPECT_EQ(flipped, 1);
  EXPECT_EQ(faulty.stats(Direction::kAtoB).corrupted, 1u);

  // Empty payloads corrupt the type field instead.
  channel.send(Direction::kBtoA, Message{MessageType::kData, 1, {}});
  const auto typed = channel.receive(Direction::kBtoA);
  ASSERT_TRUE(typed.has_value());
  EXPECT_NE(typed->type, MessageType::kData);
}

TEST(FaultyChannel, DuplicationDeliversTwoCopies) {
  DuplexChannel channel;
  LinkFaultRates rates;
  rates.duplicate = 1.0;
  FaultyChannel faulty(channel, faults::symmetric_faults(rates), 7);
  channel.send(Direction::kAtoB, frame(5));
  EXPECT_EQ(channel.pending(Direction::kAtoB), 2u);
  const auto first = channel.receive(Direction::kAtoB);
  const auto second = channel.receive(Direction::kAtoB);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(faulty.stats(Direction::kAtoB).duplicated, 1u);
}

TEST(FaultyChannel, DelayedFramesArriveWithinPollBudget) {
  DuplexChannel channel;
  LinkFaultRates rates;
  rates.delay = 1.0;
  rates.max_delay_polls = 4;
  FaultyChannel faulty(channel, faults::symmetric_faults(rates), 9);
  channel.send(Direction::kAtoB, frame(3));
  // Not pending yet — it is held, not dropped.
  EXPECT_EQ(channel.pending(Direction::kAtoB), 0u);
  EXPECT_EQ(faulty.held(), 1u);
  // A budget of max_delay_polls always outwaits the delay.
  const auto m = poll_receive(channel, Direction::kAtoB, 5);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->payload, crypto::Bytes(4, 3));
  EXPECT_EQ(faulty.held(), 0u);
  EXPECT_EQ(faulty.stats(Direction::kAtoB).delayed, 1u);
}

TEST(FaultyChannel, ReorderHoldsUntilNextSameDirectionSend) {
  DuplexChannel channel;
  LinkFaultRates rates;
  rates.reorder = 1.0;
  ChannelFaultConfig config;
  config.a_to_b = rates;  // only the A->B direction reorders
  FaultyChannel faulty(channel, config, 9);

  channel.send(Direction::kAtoB, frame(1));  // held until the next send
  EXPECT_EQ(channel.pending(Direction::kAtoB), 0u);
  EXPECT_EQ(faulty.held(), 1u);
  // Polling does not release a reorder hold — it waits on a *send*.
  EXPECT_FALSE(poll_receive(channel, Direction::kAtoB, 3).has_value());
  // Traffic in the opposite direction does not arm it either.
  channel.send(Direction::kBtoA, frame(7));
  EXPECT_EQ(faulty.held(), 1u);
  // The next A->B send arms the hold; one poll later it is delivered.
  channel.send(Direction::kAtoB, frame(2));  // itself held (rate 1.0)
  const auto released = poll_receive(channel, Direction::kAtoB, 1);
  ASSERT_TRUE(released.has_value());
  EXPECT_EQ(released->payload, crypto::Bytes(4, 1));
  EXPECT_EQ(faulty.stats(Direction::kAtoB).reordered, 2u);
}

TEST(FaultyChannel, ReorderPermutesButNeverLosesFrames) {
  DuplexChannel channel;
  LinkFaultRates rates;
  rates.reorder = 0.3;
  ChannelFaultConfig config;
  config.a_to_b = rates;
  FaultyChannel faulty(channel, config, 17);

  std::vector<std::uint8_t> order;
  constexpr int kFrames = 60;
  for (int i = 0; i < kFrames; ++i) {
    channel.send(Direction::kAtoB, frame(static_cast<std::uint8_t>(i)));
    while (auto m = poll_receive(channel, Direction::kAtoB, 1)) {
      order.push_back(m->payload[0]);
    }
  }
  faulty.flush();
  while (auto m = channel.receive(Direction::kAtoB)) {
    order.push_back(m->payload[0]);
  }
  // Reordering is a permutation: every frame arrives exactly once...
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kFrames));
  std::vector<std::uint8_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::uint8_t> expected(kFrames);
  std::iota(expected.begin(), expected.end(), std::uint8_t{0});
  EXPECT_EQ(sorted, expected);
  // ...and at this rate the arrival order has at least one inversion.
  EXPECT_GT(faulty.stats(Direction::kAtoB).reordered, 0u);
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
}

TEST(FaultyChannel, FlushDeliversHeldFrames) {
  DuplexChannel channel;
  LinkFaultRates rates;
  rates.delay = 1.0;
  rates.max_delay_polls = 100;
  FaultyChannel faulty(channel, faults::symmetric_faults(rates), 9);
  channel.send(Direction::kAtoB, frame(1));
  channel.send(Direction::kBtoA, frame(2));
  EXPECT_EQ(faulty.held(), 2u);
  faulty.flush();
  EXPECT_EQ(faulty.held(), 0u);
  EXPECT_TRUE(channel.receive(Direction::kAtoB).has_value());
  EXPECT_TRUE(channel.receive(Direction::kBtoA).has_value());
}

TEST(FaultyChannel, SameSeedSameFaultSchedule) {
  // The determinism contract at the channel level: identical seeds and
  // send/poll sequences produce byte-identical transcripts.
  LinkFaultRates rates;
  rates.drop = 0.1;
  rates.corrupt = 0.1;
  rates.duplicate = 0.1;
  rates.delay = 0.1;
  rates.reorder = 0.1;

  const auto run = [&rates](std::uint64_t seed) {
    DuplexChannel channel;
    FaultyChannel faulty(channel, faults::symmetric_faults(rates), seed);
    crypto::Bytes log;
    for (int i = 0; i < 300; ++i) {
      const auto dir = (i % 3 == 0) ? Direction::kBtoA : Direction::kAtoB;
      channel.send(dir, frame(static_cast<std::uint8_t>(i), i));
      if (auto m = poll_receive(channel, dir, 2)) {
        const auto wire = net::encode_message(*m);
        log.insert(log.end(), wire.begin(), wire.end());
      }
    }
    faulty.flush();
    return log;
  };

  EXPECT_EQ(run(1234), run(1234));
  EXPECT_NE(run(1234), run(5678));
}

TEST(FaultyChannel, DetachesOnDestruction) {
  DuplexChannel channel;
  LinkFaultRates rates;
  rates.drop = 1.0;
  {
    FaultyChannel faulty(channel, faults::symmetric_faults(rates), 1);
    channel.send(Direction::kAtoB, frame(1));
    EXPECT_FALSE(channel.receive(Direction::kAtoB).has_value());
  }
  channel.send(Direction::kAtoB, frame(2));
  EXPECT_TRUE(channel.receive(Direction::kAtoB).has_value());
}

}  // namespace
}  // namespace neuropuls
