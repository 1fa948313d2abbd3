// Zero-allocation invariants of the reactor's steady state (ctest label:
// concurrency).
//
// The reactor promises that once a session is admitted, the waiting
// machinery — polling an expect budget down, pushing/popping run queues,
// parking on the timer heap and being revived by its virtual clock —
// touches no heap memory. This binary installs the counting allocator
// (common/alloc_probe.hpp) and pins that promise two ways:
//
//   * machine level: a SessionMachine waiting on a silent, non-pollable
//     channel must burn poll budget with literally zero allocations per
//     step();
//   * engine level: two reactor runs that differ only in how LONG their
//     sessions wait (receive_poll_budget 8 vs 72) must allocate exactly
//     the same number of times — every extra waiting step, park, and
//     timer advance is heap-free. The pair is run with one session and
//     with several in flight; the several park on one shared deadline,
//     so the timer heap holds many entries and one advance revives them
//     all.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/alloc_probe.hpp"
#include "core/session_engine.hpp"
#include "crypto/sha256.hpp"
#include "net/channel.hpp"
#include "puf/arbiter_puf.hpp"

NEUROPULS_DEFINE_ALLOC_PROBE()

namespace neuropuls {
namespace {

using common::alloc_probe::allocations;
using core::AuthSessionMachine;
using core::RetryPolicy;
using core::SessionEngine;
using core::SessionEngineConfig;
using core::SessionResult;

// The probe itself must be live in this binary, or the zero-alloc
// assertions below would pass vacuously.
TEST(AllocProbe, CountsThisBinarysAllocations) {
  const auto before = allocations();
  auto p = std::make_unique<int>(42);
  const auto after = allocations();
  ASSERT_NE(p, nullptr);
  EXPECT_GT(after, before);
}

struct AuthFixture {
  std::unique_ptr<puf::ArbiterPuf> puf;
  std::unique_ptr<core::AuthDevice> device;
  std::unique_ptr<core::AuthVerifier> verifier;
  net::DuplexChannel channel;
};

// Drop-all link: every send is swallowed, nothing ever becomes readable,
// and no poll hook is installed — the channel is non-pollable, so every
// remaining poll of an expect budget is pure waiting.
std::unique_ptr<AuthFixture> make_silent_fixture(std::uint64_t seed) {
  auto f = std::make_unique<AuthFixture>();
  f->puf = std::make_unique<puf::ArbiterPuf>(puf::ArbiterPufConfig{}, seed);
  crypto::ChaChaDrbg rng(crypto::bytes_of("alloc-provision"));
  const auto provisioned = core::provision(*f->puf, rng);
  const crypto::Bytes memory = crypto::bytes_of("alloc firmware");
  f->device = std::make_unique<core::AuthDevice>(*f->puf,
                                                 provisioned.device_crp, memory);
  f->verifier = std::make_unique<core::AuthVerifier>(
      provisioned.verifier_secret, crypto::Sha256::hash(memory),
      f->puf->challenge_bytes());
  f->channel.set_adversary(
      [](net::Direction, const net::Message&) { return net::Verdict::drop(); });
  return f;
}

TEST(ReactorZeroAlloc, WaitingStepsAllocateNothing) {
  auto f = make_silent_fixture(7000);
  RetryPolicy policy;
  policy.max_attempts = 1;
  policy.receive_poll_budget = 64;
  crypto::ChaChaDrbg rng(core::session_driver_seed_bytes(9));
  AuthSessionMachine machine(f->channel, policy, rng, *f->verifier, *f->device,
                             10);
  // Step 1 opens the attempt: it sends (and the adversary drops) the
  // first frame — sends may allocate, that's not steady state.
  ASSERT_TRUE(machine.step());
  ASSERT_GT(machine.wait_hint(), 0u);
  // Steps 2..33 poll an empty, non-pollable channel against the expect
  // budget. This is the steady state the reactor schedules around, and
  // it must be allocation-free.
  const auto before = allocations();
  bool running = true;
  for (int i = 0; i < 32 && running; ++i) running = machine.step();
  const auto after = allocations();
  EXPECT_TRUE(running);
  EXPECT_EQ(after, before);
}

// One engine run of `sessions` sessions, all in flight at once over
// silent links with the given receive budget, returning how many
// allocations the calling thread observed across run(). ThreadPool(1)
// keeps the reactor on the calling thread (serial fallback), so the
// thread-local counter sees every allocation the scheduler makes — queue
// churn, parks, timer advances included.
std::uint64_t count_run_allocations(std::size_t receive_poll_budget,
                                    std::size_t sessions) {
  std::vector<std::unique_ptr<AuthFixture>> fixtures;
  for (std::size_t k = 0; k < sessions; ++k) {
    fixtures.push_back(make_silent_fixture(7001 + k));
  }
  common::ThreadPool pool(1);
  SessionEngineConfig config;
  config.max_in_flight = sessions;
  config.park_threshold = 2;
  SessionEngine engine(pool, config);
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.receive_poll_budget = receive_poll_budget;
  for (std::size_t k = 0; k < sessions; ++k) {
    AuthFixture& fixture = *fixtures[k];
    // One seed for all: the same backoff jitter keeps their waits equal.
    engine.submit(900, [&fixture, policy](crypto::ChaChaDrbg& rng) {
      return std::make_unique<AuthSessionMachine>(
          fixture.channel, policy, rng, *fixture.verifier, *fixture.device,
          10);
    });
  }
  const auto before = allocations();
  const auto reports = engine.run();
  const auto after = allocations();
  EXPECT_EQ(reports.size(), sessions);
  for (const auto& report : reports) {
    EXPECT_EQ(report.result, SessionResult::kExhausted);
  }
  const auto& stats = engine.stats();
  EXPECT_GT(stats.parks, 0u);
  EXPECT_GT(stats.wheel_ticks, 0u);
  // Identical sessions stepped by one worker park at the same virtual
  // time with the same wait, so they share every deadline: one advance
  // revives all of them.
  EXPECT_EQ(stats.parks, stats.wheel_ticks * sessions);
  return after - before;
}

TEST(ReactorZeroAlloc, LongerWaitsAllocateNoMoreThanShortOnes) {
  // Identical runs except the sessions wait 9x longer before each retry:
  // same sends, same DRBG draws, same attempt count — the only delta is
  // waiting steps, parks, and timer advances. If any of that machinery
  // allocated, the counts would differ.
  for (const std::size_t sessions : {std::size_t{1}, std::size_t{6}}) {
    const std::uint64_t short_waits = count_run_allocations(8, sessions);
    const std::uint64_t long_waits = count_run_allocations(72, sessions);
    EXPECT_EQ(short_waits, long_waits) << sessions << " sessions";
  }
}

}  // namespace
}  // namespace neuropuls
