// ctlint fixture: the blocking-under-lock pass. Lint-only — never
// compiled.
//
// Covers: parking, channel receives, serial session runs, and allocation
// while a scoped lock is live; the unlock()/lock() toggle; scope exit;
// and suppression.

#include <memory>

#include "common/mutex.hpp"
#include "common/parallel.hpp"
#include "core/session_driver.hpp"
#include "net/channel.hpp"

namespace fixture {

void blocking_while_held(neuropuls::common::Mutex& mu,
                         neuropuls::common::ParkingLot& lot,
                         neuropuls::net::DuplexChannel& chan,
                         const neuropuls::core::MachineFactory& build) {
  using neuropuls::net::Direction;
  neuropuls::common::MutexLock guard(mu);
  lot.park();  // ctlint:expect(blocking-under-lock)
  auto one = chan.receive(Direction::kAtoB);  // ctlint:expect(blocking-under-lock)
  auto two = neuropuls::core::run_serial(4, build);  // ctlint:expect(blocking-under-lock)
  auto raw = new int[4];  // ctlint:expect(blocking-under-lock)
  auto owned = std::make_unique<int>(1);  // ctlint:expect(blocking-under-lock)
  delete[] raw;
}

// The toggle: between unlock() and lock() the section is not critical.
void blocking_in_gap(neuropuls::common::Mutex& mu,
                     neuropuls::common::ParkingLot& lot) {
  neuropuls::common::MutexLock guard(mu);
  guard.unlock();
  lot.park();
  guard.lock();
  lot.park();  // ctlint:expect(blocking-under-lock)
}

// Scope exit releases: allocation after the block is fine.
void allocation_after_scope(neuropuls::common::Mutex& mu) {
  {
    neuropuls::common::MutexLock guard(mu);
  }
  auto shared = std::make_shared<int>(2);
  (void)shared;
}

// A reviewed pre-sized allocation under a lock can be suppressed.
void reviewed_allocation(neuropuls::common::Mutex& mu) {
  neuropuls::common::MutexLock guard(mu);
  // ctlint:allow(blocking-under-lock) fixture: one-time warm-up alloc
  auto scratch = std::make_unique<int>(3);
  (void)scratch;
}

}  // namespace fixture
