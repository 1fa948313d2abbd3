// Annotated lock wrappers — the only mutexes the concurrent stack uses.
//
// Every lock-holding component (puf::CrpDatabase shards, the
// common::parallel scheduler primitives, core::SessionEngine,
// core::KeyManager, accel::SecureAccelerator, the PhotonicPuf table
// cache) holds a common::Mutex and scopes critical sections with
// MutexLock, so Clang's capability analysis
// (src/common/thread_annotations.hpp) can prove every NP_GUARDED_BY field
// is only touched under its lock. The wrappers add
// nothing at runtime over the std primitives they hold; on non-Clang
// compilers they ARE the std primitives, one forwarding call deep.
//
// Canonical lock order (enforced statically by tools/ctlint's lock-order
// pass over these wrappers, and documented in DESIGN.md):
//
//   ThreadPool::submit_mutex_  >  ThreadPool::mutex_  >  Loop::m
//   Reactor::sched_mutex  >  ParkingLot::mutex_
//   Reactor::admit_mutex is a leaf: admission decides and evicts only
//   after releasing it.
//   SecureAccelerator::mutex_ is a leaf: the Table I boundary runs its
//   crypto, parse and inference under it and takes no other lock.
//   CrpDatabase Shard locks are leaves: nothing is ever acquired under
//   one, and they must never be taken while an engine lock is held.
#pragma once

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.hpp"

namespace neuropuls::common {

class CondVar;
class MutexLock;

/// Annotated exclusive mutex (std::mutex underneath). Prefer MutexLock
/// over calling lock()/unlock() directly — scoped acquisition is what the
/// analysis reasons about best, and what the ctlint lock passes parse.
class NP_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() NP_ACQUIRE() { mu_.lock(); }
  void unlock() NP_RELEASE() { mu_.unlock(); }
  bool try_lock() NP_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  friend class MutexLock;
  std::mutex mu_;
};

/// Scoped exclusive lock over a Mutex. Relockable: unlock()/lock() let a
/// long-running section (e.g. a pool worker executing a loop body) drop
/// the lock and reacquire it with the transitions still visible to the
/// analysis.
class NP_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) NP_ACQUIRE(mu) : mu_(mu) { mu_.mu_.lock(); }

  /// Try-first acquisition: `contended` reports whether the fast path
  /// failed and the constructor had to block. CrpDatabase's shard locks
  /// use this to count contention without a second locking API.
  MutexLock(Mutex& mu, bool& contended) NP_ACQUIRE(mu) : mu_(mu) {
    contended = !mu_.mu_.try_lock();
    if (contended) mu_.mu_.lock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  ~MutexLock() NP_RELEASE() {
    if (held_) mu_.mu_.unlock();
  }

  /// Early release (the destructor then does nothing).
  void unlock() NP_RELEASE() {
    mu_.mu_.unlock();
    held_ = false;
  }

  /// Reacquire after unlock().
  void lock() NP_ACQUIRE() {
    mu_.mu_.lock();
    held_ = true;
  }

 private:
  friend class CondVar;
  Mutex& mu_;
  bool held_ = true;
};

/// Condition variable paired with common::Mutex. wait() names the Mutex
/// (not the scoped lock) so the analysis can check the caller actually
/// holds it; the capability is held again when wait() returns, exactly
/// like std::condition_variable::wait. Write wait loops inline —
///     while (!ready_) cv_.wait(mutex_);
/// — rather than with a predicate lambda: the loop body sits in the
/// scope where the analysis knows the capability is held.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) NP_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();  // the caller's scope still owns the capability
  }

  /// Timed wait: returns false on timeout, true when notified (or on a
  /// spurious wake — callers re-check their predicate either way). The
  /// WAL group-commit writer uses this for its flush interval: sleep
  /// until more records arrive or the coalescing window closes.
  bool wait_for(Mutex& mu, std::chrono::microseconds timeout)
      NP_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    const auto status = cv_.wait_for(adopted, timeout);
    adopted.release();  // the caller's scope still owns the capability
    return status == std::cv_status::no_timeout;
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace neuropuls::common
