// Capability-annotated synchronization wrappers (DESIGN.md §16).
//
// Every lock in src/ goes through these types instead of the raw standard
// primitives (enforced by metadock-lint MDL010): the wrappers carry the
// clang Thread Safety Analysis attributes from util/thread_annotations.h,
// so `clang++ -Wthread-safety` can prove — at compile time, before any
// schedule runs — that every `GUARDED_BY` member is only touched under
// its capability.  TSan (the `tsan` preset) still runs as the dynamic
// backstop; this layer is the static first line of defense.
//
// The runtime behavior is exactly the primitive each wrapper wraps: Mutex
// is std::mutex, CondVar is std::condition_variable.  `Serial` is the one
// purely static capability: a zero-byte "role" token for the
// single-owner subsystems (batch scorer, cluster sim, job server) whose
// state is thread-compatible, not thread-safe — acquiring it compiles to
// nothing, but the analysis then rejects any access to their
// `GUARDED_BY(serial_)` bookkeeping from outside an entry point that
// claimed ownership.
#pragma once

// This header IS the sanctioned wrapper layer over the raw primitives, so
// metadock-lint exempts it from MDL010 by path.
#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace metadock::util {

/// std::mutex with the `mutex` capability.  Prefer ScopedLock; call
/// lock()/unlock() directly only where RAII cannot express the protocol.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  [[nodiscard]] bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped primitive, for CondVar only — going through it anywhere
  /// else would blind the analysis.
  [[nodiscard]] std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// RAII lock for Mutex.  `unlock()` supports the unlock-before-notify /
/// unlock-before-rethrow protocols; the destructor releases only when
/// still owning.
class SCOPED_CAPABILITY ScopedLock {
 public:
  explicit ScopedLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~ScopedLock() RELEASE() {
    if (owns_) mu_.unlock();
  }
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;

  /// Early release (e.g. drop the lock before notifying a condvar).
  void unlock() RELEASE() {
    mu_.unlock();
    owns_ = false;
  }

 private:
  Mutex& mu_;
  bool owns_ = true;
};

/// Condition variable bound to util::Mutex.  wait() takes the Mutex the
/// caller already holds (REQUIRES makes the analysis check that) and
/// returns with it re-held; use the classic `while (!pred) cv.wait(mu);`
/// shape — a predicate lambda would be analyzed without the capability.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(Mutex& mu) REQUIRES(mu) {
    // Adopt the held lock for the wait, then hand ownership back without
    // unlocking: from the caller's (and the analysis') view the mutex is
    // held across the call.
    std::unique_lock<std::mutex> native(mu.native(), std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Zero-cost "single owner" role capability.  The virtual-clock
/// subsystems (MultiGpuBatchScorer, the cluster CampaignSim, JobServer)
/// are deliberately lock-free: one logical owner drives them and their
/// determinism contract forbids internal concurrency.  Serial turns that
/// prose contract into a checked one — bookkeeping members are
/// `GUARDED_BY(serial_)`, entry points take a ScopedSerial, internal
/// helpers are `REQUIRES(serial_)` — so a future refactor that leaks
/// state across that boundary (a callback capturing bookkeeping, a new
/// public accessor called mid-dispatch) fails to compile under clang
/// instead of racing under load.  Acquire/release compile to nothing.
class CAPABILITY("role") Serial {
 public:
  Serial() = default;
  Serial(const Serial&) = delete;
  Serial& operator=(const Serial&) = delete;

  void acquire() ACQUIRE() {}
  void release() RELEASE() {}
};

/// RAII ownership claim for a Serial role.
class SCOPED_CAPABILITY ScopedSerial {
 public:
  explicit ScopedSerial(Serial& role) ACQUIRE(role) : role_(role) { role_.acquire(); }
  ~ScopedSerial() RELEASE() { role_.release(); }
  ScopedSerial(const ScopedSerial&) = delete;
  ScopedSerial& operator=(const ScopedSerial&) = delete;

 private:
  Serial& role_;
};

}  // namespace metadock::util
