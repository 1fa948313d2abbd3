// Clang capability-analysis macros for the concurrent half of the stack.
//
// PRs 5–6 made the verifier deeply concurrent (lock-striped CRP shards, a
// work-stealing reactor, park/unpark token banks); until now the only
// defenses against lock-discipline mistakes were runtime (the TSan check
// flavors) and review. These macros put the locking contracts into the
// type system: every field names the capability that guards it
// (NP_GUARDED_BY), every function names the capabilities it needs
// (NP_REQUIRES) or manipulates (NP_ACQUIRE / NP_RELEASE), and a Clang
// build with -Wthread-safety turns any unguarded access or contract
// violation into a compile error (scripts/check.sh lint, and the
// negative-compile suite under tests/negative_compile).
//
// On non-Clang compilers (this repo's default GCC toolchain included) the
// macros expand to nothing — the annotations are contracts, not code, and
// the annotated wrappers in common/mutex.hpp behave exactly like the
// std primitives they wrap.
//
// Naming follows the Clang thread-safety documentation (and Abseil's
// thread_annotations.h) so the vocabulary is the ecosystem-standard one;
// the NP_ prefix keeps the macros out of the global namespace.
#pragma once

#if defined(__clang__)
#define NP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define NP_THREAD_ANNOTATION(x)  // no-op: analysis is Clang-only
#endif

/// Marks a class as a capability (a lockable resource). The string names
/// the capability kind in diagnostics ("mutex").
#define NP_CAPABILITY(x) NP_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases
/// a capability (common::MutexLock and friends).
#define NP_SCOPED_CAPABILITY NP_THREAD_ANNOTATION(scoped_lockable)

/// Field may only be read/written while holding capability `x`.
#define NP_GUARDED_BY(x) NP_THREAD_ANNOTATION(guarded_by(x))

/// Pointer field whose *pointee* is guarded by capability `x`.
#define NP_PT_GUARDED_BY(x) NP_THREAD_ANNOTATION(pt_guarded_by(x))

/// Static lock-order declaration: this capability must be acquired
/// before/after the listed ones (enforced under -Wthread-safety-beta).
#define NP_ACQUIRED_BEFORE(...) NP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define NP_ACQUIRED_AFTER(...) NP_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Caller must hold the listed capabilities.
#define NP_REQUIRES(...) NP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function acquires the listed capabilities (held on return).
#define NP_ACQUIRE(...) NP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the listed capabilities (held on entry).
#define NP_RELEASE(...) NP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define NP_RELEASE_GENERIC(...) \
  NP_THREAD_ANNOTATION(release_generic_capability(__VA_ARGS__))

/// Function tries to acquire; first argument is the success return value.
#define NP_TRY_ACQUIRE(...) \
  NP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Caller must NOT hold the listed capabilities (deadlock guard for
/// non-reentrant locks).
#define NP_EXCLUDES(...) NP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Runtime assertion that the capability is held (trust anchor for code
/// the analysis cannot follow).
#define NP_ASSERT_CAPABILITY(x) NP_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the named capability.
#define NP_RETURN_CAPABILITY(x) NP_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch — turns the analysis off for one function. Policy: the
/// stack ships with ZERO uses outside this header's own wrappers; new
/// uses need the same review a ctlint baseline entry would.
#define NP_NO_THREAD_SAFETY_ANALYSIS \
  NP_THREAD_ANNOTATION(no_thread_safety_analysis)
