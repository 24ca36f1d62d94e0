// Best-effort hardware-transactional-memory abstraction.
//
// StackTrack needs four things from an HTM (§2, §4 of the paper):
//   1. atomic segments: a group of reads/writes commits entirely or not at all,
//   2. conflict aborts: a segment that read a location later modified (including by the
//      reclaimer poisoning a freed node) must abort before misbehaving,
//   3. capacity aborts when the footprint exceeds the cache budget, and
//   4. a best-effort contract — no progress guarantee, so a software fallback exists.
//
// The paper ran on Intel TSX. Here a software transactional memory provides the
// contract: it works on any machine, and its capacity/spurious-abort behaviour is
// driven by runtime::MachineModel so the paper's 4-core/8-thread regimes are
// reproducible on a host of any size. One engine implements it: lazy validation over
// striped version locks (htm/soft_backend.h) — cheap reads, commit-time revalidation.
//
// Fidelity to real HTM: no armed trace emit and no clock read may run between a
// segment's begin point and its commit. On hardware either one is a guaranteed abort
// (clock_gettime reads the vvar page), so code that breaks the rule would silently
// push every fast-path segment onto the slow path. The soft engine would not abort,
// so the trace layer's in-transaction guard enforces the rule instead
// (runtime/trace.h SetInTxProbe).
//
// Begin-point protocol: a transaction must be (re)entered through the
// ST_HTM_BEGIN_POINT() macro, expanded in a stack frame that outlives the whole
// segment (the data-structure operation's frame). It evaluates to 0 when a fresh
// transaction has started, or to an AbortCause value when execution resumed here
// because the previous attempt aborted. A setjmp/longjmp pair rewinds to this point,
// as the hardware would, and the caller must treat all locals mutated inside the
// segment as rolled back (the split engine keeps them in the tracked frame, which it
// snapshots and restores).
#ifndef STACKTRACK_HTM_HTM_H_
#define STACKTRACK_HTM_HTM_H_

#include <atomic>
#include <bit>
#include <csetjmp>
#include <cstddef>
#include <cstdint>

#include "htm/soft_backend.h"
#include "htm/stm_stats.h"

namespace stacktrack::htm {

// Residue: the software engine is the only HTM backend. perfbench records this name
// in its config block and checks it, and cannot change in the same commit as the
// library, so the one-value enum and its accessor stay until the benchmark drops the
// field.
enum class BackendKind : uint8_t { kSoft };
constexpr BackendKind ActiveBackend() { return BackendKind::kSoft; }

// Residue: the lazy engine is the only software engine. perfbench records this name
// in its config block and cannot change in the same commit as the library, so the
// one-value enum and its accessor stay until the benchmark drops the field. The STM
// contract suite (tests/stm_contract_test.cc) is instantiated over it.
enum class StmEngine : uint8_t { kLazy = 0 };
constexpr StmEngine ActiveStmEngine() { return StmEngine::kLazy; }

// Begin-point return values. 0 == transaction started; nonzero values are AbortCause
// codes from the attempt that just failed.
inline constexpr int kTxStarted = 0;

enum class AbortCause : uint8_t {
  kNone = 0,
  kConflict = 1,        // data conflict with another thread (or reclaimer poisoning)
  kCapacity = 2,        // footprint exceeded the cache budget
  kExplicit = 3,        // TxAbort() called by the program
  kOther = 4,           // timer interrupts, unsupported instructions, ...
};

constexpr const char* AbortCauseName(AbortCause cause) {
  switch (cause) {
    case AbortCause::kNone: return "none";
    case AbortCause::kConflict: return "conflict";
    case AbortCause::kCapacity: return "capacity";
    case AbortCause::kExplicit: return "explicit";
    case AbortCause::kOther: return "other";
  }
  return "unknown";
}

// Commits the running transaction. A failed validation aborts — longjmp back to the
// begin point — instead of returning.
inline void TxCommit() { soft::Commit(); }

[[noreturn]] inline void TxAbort(AbortCause cause) {
  soft::Abort(static_cast<int>(cause));
}

// ---- Transactional data access -------------------------------------------------
// T must be a trivially copyable 8-byte type (pointers, uint64_t); the data structures
// in src/ds/ declare all shared fields that way so the soft engine can track writes
// as words. The load/store chain (TxLoad/TxStore -> soft::Tx*Word) is forced inline:
// the instrumented operations that call it are large and contain setjmp, where GCC's
// heuristics would otherwise leave a call per access.

template <typename T>
[[gnu::always_inline]] inline T TxLoad(const std::atomic<T>& src) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  return std::bit_cast<T>(
      soft::TxLoadWord(reinterpret_cast<const std::atomic<uint64_t>*>(&src)));
}

template <typename T>
[[gnu::always_inline]] inline void TxStore(std::atomic<T>& dst, T value) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  soft::TxStoreWord(reinterpret_cast<std::atomic<uint64_t>*>(&dst),
                    std::bit_cast<uint64_t>(value));
}

// ---- Non-transactional interop --------------------------------------------------
// Used by the slow path and the reclaimer. Real HTM's strong isolation would let plain
// atomics serve here; the soft engine isolates only through its stripe versions, so
// these respect them: concurrent fast-path segments observe the conflict, and torn
// reads are impossible.

template <typename T>
inline T SafeLoad(const std::atomic<T>& src) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  return std::bit_cast<T>(
      soft::SafeLoadWord(reinterpret_cast<const std::atomic<uint64_t>*>(&src)));
}

template <typename T>
inline void SafeStore(std::atomic<T>& dst, T value) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  soft::SafeStoreWord(reinterpret_cast<std::atomic<uint64_t>*>(&dst),
                      std::bit_cast<uint64_t>(value));
}

template <typename T>
inline bool SafeCas(std::atomic<T>& dst, T expected, T desired) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  return soft::SafeCasWord(reinterpret_cast<std::atomic<uint64_t>*>(&dst),
                           std::bit_cast<uint64_t>(expected),
                           std::bit_cast<uint64_t>(desired));
}

// Invalidates every cache line in [addr, addr + length) by bumping its stripe version,
// so that any running transaction that read the range aborts. Called by the reclaimer
// just before a node's memory is poisoned and returned to the pool. On real HTM the
// poisoning stores themselves would conflict; the soft engine needs the explicit bump.
inline void QuarantineRange(const void* addr, std::size_t length) {
  soft::QuarantineRange(reinterpret_cast<uintptr_t>(addr), length);
}

// Arms/starts a transaction at this point. See the file comment for the frame-lifetime
// contract. `setjmp` must appear literally at the expansion site; its jmp target lives
// in the thread's soft transaction descriptor.
#define ST_HTM_BEGIN_POINT() \
  ::stacktrack::htm::soft::BeginPoint(setjmp(::stacktrack::htm::soft::CurrentTx().env))

}  // namespace stacktrack::htm

#endif  // STACKTRACK_HTM_HTM_H_
