// Best-effort hardware-transactional-memory abstraction.
//
// StackTrack needs four things from an HTM (§2, §4 of the paper):
//   1. atomic segments: a group of reads/writes commits entirely or not at all,
//   2. conflict aborts: a segment that read a location later modified (including by the
//      reclaimer poisoning a freed node) must abort before misbehaving,
//   3. capacity aborts when the footprint exceeds the cache budget, and
//   4. a best-effort contract — no progress guarantee, so a software fallback exists.
//
// Two backends provide this contract:
//   * kSoft — a software transactional memory. This is the default: it works on any
//     machine and its capacity/spurious-abort behaviour is driven by
//     runtime::MachineModel so the paper's 4-core/8-thread regimes are reproducible
//     on this 1-core host. Two engines implement it, selected at process start by
//     the ST_STM environment variable (or SelectStmEngine during test setup):
//       - ST_STM=lazy (default): TL2-style lazy validation over striped version
//         locks (htm/soft_backend.h) — cheap reads, commit-time revalidation.
//       - ST_STM=2pl: eager two-phase locking over distributed reader-writer orecs
//         with priority-token conflict resolution (htm/orec_backend.h) — no
//         commit-time validation, starvation-free under skewed write contention.
//   * kRtm — real Intel TSX RTM (htm/rtm_backend.h), selectable when the CPU supports
//     it and a runtime probe shows transactions can actually commit (TSX is microcode-
//     disabled on many parts).
//
// Begin-point protocol: a transaction must be (re)entered through the
// ST_HTM_BEGIN_POINT() macro, expanded in a stack frame that outlives the whole
// segment (the data-structure operation's frame). It evaluates to 0 when a fresh
// transaction has started, or to an AbortCause value when execution resumed here
// because the previous attempt aborted. With RTM the hardware rewinds to this point;
// with the soft engines a setjmp/longjmp pair does, and the caller must treat all
// locals mutated inside the segment as rolled back (the split engine keeps them in the
// tracked frame, which it snapshots and restores).
#ifndef STACKTRACK_HTM_HTM_H_
#define STACKTRACK_HTM_HTM_H_

#include <atomic>
#include <bit>
#include <csetjmp>
#include <cstdint>

#include "htm/orec_backend.h"
#include "htm/soft_backend.h"
#include "htm/stm_stats.h"

namespace stacktrack::htm {

enum class BackendKind : uint8_t { kSoft, kRtm };

// Software engine behind BackendKind::kSoft.
enum class StmEngine : uint8_t { kLazy = 0, kOrec = 1 };

// Begin-point return values. 0 == transaction started; nonzero values are AbortCause
// codes from the attempt that just failed.
inline constexpr int kTxStarted = 0;

enum class AbortCause : uint8_t {
  kNone = 0,
  kConflict = 1,        // data conflict with another thread (or reclaimer poisoning)
  kCapacity = 2,        // footprint exceeded the cache budget
  kExplicit = 3,        // TxAbort() called by the program
  kOther = 4,           // timer interrupts, unsupported instructions, ...
  kConflictReader = 5,  // 2PL: writer yielded the orec to an older reader
  kConflictWriter = 6,  // 2PL: blocked by (or doomed in favor of) an older writer
};

constexpr bool IsConflictCause(AbortCause cause) {
  return cause == AbortCause::kConflict || cause == AbortCause::kConflictReader ||
         cause == AbortCause::kConflictWriter;
}

constexpr const char* AbortCauseName(AbortCause cause) {
  switch (cause) {
    case AbortCause::kNone: return "none";
    case AbortCause::kConflict: return "conflict";
    case AbortCause::kCapacity: return "capacity";
    case AbortCause::kExplicit: return "explicit";
    case AbortCause::kOther: return "other";
    case AbortCause::kConflictReader: return "conflict_reader";
    case AbortCause::kConflictWriter: return "conflict_writer";
  }
  return "unknown";
}

// Selects the backend for subsequent transactions. Must be called while no
// transactions are running (benchmarks call it during setup).
void SelectBackend(BackendKind kind);
BackendKind ActiveBackend();

// Selects the software engine. Latched from ST_STM at static-init time; tests and
// the A/B bench switch it between phases, while no transactions are running.
void SelectStmEngine(StmEngine engine);
StmEngine ActiveStmEngine();

// True when the CPU advertises RTM *and* a probe transaction managed to commit.
bool RtmUsable();

// ---- RTM primitives (implemented in rtm_backend.cc; stubs when not compiled in) ----
int RtmBeginPoint();             // xbegin; returns kTxStarted or an AbortCause
void RtmCommit();                // xend
[[noreturn]] void RtmAbort(uint8_t code);
bool RtmInTx();

namespace internal {
// Non-atomic on purpose: set once during single-threaded setup.
inline BackendKind g_backend = BackendKind::kSoft;
inline StmEngine g_stm_engine = StmEngine::kLazy;
}  // namespace internal

inline BackendKind ActiveBackendFast() { return internal::g_backend; }
inline StmEngine ActiveStmEngineFast() { return internal::g_stm_engine; }

// ---- Engine table ---------------------------------------------------------------
// Both software engines behind one compile-time-inlined table: each Stm* dispatcher
// below is a single predictable branch on the process-start-latched engine id with
// both specializations inlined into the call site, so selecting an engine at runtime
// costs the lazy hot path nothing beyond the same kind of check the RTM split
// already does. The load/store chain (TxLoad/TxStore -> Stm*Word -> each engine's
// Tx*Word) is forced inline: the instrumented operations that call it are large and
// contain setjmp, where GCC's heuristics would otherwise leave a call per access.

template <StmEngine E>
struct EngineOps;

template <>
struct EngineOps<StmEngine::kLazy> {
  [[gnu::always_inline]] static uint64_t LoadWord(const std::atomic<uint64_t>* a) {
    return soft::TxLoadWord(a);
  }
  [[gnu::always_inline]] static void StoreWord(std::atomic<uint64_t>* a, uint64_t v) {
    soft::TxStoreWord(a, v);
  }
  static void Commit() { soft::Commit(); }
  [[noreturn]] static void Abort(int cause) { soft::Abort(cause); }
  static bool InTx() { return soft::CurrentTx().active; }
  static uint64_t SafeLoadWord(const std::atomic<uint64_t>* a) { return soft::SafeLoadWord(a); }
  static void SafeStoreWord(std::atomic<uint64_t>* a, uint64_t v) { soft::SafeStoreWord(a, v); }
  static bool SafeCasWord(std::atomic<uint64_t>* a, uint64_t e, uint64_t d) {
    return soft::SafeCasWord(a, e, d);
  }
  static void Quarantine(uintptr_t a, std::size_t n) { soft::QuarantineRange(a, n); }
  static int BeginPoint(int jmp_rc) { return soft::BeginPoint(jmp_rc); }
  static std::jmp_buf* JmpTarget() { return &soft::CurrentTx().env; }
  static const TxStats& Stats() { return soft::CurrentTx().stats; }
};

template <>
struct EngineOps<StmEngine::kOrec> {
  [[gnu::always_inline]] static uint64_t LoadWord(const std::atomic<uint64_t>* a) {
    return orec::TxLoadWord(a);
  }
  [[gnu::always_inline]] static void StoreWord(std::atomic<uint64_t>* a, uint64_t v) {
    orec::TxStoreWord(a, v);
  }
  static void Commit() { orec::Commit(); }
  [[noreturn]] static void Abort(int cause) { orec::Abort(cause); }
  static bool InTx() { return orec::CurrentTx().active; }
  static uint64_t SafeLoadWord(const std::atomic<uint64_t>* a) { return orec::SafeLoadWord(a); }
  static void SafeStoreWord(std::atomic<uint64_t>* a, uint64_t v) { orec::SafeStoreWord(a, v); }
  static bool SafeCasWord(std::atomic<uint64_t>* a, uint64_t e, uint64_t d) {
    return orec::SafeCasWord(a, e, d);
  }
  static void Quarantine(uintptr_t a, std::size_t n) { orec::QuarantineRange(a, n); }
  static int BeginPoint(int jmp_rc) { return orec::BeginPoint(jmp_rc); }
  static std::jmp_buf* JmpTarget() { return &orec::CurrentTx().env; }
  static const TxStats& Stats() { return orec::CurrentTx().stats; }
};

[[gnu::always_inline]] inline uint64_t StmLoadWord(const std::atomic<uint64_t>* a) {
  return ActiveStmEngineFast() == StmEngine::kLazy ? EngineOps<StmEngine::kLazy>::LoadWord(a)
                                                   : EngineOps<StmEngine::kOrec>::LoadWord(a);
}
[[gnu::always_inline]] inline void StmStoreWord(std::atomic<uint64_t>* a, uint64_t v) {
  ActiveStmEngineFast() == StmEngine::kLazy ? EngineOps<StmEngine::kLazy>::StoreWord(a, v)
                                            : EngineOps<StmEngine::kOrec>::StoreWord(a, v);
}
inline void StmCommit() {
  ActiveStmEngineFast() == StmEngine::kLazy ? EngineOps<StmEngine::kLazy>::Commit()
                                            : EngineOps<StmEngine::kOrec>::Commit();
}
[[noreturn]] inline void StmAbort(int cause) {
  if (ActiveStmEngineFast() == StmEngine::kLazy) {
    EngineOps<StmEngine::kLazy>::Abort(cause);
  }
  EngineOps<StmEngine::kOrec>::Abort(cause);
}
inline bool StmInTx() {
  return ActiveStmEngineFast() == StmEngine::kLazy ? EngineOps<StmEngine::kLazy>::InTx()
                                                   : EngineOps<StmEngine::kOrec>::InTx();
}
inline uint64_t StmSafeLoadWord(const std::atomic<uint64_t>* a) {
  return ActiveStmEngineFast() == StmEngine::kLazy
             ? EngineOps<StmEngine::kLazy>::SafeLoadWord(a)
             : EngineOps<StmEngine::kOrec>::SafeLoadWord(a);
}
inline void StmSafeStoreWord(std::atomic<uint64_t>* a, uint64_t v) {
  ActiveStmEngineFast() == StmEngine::kLazy
      ? EngineOps<StmEngine::kLazy>::SafeStoreWord(a, v)
      : EngineOps<StmEngine::kOrec>::SafeStoreWord(a, v);
}
inline bool StmSafeCasWord(std::atomic<uint64_t>* a, uint64_t e, uint64_t d) {
  return ActiveStmEngineFast() == StmEngine::kLazy
             ? EngineOps<StmEngine::kLazy>::SafeCasWord(a, e, d)
             : EngineOps<StmEngine::kOrec>::SafeCasWord(a, e, d);
}
inline int StmBeginPoint(int jmp_rc) {
  return ActiveStmEngineFast() == StmEngine::kLazy
             ? EngineOps<StmEngine::kLazy>::BeginPoint(jmp_rc)
             : EngineOps<StmEngine::kOrec>::BeginPoint(jmp_rc);
}
// jmp target for the active engine's begin point; lives in its per-thread descriptor.
inline std::jmp_buf* StmJmpTarget() {
  return ActiveStmEngineFast() == StmEngine::kLazy ? EngineOps<StmEngine::kLazy>::JmpTarget()
                                                   : EngineOps<StmEngine::kOrec>::JmpTarget();
}
// The calling thread's per-transaction stats for the active engine (tests, bench).
inline const TxStats& StmStats() {
  return ActiveStmEngineFast() == StmEngine::kLazy ? EngineOps<StmEngine::kLazy>::Stats()
                                                   : EngineOps<StmEngine::kOrec>::Stats();
}

inline bool InTx() {
  return ActiveBackendFast() == BackendKind::kRtm ? RtmInTx() : StmInTx();
}

// Commits the running transaction. With the soft backend a failed validation (lazy)
// or a pending doom (2pl) aborts — longjmp back to the begin point — instead of
// returning.
inline void TxCommit() {
  if (ActiveBackendFast() == BackendKind::kRtm) {
    RtmCommit();
  } else {
    StmCommit();
  }
}

[[noreturn]] inline void TxAbort(AbortCause cause) {
  if (ActiveBackendFast() == BackendKind::kRtm) {
    RtmAbort(static_cast<uint8_t>(cause));
  } else {
    StmAbort(static_cast<int>(cause));
  }
}

// ---- Transactional data access -------------------------------------------------
// T must be a trivially copyable 8-byte type (pointers, uint64_t); the data structures
// in src/ds/ declare all shared fields that way so the soft engines can track writes
// as words.

template <typename T>
[[gnu::always_inline]] inline T TxLoad(const std::atomic<T>& src) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  if (ActiveBackendFast() == BackendKind::kRtm) {
    return src.load(std::memory_order_acquire);
  }
  return std::bit_cast<T>(StmLoadWord(
      reinterpret_cast<const std::atomic<uint64_t>*>(&src)));
}

template <typename T>
[[gnu::always_inline]] inline void TxStore(std::atomic<T>& dst, T value) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  if (ActiveBackendFast() == BackendKind::kRtm) {
    dst.store(value, std::memory_order_release);
    return;
  }
  StmStoreWord(reinterpret_cast<std::atomic<uint64_t>*>(&dst), std::bit_cast<uint64_t>(value));
}

// ---- Non-transactional interop --------------------------------------------------
// Used by the slow path and the reclaimer. With RTM, plain atomics suffice (strong
// isolation); with the soft engines these respect stripe versions / orec locks so
// that concurrent fast-path segments observe conflicts and torn reads are impossible.

template <typename T>
inline T SafeLoad(const std::atomic<T>& src) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  if (ActiveBackendFast() == BackendKind::kRtm) {
    return src.load(std::memory_order_acquire);
  }
  return std::bit_cast<T>(StmSafeLoadWord(
      reinterpret_cast<const std::atomic<uint64_t>*>(&src)));
}

template <typename T>
inline void SafeStore(std::atomic<T>& dst, T value) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  if (ActiveBackendFast() == BackendKind::kRtm) {
    dst.store(value, std::memory_order_release);
    return;
  }
  StmSafeStoreWord(reinterpret_cast<std::atomic<uint64_t>*>(&dst), std::bit_cast<uint64_t>(value));
}

template <typename T>
inline bool SafeCas(std::atomic<T>& dst, T expected, T desired) {
  static_assert(sizeof(T) == 8 && std::is_trivially_copyable_v<T>);
  if (ActiveBackendFast() == BackendKind::kRtm) {
    return dst.compare_exchange_strong(expected, desired, std::memory_order_acq_rel);
  }
  return StmSafeCasWord(reinterpret_cast<std::atomic<uint64_t>*>(&dst),
                        std::bit_cast<uint64_t>(expected), std::bit_cast<uint64_t>(desired));
}

// Invalidates every cache line in [addr, addr + length) — lazy bumps stripe
// versions, 2pl write-acquires the orecs and dooms their readers — so that any
// running soft transaction that read the range aborts. Called by the reclaimer just
// before a node's memory is poisoned and returned to the pool. No-op under RTM (the
// poisoning stores themselves conflict).
inline void QuarantineRange(const void* addr, std::size_t length) {
  if (ActiveBackendFast() == BackendKind::kSoft) {
    if (ActiveStmEngineFast() == StmEngine::kLazy) {
      EngineOps<StmEngine::kLazy>::Quarantine(reinterpret_cast<uintptr_t>(addr), length);
    } else {
      EngineOps<StmEngine::kOrec>::Quarantine(reinterpret_cast<uintptr_t>(addr), length);
    }
  }
}

// Arms/starts a transaction at this point. See the file comment for the frame-lifetime
// contract. `setjmp` must appear literally at the expansion site.
#define ST_HTM_BEGIN_POINT()                                                      \
  (::stacktrack::htm::ActiveBackendFast() == ::stacktrack::htm::BackendKind::kRtm \
       ? ::stacktrack::htm::RtmBeginPoint()                                       \
       : ::stacktrack::htm::StmBeginPoint(setjmp(*::stacktrack::htm::StmJmpTarget())))

}  // namespace stacktrack::htm

#endif  // STACKTRACK_HTM_HTM_H_
