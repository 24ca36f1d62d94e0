// Software best-effort HTM (the paper's TSX substitute).
//
// A lazy-validation striped STM tuned so that in-transaction reads cost a handful of
// instructions (real HTM reads are free; this is the closest a software substrate
// gets):
//  * A global table of 2^20 versioned stripe locks, one stripe per 64-byte cache line,
//    mirrors HTM's cache-line conflict granularity (including false sharing).
//  * TxLoadWord records (stripe, observed version) in an append-only read log and
//    returns the value immediately — no per-read validation. The whole log is
//    validated at commit; any stripe that changed aborts the segment.
//  * Deferred validation admits bounded "zombie" execution (a segment may compute on
//    values that are no longer mutually consistent). This is safe here by
//    construction: (a) StackTrack's split checkpoints bound how far a zombie runs
//    before a commit attempt validates and aborts it, (b) node memory is type-stable
//    (pool slabs are never unmapped), so stale pointers always target mapped memory,
//    and (c) freed memory is poisoned with 0xDD bytes, which reads as a *marked*
//    pointer (LSB set) and as a key larger than any benchmark key — both route the
//    data-structure code to its retry/exit paths, which hit a checkpoint and abort.
//  * Writes are buffered in a small linear log (read-own-writes via linear scan, run
//    only once the segment has buffered a write; the instrumented operations write at
//    most a few words per segment); commit try-locks the written stripes, validates
//    the read log, publishes, and releases with a fresh clock value.
//  * Capacity aborts fire when the access-log size exceeds the budget reported by
//    runtime::MachineModel at begin time — this reproduces the paper's hyperthreading
//    capacity cliff — or when the fixed-size logs overflow outright. Spurious kOther
//    aborts are injected with the model's oversubscription probability.
//
// Aborts transfer control back to the begin point with longjmp; the split engine owns
// rolling back the tracked frame (see the SMR_* macros in smr/smr.h for the contract).
//
// Code shape: TxLoadWord is forced inline into every instrumented operation, so a
// read of a fresh or cached line is straight-line code with no call. Everything else
// (read-own-writes, a locked stripe, the capacity/spurious checks) is an out-of-line
// cold path.
#ifndef STACKTRACK_HTM_SOFT_BACKEND_H_
#define STACKTRACK_HTM_SOFT_BACKEND_H_

#include <atomic>
#include <csetjmp>
#include <cstddef>
#include <cstdint>

#include "runtime/rand.h"

namespace stacktrack::htm::soft {

// Stripe values encode (version << 1) | locked.
inline constexpr uint64_t kStripeLockBit = 1;
inline constexpr std::size_t kStripeCountLog2 = 16;  // 512 KiB table: stays cache-resident; aliasing false conflicts are rare and HTM-like
inline constexpr std::size_t kStripeCount = std::size_t{1} << kStripeCountLog2;

// Fixed-capacity access logs. Overflow triggers a genuine capacity abort.
inline constexpr std::size_t kReadLogEntries = 4096;
inline constexpr std::size_t kWriteLogEntries = 256;


// Kept trivial so the descriptor reset is a pair of count stores.
struct ReadEntry {
  uint32_t stripe;
  uint64_t version;  // observed (unlocked) stripe value
};

struct WriteLogEntry {
  std::atomic<uint64_t>* addr;
  uint64_t value;
};

// Every member has a constant initializer: the descriptor is a `constinit`
// thread-local (below), so a member that needs dynamic initialization fails to compile.
struct TxDesc {
  std::jmp_buf env = {};  // armed by the begin-point macro
  bool active = false;
  uint32_t capacity_limit = 0;  // access-log budget for this attempt
  uint32_t fast_read_limit = 0;  // min(log size, capacity), or 0 when spurious
                                 // injection is on: reads below it need no checks
  double spurious_prob = 0.0;
  bool spurious_enabled = false;
  uint32_t read_count = 0;
  uint32_t write_count = 0;
  // One-entry read-log cache: the line address (addr >> 6) most recently appended.
  // A repeat read of that line skips the stripe machinery entirely and returns the
  // raw value — the logged entry already monitors the line, so any concurrent
  // change (including reclaimer quarantine) fails commit validation. This is
  // exactly real HTM's semantics: re-reading a monitored line is free, and the
  // value observed is only as good as the commit that validates it. Pointer-chasing
  // traversals hit this constantly (a node's key and next field share a line).
  // 0 is the sentinel (line 0 = the first 64 bytes of address space, never heap).
  uintptr_t last_read_line = 0;
  ReadEntry read_log[kReadLogEntries] = {};
  WriteLogEntry write_log[kWriteLogEntries] = {};
  runtime::Xorshift128 rng{0x5eedbeef};
};

// Inline and constant-initialized: an access is a fixed offset from the thread
// pointer, with no out-of-line call and no TLS init guard.
inline constinit thread_local TxDesc tls_tx;
inline TxDesc& CurrentTx() { return tls_tx; }

// Global stripe table and commit clock (single definitions via inline variables).
inline std::atomic<uint64_t> g_clock{0};
inline std::atomic<uint64_t> g_stripes[kStripeCount];

inline uint32_t StripeIndexOf(uintptr_t addr) {
  const uint64_t line = addr >> 6;
  return static_cast<uint32_t>((line * 0x9e3779b97f4a7c15ULL) >> (64 - kStripeCountLog2));
}

inline bool StripeLocked(uint64_t stripe_value) { return (stripe_value & kStripeLockBit) != 0; }

// Begin-point helper: jmp_rc == 0 starts a fresh transaction and returns 0 (started);
// a nonzero jmp_rc means we arrived via an abort longjmp and it is returned unchanged
// as the AbortCause code.
int BeginPoint(int jmp_rc);

// Commits the running transaction or aborts (longjmp) on validation failure.
void Commit();

// Aborts the running transaction with the given cause code. Never returns.
[[noreturn]] void Abort(int cause);

// Cold paths of the inline access functions.
[[noreturn]] void AbortCapacity();
[[noreturn]] void AbortOther();
uint64_t TxLoadWordContended(const std::atomic<uint64_t>* addr);  // stripe was locked
// Read index reached fast_read_limit: capacity check, log, spurious draw.
uint64_t TxLoadWordChecked(uint64_t value, uint32_t stripe, uint64_t version);
// The segment has buffered a write: read-own-writes scan, then the logged read.
uint64_t TxLoadWordAfterWrite(const std::atomic<uint64_t>* addr);

// Logged read of a word this segment has not written. Shared by the inline fast path
// and TxLoadWordAfterWrite.
[[gnu::always_inline]] inline uint64_t LoadUnwritten(TxDesc& tx,
                                                     const std::atomic<uint64_t>* addr) {
  const uintptr_t line = reinterpret_cast<uintptr_t>(addr) >> 6;
  if (line == tx.last_read_line) {
    // Cached: the line is already in the read set. Word loads are untearable, and
    // if the line changed since it was logged (writer commit, quarantine) the
    // logged version mismatches at commit and the transaction aborts — so the
    // value returned here is never acted on beyond the zombie window the file
    // comment already admits. Only set on the fast path, so spurious-injection
    // regimes (fast_read_limit == 0) keep their one-RNG-draw-per-read semantics.
    return addr->load(std::memory_order_acquire);
  }
  const uint32_t stripe = StripeIndexOf(reinterpret_cast<uintptr_t>(addr));
  const uint64_t version = g_stripes[stripe].load(std::memory_order_acquire);
  if (StripeLocked(version)) [[unlikely]] {
    return TxLoadWordContended(addr);  // wait out the committer (or abort)
  }
  const uint64_t value = addr->load(std::memory_order_acquire);
  // No re-check and no rv comparison: a torn or stale observation is caught by the
  // commit-time validation against this recorded version (see file comment).
  const uint32_t index = tx.read_count;
  // One compare covers everything the common path can hit: fast_read_limit folds the
  // capacity budget and the log bound together, and drops to 0 when spurious-abort
  // injection needs an RNG draw per read (the oversubscribed regimes only).
  if (index >= tx.fast_read_limit) [[unlikely]] {
    return TxLoadWordChecked(value, stripe, version);
  }
  tx.read_log[index] = ReadEntry{stripe, version};
  tx.read_count = index + 1;
  tx.last_read_line = line;
  return value;
}

[[gnu::always_inline]] inline uint64_t TxLoadWord(const std::atomic<uint64_t>* addr) {
  TxDesc& tx = tls_tx;
  // Only a segment that has buffered a write can read its own writes; until the
  // first store, reads skip the write-log scan.
  if (tx.write_count != 0) [[unlikely]] {
    return TxLoadWordAfterWrite(addr);
  }
  return LoadUnwritten(tx, addr);
}

[[gnu::always_inline]] inline void TxStoreWord(std::atomic<uint64_t>* addr, uint64_t value) {
  TxDesc& tx = tls_tx;
  for (uint32_t w = 0; w < tx.write_count; ++w) {
    if (tx.write_log[w].addr == addr) {
      tx.write_log[w].value = value;
      return;
    }
  }
  const uint32_t index = tx.write_count;
  if (index >= kWriteLogEntries || tx.read_count + index >= tx.capacity_limit) [[unlikely]] {
    AbortCapacity();
  }
  tx.write_log[index] = WriteLogEntry{addr, value};
  tx.write_count = index + 1;
}

// Non-transactional interop: stripe-consistent single-word operations.
uint64_t SafeLoadWord(const std::atomic<uint64_t>* addr);
void SafeStoreWord(std::atomic<uint64_t>* addr, uint64_t value);
bool SafeCasWord(std::atomic<uint64_t>* addr, uint64_t expected, uint64_t desired);

// Bumps stripe versions for [addr, addr + length) so running readers abort.
void QuarantineRange(uintptr_t addr, std::size_t length);

// Test/inspection hooks.
uint64_t ClockValue();
uint64_t StripeValueOf(const void* addr);

}  // namespace stacktrack::htm::soft

#endif  // STACKTRACK_HTM_SOFT_BACKEND_H_
