#include "htm/soft_backend.h"

#include <cstdio>
#include <cstdlib>

#include "htm/stm_stats.h"
#include "runtime/backoff.h"
#include "runtime/fault.h"
#include "runtime/machine_model.h"
#include "runtime/trace.h"

namespace stacktrack::htm::soft {
namespace {

// Cause codes mirror htm::AbortCause; kept as plain ints here to avoid a cyclic
// include (htm.h includes this header).
constexpr int kCauseConflict = 1;
constexpr int kCauseCapacity = 2;
constexpr int kCauseOther = 4;

void ResetTx(TxDesc& tx) {
  tx.read_count = 0;
  tx.write_count = 0;
  // The read cache must not survive into the next transaction: a stale hit would
  // skip logging a read the fresh log has no entry to validate.
  tx.last_read_line = 0;
}

// `eager` distinguishes aborts raised at the access site from commit-time ones in
// the engine counters; under lazy validation almost every conflict is commit-time.
[[noreturn]] void AbortTx(TxDesc& tx, int cause, bool eager = false) {
  if (cause == kCauseConflict) {
    StmTxCounters& counters = CurrentStmCounters();
    eager ? ++counters.eager_conflict_aborts : ++counters.commit_conflict_aborts;
  }
  tx.active = false;
  ResetTx(tx);
  std::longjmp(tx.env, cause);
}

// Hands the trace layer its in-transaction probe (runtime/trace.h SetInTxProbe). On
// real HTM an armed emit inside a segment is a guaranteed abort (its clock_gettime
// reads the vvar page) that would silently force every fast-path segment onto the
// slow path; the soft engine would not abort, so the trace layer aborts the process
// when this answers yes.
[[maybe_unused]] const bool g_trace_probe_registered = [] {
  runtime::trace::SetInTxProbe([] { return tls_tx.active; });
  return true;
}();

}  // namespace

int BeginPoint(int jmp_rc) {
  TxDesc& tx = tls_tx;
  if (jmp_rc != 0) {
    // Arrived here via an abort longjmp; the descriptor was already reset. Every
    // soft-transaction abort resumes through this point, so it is the one place the
    // abort event (arg = htm::AbortCause code) is recorded.
    runtime::trace::Emit(runtime::trace::Event::kSegmentAbort,
                         static_cast<uint64_t>(jmp_rc));
    return jmp_rc;
  }
  if (tx.active) {
    std::fprintf(stderr, "stacktrack: nested soft transactions are not supported\n");
    std::abort();
  }
  tx.active = true;
  ResetTx(tx);
  const auto& model = runtime::MachineModel::Instance();
  tx.capacity_limit = model.CapacityLinesNow();
  tx.spurious_prob = model.SpuriousAbortProbNow();
  tx.spurious_enabled = tx.spurious_prob > 0.0;
  tx.fast_read_limit =
      tx.spurious_enabled
          ? 0
          : (tx.capacity_limit < kReadLogEntries ? tx.capacity_limit
                                                 : static_cast<uint32_t>(kReadLogEntries));
  if (runtime::fault::ShouldFire(runtime::fault::Site::kSoftTxAbort)) [[unlikely]] {
    // Forced abort right after begin, driving the caller's retry/escalation path.
    // The site payload selects the reported cause (default: conflict).
    const uint64_t payload = runtime::fault::Payload(runtime::fault::Site::kSoftTxAbort);
    AbortTx(tx, payload != 0 ? static_cast<int>(payload) : kCauseConflict,
            /*eager=*/true);
  }
  return 0;
}

uint64_t TxLoadWordChecked(uint64_t value, uint32_t stripe, uint64_t version) {
  TxDesc& tx = tls_tx;
  const uint32_t index = tx.read_count;
  if (index >= kReadLogEntries || index >= tx.capacity_limit) {
    AbortTx(tx, kCauseCapacity);
  }
  tx.read_log[index] = ReadEntry{stripe, version};
  tx.read_count = index + 1;
  if (tx.spurious_enabled && tx.rng.NextBool(tx.spurious_prob)) [[unlikely]] {
    AbortTx(tx, kCauseOther);
  }
  return value;
}

uint64_t TxLoadWordAfterWrite(const std::atomic<uint64_t>* addr) {
  TxDesc& tx = tls_tx;
  // Read-own-writes: the instrumented operations write at most a few words per
  // segment, so a linear scan beats any hashing.
  for (uint32_t w = 0; w < tx.write_count; ++w) {
    if (tx.write_log[w].addr == addr) {
      return tx.write_log[w].value;
    }
  }
  return LoadUnwritten(tx, addr);
}

uint64_t TxLoadWordContended(const std::atomic<uint64_t>* addr) {
  TxDesc& tx = tls_tx;
  const uint32_t stripe = StripeIndexOf(reinterpret_cast<uintptr_t>(addr));
  ++CurrentStmCounters().stripe_waits;
  runtime::ExponentialBackoff backoff;
  // A committer holds the line; it releases quickly unless we are preempted. Persisting
  // contention is reported as a conflict abort, as HTM would.
  for (int spin = 0; spin < 64; ++spin) {
    const uint64_t version = g_stripes[stripe].load(std::memory_order_acquire);
    if (!StripeLocked(version)) {
      const uint64_t value = addr->load(std::memory_order_acquire);
      const uint32_t index = tx.read_count;
      if (index >= kReadLogEntries || index >= tx.capacity_limit) {
        AbortTx(tx, kCauseCapacity);
      }
      tx.read_log[index] = ReadEntry{stripe, version};
      tx.read_count = index + 1;
      return value;
    }
    backoff.Pause();
  }
  AbortTx(tx, kCauseConflict, /*eager=*/true);
}

void AbortCapacity() { AbortTx(tls_tx, kCauseCapacity); }
void AbortOther() { AbortTx(tls_tx, kCauseOther); }

void Commit() {
  TxDesc& tx = tls_tx;
  if (!tx.active) {
    std::fprintf(stderr, "stacktrack: commit without an active soft transaction\n");
    std::abort();
  }

  // Lock the stripes behind the write log, remembering pre-lock values. Bounded
  // try-lock avoids deadlock: persistent failure is a conflict abort.
  uint32_t locked_stripes[kWriteLogEntries];
  uint64_t prelock_values[kWriteLogEntries];
  std::size_t locked_count = 0;
  auto release_locks = [&](uint64_t published_version) {
    for (std::size_t i = 0; i < locked_count; ++i) {
      const uint64_t restored =
          published_version != 0 ? (published_version << 1) : prelock_values[i];
      g_stripes[locked_stripes[i]].store(restored, std::memory_order_release);
    }
  };

  for (uint32_t w = 0; w < tx.write_count; ++w) {
    const uint32_t stripe = StripeIndexOf(reinterpret_cast<uintptr_t>(tx.write_log[w].addr));
    bool already = false;
    for (std::size_t k = 0; k < locked_count; ++k) {
      if (locked_stripes[k] == stripe) {
        already = true;
        break;
      }
    }
    if (already) {
      continue;
    }
    runtime::ExponentialBackoff backoff;
    bool locked = false;
    for (int attempt = 0; attempt < 64; ++attempt) {
      uint64_t current = g_stripes[stripe].load(std::memory_order_acquire);
      if (!StripeLocked(current)) {
        if (g_stripes[stripe].compare_exchange_weak(current, current | kStripeLockBit,
                                                    std::memory_order_acq_rel)) {
          locked_stripes[locked_count] = stripe;
          prelock_values[locked_count] = current;
          ++locked_count;
          locked = true;
          break;
        }
      }
      backoff.Pause();
    }
    if (!locked) {
      release_locks(0);
      AbortTx(tx, kCauseConflict);
    }
  }

  // Validate the entire read log: every recorded stripe must still carry its observed
  // version (stripes we locked ourselves are compared against their pre-lock value).
  for (uint32_t r = 0; r < tx.read_count; ++r) {
    const ReadEntry entry = tx.read_log[r];
    uint64_t now = g_stripes[entry.stripe].load(std::memory_order_acquire);
    if (now == entry.version) {
      continue;
    }
    bool ours = false;
    for (std::size_t k = 0; k < locked_count; ++k) {
      if (locked_stripes[k] == entry.stripe) {
        ours = prelock_values[k] == entry.version;
        break;
      }
    }
    if (!ours) {
      release_locks(0);
      AbortTx(tx, kCauseConflict);
    }
  }

  if (tx.write_count != 0) {
    const uint64_t wv = g_clock.fetch_add(1, std::memory_order_acq_rel) + 1;
    for (uint32_t w = 0; w < tx.write_count; ++w) {
      tx.write_log[w].addr->store(tx.write_log[w].value, std::memory_order_release);
    }
    release_locks(wv);
  }
  tx.active = false;
  ResetTx(tx);
}

void Abort(int cause) { AbortTx(tls_tx, cause); }

uint64_t SafeLoadWord(const std::atomic<uint64_t>* addr) {
  std::atomic<uint64_t>& stripe = g_stripes[StripeIndexOf(reinterpret_cast<uintptr_t>(addr))];
  runtime::ExponentialBackoff backoff;
  while (true) {
    const uint64_t v1 = stripe.load(std::memory_order_acquire);
    if (!StripeLocked(v1)) {
      const uint64_t value = addr->load(std::memory_order_acquire);
      if (stripe.load(std::memory_order_acquire) == v1) {
        return value;
      }
    }
    backoff.Pause();
  }
}

void SafeStoreWord(std::atomic<uint64_t>* addr, uint64_t value) {
  std::atomic<uint64_t>& stripe = g_stripes[StripeIndexOf(reinterpret_cast<uintptr_t>(addr))];
  runtime::ExponentialBackoff backoff;
  while (true) {
    uint64_t current = stripe.load(std::memory_order_acquire);
    if (!StripeLocked(current) &&
        stripe.compare_exchange_weak(current, current | kStripeLockBit,
                                     std::memory_order_acq_rel)) {
      addr->store(value, std::memory_order_release);
      const uint64_t wv = g_clock.fetch_add(1, std::memory_order_acq_rel) + 1;
      stripe.store(wv << 1, std::memory_order_release);
      return;
    }
    backoff.Pause();
  }
}

bool SafeCasWord(std::atomic<uint64_t>* addr, uint64_t expected, uint64_t desired) {
  std::atomic<uint64_t>& stripe = g_stripes[StripeIndexOf(reinterpret_cast<uintptr_t>(addr))];
  runtime::ExponentialBackoff backoff;
  while (true) {
    uint64_t current = stripe.load(std::memory_order_acquire);
    if (!StripeLocked(current) &&
        stripe.compare_exchange_weak(current, current | kStripeLockBit,
                                     std::memory_order_acq_rel)) {
      const bool ok = addr->load(std::memory_order_acquire) == expected;
      if (ok) {
        addr->store(desired, std::memory_order_release);
      }
      const uint64_t wv = g_clock.fetch_add(1, std::memory_order_acq_rel) + 1;
      stripe.store(wv << 1, std::memory_order_release);
      return ok;
    }
    backoff.Pause();
  }
}

void QuarantineRange(uintptr_t addr, std::size_t length) {
  const uintptr_t first_line = addr & ~uintptr_t{63};
  const uintptr_t last_line = (addr + (length == 0 ? 0 : length - 1)) & ~uintptr_t{63};
  for (uintptr_t line = first_line; line <= last_line; line += 64) {
    std::atomic<uint64_t>& stripe = g_stripes[StripeIndexOf(line)];
    runtime::ExponentialBackoff backoff;
    while (true) {
      uint64_t current = stripe.load(std::memory_order_acquire);
      if (!StripeLocked(current) &&
          stripe.compare_exchange_weak(current, current | kStripeLockBit,
                                       std::memory_order_acq_rel)) {
        const uint64_t wv = g_clock.fetch_add(1, std::memory_order_acq_rel) + 1;
        stripe.store(wv << 1, std::memory_order_release);
        break;
      }
      backoff.Pause();
    }
  }
}

uint64_t ClockValue() { return g_clock.load(std::memory_order_acquire); }

uint64_t StripeValueOf(const void* addr) {
  return g_stripes[StripeIndexOf(reinterpret_cast<uintptr_t>(addr))].load(
      std::memory_order_acquire);
}

}  // namespace stacktrack::htm::soft
