#include "core/reclaim_service.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "core/free_proc.h"
#include "core/reclaim_engine.h"
#include "runtime/backoff.h"
#include "runtime/fault.h"
#include "runtime/preempt.h"
#include "runtime/trace.h"

namespace stacktrack::core {

namespace trace = runtime::trace;
namespace fault = runtime::fault;

namespace {

uint32_t RoundUpPow2(uint32_t v) {
  uint32_t p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

ReclaimService::ReclaimService(const ReclaimServiceConfig& config) : config_(config) {
  config_.reclaimers = std::clamp<uint32_t>(config_.reclaimers, 1, kMaxReclaimers);
  if (config_.ring_capacity < 2) {
    config_.ring_capacity = 2;
  }
  config_.ring_capacity = RoundUpPow2(config_.ring_capacity);
  if (config_.drain_batch == 0) {
    config_.drain_batch = 1;
  }
  if (config_.lag_check_interval == 0) {
    config_.lag_check_interval = 1;
  }
  // A round decides a whole hand-off batch: collect the roots once and probe them per
  // candidate instead of rescanning every thread per candidate.
  config_.reclaimer_config.hashed_scan = true;
  ring_mask_ = config_.ring_capacity - 1;
  rings_ = std::make_unique<Ring[]>(runtime::kMaxThreads);
  for (uint32_t tid = 0; tid < runtime::kMaxThreads; ++tid) {
    rings_[tid].slots = std::make_unique<void*[]>(config_.ring_capacity);
  }
  for (uint32_t i = 0; i < kMaxReclaimers; ++i) {
    state_[i].store(ReclaimerState::kStopped, std::memory_order_relaxed);
    shard_owner_[i].store(i, std::memory_order_relaxed);
    reclaimer_tids_[i].store(runtime::kInvalidThreadId, std::memory_order_relaxed);
    heartbeat_[i].value.store(0, std::memory_order_relaxed);
  }
}

ReclaimService::~ReclaimService() { Stop(); }

void ReclaimService::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return;  // idempotent
  }
  ReclaimService* expected = nullptr;
  if (!ActiveSlot().compare_exchange_strong(expected, this, std::memory_order_acq_rel)) {
    std::fprintf(stderr, "stacktrack: only one ReclaimService may be active at a time\n");
    std::abort();
  }
  stop_.store(false, std::memory_order_release);
  backpressure_.store(false, std::memory_order_release);
  for (uint32_t i = 0; i < config_.reclaimers; ++i) {
    state_[i].store(ReclaimerState::kRunning, std::memory_order_relaxed);
    shard_owner_[i].store(i, std::memory_order_relaxed);
    reclaimer_tids_[i].store(runtime::kInvalidThreadId, std::memory_order_relaxed);
    heartbeat_[i].value.store(0, std::memory_order_relaxed);
  }
  healthy_.store(config_.reclaimers, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  threads_.reserve(config_.reclaimers);
  for (uint32_t i = 0; i < config_.reclaimers; ++i) {
    threads_.emplace_back([this, i] { ReclaimerMain(i); });
  }
}

void ReclaimService::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;  // idempotent
  }
  // Uninstall first: producers fall back to the inline pipeline before the rings
  // stop being drained, so nothing new strands in a ring mid-shutdown.
  ReclaimService* expected = this;
  ActiveSlot().compare_exchange_strong(expected, nullptr, std::memory_order_acq_rel);
  stop_.store(true, std::memory_order_release);
  for (std::thread& t : threads_) {
    if (t.joinable()) {
      t.join();
    }
  }
  threads_.clear();
  running_.store(false, std::memory_order_release);
  healthy_.store(0, std::memory_order_release);
  // Shards of failed (stalled / death-injected) reclaimers may still hold records:
  // hand them to the bounded deferred list, where any later scan adopts them.
  SweepResidueToDeferred();
}

std::size_t ReclaimService::OfferBatch(uint32_t tid, void* const* ptrs,
                                       std::size_t count) {
  if (!running_.load(std::memory_order_acquire) ||
      stop_.load(std::memory_order_acquire) ||
      backpressure_.load(std::memory_order_acquire) ||
      healthy_.load(std::memory_order_acquire) == 0) {
    return 0;
  }
  Ring& ring = rings_[tid];
  const uint64_t head = ring.head.load(std::memory_order_relaxed);
  const uint64_t tail = ring.tail.load(std::memory_order_acquire);
  const uint64_t room = config_.ring_capacity - (head - tail);
  const std::size_t n = std::min<std::size_t>(count, room);
  for (std::size_t i = 0; i < n; ++i) {
    ring.slots[(head + i) & ring_mask_] = ptrs[i];
  }
  if (n != 0) {
    ring.head.store(head + n, std::memory_order_release);
  }
  return n;
}

std::size_t ReclaimService::RingDepth(uint32_t tid) const {
  const Ring& ring = rings_[tid];
  return ring.head.load(std::memory_order_acquire) -
         ring.tail.load(std::memory_order_acquire);
}

std::size_t ReclaimService::TotalQueued() const {
  std::size_t total = 0;
  for (uint32_t tid = 0; tid < runtime::kMaxThreads; ++tid) {
    total += RingDepth(tid);
  }
  return total;
}

std::size_t ReclaimService::DrainRing(uint32_t tid, StContext& ctx, bool steal) {
  Ring& ring = rings_[tid];
  if (ring.head.load(std::memory_order_acquire) ==
      ring.tail.load(std::memory_order_relaxed)) {
    return 0;
  }
  if (!ring.consumer_latch.TryLock()) {
    return 0;  // another reclaimer is on this ring; never wait for it
  }
  const uint64_t tail = ring.tail.load(std::memory_order_relaxed);
  const uint64_t head = ring.head.load(std::memory_order_acquire);
  const std::size_t n =
      std::min<std::size_t>(head - tail, config_.drain_batch);
  std::vector<void*>& free_set = ctx.MutableFreeSet();
  for (std::size_t i = 0; i < n; ++i) {
    free_set.push_back(ring.slots[(tail + i) & ring_mask_]);
  }
  ring.tail.store(tail + n, std::memory_order_release);
  ring.consumer_latch.Unlock();
  if (n != 0) {
    ++ctx.stats.service_batches;
    trace::Emit(trace::Event::kServiceHandoff, n);
    if (steal) {
      ++ctx.stats.steals;
      trace::Emit(trace::Event::kServiceSteal, tid);
    }
    ctx.NoteFreeSetSize();
  }
  return n;
}

std::size_t ReclaimService::DrainShards(uint32_t index, StContext& ctx) {
  const uint32_t reclaimers = config_.reclaimers;
  std::size_t moved = 0;
  for (uint32_t shard = 0; shard < reclaimers; ++shard) {
    if (shard_owner_[shard].load(std::memory_order_acquire) != index) {
      continue;
    }
    for (uint32_t tid = shard; tid < runtime::kMaxThreads; tid += reclaimers) {
      moved += DrainRing(tid, ctx, /*steal=*/false);
    }
  }
  if (moved != 0) {
    return moved;
  }
  // Own shards are dry: steal. One slow or contended shard must not idle this
  // reclaimer while other rings back up.
  for (uint32_t tid = 0; tid < runtime::kMaxThreads; ++tid) {
    if (shard_owner_[tid % reclaimers].load(std::memory_order_acquire) == index) {
      continue;
    }
    moved += DrainRing(tid, ctx, /*steal=*/true);
    if (moved >= config_.drain_batch) {
      break;
    }
  }
  return moved;
}

void ReclaimService::RunRound(StContext& ctx) {
  const uint64_t frees_before = ctx.stats.frees;
  ReclaimEngine::Run(ctx, ScanMode::kHashed);
  if (ctx.stats.frees == frees_before && !ctx.MutableFreeSet().empty() &&
      StalledThreadMask() != 0) {
    // The round proved nothing dead and the watchdog blames a stalled thread:
    // re-queue the surviving batch to the deferred spillway instead of letting it
    // wedge this reclaimer's free set. The inspection retry cap already bounded the
    // time spent on the stalled victim; fresh hand-off batches keep flowing and any
    // reclaimer retries the survivors once the stall clears.
    std::vector<void*>& free_set = ctx.MutableFreeSet();
    const std::size_t accepted =
        DeferredFreeList::Instance().Push(free_set.data(), free_set.size());
    if (accepted != 0) {
      free_set.erase(free_set.begin(),
                     free_set.begin() + static_cast<std::ptrdiff_t>(accepted));
      ctx.stats.backpressure_spills += accepted;
      trace::Emit(trace::Event::kBackpressureSpill, accepted);
    }
  }
}

void ReclaimService::SampleLag(StContext& ctx) {
  // The same quantity the T1 timeline exports (stats_export.h ReclamationLag):
  // registry-wide retires minus frees, saturating at zero on racy snapshots.
  const Stats sum = StatsRegistry::Instance().Sum();
  const uint64_t lag = sum.retires > sum.frees ? sum.retires - sum.frees : 0;
  const bool engaged = backpressure_.load(std::memory_order_relaxed);
  if (!engaged && lag > config_.lag_threshold) {
    backpressure_.store(true, std::memory_order_release);
    ++ctx.stats.backpressure_raises;
    trace::Emit(trace::Event::kBackpressureRaise, lag);
  } else if (engaged && lag <= config_.lag_threshold / 2) {
    backpressure_.store(false, std::memory_order_release);
  }
}

void ReclaimService::MonitorPeers(uint32_t self, StContext& ctx,
                                  uint64_t* last_beat, uint64_t* last_change_ns) {
  if (stop_.load(std::memory_order_acquire)) {
    return;  // peers quiescing for shutdown are not failures
  }
  const uint64_t now = trace::NowNanos();
  for (uint32_t peer = 0; peer < config_.reclaimers; ++peer) {
    if (peer == self ||
        state_[peer].load(std::memory_order_acquire) != ReclaimerState::kRunning) {
      continue;
    }
    const uint64_t beat = heartbeat_[peer].value.load(std::memory_order_acquire);
    if (beat != last_beat[peer]) {
      last_beat[peer] = beat;
      last_change_ns[peer] = now;
      continue;
    }
    if (reclaimer_tids_[peer].load(std::memory_order_acquire) ==
        runtime::kInvalidThreadId) {
      continue;  // still starting up
    }
    if (now - last_change_ns[peer] < config_.failover_timeout_ns) {
      continue;
    }
    ReclaimerState expected = ReclaimerState::kRunning;
    if (!state_[peer].compare_exchange_strong(expected, ReclaimerState::kFailed,
                                              std::memory_order_acq_rel)) {
      continue;  // another monitor won the failover
    }
    healthy_.fetch_sub(1, std::memory_order_acq_rel);
    ++ctx.stats.failovers;
    trace::Emit(trace::Event::kServiceFailover, peer);
    // Adopt every shard the dead reclaimer owned (including shards it had itself
    // adopted from an earlier casualty).
    for (uint32_t shard = 0; shard < config_.reclaimers; ++shard) {
      uint32_t owner = peer;
      shard_owner_[shard].compare_exchange_strong(owner, self,
                                                  std::memory_order_acq_rel);
    }
  }
}

void ReclaimService::FinalDrain(StContext& ctx) {
  // Graceful shutdown: leave no record in any hand-off ring. Every stopping
  // reclaimer sweeps ALL rings (a failed peer's shard has no other consumer left),
  // then flushes its free set; repeat until nothing moves.
  while (true) {
    std::size_t moved = 0;
    for (uint32_t tid = 0; tid < runtime::kMaxThreads; ++tid) {
      std::size_t n;
      while ((n = DrainRing(tid, ctx, /*steal=*/false)) != 0) {
        moved += n;
      }
    }
    if (ctx.free_set_size() != 0) {
      ctx.FlushFrees();
    }
    if (moved == 0) {
      break;
    }
  }
}

void ReclaimService::SweepResidueToDeferred() {
  auto& deferred = DeferredFreeList::Instance();
  for (uint32_t tid = 0; tid < runtime::kMaxThreads; ++tid) {
    Ring& ring = rings_[tid];
    uint64_t tail = ring.tail.load(std::memory_order_acquire);
    const uint64_t head = ring.head.load(std::memory_order_acquire);
    while (tail != head) {
      void* batch[64];
      const std::size_t n =
          std::min<std::size_t>(head - tail, sizeof(batch) / sizeof(batch[0]));
      for (std::size_t i = 0; i < n; ++i) {
        batch[i] = ring.slots[(tail + i) & ring_mask_];
      }
      const std::size_t accepted = deferred.Push(batch, n);
      tail += accepted;
      ring.tail.store(tail, std::memory_order_release);
      if (accepted < n) {
        break;  // spillway full: the remainder stays ring-parked (bounded), as a
                // restarted service or the next sweep can still drain it
      }
    }
  }
}

void ReclaimService::ReclaimerMain(uint32_t index) {
  runtime::ThreadScope scope;
  StContext ctx(scope.tid(), config_.reclaimer_config);
  reclaimer_tids_[index].store(scope.tid(), std::memory_order_release);

  uint64_t last_beat[kMaxReclaimers] = {};
  uint64_t last_change_ns[kMaxReclaimers];
  const uint64_t start_ns = trace::NowNanos();
  for (uint32_t i = 0; i < kMaxReclaimers; ++i) {
    last_change_ns[i] = start_ns;
  }

  runtime::ExponentialBackoff idle(64, 8192);
  uint64_t pass = 0;
  bool casualty = false;
  while (!stop_.load(std::memory_order_acquire)) {
    heartbeat_[index].value.fetch_add(1, std::memory_order_acq_rel);
    if (fault::AnyArmed()) {
      // The injection point: a gate-armed kThreadStall parks this reclaimer here
      // (frozen heartbeat -> peer failover); kThreadDeath makes it abandon its loop.
      runtime::PreemptPoint();
      if (fault::DeathRequested()) {
        casualty = true;
        break;
      }
    }
    if (state_[index].load(std::memory_order_acquire) != ReclaimerState::kRunning) {
      // A peer declared this reclaimer dead while it was parked; its shards have new
      // owners. Bow out — ~StContext hands any leftovers to the deferred list.
      casualty = true;
      break;
    }
    const std::size_t moved = DrainShards(index, ctx);
    const uint64_t frees_before = ctx.stats.frees;
    if (ctx.free_set_size() >= config_.scan_trigger ||
        (moved == 0 && (ctx.free_set_size() != 0 ||
                        DeferredFreeList::Instance().Size() != 0))) {
      RunRound(ctx);
    }
    if (++pass % config_.lag_check_interval == 0) {
      SampleLag(ctx);
    }
    MonitorPeers(index, ctx, last_beat, last_change_ns);
    if (moved == 0 && ctx.stats.frees == frees_before) {
      idle.Pause();
      sched_yield();
    }
  }

  if (!casualty) {
    FinalDrain(ctx);
    state_[index].store(ReclaimerState::kStopped, std::memory_order_release);
  }
  // ~StContext -> DrainOnExit: anything a casualty still buffered reaches the
  // deferred list; ThreadScope's exit hooks then release the tid.
}

}  // namespace stacktrack::core
