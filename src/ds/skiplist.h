// Fraser-Harris lock-free skip list (the paper's long-operation benchmark).
//
// Tower nodes carry per-level next pointers whose LSB is the per-level deletion mark.
// Removal marks the tower top-down (the level-0 mark decides the winning remover),
// then the winner re-runs Find until no level still links the node, and only then
// retires it — the "unlink until unseen" gate that makes hazard-pointer validation
// sufficient (a node can never be freed while any level-l chain still reaches it,
// because a completed Find pass walks exactly those chains).
//
// Find is a real helper function: the SMR_PRE_CALL / SMR_HELPER_* protocol closes the
// caller's transactional segment around the call so begin points stay frame-local
// (see smr/smr.h).
#ifndef STACKTRACK_DS_SKIPLIST_H_
#define STACKTRACK_DS_SKIPLIST_H_

#include <atomic>
#include <bit>
#include <algorithm>
#include <cstdint>
#include <new>

#include "ds/list.h"  // detail::IsMarked / Marked / Unmarked
#include "runtime/pool_alloc.h"
#include "runtime/preempt.h"
#include "runtime/rand.h"
#include "smr/smr.h"

namespace stacktrack::ds {

template <typename Smr>
class LockFreeSkipList {
 public:
  using Handle = typename Smr::Handle;

  static constexpr uint32_t kMaxLevel = 16;

  struct Node {
    std::atomic<uint64_t> key;
    std::atomic<uint64_t> value;
    std::atomic<uint64_t> height;
    std::atomic<Node*> next[kMaxLevel];  // LSB = per-level deletion mark
  };

  static constexpr uint32_t kOpContains = 6;
  static constexpr uint32_t kOpInsert = 7;
  static constexpr uint32_t kOpRemove = 8;

  // Hazard slot map: 0-2 traversal, 3..18 preds, 19..34 succs, 35 the inserted node.
  static constexpr uint32_t kSlotPred = 0;
  static constexpr uint32_t kSlotCurr = 1;
  static constexpr uint32_t kSlotNext = 2;
  static constexpr uint32_t kSlotPredBase = 3;
  static constexpr uint32_t kSlotSuccBase = 3 + kMaxLevel;
  static constexpr uint32_t kSlotNode = 3 + 2 * kMaxLevel;

  LockFreeSkipList() {
    head_ = NewNode(0, 0, kMaxLevel);  // sentinel; never freed; nullptr next == +inf
  }

  ~LockFreeSkipList() {
    auto& pool = runtime::PoolAllocator::Instance();
    Node* node = head_;
    while (node != nullptr && pool.OwnsLive(node)) {
      Node* next = detail::Unmarked(node->next[0].load(std::memory_order_relaxed));
      pool.Free(node);
      node = next;
    }
  }

  LockFreeSkipList(const LockFreeSkipList&) = delete;
  LockFreeSkipList& operator=(const LockFreeSkipList&) = delete;

  bool Contains(Handle& h, uint64_t key) {
    typename Smr::template Frame<2 * kMaxLevel> roots(h);
    SMR_OP_BEGIN(h, kOpContains);
    SMR_PRE_CALL(h);
    const FindResult result = Find(h, key, roots.words, roots.words + kMaxLevel, nullptr);
    SMR_POST_CALL(h);
    SMR_OP_END(h);
    return result.found;
  }

  bool Insert(Handle& h, uint64_t key, uint64_t value) {
    const uint32_t height = RandomHeight();
    Node* fresh = NewNode(key, value, height);
    typename Smr::template Frame<2 * kMaxLevel + 4> roots(h);
    uintptr_t* preds = roots.words;
    uintptr_t* succs = roots.words + kMaxLevel;
    auto node = roots.template ptr<Node*>(2 * kMaxLevel);
    auto level = roots.template ptr<uint64_t>(2 * kMaxLevel + 1);
    auto expected = roots.template ptr<Node*>(2 * kMaxLevel + 2);
    node = fresh;
    h.ProtectRaw(kSlotNode, fresh);  // visible before the node is ever reachable

    SMR_OP_BEGIN(h, kOpInsert);
    while (true) {
      SMR_PRE_CALL(h);
      const FindResult result = Find(h, key, preds, succs, nullptr);
      SMR_POST_CALL(h);
      if (result.found) {
        SMR_OP_END(h);
        runtime::PoolAllocator::Instance().Free(node.get());  // never published
        return false;
      }
      SMR_CHECKPOINT(h);
      // Wire the private tower, then publish through level 0 (the linearization).
      for (uint32_t l = 0; l < height; ++l) {
        node->next[l].store(std::bit_cast<Node*>(succs[l]), std::memory_order_relaxed);
      }
      if (h.Cas(head_at(preds[0])->next[0], std::bit_cast<Node*>(succs[0]), node.get())) {
        break;
      }
    }

    // Best-effort upper-level linking; stop if the node is already being removed.
    level = uint64_t{1};
    while (level.get() < height) {
      SMR_CHECKPOINT(h);
      expected = h.Load(node->next[level.get()]);
      if (detail::IsMarked(expected.get())) {
        break;  // concurrent removal owns the tower now
      }
      if (expected.get() != std::bit_cast<Node*>(succs[level.get()])) {
        // Refresh the tower link to the current successor before trying to publish.
        if (!h.Cas(node->next[level.get()], expected.get(),
                   std::bit_cast<Node*>(succs[level.get()]))) {
          continue;
        }
      }
      SMR_CHECKPOINT(h);
      if (h.Cas(head_at(preds[level.get()])->next[level.get()],
                std::bit_cast<Node*>(succs[level.get()]), node.get())) {
        level = level.get() + 1;
        continue;
      }
      // Predecessor view is stale: refresh it. If the key vanished, removal won.
      SMR_PRE_CALL(h);
      const FindResult refresh = Find(h, key, preds, succs, nullptr);
      SMR_POST_CALL(h);
      if (!refresh.found || std::bit_cast<Node*>(succs[0]) != node.get()) {
        break;
      }
    }
    SMR_OP_END(h);
    return true;
  }

  bool Remove(Handle& h, uint64_t key) {
    typename Smr::template Frame<2 * kMaxLevel + 4> roots(h);
    uintptr_t* preds = roots.words;
    uintptr_t* succs = roots.words + kMaxLevel;
    auto node = roots.template ptr<Node*>(2 * kMaxLevel);
    auto level = roots.template ptr<uint64_t>(2 * kMaxLevel + 1);
    auto next = roots.template ptr<Node*>(2 * kMaxLevel + 2);

    SMR_OP_BEGIN(h, kOpRemove);
    SMR_PRE_CALL(h);
    const FindResult result = Find(h, key, preds, succs, nullptr);
    SMR_POST_CALL(h);
    if (!result.found) {
      SMR_OP_END(h);
      return false;
    }
    node = std::bit_cast<Node*>(succs[0]);
    // Clamp: with lazy transaction validation this read can be a zombie (even poison)
    // value; used as a next[] index it must never leave the tower. The clamped zombie
    // execution is then bounded by the next checkpoint's commit validation.
    const uint64_t height = std::min<uint64_t>(h.Load(node->height), kMaxLevel);

    // Mark the tower top-down; level 0 last (it decides the winner).
    level = height - 1;
    while (level.get() >= 1) {
      SMR_CHECKPOINT(h);
      next = h.Load(node->next[level.get()]);
      if (detail::IsMarked(next.get())) {
        level = level.get() - 1;
        continue;
      }
      if (h.Cas(node->next[level.get()], next.get(), detail::Marked(next.get()))) {
        level = level.get() - 1;
      }
    }
    while (true) {
      SMR_CHECKPOINT(h);
      next = h.Load(node->next[0]);
      if (detail::IsMarked(next.get())) {
        SMR_OP_END(h);
        return false;  // another remover won level 0
      }
      if (h.Cas(node->next[0], next.get(), detail::Marked(next.get()))) {
        break;
      }
    }

    // Winner: run Find until no level still links the node, then reclaim it.
    while (true) {
      SMR_PRE_CALL(h);
      const FindResult pass = Find(h, key, preds, succs, node.get());
      SMR_POST_CALL(h);
      if (!pass.saw_watch) {
        break;
      }
    }
    h.Retire(node.get(), key);
    SMR_OP_END(h);
    return true;
  }

  // Unsynchronized size (tests / setup only): counts unmarked level-0 nodes.
  std::size_t SizeUnsafe() const {
    std::size_t count = 0;
    const Node* node = detail::Unmarked(head_->next[0].load(std::memory_order_acquire));
    while (node != nullptr) {
      if (!detail::IsMarked(node->next[0].load(std::memory_order_acquire))) {
        ++count;
      }
      node = detail::Unmarked(node->next[0].load(std::memory_order_acquire));
    }
    return count;
  }

  Node* head() const { return head_; }

  static Node* NewNode(uint64_t key, uint64_t value, uint32_t height) {
    void* memory = runtime::PoolAllocator::Instance().Alloc(sizeof(Node));
    Node* node = new (memory) Node();
    node->key.store(key, std::memory_order_relaxed);
    node->value.store(value, std::memory_order_relaxed);
    node->height.store(height, std::memory_order_relaxed);
    for (uint32_t l = 0; l < kMaxLevel; ++l) {
      node->next[l].store(nullptr, std::memory_order_relaxed);
    }
    return node;
  }

 private:
  struct FindResult {
    bool found;
    bool saw_watch;
  };

  static Node* head_at(uintptr_t word) { return std::bit_cast<Node*>(word); }

  // Search-path descent with marked-node snipping. Settles preds/succs (written into
  // the caller's tracked frame) per level; protects them in the per-level hazard
  // slots. `watch` reports whether the node was encountered anywhere.
  FindResult Find(Handle& h, uint64_t key, uintptr_t* preds, uintptr_t* succs, Node* watch) {
    typename Smr::template Frame<5> frame(h);
    auto pred = frame.template ptr<Node*>(0);
    auto curr = frame.template ptr<Node*>(1);
    auto next = frame.template ptr<Node*>(2);
    auto level = frame.template ptr<uint64_t>(3);
    auto saw = frame.template ptr<uint64_t>(4);
    SMR_HELPER_BEGIN(h);
  retry:
    SMR_CHECKPOINT(h);
    saw = uint64_t{0};
    pred = head_;
    level = uint64_t{kMaxLevel - 1};
    while (true) {
      SMR_CHECKPOINT(h);
      const uint32_t l = static_cast<uint32_t>(level.get());
      curr = h.Protect(pred->next[l], kSlotCurr);
      if (detail::IsMarked(curr.get())) {
        goto retry;  // pred deleted at this level
      }
      while (curr.get() != nullptr) {
        SMR_CHECKPOINT(h);
        if (curr.get() == watch) {
          saw = uint64_t{1};
        }
        next = h.Protect(curr->next[l], kSlotNext);
        if (detail::IsMarked(next.get())) {
          SMR_CHECKPOINT(h);
          // Snip the deleted node at this level (no retire: the removal winner does).
          if (!h.Cas(pred->next[l], curr.get(), detail::Unmarked(next.get()))) {
            goto retry;
          }
          curr = h.Protect(pred->next[l], kSlotCurr);
          if (detail::IsMarked(curr.get())) {
            goto retry;
          }
          continue;
        }
        const uint64_t curr_key = h.Load(curr->key);
        h.AnchorHop(curr_key);
        runtime::PreemptPoint();
        // An unlink pass walks past equal keys: a reinsertion of the key can link
        // itself ahead of the watched tower at an upper level, and stopping there
        // would report the tower unseen while that level still links it.
        if (curr_key > key || (curr_key == key && watch == nullptr)) {
          break;
        }
        SMR_CHECKPOINT(h);
        h.ProtectRaw(kSlotPred, curr.get());
        pred = curr.get();
        curr = h.Protect(pred->next[l], kSlotCurr);
        if (detail::IsMarked(curr.get())) {
          goto retry;
        }
      }
      SMR_CHECKPOINT(h);
      preds[l] = std::bit_cast<uintptr_t>(pred.get());
      succs[l] = std::bit_cast<uintptr_t>(curr.get());
      h.ProtectRaw(kSlotPredBase + l, pred.get());
      h.ProtectRaw(kSlotSuccBase + l, curr.get());
      if (l == 0) {
        break;
      }
      level = level.get() - 1;
    }
    const bool found =
        succs[0] != 0 && h.Load(std::bit_cast<Node*>(succs[0])->key) == key;
    const FindResult result{found, saw.get() != 0};
    SMR_HELPER_END(h);
    return result;
  }

  uint32_t RandomHeight() {
    static thread_local runtime::Xorshift128 rng{0x5eedf00dULL ^
                                                 (uint64_t)
                                                     runtime::CurrentThreadId()};
    uint32_t height = 1;
    while (height < kMaxLevel && (rng.Next() & 1) != 0) {
      ++height;
    }
    return height;
  }

  Node* head_;  // full-height sentinel
};

}  // namespace stacktrack::ds

#endif  // STACKTRACK_DS_SKIPLIST_H_
