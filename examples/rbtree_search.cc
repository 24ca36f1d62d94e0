// rbtree_search: the paper's running example (Algorithms 3 and 4).
//
// A red-black tree is built at startup; reader threads run the instrumented
// REDBLACK_TREE_SEARCH — one split checkpoint per basic block, exactly as Algorithm 3
// shows — while a mutator thread swaps per-node value boxes and hands the old boxes to
// StackTrack's FREE. The reclaimer can only free a box once no reader's stack frame or
// exposed registers reference it. A second phase forces a fraction of searches onto
// the software slow path (Algorithm 4's SLOW_READ instrumentation), which is what the
// paper's GCC-TM-generated fallback executes.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <unordered_map>
#include <vector>

#include "runtime/rand.h"
#include "stacktrack.h"

namespace {

using stacktrack::core::StContext;
using stacktrack::core::TrackedFrame;
using stacktrack::runtime::PoolAllocator;

enum class Color : uint64_t { kRed = 0, kBlack = 1 };

struct ValueBox {
  std::atomic<uint64_t> payload;
};

struct RbNode {
  std::atomic<uint64_t> key;
  std::atomic<uint64_t> color;
  std::atomic<RbNode*> left;
  std::atomic<RbNode*> right;
  std::atomic<ValueBox*> box;
};

RbNode* NewRbNode(uint64_t key) {
  auto* node = new (PoolAllocator::Instance().Alloc(sizeof(RbNode))) RbNode();
  auto* box = new (PoolAllocator::Instance().Alloc(sizeof(ValueBox))) ValueBox();
  box->payload.store(key * 10, std::memory_order_relaxed);
  node->key.store(key, std::memory_order_relaxed);
  node->color.store(static_cast<uint64_t>(Color::kRed), std::memory_order_relaxed);
  node->left.store(nullptr, std::memory_order_relaxed);
  node->right.store(nullptr, std::memory_order_relaxed);
  node->box.store(box, std::memory_order_relaxed);
  return node;
}

// Classic single-threaded red-black insertion (setup phase only; searches are the
// concurrent part, as in the paper's example).
class RbTree {
 public:
  void Insert(uint64_t key) {
    RbNode* node = NewRbNode(key);
    RbNode* parent = nullptr;
    RbNode* walk = root_;
    while (walk != nullptr) {
      parent = walk;
      walk = key < walk->key.load(std::memory_order_relaxed) ? Left(walk) : Right(walk);
    }
    SetParent(node, parent);
    if (parent == nullptr) {
      root_ = node;
    } else if (key < parent->key.load(std::memory_order_relaxed)) {
      parent->left.store(node, std::memory_order_relaxed);
    } else {
      parent->right.store(node, std::memory_order_relaxed);
    }
    FixupAfterInsert(node);
  }

  RbNode* root() const { return root_; }

  // Validates the red-black invariants; returns the black height (0 on violation).
  int ValidateBlackHeight(const RbNode* node) const {
    if (node == nullptr) {
      return 1;
    }
    const bool red = node->color.load(std::memory_order_relaxed) ==
                     static_cast<uint64_t>(Color::kRed);
    const RbNode* left = node->left.load(std::memory_order_relaxed);
    const RbNode* right = node->right.load(std::memory_order_relaxed);
    if (red && ((left != nullptr && IsRed(left)) || (right != nullptr && IsRed(right)))) {
      return 0;  // red violation
    }
    const int lh = ValidateBlackHeight(left);
    const int rh = ValidateBlackHeight(right);
    if (lh == 0 || rh == 0 || lh != rh) {
      return 0;
    }
    return lh + (red ? 0 : 1);
  }

 private:
  static RbNode* Left(const RbNode* n) { return n->left.load(std::memory_order_relaxed); }
  static RbNode* Right(const RbNode* n) { return n->right.load(std::memory_order_relaxed); }
  static bool IsRed(const RbNode* n) {
    return n != nullptr &&
           n->color.load(std::memory_order_relaxed) == static_cast<uint64_t>(Color::kRed);
  }
  RbNode* Parent(const RbNode* n) const {
    auto it = parents_.find(n);
    return it == parents_.end() ? nullptr : it->second;
  }
  void SetParent(const RbNode* n, RbNode* p) { parents_[n] = p; }

  void RotateLeft(RbNode* x) {
    RbNode* y = Right(x);
    x->right.store(Left(y), std::memory_order_relaxed);
    if (Left(y) != nullptr) {
      SetParent(Left(y), x);
    }
    SetParent(y, Parent(x));
    Relink(x, y);
    y->left.store(x, std::memory_order_relaxed);
    SetParent(x, y);
  }

  void RotateRight(RbNode* x) {
    RbNode* y = Left(x);
    x->left.store(Right(y), std::memory_order_relaxed);
    if (Right(y) != nullptr) {
      SetParent(Right(y), x);
    }
    SetParent(y, Parent(x));
    Relink(x, y);
    y->right.store(x, std::memory_order_relaxed);
    SetParent(x, y);
  }

  void Relink(RbNode* x, RbNode* y) {
    RbNode* p = Parent(x);
    if (p == nullptr) {
      root_ = y;
    } else if (Left(p) == x) {
      p->left.store(y, std::memory_order_relaxed);
    } else {
      p->right.store(y, std::memory_order_relaxed);
    }
  }

  void FixupAfterInsert(RbNode* z) {
    while (IsRed(Parent(z))) {
      RbNode* p = Parent(z);
      RbNode* g = Parent(p);
      if (g == nullptr) {
        break;
      }
      const bool parent_is_left = Left(g) == p;
      RbNode* uncle = parent_is_left ? Right(g) : Left(g);
      if (IsRed(uncle)) {
        p->color.store(static_cast<uint64_t>(Color::kBlack), std::memory_order_relaxed);
        uncle->color.store(static_cast<uint64_t>(Color::kBlack), std::memory_order_relaxed);
        g->color.store(static_cast<uint64_t>(Color::kRed), std::memory_order_relaxed);
        z = g;
        continue;
      }
      if (parent_is_left && Right(p) == z) {
        z = p;
        RotateLeft(z);
        p = Parent(z);
        g = Parent(p);
      } else if (!parent_is_left && Left(p) == z) {
        z = p;
        RotateRight(z);
        p = Parent(z);
        g = Parent(p);
      }
      p->color.store(static_cast<uint64_t>(Color::kBlack), std::memory_order_relaxed);
      g->color.store(static_cast<uint64_t>(Color::kRed), std::memory_order_relaxed);
      if (parent_is_left) {
        RotateRight(g);
      } else {
        RotateLeft(g);
      }
      z = root_;  // done; terminate loop (parent of root is null/black)
    }
    root_->color.store(static_cast<uint64_t>(Color::kBlack), std::memory_order_relaxed);
  }

  RbNode* root_ = nullptr;
  std::unordered_map<const RbNode*, RbNode*> parents_;  // setup-phase only
};

constexpr uint32_t kOpRbSearch = 9;

// Algorithm 3, literally: one SPLIT_CHECKPOINT per basic block, SPLIT_COMMIT at every
// exit. Returns the payload of the key's value box, or 0 when absent.
uint64_t RbTreeSearch(StContext& ctx, RbNode* root, uint64_t key) {
  TrackedFrame<2> frame(ctx);
  auto node = frame.ptr<RbNode*>(0);
  auto box = frame.ptr<ValueBox*>(1);
  SMR_OP_BEGIN(ctx, kOpRbSearch);  // SPLIT_INIT + SPLIT_START
  node = root;
  while (node.get() != nullptr) {
    SMR_CHECKPOINT(ctx);
    const uint64_t node_key = ctx.Load(node->key);
    if (node_key == key) {
      SMR_CHECKPOINT(ctx);
      box = ctx.Load(node->box);
      const uint64_t payload = ctx.Load(box->payload);
      SMR_OP_END(ctx);  // SPLIT_COMMIT
      return payload;
    }
    if (key < node_key) {
      SMR_CHECKPOINT(ctx);
      node = ctx.Load(node->left);
    } else {
      SMR_CHECKPOINT(ctx);
      node = ctx.Load(node->right);
    }
  }
  SMR_OP_END(ctx);
  return 0;
}

}  // namespace

int main() {
  RbTree tree;
  constexpr uint64_t kKeys = 65535;
  for (uint64_t i = 1; i <= kKeys; ++i) {
    tree.Insert(i * 7919 % 99991);  // scrambled insertion order
  }
  std::printf("rbtree: %llu keys, black height %d (0 would mean a broken invariant)\n",
              static_cast<unsigned long long>(kKeys), tree.ValidateBlackHeight(tree.root()));

  for (const double slow_fraction : {0.0, 0.25}) {
    stacktrack::core::StConfig config;
    config.forced_slow_fraction = slow_fraction;
    stacktrack::smr::StackTrackSmr::Domain domain(config);
    std::atomic<uint64_t> searches{0};
    std::atomic<bool> stop{false};

    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&, r] {
        stacktrack::runtime::ThreadScope scope;
        auto& ctx = domain.AcquireHandle();
        stacktrack::runtime::Xorshift128 rng(0x3b + r);
        uint64_t local = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          RbTreeSearch(ctx, tree.root(), rng.NextBounded(100000));
          ++local;
        }
        searches.fetch_add(local, std::memory_order_relaxed);
      });
    }

    // Mutator: swap value boxes and reclaim the old ones via StackTrack FREE.
    uint64_t swaps = 0;
    {
      stacktrack::runtime::ThreadScope scope;
      auto& ctx = domain.AcquireHandle();
      stacktrack::runtime::Xorshift128 rng(0x5eed);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
      while (std::chrono::steady_clock::now() < deadline) {
        RbNode* node = tree.root();
        for (int depth = 0; depth < 8 && node != nullptr; ++depth) {
          node = rng.NextBool(0.5) ? node->left.load(std::memory_order_acquire)
                                   : node->right.load(std::memory_order_acquire);
        }
        if (node == nullptr) {
          continue;
        }
        auto* fresh = new (PoolAllocator::Instance().Alloc(sizeof(ValueBox))) ValueBox();
        fresh->payload.store(swaps, std::memory_order_relaxed);
        ValueBox* old = node->box.load(std::memory_order_acquire);
        stacktrack::htm::SafeStore(node->box, fresh);
        ctx.Free(old);  // the paper's FREE(ctx, ptr): buffered + scan_and_free
        ++swaps;
      }
      ctx.FlushFrees();
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& reader : readers) {
      reader.join();
    }

    const auto stats = stacktrack::core::StatsRegistry::Instance().Sum();
    std::printf("slow-path %.0f%%: %llu searches, %llu box swaps reclaimed, "
                "%llu scan calls so far, %llu slow ops so far\n",
                slow_fraction * 100.0, static_cast<unsigned long long>(searches.load()),
                static_cast<unsigned long long>(swaps),
                static_cast<unsigned long long>(stats.scan_calls),
                static_cast<unsigned long long>(stats.slow_ops));
  }
  return 0;
}
