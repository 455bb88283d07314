// Michael–Scott-style lock-free FIFO queue over small LL/VL/SC.
//
// This is the kind of published algorithm the paper's introduction is
// about: it needs LL/SC on *several* variables with sequences interleaved
// (head, tail, and a node's next link are live at once), which RLL/RSC
// cannot express — and which the paper's constructions restore.
//
// Nodes live in a bounded pool and are recycled through a lock-free free
// list. Recycling is safe without hazard pointers or epochs precisely
// because every link mutation goes through SC: a stale SC against a
// recycled node's next field fails (the field's tag advanced when the new
// owner reset it). On Figure 7 the announcement check plays the same role
// with bounded tags. Each operation keeps up to three LL-SC sequences
// alive, so Figure 7 substrates need k >= 3.
// ReclaimedMsQueue at the bottom of this file is the same algorithm with
// nodes drawn from a lock-free allocator and *retired* through a pluggable
// Reclaimer (src/reclaim/) instead of recycled in place — the variant whose
// payload reads are made safe by SMR rather than by atomic payload slots.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/llsc_traits.hpp"
#include "nonblocking/treiber_stack.hpp"
#include "reclaim/block_allocator.hpp"
#include "reclaim/reclaimer.hpp"
#include "util/assertion.hpp"

namespace moir {

template <SmallLlscSubstrate S>
class MsQueue {
 public:
  using ThreadCtx = typename S::ThreadCtx;

  // Capacity is the number of pool nodes; one is permanently consumed as
  // the dummy, so at most capacity-1 values can be queued. `init_ctx` seeds
  // the free list and dummy (see TreiberStack for why it is a parameter).
  MsQueue(S& substrate, std::uint32_t capacity, ThreadCtx& init_ctx)
      : substrate_(substrate),
        capacity_(capacity),
        null_(capacity),
        next_(std::make_unique<typename S::Var[]>(capacity)),
        payload_(std::make_unique<std::atomic<std::uint64_t>[]>(capacity)),
        free_links_(std::make_unique<std::atomic<std::uint32_t>[]>(capacity)),
        free_(substrate, free_links_.get(), capacity) {
    MOIR_ASSERT_MSG(capacity >= 2, "need at least a dummy and one value");
    MOIR_ASSERT_MSG(capacity < substrate.max_value(),
                    "node indices must fit the substrate's value field");
    for (std::uint32_t i = 0; i < capacity; ++i) {
      substrate_.init_var(next_[i], null_);
    }
    // Node 0 is the initial dummy; the rest seed the free list.
    substrate_.init_var(head_, 0);
    substrate_.init_var(tail_, 0);
    for (std::uint32_t i = 1; i < capacity; ++i) free_.push(init_ctx, i);
  }

  // Returns false when the node pool is exhausted.
  bool enqueue(ThreadCtx& ctx, std::uint64_t value) {
    const auto node = free_.pop(ctx);
    if (!node) return false;
    payload_[*node].store(value, std::memory_order_relaxed);
    reset_next(ctx, *node);

    for (;;) {
      typename S::Keep kt, kn;
      const std::uint64_t t = substrate_.ll(ctx, tail_, kt);
      const std::uint64_t n = substrate_.ll(ctx, next_[t], kn);
      if (!substrate_.vl(ctx, tail_, kt)) {
        // t may no longer be the tail (and may even be recycled); the next
        // we read is then meaningless.
        substrate_.cl(ctx, kn);
        substrate_.cl(ctx, kt);
        continue;
      }
      if (n != null_) {
        // Tail is lagging: help swing it, then retry.
        substrate_.sc(ctx, tail_, kt, n);
        substrate_.cl(ctx, kn);
        continue;
      }
      if (substrate_.sc(ctx, next_[t], kn, *node)) {  // linearization point
        substrate_.sc(ctx, tail_, kt, *node);  // swing; failure is benign
        return true;
      }
      substrate_.cl(ctx, kt);
    }
  }

  std::optional<std::uint64_t> dequeue(ThreadCtx& ctx) {
    for (;;) {
      typename S::Keep kh, kt, kn;
      const std::uint64_t h = substrate_.ll(ctx, head_, kh);
      const std::uint64_t t = substrate_.ll(ctx, tail_, kt);
      const std::uint64_t n = substrate_.ll(ctx, next_[h], kn);
      if (!substrate_.vl(ctx, head_, kh)) {
        substrate_.cl(ctx, kn);
        substrate_.cl(ctx, kt);
        substrate_.cl(ctx, kh);
        continue;
      }
      if (h == t) {
        if (n == null_) {
          substrate_.cl(ctx, kn);
          substrate_.cl(ctx, kt);
          substrate_.cl(ctx, kh);
          return std::nullopt;  // empty
        }
        // Tail lags behind an in-flight enqueue: help swing it.
        substrate_.sc(ctx, tail_, kt, n);
        substrate_.cl(ctx, kn);
        substrate_.cl(ctx, kh);
        continue;
      }
      if (n == null_) {
        // Transient inconsistency (h moved between our loads); retry.
        substrate_.cl(ctx, kn);
        substrate_.cl(ctx, kt);
        substrate_.cl(ctx, kh);
        continue;
      }
      // Read the value before the SC: after it, n is the new dummy and h
      // may be recycled by another dequeuer at any time.
      const std::uint64_t value =
          payload_[n].load(std::memory_order_relaxed);
      if (substrate_.sc(ctx, head_, kh, n)) {
        substrate_.cl(ctx, kt);
        substrate_.cl(ctx, kn);
        free_.push(ctx, static_cast<std::uint32_t>(h));
        return value;
      }
      substrate_.cl(ctx, kt);
      substrate_.cl(ctx, kn);
    }
  }

  bool empty() const {
    return substrate_.read(head_) == substrate_.read(tail_);
  }

 private:
  // Re-initialize a freshly-allocated node's next to null THROUGH the LL/SC
  // protocol, so its tag keeps advancing across recycles; a plain reset
  // would reintroduce ABA.
  void reset_next(ThreadCtx& ctx, std::uint32_t node) {
    for (;;) {
      typename S::Keep keep;
      substrate_.ll(ctx, next_[node], keep);
      if (substrate_.sc(ctx, next_[node], keep, null_)) return;
    }
  }

  S& substrate_;
  const std::uint32_t capacity_;
  const std::uint64_t null_;
  typename S::Var head_;
  typename S::Var tail_;
  std::unique_ptr<typename S::Var[]> next_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> payload_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> free_links_;
  IndexStack<S> free_;
};

// ---------------------------------------------------------------------------
// M&S queue over a Reclaimer: dequeued dummies are retired, not recycled in
// place. Michael's two-hazard protocol: a dequeuer protects the head h
// (slot 0) and then h's successor n (slot 1), each validated by re-checking
// that head is unchanged — while head == h, h is not yet retired (retire
// follows the head-swinging SC) and n is not either (n can only be retired
// after it has itself been the head and been swung past, which requires
// head to move to n first). The enqueuer needs only slot 0, for the tail
// node whose next link it is about to SC. Payloads are plain fields; the
// reclaimer is exactly what makes reading them safe.
// ---------------------------------------------------------------------------
template <SmallLlscSubstrate S, reclaim::Reclaimer R>
class ReclaimedMsQueue {
 public:
  struct ThreadCtx {
    typename S::ThreadCtx sub;
    typename R::ThreadCtx rec;
  };

  // One block is consumed immediately as the initial dummy, so at most
  // capacity-1 values are in the queue at once — less while retired dummies
  // sit in reclaimer limbo.
  ReclaimedMsQueue(S& substrate, unsigned max_threads, std::uint32_t capacity)
      : substrate_(substrate),
        capacity_(capacity),
        alloc_(capacity,
               [&](Node& n) { substrate.init_var(n.next, capacity); }),
        reclaimer_(max_threads,
                   [this](std::uint32_t idx) { alloc_.free(idx); }) {
    MOIR_ASSERT_MSG(capacity >= 2, "need at least a dummy and one value");
    MOIR_ASSERT_MSG(capacity < substrate.max_value(),
                    "node indices must fit the substrate's value field");
    const auto dummy = alloc_.alloc();
    MOIR_ASSERT(dummy.has_value());
    substrate_.init_var(head_, *dummy);
    substrate_.init_var(tail_, *dummy);
  }

  ThreadCtx make_ctx() {
    return ThreadCtx{substrate_.make_ctx(), reclaimer_.make_ctx()};
  }

  bool enqueue(ThreadCtx& ctx, std::uint64_t value) {
    reclaimer_.enter(ctx.rec);
    const auto node = alloc_.alloc();
    if (!node) {
      reclaimer_.exit(ctx.rec);
      return false;
    }
    Node& nn = alloc_.node(*node);
    nn.value = value;
    set_next(ctx, nn, capacity_);

    for (;;) {
      typename S::Keep kt, kn;
      const std::uint64_t t = substrate_.ll(ctx.sub, tail_, kt);
      reclaimer_.protect(ctx.rec, 0, static_cast<std::uint32_t>(t));
      if (!substrate_.vl(ctx.sub, tail_, kt)) {
        // Tail moved before our announcement was provably visible; t may
        // be anywhere in its lifecycle by now.
        substrate_.cl(ctx.sub, kt);
        continue;
      }
      Node& tn = alloc_.node(static_cast<std::uint32_t>(t));
      const std::uint64_t n = substrate_.ll(ctx.sub, tn.next, kn);
      if (n != capacity_) {
        // Tail is lagging: help swing it, then retry.
        substrate_.sc(ctx.sub, tail_, kt, n);
        substrate_.cl(ctx.sub, kn);
        continue;
      }
      if (substrate_.sc(ctx.sub, tn.next, kn, *node)) {  // linearization
        substrate_.sc(ctx.sub, tail_, kt, *node);  // swing; failure benign
        break;
      }
      substrate_.cl(ctx.sub, kt);
    }
    reclaimer_.clear(ctx.rec, 0);
    reclaimer_.exit(ctx.rec);
    return true;
  }

  std::optional<std::uint64_t> dequeue(ThreadCtx& ctx) {
    reclaimer_.enter(ctx.rec);
    std::optional<std::uint64_t> out;
    for (;;) {
      typename S::Keep kh, kt, kn;
      const std::uint64_t h = substrate_.ll(ctx.sub, head_, kh);
      reclaimer_.protect(ctx.rec, 0, static_cast<std::uint32_t>(h));
      if (!substrate_.vl(ctx.sub, head_, kh)) {
        substrate_.cl(ctx.sub, kh);
        continue;
      }
      // h is protected and was head when the announcement was visible.
      const std::uint64_t t = substrate_.ll(ctx.sub, tail_, kt);
      Node& hn = alloc_.node(static_cast<std::uint32_t>(h));
      const std::uint64_t n = substrate_.ll(ctx.sub, hn.next, kn);
      if (!substrate_.vl(ctx.sub, head_, kh)) {
        substrate_.cl(ctx.sub, kn);
        substrate_.cl(ctx.sub, kt);
        substrate_.cl(ctx.sub, kh);
        continue;
      }
      if (h == t) {
        if (n == capacity_) {
          substrate_.cl(ctx.sub, kn);
          substrate_.cl(ctx.sub, kt);
          substrate_.cl(ctx.sub, kh);
          break;  // empty
        }
        substrate_.sc(ctx.sub, tail_, kt, n);  // help the lagging tail
        substrate_.cl(ctx.sub, kn);
        substrate_.cl(ctx.sub, kh);
        continue;
      }
      if (n == capacity_) {
        // Transient inconsistency; retry.
        substrate_.cl(ctx.sub, kn);
        substrate_.cl(ctx.sub, kt);
        substrate_.cl(ctx.sub, kh);
        continue;
      }
      // Protect the successor before reading its payload. While head == h
      // (validated below through the head SC's own tag check), n cannot
      // have been retired, so the announcement is in time.
      reclaimer_.protect(ctx.rec, 1, static_cast<std::uint32_t>(n));
      if (!substrate_.vl(ctx.sub, head_, kh)) {
        substrate_.cl(ctx.sub, kn);
        substrate_.cl(ctx.sub, kt);
        substrate_.cl(ctx.sub, kh);
        continue;
      }
      const std::uint64_t value =
          alloc_.node(static_cast<std::uint32_t>(n)).value;
      if (substrate_.sc(ctx.sub, head_, kh, n)) {
        substrate_.cl(ctx.sub, kt);
        substrate_.cl(ctx.sub, kn);
        reclaimer_.retire(ctx.rec, static_cast<std::uint32_t>(h));
        out = value;
        break;
      }
      substrate_.cl(ctx.sub, kt);
      substrate_.cl(ctx.sub, kn);
    }
    reclaimer_.clear(ctx.rec, 0);
    reclaimer_.clear(ctx.rec, 1);
    reclaimer_.exit(ctx.rec);
    return out;
  }

  bool empty() const {
    return substrate_.read(head_) == substrate_.read(tail_);
  }

  R& reclaimer() { return reclaimer_; }
  std::uint32_t capacity() const { return capacity_; }
  void flush(ThreadCtx& ctx) { reclaimer_.flush(ctx.rec); }

  std::uint64_t free_blocks_quiescent() const {
    return alloc_.free_count_quiescent();
  }

 private:
  struct Node {
    std::uint64_t value = 0;  // plain: SMR-protected, not atomic
    typename S::Var next;
  };

  void set_next(ThreadCtx& ctx, Node& n, std::uint64_t next) {
    for (;;) {
      typename S::Keep keep;
      substrate_.ll(ctx.sub, n.next, keep);
      if (substrate_.sc(ctx.sub, n.next, keep, next)) return;
    }
  }

  S& substrate_;
  const std::uint32_t capacity_;
  typename S::Var head_;
  typename S::Var tail_;
  reclaim::BlockAllocator<Node> alloc_;
  R reclaimer_;  // declared last: frees through alloc_ on destruction
};

}  // namespace moir
