// Epoch-based reclamation (EBR) over per-thread epoch slots.
//
// A global epoch counter advances only when every active thread has
// announced the current epoch. A node retired in epoch e is freed once the
// global epoch reaches e+2: any reader that could still hold a reference
// announced an epoch <= e+1 before the node was unlinked, and its
// announcement blocks the second advance until it exits. Reads inside an
// enter()/exit() section therefore need no per-node protection at all —
// protect() is a no-op — which makes EBR the cheap-read policy; the price
// is that one stalled reader stalls reclamation globally (hazard.hpp makes
// the opposite trade).
//
// Epoch slots are leased from a LeaseRegistry (the same dense id
// machinery the stats shards use), so the slot array bounds *concurrent*
// threads, not lifetime threads: a dying ThreadCtx folds its un-freed limbo
// buckets into a mutex-guarded orphan list — exactly the stats-shard
// fold-on-exit pattern — and later advances drain it.
//
// Why the announce-validate loop in enter(): announcing a stale epoch is
// only safe if, at the instant the announcement is visible, the global
// epoch still equals it. Then the invariant "global <= announced+1 while
// active" holds, so buckets from epochs >= announced are never freed under
// a live reader, and every node the reader can reach was linked after its
// announcement (unlink precedes retire precedes free).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/lease_registry.hpp"
#include "platform/yield_point.hpp"
#include "reclaim/reclaimer.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"

namespace moir::reclaim {

class EpochReclaimer {
  static constexpr unsigned kBuckets = 3;  // e, e+1, e+2 limbo generations

 public:
  class ThreadCtx {
   public:
    ThreadCtx(ThreadCtx&& other) noexcept
        : owner_(std::exchange(other.owner_, nullptr)), id_(other.id_) {
      for (unsigned b = 0; b < kBuckets; ++b) {
        limbo_[b] = std::move(other.limbo_[b]);
        limbo_epoch_[b] = other.limbo_epoch_[b];
      }
    }
    ThreadCtx& operator=(ThreadCtx&&) = delete;
    ThreadCtx(const ThreadCtx&) = delete;

    ~ThreadCtx() {
      if (owner_ != nullptr) owner_->fold(*this);
    }

   private:
    friend class EpochReclaimer;
    ThreadCtx(EpochReclaimer* owner, unsigned id) : owner_(owner), id_(id) {}

    EpochReclaimer* owner_;
    unsigned id_;
    std::vector<std::uint32_t> limbo_[kBuckets];
    std::uint64_t limbo_epoch_[kBuckets] = {0, 1, 2};
  };

  // `retire_threshold` is the per-thread limbo size that triggers an
  // advance attempt — the amortization knob, not a hard bound.
  EpochReclaimer(unsigned max_threads, FreeFn free_fn,
                 std::uint32_t retire_threshold = 64)
      : free_(std::move(free_fn)),
        threshold_(retire_threshold),
        registry_(max_threads),
        slots_(std::make_unique<std::atomic<std::uint64_t>[]>(max_threads)) {
    for (unsigned i = 0; i < max_threads; ++i) {
      slots_[i].store(0, std::memory_order_relaxed);
    }
  }

  ~EpochReclaimer() {
    // At destruction all ThreadCtxs are gone (they hold owner_ pointers),
    // so everything left in the orphan list is safe to free.
    for (const auto& [epoch, idx] : orphans_) {
      (void)epoch;
      free_(idx);
      stats::count(stats::Id::kNodeFree, 1, this);
    }
  }

  ThreadCtx make_ctx() {
    return ThreadCtx(this, registry_.acquire());
  }

  void enter(ThreadCtx& ctx) {
    std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    for (;;) {
      MOIR_YIELD_WRITE(&slots_[ctx.id_]);
      slots_[ctx.id_].store((e << 1) | 1, std::memory_order_seq_cst);
      const std::uint64_t now = epoch_.load(std::memory_order_seq_cst);
      if (now == e) return;  // announcement was current when visible
      e = now;
    }
  }

  void exit(ThreadCtx& ctx) {
    MOIR_YIELD_WRITE(&slots_[ctx.id_]);
    slots_[ctx.id_].store(0, std::memory_order_release);
  }

  // Epochs protect whole critical sections, not single nodes.
  void protect(ThreadCtx&, unsigned, std::uint32_t) {}
  void clear(ThreadCtx&, unsigned) {}

  void retire(ThreadCtx& ctx, std::uint32_t idx) {
    stats::count(stats::Id::kNodeRetire, 1, this);
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    auto& bucket = ctx.limbo_[e % kBuckets];
    if (ctx.limbo_epoch_[e % kBuckets] != e) {
      // Bucket belongs to an epoch <= e-3: its grace period elapsed long
      // ago. Drain it before reusing it for generation e.
      free_bucket(ctx, e % kBuckets);
      ctx.limbo_epoch_[e % kBuckets] = e;
    }
    bucket.push_back(idx);
    const std::size_t pending =
        ctx.limbo_[0].size() + ctx.limbo_[1].size() + ctx.limbo_[2].size();
    stats::record(stats::HistId::kRetireListLen, pending);
    if (pending >= threshold_) {
      try_advance();
      free_expired(ctx);
    }
  }

  // Frees every bucket whose grace period has elapsed; attempts one epoch
  // advance first. Safe to call anytime; cannot force progress while
  // another thread sits in an old epoch.
  void flush(ThreadCtx& ctx) {
    for (unsigned round = 0; round < kBuckets; ++round) {
      try_advance();
      free_expired(ctx);
    }
    drain_orphans();
  }

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }

  const char* name() const { return "epoch(ebr)"; }

 private:
  // Advances the global epoch iff every active thread announced the
  // current one. Counted so benches can report advance rate vs. retire
  // rate (a stalled reader shows up as a flat epoch line).
  bool try_advance() {
    const std::uint64_t e = epoch_.load(std::memory_order_seq_cst);
    const unsigned high_water = registry_.high_water();
    for (unsigned p = 0; p < high_water; ++p) {
      MOIR_YIELD_READ(&slots_[p]);
      const std::uint64_t s = slots_[p].load(std::memory_order_seq_cst);
      if ((s & 1) != 0 && (s >> 1) != e) return false;
    }
    std::uint64_t expected = e;
    if (epoch_.compare_exchange_strong(expected, e + 1,
                                       std::memory_order_seq_cst)) {
      stats::count(stats::Id::kEpochAdvance, 1, this);
      drain_orphans();
      return true;
    }
    return false;
  }

  void free_bucket(ThreadCtx& ctx, unsigned b) {
    auto& bucket = ctx.limbo_[b];
    for (const std::uint32_t idx : bucket) {
      free_(idx);
      stats::count(stats::Id::kNodeFree, 1, this);
    }
    bucket.clear();
  }

  void free_expired(ThreadCtx& ctx) {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    for (unsigned b = 0; b < kBuckets; ++b) {
      if (!ctx.limbo_[b].empty() && ctx.limbo_epoch_[b] + 2 <= e) {
        free_bucket(ctx, b);
        ctx.limbo_epoch_[b] = e;  // placeholder; fixed on next retire
      }
    }
  }

  void drain_orphans() {
    const std::uint64_t e = epoch_.load(std::memory_order_acquire);
    std::lock_guard<std::mutex> lock(orphan_mutex_);
    std::size_t kept = 0;
    for (auto& entry : orphans_) {
      if (entry.first + 2 <= e) {
        free_(entry.second);
        stats::count(stats::Id::kNodeFree, 1, this);
      } else {
        orphans_[kept++] = entry;
      }
    }
    orphans_.resize(kept);
  }

  // Thread-exit path: park un-freed retirements with their epochs on the
  // orphan list (cold, mutex-guarded — the stats-shard fold pattern) and
  // return the slot id for reuse.
  void fold(ThreadCtx& ctx) {
    {
      std::lock_guard<std::mutex> lock(orphan_mutex_);
      for (unsigned b = 0; b < kBuckets; ++b) {
        for (const std::uint32_t idx : ctx.limbo_[b]) {
          orphans_.emplace_back(ctx.limbo_epoch_[b], idx);
        }
        ctx.limbo_[b].clear();
      }
    }
    slots_[ctx.id_].store(0, std::memory_order_release);
    registry_.release(ctx.id_);
    try_advance();
    drain_orphans();
  }

  FreeFn free_;
  const std::uint32_t threshold_;
  LeaseRegistry<> registry_;
  std::atomic<std::uint64_t> epoch_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;  // (epoch<<1)|active
  std::mutex orphan_mutex_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> orphans_;
};

static_assert(Reclaimer<EpochReclaimer>);

}  // namespace moir::reclaim
