// Hazard-pointer reclamation (Michael 2004) over bounded per-thread slots.
//
// Each thread owns K hazard slots; protect(slot, idx) announces "I may
// dereference block idx", and the *caller* completes the handshake by
// re-reading the pointer it followed and restarting if it changed — only
// then is the announcement known to have been visible before any future
// retire. A retire list of size >= threshold triggers a scan: every
// announced index is collected, and exactly the unannounced retirees are
// freed. Unreclaimed garbage is bounded by N*K + threshold per thread even
// if some reader stalls forever — the opposite trade from epoch.hpp, where
// reads are cheaper but one stalled reader stalls all reclamation.
//
// Slot arrays are leased from a LeaseRegistry (dense ids, recycled on
// thread exit); a dying ThreadCtx folds its retire list into a
// mutex-guarded orphan list that later scans drain — the stats-shard
// fold-on-exit pattern.
#pragma once

#include <algorithm>
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

class HazardPointerReclaimer {
 public:
  class ThreadCtx {
   public:
    ThreadCtx(ThreadCtx&& other) noexcept
        : owner_(std::exchange(other.owner_, nullptr)),
          id_(other.id_),
          retired_(std::move(other.retired_)) {}
    ThreadCtx& operator=(ThreadCtx&&) = delete;
    ThreadCtx(const ThreadCtx&) = delete;

    ~ThreadCtx() {
      if (owner_ != nullptr) owner_->fold(*this);
    }

   private:
    friend class HazardPointerReclaimer;
    ThreadCtx(HazardPointerReclaimer* owner, unsigned id)
        : owner_(owner), id_(id) {}

    HazardPointerReclaimer* owner_;
    unsigned id_;
    std::vector<std::uint32_t> retired_;
  };

  // `slots_per_thread` = K, the most blocks one operation dereferences at
  // once (list traversal needs curr + prev = 2; the M&S queue needs 2; 3
  // leaves a margin). `scan_threshold` 0 picks the standard 2*N*K + 16,
  // which makes scans amortize to O(1) announced-pointer comparisons per
  // retire.
  HazardPointerReclaimer(unsigned max_threads, FreeFn free_fn,
                         unsigned slots_per_thread = 3,
                         std::uint32_t scan_threshold = 0)
      : free_(std::move(free_fn)),
        k_(slots_per_thread),
        threshold_(scan_threshold != 0
                       ? scan_threshold
                       : 2 * max_threads * slots_per_thread + 16),
        registry_(max_threads),
        hazards_(std::make_unique<std::atomic<std::uint64_t>[]>(
            std::size_t{max_threads} * slots_per_thread)) {
    MOIR_ASSERT(slots_per_thread >= 1);
    for (std::size_t i = 0; i < std::size_t{max_threads} * k_; ++i) {
      hazards_[i].store(0, std::memory_order_relaxed);
    }
  }

  ~HazardPointerReclaimer() {
    // All ThreadCtxs are gone by now, so no announcement can be live.
    for (const std::uint32_t idx : orphans_) {
      free_(idx);
      stats::count(stats::Id::kNodeFree, 1, this);
    }
  }

  ThreadCtx make_ctx() {
    return ThreadCtx(this, registry_.acquire());
  }

  void enter(ThreadCtx&) {}

  // Operations end with no live announcements; leaving one set would pin
  // its block (and whatever the scan keeps alongside) indefinitely.
  void exit(ThreadCtx& ctx) {
    for (unsigned s = 0; s < k_; ++s) clear(ctx, s);
  }

  // seq_cst store: the announcement must be globally visible before the
  // caller's validating re-read, or a concurrent scan may miss it.
  void protect(ThreadCtx& ctx, unsigned slot, std::uint32_t idx) {
    MOIR_ASSERT(slot < k_);
    MOIR_YIELD_WRITE(&hazards_[ctx.id_ * k_ + slot]);
    hazards_[ctx.id_ * k_ + slot].store(std::uint64_t{idx} + 1,
                                        std::memory_order_seq_cst);
  }

  void clear(ThreadCtx& ctx, unsigned slot) {
    MOIR_ASSERT(slot < k_);
    hazards_[ctx.id_ * k_ + slot].store(0, std::memory_order_release);
  }

  void retire(ThreadCtx& ctx, std::uint32_t idx) {
    stats::count(stats::Id::kNodeRetire, 1, this);
    ctx.retired_.push_back(idx);
    stats::record(stats::HistId::kRetireListLen, ctx.retired_.size());
    if (ctx.retired_.size() >= threshold_) scan(ctx);
  }

  void flush(ThreadCtx& ctx) { scan(ctx); }

  const char* name() const { return "hazard-pointer"; }

 private:
  // Frees every retiree no thread currently announces. O(N*K) collection +
  // O(R log H) membership tests — amortized O(1) per retire at the default
  // threshold.
  void scan(ThreadCtx& ctx) {
    stats::count(stats::Id::kHpScan, 1, this);
    {
      // Adopt orphaned retirements first so they cannot outlive all ctxs.
      std::lock_guard<std::mutex> lock(orphan_mutex_);
      ctx.retired_.insert(ctx.retired_.end(), orphans_.begin(),
                          orphans_.end());
      orphans_.clear();
    }
    std::vector<std::uint64_t> announced;
    const unsigned high_water = registry_.high_water();
    announced.reserve(std::size_t{high_water} * k_);
    for (std::size_t i = 0; i < std::size_t{high_water} * k_; ++i) {
      MOIR_YIELD_READ(&hazards_[i]);
      const std::uint64_t h = hazards_[i].load(std::memory_order_seq_cst);
      if (h != 0) announced.push_back(h - 1);
    }
    std::sort(announced.begin(), announced.end());
    std::size_t kept = 0;
    for (const std::uint32_t idx : ctx.retired_) {
      if (std::binary_search(announced.begin(), announced.end(),
                             std::uint64_t{idx})) {
        ctx.retired_[kept++] = idx;
      } else {
        free_(idx);
        stats::count(stats::Id::kNodeFree, 1, this);
      }
    }
    ctx.retired_.resize(kept);
  }

  // Thread-exit path: clear this thread's slots, park the remaining retire
  // list for other threads' scans, return the id.
  void fold(ThreadCtx& ctx) {
    for (unsigned s = 0; s < k_; ++s) clear(ctx, s);
    scan(ctx);
    if (!ctx.retired_.empty()) {
      std::lock_guard<std::mutex> lock(orphan_mutex_);
      orphans_.insert(orphans_.end(), ctx.retired_.begin(),
                      ctx.retired_.end());
      ctx.retired_.clear();
    }
    registry_.release(ctx.id_);
  }

  FreeFn free_;
  const unsigned k_;
  const std::uint32_t threshold_;
  LeaseRegistry<> registry_;
  // hazards_[id*k + slot] holds idx+1; 0 means no announcement.
  std::unique_ptr<std::atomic<std::uint64_t>[]> hazards_;
  std::mutex orphan_mutex_;
  std::vector<std::uint32_t> orphans_;
};

static_assert(Reclaimer<HazardPointerReclaimer>);

}  // namespace moir::reclaim
