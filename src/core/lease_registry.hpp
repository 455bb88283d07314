// Process identity. The paper's algorithms are written "for process p" with
// p in 0..N-1; Figures 6 and 7 embed p in shared words and index shared
// arrays with it. A LeaseRegistry hands out such dense ids as leases.
//
// Ids are explicit (passed to the algorithms) rather than hidden in
// thread-local state so that a single test thread can play several
// "processes" when exercising interleavings deterministically.
//
// A released id is reused, so the capacity bounds *concurrent* holders, not
// the lifetime total: the schedule explorer spawns fresh threads per trial,
// and elastic pools join and leave under load (the dynamic joining of
// Jayanti, Jayanti and Jayanti, arXiv 2302.00135). The free list is a
// lock-free Treiber stack over a preallocated next[] array, with a version
// tag against ABA. Fresh ids are minted by CAS, never past the capacity, so
// high_water() <= capacity() keeps per-id arrays in bounds.
//
// A Counted registry counts each grant and return as reg_join/reg_leave.
// The stats layer leases its shards from an uncounted one: counting there
// would recurse into the shard being leased.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "stats/stats.hpp"
#include "util/assertion.hpp"

namespace moir {

template <bool Counted = false>
class LeaseRegistry {
 public:
  explicit LeaseRegistry(unsigned capacity)
      : capacity_(capacity),
        free_next_(new std::atomic<std::uint32_t>[capacity]) {}

  // Leases a dense id, preferring released ones; nullopt when all
  // capacity() ids are held. The refusal is exact: it is returned only
  // after the free list was seen empty, unchanged across the observation
  // that every id is minted.
  std::optional<unsigned> try_acquire() {
    std::uint64_t head = free_head_.load(std::memory_order_acquire);
    for (;;) {
      if ((head & kIdMask) != 0) {
        const unsigned id = static_cast<unsigned>(head & kIdMask) - 1;
        const std::uint64_t next =
            bumped(head) | free_next_[id].load(std::memory_order_relaxed);
        if (free_head_.compare_exchange_weak(head, next,
                                             std::memory_order_acq_rel,
                                             std::memory_order_acquire)) {
          return granted(id);
        }
        continue;
      }
      unsigned minted = next_.load(std::memory_order_relaxed);
      while (minted < capacity_) {
        if (next_.compare_exchange_weak(minted, minted + 1,
                                        std::memory_order_relaxed)) {
          return granted(minted);
        }
      }
      // Every id is minted (and stays so). Full, unless a release landed
      // since `head` was read: the version half changes on every push.
      const std::uint64_t again = free_head_.load(std::memory_order_acquire);
      if (again == head) return std::nullopt;
      head = again;
    }
  }

  // For holders whose shared arrays are sized for a fixed N: an N+1th
  // holder cannot be accommodated, and failing loudly beats corrupting
  // them.
  unsigned acquire() {
    const std::optional<unsigned> id = try_acquire();
    MOIR_ASSERT_MSG(id.has_value(),
                    "more threads registered than the registry was sized for");
    return *id;
  }

  // Returns a lease. The holder must have quiesced any shared state indexed
  // by the id; the id is immediately reusable.
  void release(unsigned id) {
    MOIR_ASSERT_MSG(id < high_water(),
                    "releasing an id this registry never assigned");
    std::uint64_t head = free_head_.load(std::memory_order_relaxed);
    for (;;) {
      free_next_[id].store(static_cast<std::uint32_t>(head & kIdMask),
                           std::memory_order_relaxed);
      if (free_head_.compare_exchange_weak(head, bumped(head) | (id + 1),
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
        break;
      }
    }
    active_.fetch_sub(1, std::memory_order_relaxed);
    if constexpr (Counted) stats::count(stats::Id::kRegLeave, 1, this);
  }

  // Leases currently held. Advisory under concurrency (an acquire racing
  // the load may or may not be counted) but exact at quiescence.
  unsigned active() const { return active_.load(std::memory_order_relaxed); }

  // Ids ever minted (releases don't lower it). Per-id shared arrays are
  // live over [0, high_water()).
  unsigned high_water() const {
    return next_.load(std::memory_order_relaxed);
  }

  unsigned capacity() const { return capacity_; }

 private:
  // Free list head: {version:32, id+1:32}; low half 0 means empty.
  static constexpr std::uint64_t kIdMask = 0xffffffffull;

  static std::uint64_t bumped(std::uint64_t head) {
    return ((head >> 32) + 1) << 32;
  }

  unsigned granted(unsigned id) {
    active_.fetch_add(1, std::memory_order_relaxed);
    if constexpr (Counted) stats::count(stats::Id::kRegJoin, 1, this);
    return id;
  }

  const unsigned capacity_;
  std::atomic<unsigned> next_{0};
  std::atomic<unsigned> active_{0};
  std::atomic<std::uint64_t> free_head_{0};
  std::unique_ptr<std::atomic<std::uint32_t>[]> free_next_;
};

}  // namespace moir
