// Cache-line-padded fixed-capacity SPSC ring + futex-free waiting.
//
// One ring per client session carries request handles from the client
// (single producer) to the routing-claim holder (single consumer), and
// one lane per shard carries them on from the routing-claim holder to
// that lane's claim holder. The
// single-producer/single-consumer discipline makes the ring wait-free with
// plain acquire/release atomics: each side owns its index, only reads the
// other's, and caches the remote index to avoid touching the shared line
// on most operations (the Lamport ring with index caching, in the spirit
// of the fixed-size slot structures of Blelloch & Wei's constant-time
// LL/SC constructions — no allocation, no unbounded tags).
//
// Nothing ever blocks in here: try_push/try_pop fail immediately when
// full/empty and the caller decides (the service sheds, routing moves to
// the next session). SpinWait (util/backoff.hpp, re-exported below) is
// the one waiting policy the subsystem uses when a caller *chooses* to
// wait (client wait(), idle workers): bounded exponential spinning with a
// CPU relax hint, then std::this_thread::yield() — never a futex or mutex,
// so a preempted peer can always be scheduled and progress remains a
// scheduler property, not a lock-holder property.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "platform/yield_point.hpp"
#include "util/assertion.hpp"
#include "util/backoff.hpp"
#include "util/cache.hpp"

namespace moir::svc {

// Backoff policy shared with the core retry loops; see util/backoff.hpp.
using ::moir::SpinWait;

// Fixed-capacity single-producer/single-consumer ring of uint64 handles.
// Capacity is set at construction and must be a power of two (asserted,
// not rounded up); indices are free-running and masked, so full/empty
// never needs a spare slot or a separate count. The slots are left
// uninitialized: a slot is read only after the producer wrote it, and an
// untouched page of a large ring is never faulted in.
class SpscRing {
 public:
  explicit SpscRing(std::uint32_t capacity)
      : mask_(checked_mask(capacity)),
        slots_(std::make_unique_for_overwrite<std::uint64_t[]>(capacity)) {}

  std::uint32_t capacity() const { return mask_ + 1; }

  // Occupancy estimate: exact for the consumer when the producer is quiet
  // and vice versa, a snapshot otherwise (each index is read once).
  std::uint32_t size() const {
    return static_cast<std::uint32_t>(
        tail_.idx.load(std::memory_order_acquire) -
        head_.idx.load(std::memory_order_acquire));
  }

  // Producer side. Returns false when the ring is full.
  bool try_push(std::uint64_t v) {
    const std::uint64_t tail = tail_.idx.load(std::memory_order_relaxed);
    if (tail - tail_.cached_other > mask_) {
      // Looks full: refresh the cached head and re-check.
      MOIR_YIELD_READ(&head_.idx);
      tail_.cached_other = head_.idx.load(std::memory_order_acquire);
      if (tail - tail_.cached_other > mask_) return false;
    }
    slots_[tail & mask_] = v;
    MOIR_YIELD_STEP(::moir::testing::StepInfo::write(&tail_.idx)
                        .also_write(&slots_[tail & mask_]));
    tail_.idx.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns false when the ring is empty.
  bool try_pop(std::uint64_t& out) {
    const std::uint64_t head = head_.idx.load(std::memory_order_relaxed);
    if (head == head_.cached_other) {
      MOIR_YIELD_READ(&tail_.idx);
      head_.cached_other = tail_.idx.load(std::memory_order_acquire);
      if (head == head_.cached_other) return false;
    }
    out = slots_[head & mask_];
    MOIR_YIELD_STEP(::moir::testing::StepInfo::write(&head_.idx)
                        .also_read(&slots_[head & mask_]));
    head_.idx.store(head + 1, std::memory_order_release);
    return true;
  }

  bool empty_approx() const { return size() == 0; }

  // TEST ONLY: re-bases both free-running indices on an empty ring so
  // tests can place them just below an arithmetic boundary (e.g. 2^32)
  // without pushing four billion elements. Never call with traffic in
  // flight — both ends' views are rewritten non-atomically.
  void reset_indices_for_test(std::uint64_t start) {
    head_.idx.store(start, std::memory_order_relaxed);
    head_.cached_other = start;
    tail_.idx.store(start, std::memory_order_relaxed);
    tail_.cached_other = start;
  }

 private:
  // Each end gets its own cache line: the free-running index it owns plus
  // its private cache of the other end's index. The producer therefore
  // dirties only the tail line, the consumer only the head line.
  struct alignas(kCacheLine) End {
    std::atomic<std::uint64_t> idx{0};
    std::uint64_t cached_other = 0;
  };

  static std::uint32_t checked_mask(std::uint32_t capacity) {
    MOIR_ASSERT_MSG(capacity >= 1 && capacity <= (1u << 30) &&
                        (capacity & (capacity - 1)) == 0,
                    "ring capacity must be a power of two in [1, 2^30]");
    return capacity - 1;
  }

  const std::uint32_t mask_;
  std::unique_ptr<std::uint64_t[]> slots_;
  End head_;  // consumer-owned
  End tail_;  // producer-owned
};

}  // namespace moir::svc
