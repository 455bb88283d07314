// Fixed-size lock-free block allocator (the allocation half of safe memory
// reclamation, in the spirit of Blelloch & Wei's "Concurrent Fixed-Size
// Allocation and Free in Constant Time", arXiv:2008.04296).
//
// All blocks are preallocated; alloc() and free() are a single tagged-CAS
// push/pop on an index free list (the same {version:32, idx+1:32} head word
// the LeaseRegistry uses against ABA), so node allocation on the data
// structure hot path is itself non-blocking and constant time — a retry
// implies another alloc/free made progress. Blocks are addressed by dense
// indices, which is what lets the LL/SC-based structures link them through
// their narrow value fields.
//
// The allocator is reclamation-aware in one deliberate way: under
// AddressSanitizer every free block's storage is *poisoned* and only
// unpoisoned by alloc(). A reader that dereferences a block after it was
// freed — i.e. a broken reclamation policy — trips an ASan use-after-poison
// report even though the pool's backing memory is, strictly speaking, still
// live. tests/test_reclaim.cpp uses this to prove the negative-control
// reclaimer is actually broken and the real ones are not.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "platform/yield_point.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"

// ASan detection: gcc defines __SANITIZE_ADDRESS__, clang answers
// __has_feature(address_sanitizer).
#ifndef MOIR_ASAN
#if defined(__SANITIZE_ADDRESS__)
#define MOIR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MOIR_ASAN 1
#else
#define MOIR_ASAN 0
#endif
#else
#define MOIR_ASAN 0
#endif
#endif

#if MOIR_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace moir::reclaim {

template <typename Node>
class BlockAllocator {
 public:
  // Constructs `capacity` default-initialized nodes, runs `init` on each
  // (e.g. to init_var LL/SC fields through their substrate), then marks all
  // of them free. `init` defaults to nothing.
  template <typename Init>
  BlockAllocator(std::uint32_t capacity, Init&& init)
      : capacity_(capacity),
        nodes_(std::make_unique<Node[]>(capacity)),
        next_(std::make_unique<std::atomic<std::uint32_t>[]>(capacity)) {
    MOIR_ASSERT_MSG(capacity >= 1, "allocator needs at least one block");
    for (std::uint32_t i = 0; i < capacity_; ++i) init(nodes_[i]);
    // Free list initially holds every block: i -> i+1, head = block 0.
    for (std::uint32_t i = 0; i < capacity_; ++i) {
      next_[i].store(i + 1 < capacity_ ? i + 2 : 0,
                     std::memory_order_relaxed);
      poison(i);
    }
    head_.store(1, std::memory_order_release);  // idx+1 encoding; 0 = empty
  }

  explicit BlockAllocator(std::uint32_t capacity)
      : BlockAllocator(capacity, [](Node&) {}) {}

  ~BlockAllocator() {
    // Node destructors (and delete[]) must not run on poisoned storage.
    for (std::uint32_t i = 0; i < capacity_; ++i) unpoison(i);
  }

  BlockAllocator(const BlockAllocator&) = delete;
  BlockAllocator& operator=(const BlockAllocator&) = delete;

  // Pops a free block. Empty pool returns nullopt (and counts
  // alloc_exhaustion) — callers surface that as backpressure, they do not
  // block. The returned block's storage is unpoisoned and exclusively owned
  // by the caller until it is published.
  std::optional<std::uint32_t> alloc() {
    std::uint64_t head = head_.load(std::memory_order_acquire);
    for (;;) {
      const std::uint32_t enc =
          static_cast<std::uint32_t>(head & 0xffffffffull);
      if (enc == 0) {
        stats::count(stats::Id::kAllocExhaustion, 1, this);
        return std::nullopt;
      }
      const std::uint32_t idx = enc - 1;
      MOIR_YIELD_UPDATE(this);
      // Reading the next link of a block we do not yet own: may be stale,
      // but then head changed and the CAS below fails (the version tag in
      // the high half defeats ABA from a concurrent free of `idx`).
      const std::uint64_t version = (head >> 32) + 1;
      const std::uint64_t next =
          (version << 32) | next_[idx].load(std::memory_order_relaxed);
      if (head_.compare_exchange_weak(head, next, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        unpoison(idx);
        return idx;
      }
    }
  }

  // Returns a block to the pool. The caller must own it exclusively: either
  // it was never published, or a Reclaimer has proven no thread can still
  // hold a reference. Storage is poisoned first, so any straggling reader
  // is a detectable use-after-poison under ASan rather than silent reuse.
  void free(std::uint32_t idx) {
    MOIR_ASSERT_MSG(idx < capacity_, "freeing an index outside the pool");
    poison(idx);
    std::uint64_t head = head_.load(std::memory_order_relaxed);
    for (;;) {
      next_[idx].store(static_cast<std::uint32_t>(head & 0xffffffffull),
                       std::memory_order_relaxed);
      MOIR_YIELD_UPDATE(this);
      const std::uint64_t version = (head >> 32) + 1;
      if (head_.compare_exchange_weak(head, (version << 32) | (idx + 1),
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        return;
      }
    }
  }

  Node& node(std::uint32_t idx) {
    MOIR_ASSERT(idx < capacity_);
    return nodes_[idx];
  }
  const Node& node(std::uint32_t idx) const {
    MOIR_ASSERT(idx < capacity_);
    return nodes_[idx];
  }

  std::uint32_t capacity() const { return capacity_; }

  // Walks the free list and counts its length. Only meaningful when no
  // thread is concurrently allocating or freeing; tests use it as the leak
  // check "every retired block eventually came home".
  std::uint32_t free_count_quiescent() const {
    std::uint32_t n = 0;
    std::uint32_t enc = static_cast<std::uint32_t>(
        head_.load(std::memory_order_acquire) & 0xffffffffull);
    while (enc != 0 && n <= capacity_) {
      ++n;
      enc = next_[enc - 1].load(std::memory_order_relaxed);
    }
    return n;
  }

 private:
  void poison(std::uint32_t idx) {
#if MOIR_ASAN
    __asan_poison_memory_region(&nodes_[idx], sizeof(Node));
#else
    (void)idx;
#endif
  }
  void unpoison(std::uint32_t idx) {
#if MOIR_ASAN
    __asan_unpoison_memory_region(&nodes_[idx], sizeof(Node));
#else
    (void)idx;
#endif
  }

  const std::uint32_t capacity_;
  std::unique_ptr<Node[]> nodes_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> next_;
  // Free list head: {version:32, idx+1:32}; low half 0 means empty.
  std::atomic<std::uint64_t> head_{0};
};

}  // namespace moir::reclaim
