// TL2's global version clock (Dice–Shalev–Shavit, DISC'06).
//
// One cache-padded 64-bit counter shared by every transaction on a
// store. Read-only transactions SAMPLE it (one load — the "invisible
// reader" never writes shared memory); write transactions ADVANCE it
// with one fetch-add per value-changing commit, performed inside the
// Stm's write-back phase (Stm::enable_version_stamps) so helpers and
// owner agree on the drawn version. The padding matters: the clock is
// the one word every writer touches, and sharing its line with a cell
// or a stamp would put reader traffic on the hottest line in the
// system.
//
// Versions live in the 40-bit stamp field of Stm::WvSlot, so the clock
// wraps after 2^40 value-changing commits — same caveat family as the
// substrate's tag wraparound (docs/ALGORITHMS.md); the Stm asserts
// before the wrap rather than silently aliasing. Tests exercise the
// 2^32 boundary (test_tl2.cpp) to pin down that nothing truncates the
// count to 32 bits on the way through.
#pragma once

#include <atomic>
#include <cstdint>

#include "platform/yield_point.hpp"
#include "util/cache.hpp"

namespace moir::txn {

class GlobalVersionClock {
 public:
  GlobalVersionClock() = default;
  GlobalVersionClock(const GlobalVersionClock&) = delete;
  GlobalVersionClock& operator=(const GlobalVersionClock&) = delete;

  // Reader-side sample (rv). One shared load; never writes.
  std::uint64_t sample() const {
    MOIR_YIELD_READ(&word_.value);
    return word_->load(std::memory_order_seq_cst);
  }

  // The raw word, for Stm::enable_version_stamps (the writer side
  // fetch-adds it directly from the STM's sweep).
  std::atomic<std::uint64_t>* word() { return &*word_; }

  // Test hook: park the clock near a boundary (e.g. 2^32) to force the
  // wraparound edges without 4 billion commits. Quiescent use only.
  void set_for_test(std::uint64_t v) {
    word_->store(v, std::memory_order_seq_cst);
  }

 private:
  Padded<std::atomic<std::uint64_t>> word_{};
};

}  // namespace moir::txn
