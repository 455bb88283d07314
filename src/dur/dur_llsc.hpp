// Writable durable LL/SC from pointer-width CAS over simulated persistent
// memory (after Jayanti, Jayanti & Jayanti, arXiv:2302.00135) — the `figdur`
// family.
//
// figdur IS figbw: the Blelloch–Wei skeleton of core/bw_llsc.hpp, run with
// the Durable policy below, which makes the var word and each descriptor's
// value a DurWord and fills the skeleton's three hooks with persist barriers
// (dur/pmem.hpp):
//
//   (P1) SC persists the NEW descriptor's value before the install CAS.
//        Once the index is visible — volatile or durable — its payload is
//        already on the durable medium, so a crash image can never name a
//        descriptor whose value is garbage.
//   (P2) SC persists the variable word after a successful install, before
//        retiring the displaced descriptor. This yields the recycling
//        invariant recovery depends on: the descriptor named by a var's
//        DURABLE word is never recycled. A descriptor d is retired only by
//        the SC that displaced it, after that SC made the var's durable
//        word name d's successor — and the durable word only ever moves
//        forward (persist commits the CURRENT volatile value), so it never
//        returns to d. The SkipPersist variant elides exactly this barrier;
//        the negative control shows DFS and PCT catching the resulting
//        unrecoverable (and value-corrupting, once d recycles) states.
//   (P3) LL and read() persist the variable word before returning if its
//        durable copy lags the index they observed ("link-and-persist": the
//        flush piggybacks on the read). An operation may only return a
//        value once the install it derives from is durable — otherwise a
//        crash after the return but before the installer's own P2 would
//        recover a state missing an effect some completed operation already
//        exposed. The persist is conditional: if durable already matches,
//        it is skipped with NO yield point, which keeps repeated reads of a
//        quiet variable from inflating the DFS tree. P2 is conditional the
//        same way: a concurrent reader's P3 may have covered it already.
//
// All three barriers persist a word whose volatile value may have advanced
// past the one the barrier "wanted" to persist. That is always sound here:
// var words and descriptor values only move forward along install order,
// and persisting a later state durably covers every earlier one (the
// skipped states are exactly those a crash immediately after a later SC's
// P2 would also skip).
//
// Membership is the skeleton's: members join and leave through a counted
// LeaseRegistry (reg_join/reg_leave), up to Config::max_members at once.
//
// Recovery: restore() loads a crash image (durable words only) into an
// identically constructed fresh instance; recover() reads each var's word,
// marks the named descriptors live, and rebuilds the allocator free list
// from scratch (rebuild_free_quiescent), so descriptors lost mid-flight in
// the crash — allocated but never installed, or retired but still in a
// (volatile, now vanished) limbo list — all return to the pool: crashes
// cannot leak descriptors. Announcements, limbo, and membership are
// volatile by design and start empty. Each descriptor's `seq` is volatile
// too: a fresh instance's descriptors start even, which is sound because
// recovery is quiescent and every post-recovery reader starts fresh.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/bw_llsc.hpp"
#include "dur/pmem.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"

namespace moir::dur {

template <bool SkipPersist>
class Durable {
 public:
  using VarWord = DurWord;
  using ValueWord = DurWord;
  static constexpr bool kCountMembers = true;
  static constexpr const char* kName =
      SkipPersist ? "dur-llsc-no-persist(broken)" : "dur-llsc(figdur)";

  void persist_value(DurWord& value) const { pmem_.persist(value); }  // P1
  void persist_install(DurWord& word, std::uint32_t d) const {       // P2
    if constexpr (!SkipPersist) persist_observed(word, d);
  }
  void persist_observed(DurWord& word, std::uint32_t d) const {      // P3
    if (word.durable() != d) pmem_.persist(word);
  }

  // First init of a Var attaches its durable word to the pmem domain —
  // init_var call order therefore defines the tail of the snapshot layout.
  void persist_init(DurWord& value, DurWord& word, bool fresh_var) {
    pmem_.persist_quiescent(value);
    pmem_.persist_quiescent(word);
    if (fresh_var) {
      pmem_.attach(word);
      vars_.push_back(&word);
    }
  }

 private:
  template <unsigned, bool>
  friend class DurLlscImpl;

  PmemDomain pmem_;
  std::vector<DurWord*> vars_;  // init order = durable snapshot tail layout
};

template <unsigned ValBits = 64, bool SkipPersist = false>
class DurLlscImpl : public BwLlscImpl<ValBits, Durable<SkipPersist>> {
  using Base = BwLlscImpl<ValBits, Durable<SkipPersist>>;

 public:
  struct Config {
    // Descriptors reserved for installed values: one per init_var'd Var.
    std::uint32_t reserve = 1u << 10;
    // Allocator chunk size (see reclaim/bw_allocator.hpp).
    std::uint32_t chunk = 16;
    // Retired descriptors a context accumulates before scanning. 0 = auto:
    // max_members*k + chunk (see core/bw_llsc.hpp).
    std::uint32_t scan_threshold = 0;
    // Concurrent-membership ceiling: the skeleton's N.
    std::uint32_t max_members = 64;
  };

  // `k` = max concurrent LL-SC sequences per member. Membership itself is
  // dynamic, bounded only by cfg.max_members.
  explicit DurLlscImpl(unsigned k = 2, Config cfg = {})
      : Base(cfg.max_members, k,
             {.reserve = cfg.reserve,
              .chunk = cfg.chunk,
              .scan_threshold = cfg.scan_threshold}) {
    // Attach every descriptor's durable value word, in index order: the
    // crash/recovery protocol needs the crashed and recovered instances to
    // attach identical word sequences (dur/pmem.hpp snapshot contract).
    for (std::uint32_t i = 0; i < this->pool().capacity(); ++i) {
      pmem().attach(this->pool().node(i).value);
    }
  }

  PmemDomain& pmem() { return this->durability().pmem_; }

  // --- crash / recovery ----------------------------------------------------
  // The durable image a crash right now would leave (dur/pmem.hpp layout:
  // all descriptor values in index order, then var words in init order).
  std::vector<std::uint64_t> snapshot() const {
    return this->durability().pmem_.snapshot();
  }

  // Rebuilds volatile state from the durable words. Quiescent-only: run on
  // a freshly constructed instance (same Config, same init_var sequence)
  // after restore(), before any ThreadCtx exists. Every descriptor not
  // named by some var's durable word returns to the pool — in-flight
  // allocations and volatile limbo lists from before the crash cannot leak.
  void recover() {
    const std::uint32_t capacity = this->pool().capacity();
    std::vector<char> in_use(capacity, 0);
    for (const DurWord* w : this->durability().vars_) {
      const std::uint64_t d = w->load(std::memory_order_relaxed);
      MOIR_ASSERT_MSG(d < capacity,
                      "durable var word names no valid descriptor — was the "
                      "crash image taken before the var's first init?");
      in_use[static_cast<std::size_t>(d)] = 1;
    }
    this->pool().rebuild_free_quiescent(
        [&](std::uint32_t i) { return in_use[i] != 0; });
    stats::count(stats::Id::kDurRecover, 1, this);
  }

  void restore_and_recover(const std::vector<std::uint64_t>& image) {
    pmem().restore(image);
    recover();
  }
};

template <unsigned ValBits = 64>
using DurLlsc = DurLlscImpl<ValBits, false>;

// Planted bug (negative control): SC skips the P2 barrier — the install is
// never persisted by its own SC, so a crash can durably miss a completed
// operation, and once the displaced descriptor recycles the durable var
// word names a descriptor now carrying some other var's value.
template <unsigned ValBits = 64>
using DurLlscNoPersist = DurLlscImpl<ValBits, true>;

}  // namespace moir::dur
