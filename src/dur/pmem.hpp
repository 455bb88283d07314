// Simulated persistent memory for crash-recovery testing.
//
// Real persistent memory gives programs a volatile view (caches, store
// buffers) in front of a durable medium; stores reach the medium only after
// an explicit write-back (CLWB/CLFLUSHOPT) ordered by a fence (SFENCE). A
// crash discards the volatile view and recovery sees whatever subset of
// stores had been written back. Durable algorithms (dur/dur_llsc.hpp, after
// arXiv 2302.00135) are correct only if their persist barriers are placed
// so that every reachable durable state is recoverable.
//
// This header simulates that model in ordinary memory so the schedule
// explorer (sim/) can verify barrier placement exhaustively:
//
//   * DurWord is a 64-bit word with a volatile value v_ and a durable
//     shadow durable_. Loads/stores/CAS touch only v_.
//   * persist(w) is the "write this word back now" barrier (a flush and
//     its fence, for one word): ONE yield point (MOIR_YIELD_PERSIST), then
//     durable_ := current v_. A crash lands before the commit or after it.
//     Every state this produces is a real reachable state, so a violation
//     found here is a real bug, and the missing-persist negative control
//     (tests/test_dur.cpp) shows the model has teeth.
//
// Capture at commit: persist() copies the word's volatile value when the
// write-back COMMITS — after its yield point — not the value the caller
// last stored or saw. A cacheline write-back writes the line's content at
// write-back time; it can never resurrect an older value. Capturing any
// earlier would let a delayed persist overwrite a NEWER durable value with
// a stale one — a rollback no hardware exhibits — and would make
// correctly annotated algorithms fail verification (figdur's barriers
// rely on it: each may commit a value past the one it was placed for).
// Under this model durable_ only ever moves toward the current volatile
// value, matching the monotone convergence of real write-backs.
//
// Crash protocol (sim/crash.hpp drives it): the crash body snapshot()s the
// domain at a schedule point of the explorer's choosing; after the trial's
// volatile execution completes, the checker builds a fresh, identically
// constructed instance, restore()s the snapshot into it (v_ := durable_ :=
// snapshot value — recovery starts from durable state only), runs the
// algorithm's recovery routine, and probes the result. Identical
// construction order makes attach order deterministic, so snapshot indices
// map 1:1 between the crashed and recovered instances.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "platform/yield_point.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"

namespace moir::dur {

class PmemDomain;

// One simulated persistent word. Ordinary atomic operations act on the
// volatile value; only PmemDomain barriers move the durable shadow.
class DurWord {
 public:
  explicit DurWord(std::uint64_t initial = 0)
      : v_(initial), durable_(initial) {}

  DurWord(const DurWord&) = delete;
  DurWord& operator=(const DurWord&) = delete;

  std::uint64_t load(std::memory_order mo = std::memory_order_seq_cst) const {
    return v_.load(mo);
  }
  void store(std::uint64_t value,
             std::memory_order mo = std::memory_order_seq_cst) {
    v_.store(value, mo);
  }
  bool compare_exchange_strong(
      std::uint64_t& expected, std::uint64_t desired,
      std::memory_order mo = std::memory_order_seq_cst) {
    return v_.compare_exchange_strong(expected, desired, mo);
  }

  // What a crash would leave behind. Test/recovery-side accessor.
  std::uint64_t durable() const {
    return durable_.load(std::memory_order_seq_cst);
  }

 private:
  friend class PmemDomain;
  std::atomic<std::uint64_t> v_;
  std::atomic<std::uint64_t> durable_;
};

// The set of DurWords belonging to one durable data structure.
// Snapshot/restore operate on the whole domain at once.
class PmemDomain {
 public:
  // Registers a word with the domain. Quiescent-only (construction /
  // init_var time): attach order defines the snapshot index order, and the
  // recovery protocol relies on the crashed and recovered instances
  // attaching identical sequences.
  void attach(DurWord& word) {
    std::lock_guard<std::mutex> lock(mu_);
    words_.push_back(&word);
  }

  // Writes `word` back: one yield point (the crash window), then the
  // durable shadow takes the word's CURRENT volatile value. Counts one
  // flush and one fence. Const because it mutates only the word's durable
  // shadow, never the domain — so context-free readers may persist
  // through a const substrate.
  void persist(DurWord& word) const {
    MOIR_YIELD_PERSIST(&word);
    word.durable_.store(word.v_.load(std::memory_order_seq_cst),
                        std::memory_order_seq_cst);
    stats::count(stats::Id::kDurFlush, 1, this);
    stats::count(stats::Id::kDurFence, 1, this);
  }

  // persist() for quiescent init paths: no yield point (there is no crash
  // window to model before the structure is published) and no counters (so
  // barrier counts in bench JSON measure the algorithm, not its setup).
  void persist_quiescent(DurWord& word) const {
    word.durable_.store(word.v_.load(std::memory_order_seq_cst),
                        std::memory_order_seq_cst);
  }

  // The durable image a crash at this instant would leave. Values are read
  // in attach order; concurrent volatile activity is irrelevant because
  // only durable_ shadows are read and each is a single atomic.
  std::vector<std::uint64_t> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::uint64_t> image;
    image.reserve(words_.size());
    for (const DurWord* w : words_) {
      image.push_back(w->durable_.load(std::memory_order_seq_cst));
    }
    return image;
  }

  // Loads a crash image into this (freshly constructed, quiescent) domain:
  // both volatile and durable values become the image — recovery starts
  // from durable state and nothing else. The domain must have attached
  // exactly the same word sequence as the one that was snapshotted.
  void restore(const std::vector<std::uint64_t>& image) {
    std::lock_guard<std::mutex> lock(mu_);
    MOIR_ASSERT_MSG(image.size() == words_.size(),
                    "crash image does not match this domain's attach order");
    for (std::size_t i = 0; i < words_.size(); ++i) {
      words_[i]->v_.store(image[i], std::memory_order_seq_cst);
      words_[i]->durable_.store(image[i], std::memory_order_seq_cst);
    }
  }

 private:
  mutable std::mutex mu_;
  std::vector<DurWord*> words_;
};

}  // namespace moir::dur
