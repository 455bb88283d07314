// Figure 7: constant-time, bounded-tag implementation of LL/VL/SC using CAS
// (Theorem 5).
//
// The unbounded-tag constructions (Figures 3-5) rely on "a tag will not
// wrap around during one LL-SC sequence". This construction removes that
// probabilistic argument entirely: tags are drawn from the bounded range
// 0..2Nk and recycled through a feedback mechanism that guarantees no
// {tag, cnt, pid} triple is reused while any process could still CAS
// against it. The price is space — Θ(N(k+T)) shared words for T variables,
// N processes, and at most k concurrent LL-SC sequences per process — but
// that is far below the Θ(N²T) of the prior bounded construction
// (Anderson–Moir PODC'95), which bench_fig7_bounded tabulates.
//
// Mechanism recap (paper Section 4):
//  * Every LL announces the word it read in the shared array A[p][slot];
//    slots (k per process) are managed by the private SlotStack.
//  * Every SC scans one element of A (round-robin via the private index j)
//    and moves the tag it sees to the back of its private TagQueue of all
//    2Nk+1 tags, then takes the queue front as the new tag. Each SC touches
//    at most two queue positions, and all N·k announcement cells are
//    visited every N·k SCs, so a tag that some process announced cannot
//    reach the queue front — i.e. be reused — before that announcement is
//    overwritten.
//  * The per-variable counter array `last` (one counter per process,
//    incremented mod Nk+1 per SC on that variable) stretches reuse of the
//    pair {tag, cnt} across at least Nk+1 SCs, which is what makes the
//    A-scan frequency sufficient.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/lease_registry.hpp"
#include "core/slot_stack.hpp"
#include "core/tag_queue.hpp"
#include "core/word_provider.hpp"
#include "platform/yield_point.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"
#include "util/bits.hpp"

namespace moir {

// Field widths are compile-time; the domain constructor checks that the
// runtime N and k fit them. Defaults support N.k up to 2^17 with 16-bit
// values (tag needs 2Nk+1 <= 2^TagBits, cnt needs Nk+1 <= 2^CntBits).
template <unsigned ValBits = 16, unsigned PidBits = 10, unsigned CntBits = 18,
          unsigned TagBits = 64 - ValBits - PidBits - CntBits,
          WordProvider Provider = NativeWordProvider>
class BoundedLlsc {
  static_assert(ValBits + PidBits + CntBits + TagBits == 64,
                "fields must fill exactly one machine word");
  static_assert(ValBits >= 1 && PidBits >= 1 && CntBits >= 2 && TagBits >= 2);

 public:
  using value_type = std::uint64_t;

  static constexpr unsigned kValBits = ValBits;

  // wordtype = record tag, cnt, pid, val end — packed into 64 bits.
  struct Packed {
    std::uint64_t raw = 0;

    static Packed make(std::uint64_t tag, std::uint64_t cnt, std::uint64_t pid,
                       std::uint64_t val) {
      std::uint64_t r = 0;
      r = deposit_bits(r, 0, ValBits, val);
      r = deposit_bits(r, ValBits, PidBits, pid);
      r = deposit_bits(r, ValBits + PidBits, CntBits, cnt);
      r = deposit_bits(r, ValBits + PidBits + CntBits, TagBits, tag);
      return Packed{r};
    }

    std::uint64_t val() const { return extract_bits(raw, 0, ValBits); }
    std::uint64_t pid() const { return extract_bits(raw, ValBits, PidBits); }
    std::uint64_t cnt() const {
      return extract_bits(raw, ValBits + PidBits, CntBits);
    }
    std::uint64_t tag() const {
      return extract_bits(raw, ValBits + PidBits + CntBits, TagBits);
    }
  };

  // keeptype = record slot, fail end.
  struct Keep {
    unsigned slot = 0;
    bool fail = false;
  };

  // llsctype = record word; last: array[0..N-1] end.
  class Var {
   public:
    Var() = default;
    Var(const Var&) = delete;
    Var& operator=(const Var&) = delete;

   private:
    friend class BoundedLlsc;
    typename Provider::Word word_;
    // last[i]: the counter most recently written to this word by process i.
    // Only process i ever touches last[i]; atomic (relaxed) keeps the
    // accesses race-free in the C++ memory model without ordering cost.
    std::vector<std::atomic<std::uint32_t>> last_;
  };

  // Private per-process state: the slot stack S, the tag queue Q, and the
  // round-robin announcement scan index j.
  class ThreadCtx {
   public:
    ThreadCtx(unsigned pid, unsigned k, std::uint32_t tag_count,
              unsigned scan_range, typename Provider::Ctx words)
        : pid_(pid),
          stack_(k),
          queue_(tag_count),
          scan_range_(scan_range),
          words_(std::move(words)) {}

    unsigned pid() const { return pid_; }

   private:
    friend class BoundedLlsc;
    unsigned pid_;
    SlotStack stack_;
    TagQueue queue_;
    unsigned scan_range_;  // N*k
    unsigned j_ = 0;       // 0..Nk-1
    typename Provider::Ctx words_;
  };

  // `n_processes` = N, `k` = max concurrent LL-SC sequences per process.
  BoundedLlsc(unsigned n_processes, unsigned k,
              Provider provider = Provider())
      : provider_(std::move(provider)),
        n_(n_processes),
        k_(k),
        nk_(n_processes * k),
        tag_count_(2 * n_processes * k + 1),
        registry_(n_processes),
        announce_(std::make_unique<std::atomic<std::uint64_t>[]>(nk_)) {
    MOIR_ASSERT(n_processes >= 1 && k >= 1);
    MOIR_ASSERT_MSG(2ULL * nk_ <= low_mask(TagBits),
                    "tag field too narrow for 2Nk+1 tags");
    MOIR_ASSERT_MSG(nk_ <= low_mask(CntBits),
                    "cnt field too narrow for Nk+1 counter values");
    MOIR_ASSERT_MSG(n_processes - 1 <= low_mask(PidBits),
                    "pid field too narrow for N processes");
    for (unsigned i = 0; i < nk_; ++i) {
      announce_[i].store(0, std::memory_order_relaxed);
    }
  }

  ThreadCtx make_ctx() {
    return ThreadCtx(registry_.acquire(), k_, tag_count_, nk_,
                     provider_.make_ctx());
  }

  // initially X.word = (0, 0, 0, initial) and X.last[i] = 0 for all i.
  void init_var(Var& var, value_type initial) {
    MOIR_ASSERT(initial <= max_value());
    var.word_.init(Packed::make(0, 0, 0, initial).raw);
    var.last_ = std::vector<std::atomic<std::uint32_t>>(n_);
    for (auto& c : var.last_) c.store(0, std::memory_order_relaxed);
  }

  // Yield points precede the accesses they announce; the exploration
  // identities are the variable's word and the individual announcement
  // cells. The per-process counters last_[pid] are owner-only (no other
  // process touches them) and therefore omitted from the footprints.
  value_type ll(ThreadCtx& ctx, const Var& var, Keep& keep) {
    if (ctx.stack_.available() == 0) {
      // Counted before the pop() assertion fires so the exhaustion shows
      // up in counters/trace even though the process is about to die.
      stats::count(stats::Id::kTagExhaustion, 1, &var);
    }
    keep.slot = ctx.stack_.pop();                                   // line 1
    MOIR_YIELD_READ(&var.word_);
    const std::uint64_t old = var.word_.load();                     // line 2
    MOIR_YIELD_WRITE(&announce(ctx.pid_, keep.slot));
    announce(ctx.pid_, keep.slot)
        .store(old, std::memory_order_seq_cst);                     // line 3
    MOIR_YIELD_READ(&var.word_);
    keep.fail = var.word_.load() != old;                            // line 4
    return Packed{old}.val();                                       // line 5
  }

  bool vl(ThreadCtx& ctx, const Var& var, const Keep& keep) {
    MOIR_YIELD_STEP(::moir::testing::StepInfo::read(&var.word_)
                        .also_read(&announce(ctx.pid_, keep.slot)));
    return !keep.fail &&                                            // line 6
           var.word_.load() == announce(ctx.pid_, keep.slot)
                                   .load(std::memory_order_seq_cst);
  }

  // CL: abort the current LL-SC sequence, recycling its slot.
  void cl(ThreadCtx& ctx, const Keep& keep) {
    ctx.stack_.push(keep.slot);                                     // line 7
  }

  bool sc(ThreadCtx& ctx, Var& var, const Keep& keep, value_type newval) {
    MOIR_ASSERT(newval <= max_value());
    ctx.stack_.push(keep.slot);                                     // line 8
    if (keep.fail) {                                                // line 9
      stats::count(stats::Id::kScFail, 1, &var);
      return false;
    }

    // line 10: read one announcement; retire its tag to the queue back.
    MOIR_YIELD_READ(&announce(ctx.j_ / k_, ctx.j_ % k_));
    const std::uint64_t announced =
        announce(ctx.j_ / k_, ctx.j_ % k_).load(std::memory_order_seq_cst);
    ctx.queue_.move_to_back(
        static_cast<std::uint32_t>(Packed{announced}.tag()));
    stats::count(stats::Id::kTagRecycle, 1, &var);
    ctx.j_ = (ctx.j_ + 1) % ctx.scan_range_;                        // line 11
    const std::uint32_t t = ctx.queue_.rotate();                    // line 12
    stats::count(stats::Id::kTagAlloc, 1, &var);

    // lines 13-14: next counter for (this variable, this process).
    const std::uint32_t cnt = static_cast<std::uint32_t>(add_mod_range(
        var.last_[ctx.pid_].load(std::memory_order_relaxed), 1, nk_));
    var.last_[ctx.pid_].store(cnt, std::memory_order_relaxed);

    MOIR_YIELD_STEP(::moir::testing::StepInfo::read(
                        &announce(ctx.pid_, keep.slot))
                        .also_update(&var.word_));
    // line 15: CAS from the announced old word to the freshly-tagged new.
    std::uint64_t expected =
        announce(ctx.pid_, keep.slot).load(std::memory_order_seq_cst);
    const bool ok = var.word_.cas(ctx.words_, expected,
                                  Packed::make(t, cnt, ctx.pid_, newval).raw);
    stats::count(ok ? stats::Id::kScSuccess : stats::Id::kScFail, 1, &var);
    return ok;
  }

  value_type read(const Var& var) const {
    return Packed{var.word_.load()}.val();
  }

  // Diagnostic: the variable's full packed word (tag/cnt/pid/val). Tests
  // use it to check the bounded-tag invariant; benches to report tag churn.
  Packed raw_word(const Var& var) const {
    return Packed{var.word_.load()};
  }

  value_type max_value() const { return low_mask(ValBits); }
  const char* name() const { return "bounded-tag(fig7)"; }
  const char* provider_name() const { return provider_.name(); }

  unsigned n_processes() const { return n_; }
  unsigned k() const { return k_; }

  // --- space accounting (for bench_fig7_bounded / EXPERIMENTS.md) --------
  // Shared overhead: the announcement array (Nk words) plus, per variable,
  // the `last` array (N words). The paper's measure excludes private
  // variables; we also report them for completeness.
  std::size_t shared_overhead_words(std::size_t n_vars) const {
    return std::size_t{nk_} + n_vars * n_;
  }
  std::size_t private_words_per_process() const {
    // slot stack (k) + tag queue next/prev (2(2Nk+1)) + j.
    return k_ + 2 * tag_count_ + 1;
  }

 private:
  std::atomic<std::uint64_t>& announce(unsigned pid, unsigned slot) {
    MOIR_ASSERT(pid < n_ && slot < k_);
    return announce_[pid * k_ + slot];
  }

  Provider provider_;
  const unsigned n_;
  const unsigned k_;
  const unsigned nk_;
  const std::uint32_t tag_count_;  // 2Nk+1
  LeaseRegistry<> registry_;
  // A: array[0..N-1][0..k-1] of wordtype (row-major).
  std::unique_ptr<std::atomic<std::uint64_t>[]> announce_;
};

}  // namespace moir
