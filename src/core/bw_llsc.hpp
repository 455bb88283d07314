// Blelloch–Wei weak LL/SC from single pointer-width CAS (arXiv:1911.09671),
// as a SmallLlscSubstrate — the `figbw` family, and the skeleton the
// durable `figdur` family (dur/dur_llsc.hpp) adds its persist barriers to.
//
// The paper's Figures 4/5/7 defeat CAS's ABA problem by *tagging* the word:
// every SC writes a value+tag pair, so a recycled value still compares
// unequal. That costs value width (Figure 4 steals tag bits), DWCAS (wide
// variants), or Θ(N(k+T)) bounded-tag machinery (Figure 7). Blelloch & Wei
// instead make the word a *pointer* to an immutable value descriptor and
// guarantee the pointer itself is never recycled while any LL-SC sequence
// could still CAS against it:
//
//   * SC allocates a fresh descriptor, publishes the new value in it, and
//     swings the variable's single pointer-width word with one CAS. The old
//     descriptor is retired, not freed.
//   * LL announces the descriptor it read in a shared announcement array
//     (hazard-pointer style: announce, then re-read the variable to close
//     the window) before dereferencing it.
//   * A retired descriptor returns to the pool only after a scan of all
//     N*k announcement slots finds nobody announcing it. Scans run every
//     Θ(N*k) retirements, so their cost amortizes to O(1) per SC (the
//     paper's worst-case-constant version staggers the scan; we keep the
//     amortized form, which is what the allocator's chunking already is).
//
// Pointer equality therefore implies "no successful SC since my LL": VL is
// a single load, SC a single CAS, and values keep their full 64 bits — no
// tag field, no wraparound assumption, no DWCAS. The cost moves to LL's one
// seq_cst announcement store (the same store-load fence hazard pointers
// pay) and the amortized scan.
//
// The context-free read() cannot announce (it has no slot), so it runs a
// seqlock over the descriptor: each (re)allocation of a descriptor bumps
// its `seq` to odd before rewriting `value` and back to even before the
// descriptor can be re-installed. A reader that saw a stable even seq AND
// re-reads the same descriptor pointer from the variable is guaranteed the
// value belongs to a tenure of *this* variable inside the read's window —
// see read() for the step-by-step argument. Descriptors are type-stable
// (the pool never poisons them), so touching a retired one is safe; it is
// merely revalidated away.
//
// Membership is leased: make_ctx() takes one of N process ids from a
// LeaseRegistry and the context's destructor returns it, so contexts join
// and leave under load (the dynamic joining of arXiv 2302.00135). A leaving
// context clears its announcements and parks its limbo on an orphan stack
// that the next scan adopts.
//
// The Durability policy supplies the word types and three persist hooks
// (P1-P3, at the points sc/ll/read name them) plus init_var's quiescent
// persist. `Volatile` is the plain algorithm: its hooks are empty inlines.
//
// The SkipAnnounce template parameter is a planted bug for the negative
// control: it elides the announce/re-read step, so a preempted LL can
// dereference — and later successfully SC against — a descriptor that was
// recycled underneath it. tests/test_bw_llsc.cpp demonstrates PCT catching
// the resulting non-linearizable history.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/lease_registry.hpp"
#include "core/slot_stack.hpp"
#include "platform/yield_point.hpp"
#include "reclaim/bw_allocator.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"
#include "util/backoff.hpp"
#include "util/bits.hpp"

namespace moir {

// The volatile durability policy: plain atomics, no barriers, and an
// uncounted membership registry.
struct Volatile {
  using VarWord = std::atomic<std::uint32_t>;
  using ValueWord = std::atomic<std::uint64_t>;
  static constexpr bool kCountMembers = false;
  static constexpr const char* kName = "bw-llsc(figbw)";

  void persist_value(ValueWord&) const {}                   // P1
  void persist_install(VarWord&, std::uint32_t) const {}    // P2
  void persist_observed(VarWord&, std::uint32_t) const {}   // P3
  void persist_init(ValueWord&, VarWord&, bool) {}
};

template <unsigned ValBits = 64, class Durability = Volatile,
          bool SkipAnnounce = false>
class BwLlscImpl {
  static_assert(ValBits >= 1 && ValBits <= 64);

 public:
  using value_type = std::uint64_t;
  using VarWord = typename Durability::VarWord;
  using ValueWord = typename Durability::ValueWord;

  static constexpr unsigned kValBits = ValBits;
  static constexpr std::uint32_t kNone = 0xffffffffu;

  // Immutable while installed: `value` is written only by the descriptor's
  // exclusive owner between allocation and the install CAS. `seq` is the
  // per-slot seqlock generation for context-free readers; it is bumped to
  // odd before each rewrite and back to even after, and only ever grows.
  struct Descriptor {
    ValueWord value{0};
    std::atomic<std::uint64_t> seq{0};
  };

  using Pool = reclaim::BwBlockAllocator<Descriptor>;

  struct Config {
    // Descriptors reserved for installed values: one per init_var'd Var.
    std::uint32_t reserve = 1u << 16;
    // Allocator chunk size (see reclaim/bw_allocator.hpp).
    std::uint32_t chunk = 16;
    // Retired descriptors a context accumulates before scanning the
    // announcement array. 0 = auto (N*k + chunk, which both amortizes the
    // Θ(Nk) scan and guarantees every scan frees at least `chunk` blocks,
    // since at most Nk retirees can be announced). Tests shrink it to force
    // recycling under the model checker.
    std::uint32_t scan_threshold = 0;
  };

  class Var {
   public:
    Var() = default;
    Var(const Var&) = delete;
    Var& operator=(const Var&) = delete;

   private:
    friend class BwLlscImpl;
    // Current descriptor index. Mutable so the const read path can run the
    // P3 hook: a persist changes no volatile state.
    mutable VarWord buf_{kNone};
  };

  struct Keep {
    std::uint32_t desc = kNone;
    unsigned slot = 0;
  };

  class ThreadCtx {
   public:
    ThreadCtx(ThreadCtx&& other) noexcept
        : domain_(other.domain_),
          pid_(other.pid_),
          stack_(std::move(other.stack_)),
          alloc_(std::move(other.alloc_)),
          limbo_(std::move(other.limbo_)),
          scratch_(std::move(other.scratch_)) {
      other.domain_ = nullptr;
    }
    ThreadCtx(const ThreadCtx&) = delete;
    ThreadCtx& operator=(const ThreadCtx&) = delete;
    ThreadCtx& operator=(ThreadCtx&&) = delete;

    // A context may die with retired-but-announced descriptors in limbo
    // (another process's LL may still hold them). They are parked on the
    // domain's orphan stack; any later scan adopts and retires them. The
    // announcements are cleared first: a joiner may reuse the id.
    ~ThreadCtx() {
      if (domain_ == nullptr) return;
      MOIR_ASSERT_MSG(stack_.available() == domain_->k_,
                      "ThreadCtx destroyed with an open LL-SC sequence");
      for (unsigned s = 0; s < domain_->k_; ++s) {
        domain_->announce(pid_, s).store(kNone, std::memory_order_seq_cst);
      }
      for (const std::uint32_t d : limbo_) domain_->push_orphan(d);
      limbo_.clear();
      domain_->registry_.release(pid_);
    }

    unsigned pid() const { return pid_; }

   private:
    friend class BwLlscImpl;
    ThreadCtx(BwLlscImpl* domain, unsigned pid, unsigned k,
              typename Pool::ThreadCtx alloc)
        : domain_(domain), pid_(pid), stack_(k), alloc_(std::move(alloc)) {}

    BwLlscImpl* domain_;
    unsigned pid_;
    SlotStack stack_;
    typename Pool::ThreadCtx alloc_;
    std::vector<std::uint32_t> limbo_;    // retired, not yet proven safe
    std::vector<std::uint32_t> scratch_;  // scan's announcement snapshot
  };

  // `n_processes` = N concurrent contexts, `k` = max concurrent LL-SC
  // sequences per context (each needs an announcement slot).
  explicit BwLlscImpl(unsigned n_processes, unsigned k = 2, Config cfg = {})
      : n_(n_processes),
        k_(k),
        nk_(n_processes * k),
        threshold_(cfg.scan_threshold != 0 ? cfg.scan_threshold
                                           : nk_ + cfg.chunk),
        registry_(n_processes),
        ann_(std::make_unique<std::atomic<std::uint32_t>[]>(nk_)),
        // Worst case per context: a full limbo, a full allocator cache, one
        // in-flight descriptor per sequence — on top of one installed
        // descriptor per reserved Var.
        pool_(cfg.reserve + n_processes * (threshold_ + 3 * cfg.chunk + k + 1),
              [](Descriptor&) {}, cfg.chunk, /*poison=*/false),
        orphan_links_(std::make_unique<std::atomic<std::uint32_t>[]>(
            pool_.capacity())) {
    MOIR_ASSERT(n_processes >= 1 && k >= 1);
    MOIR_ASSERT_MSG(pool_.capacity() < kNone,
                    "descriptor pool too large for 32-bit indices");
    for (unsigned i = 0; i < nk_; ++i) {
      ann_[i].store(kNone, std::memory_order_relaxed);
    }
  }

  ThreadCtx make_ctx() {
    return ThreadCtx(this, registry_.acquire(), k_, pool_.make_ctx());
  }

  // Quiescent-only, matching every other substrate's init_var contract. A
  // re-init reuses the installed descriptor in place (bumping its seq so
  // any straggling context-free reader revalidates).
  void init_var(Var& var, value_type initial) {
    MOIR_ASSERT(initial <= max_value());
    std::uint32_t d = index(var.buf_, std::memory_order_relaxed);
    const bool fresh_var = (d == kNone);
    if (fresh_var) {
      const auto fresh = pool_.alloc();
      MOIR_ASSERT_MSG(fresh.has_value(),
                      "descriptor pool exhausted in init_var; raise "
                      "Config::reserve above the number of Vars");
      d = *fresh;
    }
    Descriptor& desc = pool_.node(d);
    const std::uint64_t s = desc.seq.load(std::memory_order_relaxed);
    desc.seq.store(s + 1, std::memory_order_relaxed);
    desc.value.store(initial, std::memory_order_release);
    desc.seq.store(s + 2, std::memory_order_release);
    var.buf_.store(d, std::memory_order_seq_cst);
    durability_.persist_init(desc.value, var.buf_, fresh_var);
  }

  // LL: read the descriptor pointer, announce it, and re-read the pointer
  // to close the window (the hazard-pointer handshake). Once the re-read
  // confirms the announcement, the descriptor cannot be recycled until this
  // sequence ends, so the dereference — and every later pointer comparison
  // in vl()/sc() — is ABA-free.
  value_type ll(ThreadCtx& ctx, const Var& var, Keep& keep) {
    keep.slot = ctx.stack_.pop();
    MOIR_YIELD_READ(&var);
    std::uint32_t d = index(var.buf_);
    if constexpr (!SkipAnnounce) {
      std::atomic<std::uint32_t>& ann = announce(ctx.pid_, keep.slot);
      for (;;) {
        MOIR_YIELD_WRITE(&ann);
        ann.store(d, std::memory_order_seq_cst);
        stats::count(stats::Id::kBwAnnounce, 1, &var);
        MOIR_YIELD_READ(&var);
        const std::uint32_t cur = index(var.buf_);
        if (cur == d) break;
        // A retry implies a concurrent SC installed `cur`: lock-free.
        stats::count(stats::Id::kBwHelp, 1, &var);
        d = cur;
      }
    }
    // P3: the install about to be exposed must be durable first.
    durability_.persist_observed(var.buf_, d);
    keep.desc = d;
    MOIR_YIELD_READ(&pool_.node(d));
    return pool_.node(d).value.load(std::memory_order_acquire);
  }

  // VL: one load. The announced descriptor cannot have been recycled, so
  // pointer equality is exactly "no successful SC since my LL". Must not
  // touch the slot or announcement: callers may vl() a closed sequence.
  bool vl(ThreadCtx&, const Var& var, const Keep& keep) const {
    MOIR_YIELD_READ(&var);
    return index(var.buf_) == keep.desc;
  }

  bool sc(ThreadCtx& ctx, Var& var, const Keep& keep, value_type newval) {
    MOIR_ASSERT(newval <= max_value());
    const std::uint32_t nd = alloc_desc(ctx);
    Descriptor& desc = pool_.node(nd);
    // Seqlock rewrite: odd seq -> value -> even seq. `value` is a release
    // store so a context-free reader that sees the new value also sees the
    // odd seq (and therefore revalidates); the even store releases the
    // value to readers that first see the new seq.
    MOIR_YIELD_WRITE(&desc);
    const std::uint64_t s = desc.seq.load(std::memory_order_relaxed);
    desc.seq.store(s + 1, std::memory_order_relaxed);
    desc.value.store(newval, std::memory_order_release);
    desc.seq.store(s + 2, std::memory_order_release);
    // P1: the payload is durable before its index can become visible.
    durability_.persist_value(desc.value);

    MOIR_YIELD_STEP(::moir::testing::StepInfo::update(&var).also_write(
        &announce(ctx.pid_, keep.slot)));
    WordValue expected = keep.desc;
    const bool ok = var.buf_.compare_exchange_strong(expected, nd,
                                                     std::memory_order_seq_cst);
    // P2: the durable word leaves keep.desc behind before keep.desc can be
    // retired (and eventually recycled).
    if (ok) durability_.persist_install(var.buf_, nd);
    // Close the sequence only AFTER the CAS: clearing the announcement
    // first would let a scan recycle keep.desc and a concurrent SC
    // re-install it, making the CAS succeed spuriously (ABA).
    announce(ctx.pid_, keep.slot).store(kNone, std::memory_order_release);
    ctx.stack_.push(keep.slot);
    if (ok) {
      retire(ctx, keep.desc);
    } else {
      pool_.free(ctx.alloc_, nd);  // never published; nobody saw it
    }
    stats::count(ok ? stats::Id::kScSuccess : stats::Id::kScFail, 1, &var);
    return ok;
  }

  // CL: abandon the sequence, releasing its announcement slot.
  void cl(ThreadCtx& ctx, const Keep& keep) {
    std::atomic<std::uint32_t>& ann = announce(ctx.pid_, keep.slot);
    MOIR_YIELD_WRITE(&ann);
    ann.store(kNone, std::memory_order_release);
    ctx.stack_.push(keep.slot);
  }

  // Context-free read: no announcement slot, so no protection against the
  // descriptor being recycled mid-read — instead, validate. The value is
  // correct if (a) seq was even and unchanged around the value load: no
  // rewrite raced us, so `v` is the value some tenure of descriptor `d`
  // published; and (b) the variable still holds `d` afterwards: because the
  // buf re-read is seq_cst-after the install CAS it observes, every rewrite
  // that install released happens-before our seq/value loads — a *stale*
  // seq/value pair with a *fresh* install is impossible, so the stable pair
  // we read is the installed tenure's, and `v` was this variable's value at
  // the re-read. Returning first-iteration values when run solo keeps the
  // DFS explorer loop-free: every retry implies another thread's install or
  // rewrite step in between.
  value_type read(const Var& var) const {
    for (;;) {
      MOIR_YIELD_READ(&var);
      const std::uint32_t d = index(var.buf_);
      const Descriptor& desc = pool_.node(d);
      MOIR_YIELD_READ(&desc);
      const std::uint64_t s1 = desc.seq.load(std::memory_order_acquire);
      if ((s1 & 1) != 0) {
        stats::count(stats::Id::kBwHelp, 1, &var);
        continue;  // mid-rewrite: d was recycled; re-read the pointer
      }
      const std::uint64_t v = desc.value.load(std::memory_order_acquire);
      MOIR_YIELD_STEP(
          ::moir::testing::StepInfo::read(&desc).also_read(&var));
      if (desc.seq.load(std::memory_order_relaxed) == s1 &&
          index(var.buf_) == d) {
        durability_.persist_observed(var.buf_, d);  // P3
        return v;
      }
      stats::count(stats::Id::kBwHelp, 1, &var);
    }
  }

  value_type max_value() const { return low_mask(ValBits); }
  const char* name() const {
    return SkipAnnounce ? "bw-llsc-no-announce(broken)" : Durability::kName;
  }

  unsigned n_processes() const { return n_; }
  unsigned k() const { return k_; }
  std::uint32_t scan_threshold() const { return threshold_; }
  LeaseRegistry<Durability::kCountMembers>& registry() { return registry_; }

  // --- space accounting (EXPERIMENTS.md E15) ------------------------------
  // Shared overhead: Nk announcement words plus the descriptor pool (two
  // words per descriptor, plus the allocator's two link words per block).
  std::size_t shared_overhead_words(std::size_t /*n_vars*/) const {
    return std::size_t{nk_} + std::size_t{pool_.capacity()} * 4;
  }

  // Quiescent diagnostics for conservation tests: descriptors neither free
  // in the pool nor parked on the orphan stack are installed or in limbo.
  std::uint32_t pool_free_quiescent() const {
    return pool_.free_count_quiescent();
  }
  std::uint32_t orphans_quiescent() const {
    std::uint32_t n = 0;
    std::uint32_t enc = static_cast<std::uint32_t>(
        orphans_.load(std::memory_order_acquire) & 0xffffffffull);
    while (enc != 0 && n <= pool_.capacity()) {
      ++n;
      enc = orphan_next_(enc - 1).load(std::memory_order_relaxed);
    }
    return n;
  }
  std::uint32_t pool_capacity() const { return pool_.capacity(); }

 protected:
  // For the durable substrate's descriptor attach and crash recovery.
  Pool& pool() { return pool_; }
  Durability& durability() { return durability_; }
  const Durability& durability() const { return durability_; }

 private:
  // The var word's own value type; descriptor indices fit in 32 bits.
  using WordValue = decltype(std::declval<const VarWord&>().load());

  static std::uint32_t index(
      const VarWord& word, std::memory_order mo = std::memory_order_seq_cst) {
    return static_cast<std::uint32_t>(word.load(mo));
  }

  std::atomic<std::uint32_t>& announce(unsigned pid, unsigned slot) {
    MOIR_ASSERT(pid < n_ && slot < k_);
    return ann_[pid * k_ + slot];
  }

  // Rounds of {scan; alloc} a dry allocator retries, while no scan holds
  // an adopted orphan pile, before declaring the pool undersized.
  static constexpr unsigned kDryRetries = 256;

  std::uint32_t alloc_desc(ThreadCtx& ctx) {
    if (const auto d = pool_.alloc(ctx.alloc_)) return *d;
    // Pool dry. Under membership churn this state is usually transient
    // rather than a sizing error: every leave parks the leaver's limbo on
    // the orphan stack, the pile between scans is unbounded (it scales
    // with churn rate, which no Config field caps), and a concurrent
    // scanner that adopted the pile holds every reclaimable descriptor in
    // its private limbo until its free loop has spilled them back chunk by
    // chunk. So: scan (harvesting our limbo plus any orphans that have
    // landed since) and retry with backoff while the blocks surface. A
    // round counts toward the bound only while no scan holds a pile: a
    // preempted holder can outlast any fixed number of rounds, and its
    // blocks still come back. The bound keeps genuine exhaustion (more
    // live Vars and in-flight sequences than the pool was provisioned
    // for) a loud failure instead of a livelock.
    SpinWait backoff;
    for (unsigned idle = 0; idle < kDryRetries;) {
      scan(ctx);
      if (const auto d = pool_.alloc(ctx.alloc_)) return *d;
      if (pile_holders_.load(std::memory_order_acquire) == 0) ++idle;
      backoff.pause();
    }
    MOIR_ASSERT_MSG(false,
                    "descriptor pool exhausted: more live Vars or in-flight "
                    "sequences than Config::reserve provisioned for");
    return kNone;
  }

  void retire(ThreadCtx& ctx, std::uint32_t d) {
    ctx.limbo_.push_back(d);
    if (ctx.limbo_.size() >= threshold_) scan(ctx);
  }

  // Frees every limbo descriptor no announcement slot currently names.
  // Runs every >= threshold_ retirements; since at most Nk retirees can be
  // announced, each scan frees >= threshold_ - Nk blocks, amortizing its
  // Θ(Nk + |limbo|) cost to O(1) per SC with the default threshold.
  void scan(ThreadCtx& ctx) {
    // Touches the whole announcement array and the orphan stack: declare it
    // opaque rather than enumerate an unbounded footprint.
    MOIR_YIELD_POINT();
    const bool holding = adopt_orphans(ctx);
    ctx.scratch_.clear();
    for (unsigned i = 0; i < nk_; ++i) {
      const std::uint32_t a = ann_[i].load(std::memory_order_seq_cst);
      if (a != kNone) ctx.scratch_.push_back(a);
    }
    std::sort(ctx.scratch_.begin(), ctx.scratch_.end());
    std::uint64_t freed = 0;
    std::size_t kept = 0;
    for (const std::uint32_t d : ctx.limbo_) {
      if (std::binary_search(ctx.scratch_.begin(), ctx.scratch_.end(), d)) {
        ctx.limbo_[kept++] = d;  // still announced: stays in limbo
      } else {
        pool_.free(ctx.alloc_, d);
        ++freed;
      }
    }
    ctx.limbo_.resize(kept);
    if (holding) pile_holders_.fetch_sub(1, std::memory_order_release);
    if (freed != 0) stats::count(stats::Id::kBwAllocReuse, freed, this);
  }

  // Orphan stack: limbo of destroyed contexts, linked through a side array
  // (descriptors stay untouched), {version:32, idx+1:32} head against ABA.
  std::atomic<std::uint32_t>& orphan_next_(std::uint32_t idx) const {
    return orphan_links_[idx];
  }

  void push_orphan(std::uint32_t d) {
    std::uint64_t head = orphans_.load(std::memory_order_relaxed);
    for (;;) {
      orphan_next_(d).store(static_cast<std::uint32_t>(head & 0xffffffffull),
                            std::memory_order_relaxed);
      const std::uint64_t version = (head >> 32) + 1;
      if (orphans_.compare_exchange_weak(head, (version << 32) | (d + 1),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        return;
      }
    }
  }

  // Moves the whole orphan stack into ctx's limbo; true if it was not
  // empty, in which case the caller holds the pile until its scan ends.
  bool adopt_orphans(ThreadCtx& ctx) {
    std::uint64_t head = orphans_.load(std::memory_order_acquire);
    for (;;) {
      if (static_cast<std::uint32_t>(head & 0xffffffffull) == 0) return false;
      const std::uint64_t version = (head >> 32) + 1;
      if (orphans_.compare_exchange_weak(head, version << 32,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        break;
      }
    }
    pile_holders_.fetch_add(1, std::memory_order_relaxed);
    std::uint32_t enc = static_cast<std::uint32_t>(head & 0xffffffffull);
    while (enc != 0) {
      ctx.limbo_.push_back(enc - 1);
      enc = orphan_next_(enc - 1).load(std::memory_order_relaxed);
    }
    return true;
  }

  const unsigned n_;
  const unsigned k_;
  const unsigned nk_;
  const std::uint32_t threshold_;
  LeaseRegistry<Durability::kCountMembers> registry_;
  // A: array[0..N-1][0..k-1] of descriptor indices (kNone = empty).
  std::unique_ptr<std::atomic<std::uint32_t>[]> ann_;
  Pool pool_;
  std::atomic<std::uint64_t> orphans_{0};
  // Scans between adopting a non-empty orphan pile and freeing it.
  std::atomic<unsigned> pile_holders_{0};
  // Per-descriptor orphan-stack link (idx+1 encoding), sized with the pool.
  std::unique_ptr<std::atomic<std::uint32_t>[]> orphan_links_;
  [[no_unique_address]] Durability durability_;
};

template <unsigned ValBits = 64>
using BwLlsc = BwLlscImpl<ValBits>;

// Planted bug (negative control): LL dereferences without announcing.
template <unsigned ValBits = 64>
using BwLlscNoAnnounce = BwLlscImpl<ValBits, Volatile, true>;

}  // namespace moir
