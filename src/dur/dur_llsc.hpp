// Writable durable LL/SC from pointer-width CAS over simulated persistent
// memory (after Jayanti, Jayanti & Joshi, arXiv:2302.00135) — the `figdur`
// family, with dynamic member joining.
//
// Volatile skeleton: Blelloch–Wei weak LL/SC (core/bw_llsc.hpp). Each Var
// is a single word holding the index of an immutable value descriptor; SC
// swings it with one CAS; LL announces the descriptor before dereferencing
// (hazard-pointer handshake); retired descriptors recycle only after a scan
// of all announcements. See bw_llsc.hpp for why pointer identity makes VL a
// load and SC a CAS with no tag bits.
//
// Durability is added with three persist barriers (dur/pmem.hpp):
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
//        quiet variable from inflating the DFS tree.
//
// All three barriers persist a word whose volatile value may have advanced
// past the one the barrier "wanted" to persist. That is always sound here:
// var words and descriptor values only move forward along install order,
// and persisting a later state durably covers every earlier one (the
// skipped states are exactly those a crash immediately after a later SC's
// P2 would also skip).
//
// Dynamic joining: where figbw sizes its announcement array for a fixed N
// at construction, figdur leases member ids from a counted LeaseRegistry
// (join/leave under load, ids dense and reused) and grows the announcement
// store on demand in segments of kSegMembers members, installed by CAS on a
// segment-pointer table (losing allocators delete their copy). The scan
// walks only [0, high_water) and the retire threshold scales with the
// current high-water mark, so a mostly-idle wide ceiling costs nothing.
//
// Recovery: restore() loads a crash image (durable words only) into an
// identically constructed fresh instance; recover() reads each var's word,
// marks the named descriptors live, and rebuilds the allocator free list
// from scratch (rebuild_free_quiescent), so descriptors lost mid-flight in
// the crash — allocated but never installed, or retired but still in a
// (volatile, now vanished) limbo list — all return to the pool: crashes
// cannot leak descriptors. Announcements, limbo, and membership are
// volatile by design and start empty.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/lease_registry.hpp"
#include "core/slot_stack.hpp"
#include "dur/pmem.hpp"
#include "platform/yield_point.hpp"
#include "reclaim/bw_allocator.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"
#include "util/backoff.hpp"
#include "util/bits.hpp"

namespace moir::dur {

template <unsigned ValBits = 64, bool SkipPersist = false>
class DurLlscImpl {
  static_assert(ValBits >= 1 && ValBits <= 64);

 public:
  using value_type = std::uint64_t;

  static constexpr unsigned kValBits = ValBits;
  static constexpr std::uint64_t kNone = 0xffffffffull;
  // Members per on-demand announcement segment.
  static constexpr unsigned kSegMembers = 8;

  // `value` is durable (P1 persists it before install); `seq` is the
  // volatile seqlock generation for context-free readers — recovery resets
  // it (a fresh instance's descriptors start even), which is sound because
  // recovery is quiescent and every post-recovery reader starts fresh.
  struct Descriptor {
    DurWord value;
    std::atomic<std::uint64_t> seq{0};
  };

  using Pool = reclaim::BwBlockAllocator<Descriptor>;

  struct Config {
    // Descriptors reserved for installed values: one per init_var'd Var.
    std::uint32_t reserve = 1u << 10;
    // Allocator chunk size (see reclaim/bw_allocator.hpp).
    std::uint32_t chunk = 16;
    // Retired descriptors a context accumulates before scanning. 0 = auto:
    // high_water*k + chunk, recomputed as members join, so the scan cost
    // tracks the population actually seen rather than the ceiling.
    std::uint32_t scan_threshold = 0;
    // Concurrent-membership ceiling (generous; sizes the segment table and
    // the worst-case descriptor pool, not any per-operation cost).
    std::uint32_t max_members = 64;
  };

  class Var {
   public:
    Var() = default;
    Var(const Var&) = delete;
    Var& operator=(const Var&) = delete;

   private:
    friend class DurLlscImpl;
    // Durable word holding the current descriptor index. Mutable so the
    // const read path can run its P3 persist — persisting changes no
    // observable (volatile) state.
    mutable DurWord buf_{kNone};
  };

  struct Keep {
    std::uint64_t desc = kNone;
    unsigned slot = 0;
  };

  class ThreadCtx {
   public:
    ThreadCtx(ThreadCtx&& other) noexcept
        : domain_(other.domain_),
          mid_(other.mid_),
          stack_(std::move(other.stack_)),
          alloc_(std::move(other.alloc_)),
          limbo_(std::move(other.limbo_)),
          scratch_(std::move(other.scratch_)) {
      other.domain_ = nullptr;
    }
    ThreadCtx(const ThreadCtx&) = delete;
    ThreadCtx& operator=(const ThreadCtx&) = delete;
    ThreadCtx& operator=(ThreadCtx&&) = delete;

    // Leaving members park retired-but-announced descriptors on the orphan
    // stack (a later scan adopts them) and return their membership lease —
    // a joiner may reuse the id, and with it the announcement slots, which
    // is why the dtor clears them first.
    ~ThreadCtx() {
      if (domain_ == nullptr) return;
      MOIR_ASSERT_MSG(stack_.available() == domain_->k_,
                      "ThreadCtx destroyed with an open LL-SC sequence");
      for (unsigned s = 0; s < domain_->k_; ++s) {
        domain_->announce(mid_, s).store(static_cast<std::uint32_t>(kNone),
                                         std::memory_order_seq_cst);
      }
      for (const std::uint32_t d : limbo_) domain_->push_orphan(d);
      limbo_.clear();
      domain_->reg_.release(mid_);
    }

    unsigned member_id() const { return mid_; }

   private:
    friend class DurLlscImpl;
    ThreadCtx(DurLlscImpl* domain, unsigned mid, unsigned k,
              typename Pool::ThreadCtx alloc)
        : domain_(domain), mid_(mid), stack_(k), alloc_(std::move(alloc)) {}

    DurLlscImpl* domain_;
    unsigned mid_;
    SlotStack stack_;
    typename Pool::ThreadCtx alloc_;
    std::vector<std::uint32_t> limbo_;    // retired, not yet proven safe
    std::vector<std::uint32_t> scratch_;  // scan's announcement snapshot
  };

  // `k` = max concurrent LL-SC sequences per member. Membership itself is
  // dynamic, bounded only by cfg.max_members.
  explicit DurLlscImpl(unsigned k = 2, Config cfg = {})
      : k_(k),
        chunk_(cfg.chunk),
        fixed_threshold_(cfg.scan_threshold),
        reg_(cfg.max_members),
        n_segments_((cfg.max_members + kSegMembers - 1) / kSegMembers),
        segments_(
            std::make_unique<std::atomic<std::atomic<std::uint32_t>*>[]>(
                n_segments_)),
        pool_(cfg.reserve +
                  cfg.max_members *
                      (max_threshold(cfg, k) + 3 * cfg.chunk + k + 1),
              [](Descriptor&) {}, cfg.chunk, /*poison=*/false),
        orphan_links_(std::make_unique<std::atomic<std::uint32_t>[]>(
            pool_.capacity())) {
    MOIR_ASSERT(k >= 1 && cfg.max_members >= 1);
    MOIR_ASSERT_MSG(pool_.capacity() < kNone,
                    "descriptor pool too large for 32-bit indices");
    for (unsigned i = 0; i < n_segments_; ++i) {
      segments_[i].store(nullptr, std::memory_order_relaxed);
    }
    // Attach every descriptor's durable value word, in index order: the
    // crash/recovery protocol needs the crashed and recovered instances to
    // attach identical word sequences (dur/pmem.hpp snapshot contract).
    for (std::uint32_t i = 0; i < pool_.capacity(); ++i) {
      pmem_.attach(pool_.node(i).value);
    }
  }

  ~DurLlscImpl() {
    for (unsigned i = 0; i < n_segments_; ++i) {
      delete[] segments_[i].load(std::memory_order_relaxed);
    }
  }

  DurLlscImpl(const DurLlscImpl&) = delete;
  DurLlscImpl& operator=(const DurLlscImpl&) = delete;

  // Joins the membership (growing the announcement store if this id lands
  // in a segment nobody has touched yet) and leases allocator cache state.
  // Unlike figbw there is no fixed N to outgrow: join under load is the
  // point of the dynamic membership; only max_members bounds it.
  ThreadCtx make_ctx() {
    const unsigned mid = reg_.acquire();
    ensure_segment(mid / kSegMembers);
    return ThreadCtx(this, mid, k_, pool_.make_ctx());
  }

  // Quiescent-only, matching every other substrate's init_var contract.
  // First init of a Var attaches its durable word to the pmem domain —
  // init_var call order therefore defines the tail of the snapshot layout.
  void init_var(Var& var, value_type initial) {
    MOIR_ASSERT(initial <= max_value());
    std::uint64_t d = var.buf_.load(std::memory_order_relaxed);
    const bool fresh_var = (d == kNone);
    if (fresh_var) {
      const auto fresh = pool_.alloc();
      MOIR_ASSERT_MSG(fresh.has_value(),
                      "descriptor pool exhausted in init_var; raise "
                      "Config::reserve above the number of Vars");
      d = *fresh;
    }
    Descriptor& desc = pool_.node(static_cast<std::uint32_t>(d));
    const std::uint64_t s = desc.seq.load(std::memory_order_relaxed);
    desc.seq.store(s + 1, std::memory_order_relaxed);
    desc.value.store(initial, std::memory_order_release);
    desc.seq.store(s + 2, std::memory_order_release);
    pmem_.persist_quiescent(desc.value);
    var.buf_.store(d, std::memory_order_seq_cst);
    pmem_.persist_quiescent(var.buf_);
    if (fresh_var) {
      pmem_.attach(var.buf_);
      vars_.push_back(&var);
    }
  }

  // LL: announce/re-read handshake (see bw_llsc.hpp), then the P3
  // link-and-persist barrier before returning the dereferenced value.
  value_type ll(ThreadCtx& ctx, const Var& var, Keep& keep) {
    keep.slot = ctx.stack_.pop();
    MOIR_YIELD_READ(&var);
    std::uint64_t d = var.buf_.load(std::memory_order_seq_cst);
    std::atomic<std::uint32_t>& ann = announce(ctx.mid_, keep.slot);
    for (;;) {
      MOIR_YIELD_WRITE(&ann);
      ann.store(static_cast<std::uint32_t>(d), std::memory_order_seq_cst);
      stats::count(stats::Id::kBwAnnounce, 1, &var);
      MOIR_YIELD_READ(&var);
      const std::uint64_t cur = var.buf_.load(std::memory_order_seq_cst);
      if (cur == d) break;
      // A retry implies a concurrent SC installed `cur`: lock-free.
      stats::count(stats::Id::kBwHelp, 1, &var);
      d = cur;
    }
    // P3: the install we are about to expose must be durable first. Skipped
    // (no yield point) when a prior P2/P3 already covered it.
    if (var.buf_.durable() != d) pmem_.persist(var.buf_);
    keep.desc = d;
    MOIR_YIELD_READ(&desc_at(d));
    return desc_at(d).value.load(std::memory_order_acquire);
  }

  // VL: one load; the announced descriptor cannot have been recycled, so
  // pointer equality is exactly "no successful SC since my LL".
  bool vl(ThreadCtx&, const Var& var, const Keep& keep) const {
    MOIR_YIELD_READ(&var);
    return var.buf_.load(std::memory_order_seq_cst) == keep.desc;
  }

  bool sc(ThreadCtx& ctx, Var& var, const Keep& keep, value_type newval) {
    MOIR_ASSERT(newval <= max_value());
    const std::uint32_t nd = alloc_desc(ctx);
    Descriptor& desc = pool_.node(nd);
    // Seqlock rewrite: odd seq -> value -> even seq (bw_llsc.hpp explains
    // the context-free-reader handshake).
    MOIR_YIELD_WRITE(&desc);
    const std::uint64_t s = desc.seq.load(std::memory_order_relaxed);
    desc.seq.store(s + 1, std::memory_order_relaxed);
    desc.value.store(newval, std::memory_order_release);
    desc.seq.store(s + 2, std::memory_order_release);
    // P1: payload durable before its index can become visible anywhere.
    pmem_.persist(desc.value);

    MOIR_YIELD_STEP(::moir::testing::StepInfo::update(&var).also_write(
        &announce(ctx.mid_, keep.slot)));
    std::uint64_t expected = keep.desc;
    const bool ok = var.buf_.compare_exchange_strong(
        expected, nd, std::memory_order_seq_cst);
    if (ok && !SkipPersist) {
      // P2: durable word must leave keep.desc behind before keep.desc can
      // be retired (and eventually recycled). Conditional like P3: a
      // concurrent reader's persist may have covered us already.
      if (var.buf_.durable() != nd) pmem_.persist(var.buf_);
    }
    // Close the sequence only AFTER the CAS: clearing the announcement
    // first would let a scan recycle keep.desc and a concurrent SC
    // re-install it, making the CAS succeed spuriously (ABA).
    announce(ctx.mid_, keep.slot)
        .store(static_cast<std::uint32_t>(kNone), std::memory_order_release);
    ctx.stack_.push(keep.slot);
    if (ok) {
      retire(ctx, static_cast<std::uint32_t>(keep.desc));
    } else {
      pool_.free(ctx.alloc_, nd);  // never published; nobody saw it
    }
    stats::count(ok ? stats::Id::kScSuccess : stats::Id::kScFail, 1, &var);
    return ok;
  }

  // CL: abandon the sequence, releasing its announcement slot.
  void cl(ThreadCtx& ctx, const Keep& keep) {
    std::atomic<std::uint32_t>& ann = announce(ctx.mid_, keep.slot);
    MOIR_YIELD_WRITE(&ann);
    ann.store(static_cast<std::uint32_t>(kNone), std::memory_order_release);
    ctx.stack_.push(keep.slot);
  }

  // Context-free read: seqlock validation exactly as in bw_llsc.hpp (see
  // its read() for the step-by-step argument), plus the P3 barrier — a
  // value may only be returned once the install it came from is durable.
  value_type read(const Var& var) const {
    for (;;) {
      MOIR_YIELD_READ(&var);
      const std::uint64_t d = var.buf_.load(std::memory_order_seq_cst);
      const Descriptor& desc = desc_at(d);
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
          var.buf_.load(std::memory_order_seq_cst) == d) {
        if (var.buf_.durable() != d) pmem_.persist(var.buf_);
        return v;
      }
      stats::count(stats::Id::kBwHelp, 1, &var);
    }
  }

  value_type max_value() const { return low_mask(ValBits); }
  const char* name() const {
    return SkipPersist ? "dur-llsc-no-persist(broken)" : "dur-llsc(figdur)";
  }

  unsigned k() const { return k_; }
  LeaseRegistry<true>& registry() { return reg_; }
  PmemDomain& pmem() { return pmem_; }

  // --- crash / recovery ----------------------------------------------------
  // The durable image a crash right now would leave (dur/pmem.hpp layout:
  // all descriptor values in index order, then var words in init order).
  std::vector<std::uint64_t> snapshot() const { return pmem_.snapshot(); }

  // Rebuilds volatile state from the durable words. Quiescent-only: run on
  // a freshly constructed instance (same Config, same init_var sequence)
  // after restore(), before any ThreadCtx exists. Every descriptor not
  // named by some var's durable word returns to the pool — in-flight
  // allocations and volatile limbo lists from before the crash cannot leak.
  void recover() {
    std::vector<char> in_use(pool_.capacity(), 0);
    for (Var* v : vars_) {
      const std::uint64_t d = v->buf_.load(std::memory_order_relaxed);
      MOIR_ASSERT_MSG(d != kNone && d < pool_.capacity(),
                      "durable var word names no valid descriptor — was the "
                      "crash image taken before the var's first init?");
      in_use[static_cast<std::size_t>(d)] = 1;
    }
    pool_.rebuild_free_quiescent(
        [&](std::uint32_t i) { return in_use[i] != 0; });
    stats::count(stats::Id::kDurRecover, 1, this);
  }

  void restore_and_recover(const std::vector<std::uint64_t>& image) {
    pmem_.restore(image);
    recover();
  }

  // --- quiescent diagnostics (conservation tests) --------------------------
  std::uint32_t pool_free_quiescent() const {
    return pool_.free_count_quiescent();
  }
  std::uint32_t orphans_quiescent() const {
    std::uint32_t n = 0;
    std::uint32_t enc = static_cast<std::uint32_t>(
        orphans_.load(std::memory_order_acquire) & 0xffffffffull);
    while (enc != 0 && n <= pool_.capacity()) {
      ++n;
      enc = orphan_links_[enc - 1].load(std::memory_order_relaxed);
    }
    return n;
  }
  std::uint32_t pool_capacity() const { return pool_.capacity(); }

 private:
  // Largest value current_threshold() can reach — high_water is capped by
  // max_members — used to size the pool for the worst case up front.
  static std::uint32_t max_threshold(const Config& cfg, unsigned k) {
    return cfg.scan_threshold != 0 ? cfg.scan_threshold
                                   : cfg.max_members * k + cfg.chunk;
  }

  Descriptor& desc_at(std::uint64_t d) const {
    return const_cast<Pool&>(pool_).node(static_cast<std::uint32_t>(d));
  }

  // Announcement slot for (member, slot). The member's segment is
  // guaranteed installed: make_ctx() ensured it before the ctx existed.
  std::atomic<std::uint32_t>& announce(unsigned mid, unsigned slot) {
    MOIR_ASSERT(mid < reg_.capacity() && slot < k_);
    std::atomic<std::uint32_t>* seg =
        segments_[mid / kSegMembers].load(std::memory_order_seq_cst);
    MOIR_ASSERT(seg != nullptr);
    return seg[(mid % kSegMembers) * k_ + slot];
  }

  // Installs segment `s` if absent. Losing allocators delete their copy;
  // seq_cst on the install and on scan's pointer loads makes "scanner saw
  // null" imply "no member of this segment had announced before the scan".
  void ensure_segment(unsigned s) {
    MOIR_ASSERT(s < n_segments_);
    if (segments_[s].load(std::memory_order_seq_cst) != nullptr) return;
    auto* fresh = new std::atomic<std::uint32_t>[kSegMembers * k_];
    for (unsigned i = 0; i < kSegMembers * k_; ++i) {
      fresh[i].store(static_cast<std::uint32_t>(kNone),
                     std::memory_order_relaxed);
    }
    std::atomic<std::uint32_t>* expected = nullptr;
    if (!segments_[s].compare_exchange_strong(expected, fresh,
                                              std::memory_order_seq_cst)) {
      delete[] fresh;
    }
  }

  // Retire threshold: fixed if configured, else scaled to the population
  // actually seen (high_water * k announcement slots can pin at most that
  // many retirees, so every scan still frees >= chunk blocks).
  std::uint32_t current_threshold() const {
    if (fixed_threshold_ != 0) return fixed_threshold_;
    return reg_.high_water() * k_ + chunk_;
  }

  // Rounds of {scan; alloc} a dry allocator retries before declaring the
  // pool undersized. Generous: each round only needs the concurrent
  // scanner it is waiting out (see below) to advance a few steps.
  static constexpr unsigned kDryRetries = 256;

  std::uint32_t alloc_desc(ThreadCtx& ctx) {
    if (const auto d = pool_.alloc(ctx.alloc_)) return *d;
    // Pool dry. Unlike figbw's fixed membership, churn makes this state
    // usually transient rather than a sizing error: every leave parks the
    // leaver's limbo on the orphan stack, the pile between scans is
    // unbounded (it scales with churn rate, which no Config field caps),
    // and a concurrent scanner that adopted the pile holds every
    // reclaimable descriptor in its private limbo until its free loop has
    // spilled them back chunk by chunk. So: scan (harvesting our limbo
    // plus any orphans that have landed since) and retry with backoff
    // while the blocks surface. Backoff only delays the retry — lock
    // freedom is untouched — and the bound keeps genuine exhaustion (more
    // live Vars and in-flight sequences than the pool was provisioned
    // for) a loud, immediate failure instead of a livelock.
    SpinWait backoff;
    for (unsigned round = 0; round < kDryRetries; ++round) {
      scan(ctx);
      if (const auto d = pool_.alloc(ctx.alloc_)) return *d;
      backoff.pause();
    }
    MOIR_ASSERT_MSG(false,
                    "descriptor pool exhausted: more live Vars or in-flight "
                    "sequences than Config::reserve provisioned for");
    return static_cast<std::uint32_t>(kNone);
  }

  void retire(ThreadCtx& ctx, std::uint32_t d) {
    ctx.limbo_.push_back(d);
    if (ctx.limbo_.size() >= current_threshold()) scan(ctx);
  }

  // Frees every limbo descriptor no announcement slot currently names.
  // Walks only the segments of members ever minted ([0, high_water)); a
  // null segment pointer means no member in it ever completed a join, so
  // none can have announced (see ensure_segment).
  void scan(ThreadCtx& ctx) {
    MOIR_YIELD_POINT();  // opaque: touches announcements + orphan stack
    adopt_orphans(ctx);
    ctx.scratch_.clear();
    const unsigned hw = reg_.high_water();
    for (unsigned mid = 0; mid < hw; ++mid) {
      std::atomic<std::uint32_t>* seg =
          segments_[mid / kSegMembers].load(std::memory_order_seq_cst);
      if (seg == nullptr) continue;
      for (unsigned slot = 0; slot < k_; ++slot) {
        const std::uint32_t a = seg[(mid % kSegMembers) * k_ + slot].load(
            std::memory_order_seq_cst);
        if (a != static_cast<std::uint32_t>(kNone)) {
          ctx.scratch_.push_back(a);
        }
      }
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
    if (freed != 0) stats::count(stats::Id::kBwAllocReuse, freed, this);
  }

  // Orphan stack: limbo of departed members, linked through a side array,
  // {version:32, idx+1:32} head against ABA (same as bw_llsc.hpp).
  void push_orphan(std::uint32_t d) {
    std::uint64_t head = orphans_.load(std::memory_order_relaxed);
    for (;;) {
      orphan_links_[d].store(static_cast<std::uint32_t>(head & 0xffffffffull),
                             std::memory_order_relaxed);
      const std::uint64_t version = (head >> 32) + 1;
      if (orphans_.compare_exchange_weak(head, (version << 32) | (d + 1),
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
        return;
      }
    }
  }

  void adopt_orphans(ThreadCtx& ctx) {
    std::uint64_t head = orphans_.load(std::memory_order_acquire);
    for (;;) {
      if (static_cast<std::uint32_t>(head & 0xffffffffull) == 0) return;
      const std::uint64_t version = (head >> 32) + 1;
      if (orphans_.compare_exchange_weak(head, version << 32,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        break;
      }
    }
    std::uint32_t enc = static_cast<std::uint32_t>(head & 0xffffffffull);
    while (enc != 0) {
      ctx.limbo_.push_back(enc - 1);
      enc = orphan_links_[enc - 1].load(std::memory_order_relaxed);
    }
  }

  const unsigned k_;
  const std::uint32_t chunk_;
  const std::uint32_t fixed_threshold_;
  LeaseRegistry<true> reg_;
  const unsigned n_segments_;
  // Announcement segments, installed on demand (kSegMembers * k slots each).
  std::unique_ptr<std::atomic<std::atomic<std::uint32_t>*>[]> segments_;
  Pool pool_;
  PmemDomain pmem_;
  std::vector<Var*> vars_;  // init order = durable snapshot tail layout
  std::atomic<std::uint64_t> orphans_{0};
  std::unique_ptr<std::atomic<std::uint32_t>[]> orphan_links_;
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
