// Static software transactional memory over the paper's LL/VL/SC.
//
// Section 5 of the paper argues, against Greenwald & Cheriton, that
// software transactional memory [Shavit–Touitou, PODC'95] *can* be hosted
// on existing machines because the primitives it needs can be emulated —
// this module is that claim made executable. It is a static STM in the
// ST sense: a transaction declares its (sorted) data set up front and its
// body is a deterministic function of the values read, so any process can
// re-execute it on the owner's behalf.
//
// Design (ST/Barnes-style cooperative two-phase locking with helping):
//  * Memory is an array of cells, each a Figure-4 LL/VL/SC variable whose
//    31-bit payload is either a value or a lock record {owner pid, seq}.
//  * Each pid owns one transaction descriptor, reused across transactions
//    (and across the ctxs that lease the pid in turn) and versioned by
//    `seq`. All mutations of cells are SCs whose expected word embeds the
//    substrate tag, so stale helpers can never corrupt a cell (their SCs
//    fail).
//  * Acquisition is in ascending address order, which rules out help
//    cycles; a process blocked by a lock helps the lock's owner to
//    completion, making the construction lock-free: every retry or abort
//    is caused by another transaction's successful step.
//  * Each cell's pre-lock value is recorded in the descriptor by a
//    seq-tagged claim-once slot BEFORE the lock is taken, so all helpers
//    agree on the read set and an orphaned lock can never be created.
//  * Descriptor reuse is made safe by a helper count: help() registers
//    itself and revalidates seq, and a process starting a new transaction
//    first bumps seq (turning away new helpers) and waits for registered
//    helpers to drain. This wait is bounded — a registered helper finishes
//    its sweep in O(set size) of its own steps — and is the one place the
//    construction trades pure lock-freedom for descriptor reuse, as
//    documented in DESIGN.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/llsc_from_cas.hpp"
#include "core/lease_registry.hpp"
#include "platform/yield_point.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"
#include "util/backoff.hpp"
#include "util/cache.hpp"

namespace moir {

class Stm {
 public:
  // Transaction body: news[i] := f(olds) for each declared cell, computed
  // deterministically from olds and arg only. Values are 31-bit.
  using TxOp = void (*)(const std::uint64_t* olds, std::uint64_t* news,
                        unsigned n, std::uint64_t arg);

  static constexpr unsigned kMaxTxCells = 8;
  static constexpr std::uint64_t kMaxValue = (1u << 31) - 1;

  // Move-only lease on a pid, returned when the ctx is destroyed. The
  // descriptor and its seq live in desc_[pid], not here, so the pid's next
  // holder continues the incarnation sequence: its first try_transact
  // bumps seq and drains helpers exactly as this holder's next
  // transaction would have. `n_processes` thus bounds concurrent ctxs.
  class ThreadCtx {
   public:
    ThreadCtx(ThreadCtx&& other) noexcept
        : owner_(std::exchange(other.owner_, nullptr)), pid_(other.pid_) {}
    ThreadCtx& operator=(ThreadCtx&&) = delete;
    ThreadCtx(const ThreadCtx&) = delete;

    ~ThreadCtx() {
      if (owner_ != nullptr) owner_->registry_.release(pid_);
    }

    unsigned pid() const { return pid_; }

   private:
    friend class Stm;
    ThreadCtx(Stm* owner, unsigned pid) : owner_(owner), pid_(pid) {}

    Stm* owner_;
    unsigned pid_;
  };

  Stm(unsigned n_processes, std::size_t n_cells)
      : n_(n_processes), cells_(n_cells), desc_(n_processes),
        registry_(n_processes) {
    MOIR_ASSERT(n_processes >= 1 && n_processes <= 256);
    // cells_ value-initialized all cells to 0 already.
  }

  ThreadCtx make_ctx() { return ThreadCtx(this, registry_.acquire()); }

  std::size_t size() const { return cells_.size(); }

  // Non-transactional initialization (before concurrent use only).
  void set_initial(std::size_t cell, std::uint64_t value) {
    MOIR_ASSERT(value <= kMaxValue);
    Cells::Var tmp(value);
    // Vars are not assignable; re-init in place through the substrate.
    cells_[cell].~Var();
    new (&cells_[cell]) Cells::Var(value);
  }

  struct TxResult {
    bool committed = false;
    unsigned aborts = 0;  // failed attempts before the commit
    std::uint64_t olds[kMaxTxCells] = {};
  };

  // Runs the transaction to commitment, retrying aborted attempts.
  // `addrs` must be sorted, duplicate-free cell indices.
  TxResult transact(ThreadCtx& ctx, std::span<const std::uint32_t> addrs,
                    TxOp op, std::uint64_t arg) {
    TxResult result;
    SpinWait backoff;
    while (!try_transact(ctx, addrs, op, arg, result)) {
      ++result.aborts;
      MOIR_YIELD_POINT();
      // An abort means a conflicting transaction won the cells: back off
      // before re-acquiring so repeated losers desynchronize (aborts stay
      // visible through stm_abort / the aborts-per-commit histogram).
      backoff.pause();
    }
    result.committed = true;
    stats::record(stats::HistId::kStmAbortsPerCommit, result.aborts);
    return result;
  }

  // Single attempt; returns false on abort (a concurrent conflict).
  bool try_transact(ThreadCtx& ctx, std::span<const std::uint32_t> addrs,
                    TxOp op, std::uint64_t arg, TxResult& result) {
    MOIR_ASSERT(addrs.size() >= 1 && addrs.size() <= kMaxTxCells);
    for (std::size_t i = 0; i + 1 < addrs.size(); ++i) {
      MOIR_ASSERT_MSG(addrs[i] < addrs[i + 1],
                      "transaction data set must be sorted and unique");
    }
    MOIR_ASSERT(addrs.back() < cells_.size());
    // Stamping mode: the write-back raises each changed cell's stamp
    // behind a locked CAS, which serializes their cache misses; start
    // them now so they overlap the acquire phase.
    if (stamps_ != nullptr) {
      for (const std::uint32_t a : addrs) __builtin_prefetch(&stamps_[a], 1);
    }

    Descriptor& d = *desc_[ctx.pid()];
    // Turn away new helpers, then wait for registered ones to drain.
    const std::uint32_t seq =
        d.seq.fetch_add(1, std::memory_order_seq_cst) + 1;
    while (d.helpers.load(std::memory_order_seq_cst) != 0) {
      // Under the ControlledScheduler this spin cannot make solo progress
      // (the registered helper needs to run), so expose a decision point —
      // a no-op in production builds.
      MOIR_YIELD_POINT();
      std::this_thread::yield();
    }
    // Reset the descriptor for this incarnation. Safe: no helper is
    // registered and none can register for the old seq anymore.
    d.n.store(static_cast<std::uint32_t>(addrs.size()),
              std::memory_order_relaxed);
    for (std::size_t i = 0; i < addrs.size(); ++i) {
      d.addrs[i].store(addrs[i], std::memory_order_relaxed);
      d.old[i].store(OldSlot::unset(seq), std::memory_order_relaxed);
    }
    d.op.store(op, std::memory_order_relaxed);
    d.arg.store(arg, std::memory_order_relaxed);
    d.wv.store(WvSlot::unset(seq), std::memory_order_relaxed);
    d.status.store(Status::make(seq, Status::kActive),
                   std::memory_order_seq_cst);

    run_phases(d, ctx.pid(), seq, /*depth=*/0);

    const std::uint64_t st = d.status.load(std::memory_order_seq_cst);
    if (Status::state(st) != Status::kCommitted) {
      aborts_.fetch_add(1, std::memory_order_relaxed);
      stats::count(stats::Id::kStmAbort, 1, this);
      return false;
    }
    commits_.fetch_add(1, std::memory_order_relaxed);
    stats::count(stats::Id::kStmCommit, 1, this);
    const unsigned n = d.n.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < n; ++i) {
      result.olds[i] =
          OldSlot::value(d.old[i].load(std::memory_order_relaxed));
    }
    return true;
  }

  // Transactional read of one cell (helps out in-flight writers).
  std::uint64_t read(ThreadCtx&, std::size_t cell) {
    SpinWait backoff;
    for (;;) {
      Cells::Keep keep;
      const std::uint64_t v = Cells::ll(cells_[cell], keep);
      if (!is_locked(v)) return v;
      help(lock_pid(v), lock_seq23(v), /*depth=*/0);
      // The owner may immediately relock for its next transaction; backing
      // off between helping rounds keeps the reader from racing it for the
      // cell line every iteration.
      backoff.pause();
    }
  }

  // One tagged observation of a cell, no helping. The tag is the
  // substrate's modification counter: every successful SC on the cell
  // (lock install, write-back, release) advances it, so two peeks
  // returning equal {tag, unlocked} bracket an interval in which the cell
  // was not written — the double-collect validation the txn layer's
  // multi-get builds on (docs/ALGORITHMS.md "tags as version counters").
  struct CellView {
    std::uint64_t value = 0;
    std::uint64_t tag = 0;
    bool locked = false;
    unsigned owner = 0;        // meaningful iff locked
    std::uint32_t owner_seq23 = 0;
  };

  CellView peek(std::size_t cell) {
    Cells::Keep keep;
    const std::uint64_t v = Cells::ll(cells_[cell], keep);
    CellView view;
    view.tag = keep.tag();
    view.locked = is_locked(v);
    if (view.locked) {
      view.owner = lock_pid(v);
      view.owner_seq23 = lock_seq23(v);
    } else {
      view.value = v;
    }
    return view;
  }

  // Drive the owner of a locked CellView to completion (public entry for
  // readers that observed the lock via peek() and want to clear it).
  void help_locked(const CellView& view) {
    MOIR_ASSERT(view.locked);
    help(view.owner, view.owner_seq23, /*depth=*/0);
  }

  // Diagnostics for tests: true if any cell is currently locked.
  bool any_cell_locked() {
    for (auto& c : cells_) {
      Cells::Keep keep;
      if (is_locked(Cells::ll(c, keep))) return true;
    }
    return false;
  }

  // TL2 layering hook (TxnKv, src/txn/): when enabled, every committed
  // transaction that CHANGES at least one cell value claims one fresh
  // value from the global version clock (fetch-add, after the commit
  // status CAS, before any write-back) and raises each changed cell's
  // stamp to it — monotonic fetch-max — BEFORE the write-back SC that
  // publishes the new value. An invisible reader that sampled the clock
  // as `rv` may then validate a cell it read as consistent-at-rv with
  // one check: unlocked && stamp <= rv, read AFTER the value. Soundness:
  // any commit whose clock draw postdates rv raises the stamp above rv
  // before its value can appear, and a commit that drew <= rv holds the
  // cell locked until its write-back lands (docs/ALGORITHMS.md
  // "invisible readers vs double-collect"). Aborts and commits that
  // write back unchanged values (e.g. comparison-failed MCAS) touch
  // neither the clock nor the stamps, so failed writers never disturb
  // readers. Call before any concurrent use; `stamps` must have one
  // slot per cell, zero-initialized. Raw pointers keep this module free
  // of any dependency on src/txn/.
  void enable_version_stamps(std::atomic<std::uint64_t>* clock,
                             std::atomic<std::uint64_t>* stamps) {
    clock_ = clock;
    stamps_ = stamps;
  }

  struct Stats {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t helps = 0;  // times one process drove another's txn
  };

  Stats stats() const {
    return Stats{commits_.load(std::memory_order_relaxed),
                 aborts_.load(std::memory_order_relaxed),
                 helps_.load(std::memory_order_relaxed)};
  }

 private:
  using Cells = LlscFromCas<32>;

  // --- cell payload encoding (31-bit values / lock records) --------------
  static constexpr std::uint64_t kLockBit = 1u << 31;
  static bool is_locked(std::uint64_t v) { return (v & kLockBit) != 0; }
  static std::uint64_t lock_word(unsigned pid, std::uint32_t seq) {
    return kLockBit | (static_cast<std::uint64_t>(pid & 0xff) << 23) |
           (seq & ((1u << 23) - 1));
  }
  static unsigned lock_pid(std::uint64_t v) {
    return static_cast<unsigned>((v >> 23) & 0xff);
  }
  static std::uint32_t lock_seq23(std::uint64_t v) {
    return static_cast<std::uint32_t>(v & ((1u << 23) - 1));
  }

  // --- descriptor field encodings ----------------------------------------
  struct Status {
    static constexpr std::uint64_t kActive = 0;
    static constexpr std::uint64_t kCommitted = 1;
    static constexpr std::uint64_t kAborted = 2;
    static std::uint64_t make(std::uint32_t seq, std::uint64_t state) {
      return (static_cast<std::uint64_t>(seq) << 2) | state;
    }
    static std::uint32_t seq(std::uint64_t w) {
      return static_cast<std::uint32_t>(w >> 2);
    }
    static std::uint64_t state(std::uint64_t w) { return w & 3; }
  };

  struct OldSlot {
    static std::uint64_t unset(std::uint32_t seq) {
      return static_cast<std::uint64_t>(seq) << 32;
    }
    static std::uint64_t set(std::uint32_t seq, std::uint64_t value) {
      return (static_cast<std::uint64_t>(seq) << 32) | (1u << 31) | value;
    }
    static bool is_set(std::uint64_t w) { return (w & (1u << 31)) != 0; }
    static std::uint32_t seq(std::uint64_t w) {
      return static_cast<std::uint32_t>(w >> 32);
    }
    static std::uint64_t value(std::uint64_t w) { return w & kMaxValue; }
  };

  // Claim-once write-version slot (stamping mode only): seq23 | set | wv.
  // The 23-bit seq tag mirrors the lock words' truncation — and shares
  // their 2^23-incarnation reuse caveat (DESIGN.md); the 40-bit version
  // field bounds the clock's domain, see the wraparound note in
  // docs/ALGORITHMS.md.
  struct WvSlot {
    static constexpr unsigned kWvBits = 40;
    static constexpr std::uint64_t kWvMask =
        (std::uint64_t{1} << kWvBits) - 1;
    static constexpr std::uint64_t kSetBit = std::uint64_t{1} << kWvBits;
    static std::uint64_t unset(std::uint32_t seq) {
      return static_cast<std::uint64_t>(seq_to_23(seq)) << (kWvBits + 1);
    }
    static std::uint64_t set(std::uint32_t seq, std::uint64_t wv) {
      return unset(seq) | kSetBit | (wv & kWvMask);
    }
    static bool is_set(std::uint64_t w) { return (w & kSetBit) != 0; }
    static std::uint32_t seq23(std::uint64_t w) {
      return static_cast<std::uint32_t>(w >> (kWvBits + 1));
    }
    static std::uint64_t wv(std::uint64_t w) { return w & kWvMask; }
  };

  struct Descriptor {
    std::atomic<std::uint32_t> seq{0};
    std::atomic<std::uint32_t> helpers{0};
    std::atomic<std::uint64_t> status{Status::make(0, Status::kCommitted)};
    std::atomic<std::uint32_t> n{0};
    std::atomic<std::uint32_t> addrs[kMaxTxCells] = {};
    std::atomic<std::uint64_t> old[kMaxTxCells] = {};
    std::atomic<TxOp> op{nullptr};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> wv{0};  // WvSlot (stamping mode)
  };

  // Register as a helper of {pid, seq23} and run its phases. The counter +
  // revalidation handshake makes descriptor reuse safe (see header note).
  void help(unsigned pid, std::uint32_t seq23, unsigned depth) {
    MOIR_ASSERT_MSG(depth <= n_, "help chain longer than process count");
    Descriptor& d = *desc_[pid];
    d.helpers.fetch_add(1, std::memory_order_seq_cst);
    const std::uint32_t seq = d.seq.load(std::memory_order_seq_cst);
    if ((seq & ((1u << 23) - 1)) == seq23) {
      helps_.fetch_add(1, std::memory_order_relaxed);
      stats::count(stats::Id::kStmHelp, 1, this);
      run_phases(d, pid, seq, depth);
    }
    d.helpers.fetch_sub(1, std::memory_order_seq_cst);
  }

  // Drive descriptor `d` (incarnation `seq`, owner `pid`) to a terminal,
  // fully-released state. Runs identically for the owner and helpers.
  void run_phases(Descriptor& d, unsigned pid, std::uint32_t seq,
                  unsigned depth) {
    const unsigned n = d.n.load(std::memory_order_seq_cst);
    if (n == 0 || n > kMaxTxCells) return;  // stale/torn read; effects are
                                            // seq-guarded anyway

    // ---- acquire phase (ascending address order) ----
    for (unsigned i = 0; i < n; ++i) {
      const std::uint32_t a = d.addrs[i].load(std::memory_order_seq_cst);
      if (a >= cells_.size()) return;  // stale read of a recycled slot
      for (;;) {
        MOIR_YIELD_POINT();
        const std::uint64_t st = d.status.load(std::memory_order_seq_cst);
        if (Status::seq(st) != seq) return;
        if (Status::state(st) != Status::kActive) goto sweep;

        Cells::Keep keep;
        const std::uint64_t cur = Cells::ll(cells_[a], keep);
        if (is_locked(cur)) {
          if (lock_pid(cur) == pid && lock_seq23(cur) == seq_to_23(seq)) {
            break;  // already locked for this incarnation (by a helper)
          }
          help(lock_pid(cur), lock_seq23(cur), depth + 1);
          continue;
        }
        // Claim the pre-lock value. claim-once: the first CAS wins; all
        // others adopt the recorded value.
        std::uint64_t slot = OldSlot::unset(seq);
        d.old[i].compare_exchange_strong(slot, OldSlot::set(seq, cur),
                                         std::memory_order_seq_cst);
        slot = d.old[i].load(std::memory_order_seq_cst);
        if (OldSlot::seq(slot) != seq) return;  // descriptor recycled
        if (!OldSlot::is_set(slot) || OldSlot::value(slot) != cur) {
          // The cell changed between the recorded read and now: this
          // incarnation's snapshot is stale. Abort (someone else made
          // progress, so system-wide this is still lock-free).
          try_abort(d, seq);
          goto sweep;
        }
        // Re-validate the incarnation immediately before installing the
        // lock. The iteration-top status check is not atomic with the SC:
        // if this incarnation reached a terminal state in between (helpers
        // finished it, wrote back, and released), unrelated transactions
        // may have cycled the cell back to the claimed value, so neither
        // the claim check nor the cell tag (which only guards changes
        // since OUR ll, not since the claim) stops a late lock — and a
        // late lock makes the sweep re-apply this incarnation's write-back
        // over newer committed state. Checking status after our ll closes
        // the hole: while Active no write-set cell is ever released, so a
        // commit landing after this check requires an intervening lock SC
        // on this cell, which bumps the tag and fails our SC; an abort
        // landing here leaves only a benign lock whose release restores
        // exactly the value the lock replaced.
        {
          const std::uint64_t st2 = d.status.load(std::memory_order_seq_cst);
          if (Status::seq(st2) != seq) return;
          if (Status::state(st2) != Status::kActive) goto sweep;
        }
        if (Cells::sc(cells_[a], keep, lock_word(pid, seq))) break;
      }
    }
    // ---- commit ----
    {
      std::uint64_t expect = Status::make(seq, Status::kActive);
      d.status.compare_exchange_strong(expect,
                                       Status::make(seq, Status::kCommitted),
                                       std::memory_order_seq_cst);
    }

  sweep:
    // ---- write-back / release phase ----
    const std::uint64_t st = d.status.load(std::memory_order_seq_cst);
    if (Status::seq(st) != seq) return;
    const bool committed = Status::state(st) == Status::kCommitted;

    std::uint64_t olds[kMaxTxCells];
    std::uint64_t news[kMaxTxCells];
    bool have_news = false;
    if (committed) {
      for (unsigned i = 0; i < n; ++i) {
        const std::uint64_t slot = d.old[i].load(std::memory_order_seq_cst);
        if (OldSlot::seq(slot) != seq || !OldSlot::is_set(slot)) return;
        olds[i] = OldSlot::value(slot);
      }
      const TxOp op = d.op.load(std::memory_order_seq_cst);
      if (op == nullptr) return;
      op(olds, news, n, d.arg.load(std::memory_order_seq_cst));
      have_news = true;
    }

    // Stamping mode: a committed incarnation that changes at least one
    // cell draws one write version (claim-once, so all helpers agree)
    // before any write-back SC can publish a new value. `changed` is a
    // deterministic function of olds/news, so every driver computes the
    // same mask.
    bool changed[kMaxTxCells] = {};
    std::uint64_t wv = 0;
    if (committed && have_news && clock_ != nullptr) {
      bool any_changed = false;
      for (unsigned i = 0; i < n; ++i) {
        changed[i] = (news[i] & kMaxValue) != olds[i];
        any_changed = any_changed || changed[i];
      }
      if (any_changed && !claim_write_version(d, seq, wv)) return;
    }

    for (unsigned i = 0; i < n; ++i) {
      const std::uint64_t slot = d.old[i].load(std::memory_order_seq_cst);
      if (OldSlot::seq(slot) != seq) return;
      if (!OldSlot::is_set(slot)) continue;  // never claimed => never locked
      const std::uint32_t a = d.addrs[i].load(std::memory_order_seq_cst);
      if (a >= cells_.size()) return;
      const std::uint64_t target =
          committed && have_news ? (news[i] & kMaxValue)
                                 : OldSlot::value(slot);
      for (;;) {
        Cells::Keep keep;
        const std::uint64_t cur = Cells::ll(cells_[a], keep);
        if (!is_locked(cur) || lock_pid(cur) != pid ||
            lock_seq23(cur) != seq_to_23(seq)) {
          break;  // already released (or re-locked by a later incarnation)
        }
        // Raise the stamp before every SC attempt (idempotent fetch-max):
        // whichever driver's SC publishes the new value, the stamp is
        // already >= wv, so a reader can never accept a post-rv value
        // with a pre-rv stamp.
        if (stamps_ != nullptr && committed && changed[i]) {
          raise_stamp(stamps_[a], wv);
        }
        if (Cells::sc(cells_[a], keep, target)) break;
        MOIR_YIELD_POINT();
      }
    }
  }

  // Draw the incarnation's write version exactly once: the first driver
  // to reach the write-back phase fetch-adds the global clock and CASes
  // the result into the seq-tagged wv slot; racing drivers adopt the
  // winner's value, so every write-back of this incarnation stamps the
  // same version. A losing drawer over-advances the clock by one — TL2's
  // GV4 variant, harmless since versions only need to be monotone.
  // Returns false if the descriptor was recycled mid-claim.
  bool claim_write_version(Descriptor& d, std::uint32_t seq,
                           std::uint64_t& wv_out) {
    std::uint64_t slot = d.wv.load(std::memory_order_seq_cst);
    if (WvSlot::seq23(slot) != seq_to_23(seq)) return false;
    if (!WvSlot::is_set(slot)) {
      MOIR_YIELD_UPDATE(clock_);
      const std::uint64_t fresh =
          clock_->fetch_add(1, std::memory_order_seq_cst) + 1;
      MOIR_ASSERT_MSG(fresh <= WvSlot::kWvMask,
                      "version clock exceeded its 40-bit stamp domain");
      stats::count(stats::Id::kTl2ClockAdvance, 1, this);
      std::uint64_t expect = WvSlot::unset(seq);
      d.wv.compare_exchange_strong(expect, WvSlot::set(seq, fresh),
                                   std::memory_order_seq_cst);
      slot = d.wv.load(std::memory_order_seq_cst);
      if (WvSlot::seq23(slot) != seq_to_23(seq) || !WvSlot::is_set(slot)) {
        return false;
      }
    }
    wv_out = WvSlot::wv(slot);
    return true;
  }

  // Monotonic fetch-max on a cell stamp. Monotonicity is what defeats
  // stale helpers: a parked driver replaying an old incarnation's raise
  // can never LOWER a stamp below a newer commit's version.
  static void raise_stamp(std::atomic<std::uint64_t>& stamp,
                          std::uint64_t wv) {
    std::uint64_t cur = stamp.load(std::memory_order_seq_cst);
    while (cur < wv) {
      MOIR_YIELD_UPDATE(&stamp);
      if (stamp.compare_exchange_weak(cur, wv,
                                      std::memory_order_seq_cst)) {
        break;
      }
    }
  }

  void try_abort(Descriptor& d, std::uint32_t seq) {
    std::uint64_t expect = Status::make(seq, Status::kActive);
    d.status.compare_exchange_strong(expect,
                                     Status::make(seq, Status::kAborted),
                                     std::memory_order_seq_cst);
  }

  // Truncate a full sequence number to the 23 bits a lock word carries.
  static std::uint32_t seq_to_23(std::uint32_t seq) {
    return seq & ((1u << 23) - 1);
  }

  const unsigned n_;
  std::atomic<std::uint64_t>* clock_ = nullptr;   // stamping mode, else null
  std::atomic<std::uint64_t>* stamps_ = nullptr;  // one per cell
  std::vector<Cells::Var> cells_;
  std::vector<Padded<Descriptor>> desc_;
  LeaseRegistry<> registry_;
  std::atomic<std::uint64_t> commits_{0};
  std::atomic<std::uint64_t> aborts_{0};
  std::atomic<std::uint64_t> helps_{0};
};

}  // namespace moir
