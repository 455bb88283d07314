// Multi-word compare-and-swap (MCAS / DCAS) from the paper's primitives.
//
// Section 5 takes aim at Greenwald & Cheriton's conclusion that double-word
// CAS should be provided in hardware: the paper argues software multi-word
// synchronization is implementable on existing machines. This module makes
// the argument concrete: an N-word MCAS with the standard semantics —
// atomically, if every cell holds its expected value, write all desired
// values and return true, else change nothing and return false — built on
// the static STM (itself built on Figure 4's LL/VL/SC).
//
// Encoding trick: the STM's transaction body receives only (olds, arg).
// MCAS needs the expected/desired vectors in the body, and helpers may run
// the body on the owner's behalf, so each pid owns one Spec slot here and
// `arg` carries a pointer to it. The slot's next writer (the owner's next
// MCAS, or the pid's next holder's first) rewrites it BEFORE
// Stm::try_transact bumps seq and drains the previous transaction's
// helpers, so a stale helper of a finished transaction may still be
// reading it in apply_spec. Its write-back cannot land: every cell of that
// incarnation is already released, and no cell is locked with that
// (pid, seq) again until the next bump-and-drain, which waits for the
// helper. (At most its torn `news` make it draw one spare version-clock
// value, which only has to be monotone.) The Spec words are relaxed
// atomics, plain moves on x86, so that benign overlap is not a C++ data
// race either.
//
// An MCAS whose comparison fails still COMMITS as a transaction — it just
// writes back the old values (a no-op). The boolean MCAS result is derived
// from the committed transaction's read set. This keeps the STM's
// lock-free progress: an MCAS attempt never retries at this layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "nonblocking/stm.hpp"
#include "util/assertion.hpp"
#include "util/cache.hpp"

namespace moir {

class Mcas {
 public:
  static constexpr unsigned kMaxWords = Stm::kMaxTxCells;
  static constexpr std::uint64_t kMaxValue = Stm::kMaxValue;

  using ThreadCtx = Stm::ThreadCtx;

  Mcas(unsigned n_processes, std::size_t n_cells)
      : stm_(n_processes, n_cells), specs_(n_processes) {}

  ThreadCtx make_ctx() { return stm_.make_ctx(); }

  std::size_t size() const { return stm_.size(); }

  void set_initial(std::size_t cell, std::uint64_t value) {
    stm_.set_initial(cell, value);
  }

  // TL2 layering hook, forwarded to the underlying Stm (see
  // Stm::enable_version_stamps). Call before any concurrent use.
  void enable_version_stamps(std::atomic<std::uint64_t>* clock,
                             std::atomic<std::uint64_t>* stamps) {
    stm_.enable_version_stamps(clock, stamps);
  }

  std::uint64_t read(ThreadCtx& ctx, std::size_t cell) {
    return stm_.read(ctx, cell);
  }

  // N-word CAS. `addrs` must be sorted and unique; expected/desired are
  // parallel arrays. Atomic and linearizable: true iff all cells matched
  // and all were replaced. When `witnessed` is non-empty it receives the
  // values the committed transaction read — on failure, the consistent
  // snapshot that refuted the comparison (the txn layer's multi_cas
  // returns it to clients).
  bool mcas(ThreadCtx& ctx, std::span<const std::uint32_t> addrs,
            std::span<const std::uint64_t> expected,
            std::span<const std::uint64_t> desired,
            std::span<std::uint64_t> witnessed = {}) {
    const unsigned n = static_cast<unsigned>(addrs.size());
    MOIR_ASSERT(n >= 1 && n <= kMaxWords);
    MOIR_ASSERT(expected.size() == n && desired.size() == n);
    MOIR_ASSERT(witnessed.empty() || witnessed.size() == n);

    Spec& spec = *specs_[ctx.pid()];
    for (unsigned i = 0; i < n; ++i) {
      MOIR_ASSERT(expected[i] <= kMaxValue && desired[i] <= kMaxValue);
      spec.expected[i].store(expected[i], std::memory_order_relaxed);
      spec.desired[i].store(desired[i], std::memory_order_relaxed);
    }

    Stm::TxResult result;
    // transact() retries only on STM-level conflicts; each attempt
    // re-reads the cells, so the comparison always uses fresh values.
    result = stm_.transact(ctx, addrs, &apply_spec,
                           reinterpret_cast<std::uint64_t>(&spec));
    bool match = true;
    for (unsigned i = 0; i < n; ++i) {
      if (!witnessed.empty()) witnessed[i] = result.olds[i];
      if (result.olds[i] != expected[i]) match = false;
    }
    return match;
  }

  // Unconditional atomic multi-write (an MCAS with no comparison): writes
  // all desired values and reports the replaced ones through `olds`. Same
  // sorted-unique addrs contract as mcas().
  void mset(ThreadCtx& ctx, std::span<const std::uint32_t> addrs,
            std::span<const std::uint64_t> desired,
            std::span<std::uint64_t> olds = {}) {
    const unsigned n = static_cast<unsigned>(addrs.size());
    MOIR_ASSERT(n >= 1 && n <= kMaxWords && desired.size() == n);
    MOIR_ASSERT(olds.empty() || olds.size() == n);

    Spec& spec = *specs_[ctx.pid()];
    for (unsigned i = 0; i < n; ++i) {
      MOIR_ASSERT(desired[i] <= kMaxValue);
      spec.desired[i].store(desired[i], std::memory_order_relaxed);
    }
    const auto result = stm_.transact(ctx, addrs, &apply_put,
                                      reinterpret_cast<std::uint64_t>(&spec));
    for (unsigned i = 0; i < n && !olds.empty(); ++i) {
      olds[i] = result.olds[i];
    }
  }

  // Tagged no-help observation of one cell (see Stm::peek): the building
  // block of the txn layer's double-collect multi-get.
  Stm::CellView peek(std::size_t cell) { return stm_.peek(cell); }
  void help_locked(const Stm::CellView& view) { stm_.help_locked(view); }

  // Double-word CAS — the Greenwald/Cheriton primitive. a1 < a2 required.
  bool dcas(ThreadCtx& ctx, std::uint32_t a1, std::uint64_t e1,
            std::uint64_t d1, std::uint32_t a2, std::uint64_t e2,
            std::uint64_t d2) {
    MOIR_ASSERT(a1 < a2);
    const std::uint32_t addrs[] = {a1, a2};
    const std::uint64_t exp[] = {e1, e2};
    const std::uint64_t des[] = {d1, d2};
    return mcas(ctx, addrs, exp, des);
  }

  // Atomic multi-word read (a degenerate MCAS that writes nothing).
  void snapshot(ThreadCtx& ctx, std::span<const std::uint32_t> addrs,
                std::span<std::uint64_t> out) {
    const unsigned n = static_cast<unsigned>(addrs.size());
    MOIR_ASSERT(n >= 1 && n <= kMaxWords && out.size() == n);
    const auto result = stm_.transact(ctx, addrs, &apply_identity, 0);
    for (unsigned i = 0; i < n; ++i) out[i] = result.olds[i];
  }

  Stm::Stats stats() const { return stm_.stats(); }

 private:
  struct Spec {  // relaxed atomics: see the header on stale helpers
    std::atomic<std::uint64_t> expected[kMaxWords];
    std::atomic<std::uint64_t> desired[kMaxWords];
  };

  // Runs inside the STM (including on helpers): write desired iff every
  // old matches expected, else write back the olds (no-op commit).
  static void apply_spec(const std::uint64_t* olds, std::uint64_t* news,
                         unsigned n, std::uint64_t arg) {
    const Spec* spec = reinterpret_cast<const Spec*>(arg);
    bool match = true;
    for (unsigned i = 0; i < n; ++i) {
      if (olds[i] != spec->expected[i].load(std::memory_order_relaxed)) {
        match = false;
        break;
      }
    }
    for (unsigned i = 0; i < n; ++i) {
      news[i] =
          match ? spec->desired[i].load(std::memory_order_relaxed) : olds[i];
    }
  }

  static void apply_identity(const std::uint64_t* olds, std::uint64_t* news,
                             unsigned n, std::uint64_t) {
    for (unsigned i = 0; i < n; ++i) news[i] = olds[i];
  }

  // Unconditional write: ignore olds, install desired.
  static void apply_put(const std::uint64_t* /*olds*/, std::uint64_t* news,
                        unsigned n, std::uint64_t arg) {
    const Spec* spec = reinterpret_cast<const Spec*>(arg);
    for (unsigned i = 0; i < n; ++i) {
      news[i] = spec->desired[i].load(std::memory_order_relaxed);
    }
  }

  Stm stm_;
  std::vector<Padded<Spec>> specs_;
};

}  // namespace moir
