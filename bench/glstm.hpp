// GL-STM: global-lock "STM" baseline behind the TxnKv interface.
//
// The honest blocking comparison point for E14/E18: one cache-padded
// TTAS spinlock serializes every transaction, values live in a plain
// array indexed by the map's stable handles. No clocks, no stamps, no
// helping — a transaction is lock(); read/write; unlock(). On an idle
// store this is the fastest thing possible (one uncontended atomic
// exchange per txn); under contention or oversubscription it collapses,
// and a single stalled holder wedges the world — which is the paper's
// argument, measured. It is a bench baseline, not a service mode.
//
// Handle resolution (locate/find_or_insert) stays OUTSIDE the lock: the
// map is non-blocking and thread-safe, and keeping it out makes the
// lock hold time O(k) loads/stores, the best case for the baseline.
//
// Deliberately NOT run under the controlled scheduler: a spinlock under
// cooperative scheduling can spin forever if the holder is never
// scheduled, so GL-STM has real-thread unit/torture tests and bench
// runs only (DFS/PCT verify TxnKv, whose store semantics GL-STM
// mirrors).
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/llsc_traits.hpp"
#include "map/sharded_map.hpp"
#include "nonblocking/mcas.hpp"
#include "reclaim/reclaimer.hpp"
#include "stats/stats.hpp"
#include "txn/txn_kv.hpp"
#include "util/assertion.hpp"
#include "util/backoff.hpp"
#include "util/cache.hpp"

namespace moir::bench {

template <SmallLlscSubstrate S, reclaim::Reclaimer R>
class GlstmKv {
 public:
  using Map = ShardedHashMap<S, R>;

  static constexpr unsigned kMaxTxnKeys = Mcas::kMaxWords;
  static constexpr unsigned kMaxGetKeys = 16;
  static constexpr std::uint64_t kMaxValue = Mcas::kMaxValue - 1;
  static constexpr std::uint64_t kAbsent = 0;

  static constexpr std::uint64_t wire(std::uint64_t value) {
    return value + 1;
  }

  struct ThreadCtx {
    typename Map::ThreadCtx map;
  };

  GlstmKv(Map& map, unsigned /*n_processes*/)
      : map_(map), vals_(map.handle_space(), kAbsent) {}

  GlstmKv(const GlstmKv&) = delete;
  GlstmKv& operator=(const GlstmKv&) = delete;

  ThreadCtx make_ctx() { return ThreadCtx{map_.make_ctx()}; }

  Map& map() { return map_; }

  // ----- single-key verbs (map semantics) ----------------------------------

  std::optional<std::uint64_t> get(ThreadCtx& ctx, std::uint64_t key) {
    const auto h = map_.locate_handle(ctx.map, key);
    if (!h) return std::nullopt;
    lock_->lock();
    const std::uint64_t c = vals_[*h];
    lock_->unlock();
    if (c == kAbsent) return std::nullopt;
    return c - 1;
  }

  txn::TxnStatus insert(ThreadCtx& ctx, std::uint64_t key,
                        std::uint64_t value) {
    MOIR_ASSERT(value <= kMaxValue);
    const auto h = map_.find_or_insert_handle(ctx.map, key, value);
    if (!h) return txn::TxnStatus::kNoSpace;
    lock_->lock();
    const bool absent = vals_[*h] == kAbsent;
    if (absent) vals_[*h] = wire(value);
    lock_->unlock();
    return absent ? txn::TxnStatus::kOk : txn::TxnStatus::kMiss;
  }

  txn::TxnStatus upsert(ThreadCtx& ctx, std::uint64_t key,
                        std::uint64_t value) {
    MOIR_ASSERT(value <= kMaxValue);
    const auto h = map_.find_or_insert_handle(ctx.map, key, value);
    if (!h) return txn::TxnStatus::kNoSpace;
    lock_->lock();
    const bool absent = vals_[*h] == kAbsent;
    vals_[*h] = wire(value);
    lock_->unlock();
    return absent ? txn::TxnStatus::kOk : txn::TxnStatus::kMiss;
  }

  bool erase(ThreadCtx& ctx, std::uint64_t key) {
    const auto h = map_.locate_handle(ctx.map, key);
    if (!h) return false;
    lock_->lock();
    const bool present = vals_[*h] != kAbsent;
    vals_[*h] = kAbsent;
    lock_->unlock();
    return present;
  }

  // ----- multi-key transactions --------------------------------------------

  void multi_get(ThreadCtx& ctx, std::span<const std::uint64_t> keys,
                 std::span<std::uint64_t> out) {
    const unsigned n = static_cast<unsigned>(keys.size());
    MOIR_ASSERT(n >= 1 && n <= kMaxGetKeys && out.size() == n);
    stats::count(stats::Id::kTxnStart, 1, this);
    stats::record(stats::HistId::kTxnKeys, n);
    constexpr std::uint32_t kNoHandle = ~std::uint32_t{0};
    std::uint32_t h1[kMaxGetKeys];
    for (unsigned i = 0; i < n; ++i) {
      const auto h = map_.locate_handle(ctx.map, keys[i]);
      h1[i] = h ? *h : kNoHandle;
    }
    lock_->lock();
    for (unsigned i = 0; i < n; ++i) {
      out[i] = h1[i] == kNoHandle ? kAbsent : vals_[h1[i]];
    }
    lock_->unlock();
    stats::count(stats::Id::kTxnCommit, 1, this);
  }

  txn::TxnStatus multi_put(ThreadCtx& ctx,
                           std::span<const std::uint64_t> keys,
                           std::span<const std::uint64_t> values) {
    const unsigned n = static_cast<unsigned>(keys.size());
    MOIR_ASSERT(n >= 1 && n <= kMaxTxnKeys && values.size() == n);
    stats::count(stats::Id::kTxnStart, 1, this);
    stats::record(stats::HistId::kTxnKeys, n);
    std::uint32_t h1[kMaxTxnKeys];
    if (!resolve(ctx, keys, h1)) return txn::TxnStatus::kNoSpace;
    lock_->lock();
    for (unsigned i = 0; i < n; ++i) {
      MOIR_ASSERT(values[i] <= kMaxValue);
      vals_[h1[i]] = wire(values[i]);
    }
    lock_->unlock();
    stats::count(stats::Id::kTxnCommit, 1, this);
    return txn::TxnStatus::kOk;
  }

  txn::TxnStatus multi_cas(ThreadCtx& ctx,
                           std::span<const std::uint64_t> keys,
                           std::span<const std::uint64_t> expected,
                           std::span<const std::uint64_t> desired,
                           std::span<std::uint64_t> witness = {}) {
    const unsigned n = static_cast<unsigned>(keys.size());
    MOIR_ASSERT(n >= 1 && n <= kMaxTxnKeys);
    MOIR_ASSERT(expected.size() == n && desired.size() == n);
    MOIR_ASSERT(witness.empty() || witness.size() == n);
    stats::count(stats::Id::kTxnStart, 1, this);
    stats::record(stats::HistId::kTxnKeys, n);
    std::uint32_t h1[kMaxTxnKeys];
    if (!resolve(ctx, keys, h1)) return txn::TxnStatus::kNoSpace;
    lock_->lock();
    bool matched = true;
    for (unsigned i = 0; i < n; ++i) {
      if (!witness.empty()) witness[i] = vals_[h1[i]];
      matched = matched && vals_[h1[i]] == expected[i];
    }
    if (matched) {
      for (unsigned i = 0; i < n; ++i) vals_[h1[i]] = desired[i];
    }
    lock_->unlock();
    stats::count(matched ? stats::Id::kTxnCommit : stats::Id::kTxnAbort, 1,
                 this);
    return matched ? txn::TxnStatus::kOk : txn::TxnStatus::kMiss;
  }

 private:
  // TTAS with SpinWait: exchange to acquire, load-spin while held (keeps
  // the waiters' traffic read-only until release).
  class GlobalLock {
   public:
    void lock() {
      SpinWait sw;
      for (;;) {
        if (!held_.exchange(true, std::memory_order_acquire)) return;
        while (held_.load(std::memory_order_relaxed)) sw.pause();
      }
    }
    void unlock() { held_.store(false, std::memory_order_release); }

   private:
    std::atomic<bool> held_{false};
  };

  bool resolve(ThreadCtx& ctx, std::span<const std::uint64_t> keys,
               std::uint32_t* h1) {
    const unsigned n = static_cast<unsigned>(keys.size());
    for (unsigned i = 0; i < n; ++i) {
      const auto h = map_.find_or_insert_handle(ctx.map, keys[i], 0);
      if (!h) return false;
      h1[i] = *h;
    }
    return true;
  }

  Map& map_;
  Padded<GlobalLock> lock_;
  std::vector<std::uint64_t> vals_;
};

// The read-path baseline (E14/E18's "mcas" column): a TxnKv whose
// multi_get runs only the helping double-collect, so the benches time
// the slow path on its own against the invisible reader.
template <class Txn>
struct DoubleCollectKv : Txn {
  using Txn::Txn;
  void multi_get(typename Txn::ThreadCtx& ctx,
                 std::span<const std::uint64_t> keys,
                 std::span<std::uint64_t> out) {
    Txn::multi_get_double_collect(ctx, keys, out);
  }
};

}  // namespace moir::bench
