// Multi-key atomic transactions over the sharded map, built from the
// paper's multi-word primitives (Section 5 made end-to-end).
//
// TxnKv composes ShardedHashMap with Mcas/Stm (the ST/Barnes STM
// over Figure 4 LL/VL/SC) into a transaction manager for atomic
//
//   * multi_get  — consistent snapshot read of k keys,
//   * multi_put  — atomic multi-key write,
//   * multi_cas  — k-key compare-and-swap (the RMW building block),
//
// plus the single-key verbs with map semantics, so single- and multi-key
// traffic interleave linearizably on one store.
//
// Design: per-key value-cell registration. The map supplies a stable
// HANDLE per key (find_or_insert_handle: the node's global index, minted
// under the reclaimer bracket); the authoritative value of a key lives
// NOT in the map node but in the Mcas cell at that handle — one STM cell
// per possible node, allocated up front (handle_space() cells). A
// multi-key write resolves its keys to handles, sorts the cell addresses
// ascending, and runs one MCAS/MSET over them; the STM acquires cells in
// that sorted order with helping, so cross-shard transactions cannot
// livelock each other and the construction stays lock-free (every abort
// is caused by another transaction's committed step).
//
// Cell encoding ("wire form"): 0 = key absent, v+1 = key present with
// value v. Three consequences:
//   * erase is a WRITE (cell := 0), not an unlink — nodes are never
//     removed, so handles are stable and node presence is monotonic
//     (insert-only discipline; do not call the map's erase() directly);
//   * absence is lockable: a conditional insert is an mcas expecting 0,
//     registered on the key's (pre-created) cell — exactly the per-key
//     registration the descriptor needs to make "key must stay absent"
//     part of the atomic comparison;
//   * values are bounded by kMaxValue = Stm::kMaxValue - 1 (the +1 must
//     still fit the 31-bit cell payload).
//
// Writes are VERSION-STAMPED (Stm::enable_version_stamps, always on): a
// value-changing commit draws its write version wv from the store's
// GlobalVersionClock AFTER its commit point and raises every changed
// cell's stamp to wv (monotonic fetch-max) BEFORE the write-back SC that
// publishes the value. A commit that changes nothing draws no version.
//
// multi_get is an INVISIBLE READER (TL2, Dice–Shalev–Shavit, DISC'06):
//
//   rv := clock.sample()
//   for each key: read value; fail if locked
//   for each key: fail if stamp > rv
//   commit — one collect, no shared-memory writes, no help.
//
// When the reader sees a cell unlocked with stamp <= rv (stamp read after
// the value):
//   * any commit that drew wv > rv cannot have written this value — its
//     stamp raise would still be visible at our later stamp read;
//   * any commit that drew wv <= rv committed before our clock sample,
//     and either its write-back already landed (we read its value) or
//     the cell would still be LOCKED (the lock is held from acquire
//     until write-back) — but we saw it unlocked.
//   Hence the value is exactly the cell's committed state at rv, and
//   all k cells validate against the SAME rv: a snapshot at rv.
// Absent keys are sound by the insert-only discipline: no node at
// collect time implies no node at rv either, and a transactional create
// writes the (pre-created, stamped) cell before the key is visible.
//
// A single collect can fail (locked cell, fresh stamp: tl2_revalidate).
// After kMaxReadAttempts backed-off attempts the reader falls back
// (tl2_fallback) to multi_get_double_collect: peek every cell's {value,
// tag}, then re-resolve and re-peek; if every handle, tag, and lock state
// is unchanged, the first collect was an atomic snapshot — linearized
// anywhere between the collects (docs/ALGORITHMS.md "tags as version
// counters"). The fallback HELPS locked cells to completion (txn_help)
// and retries on changed tags (txn_revalidate), which restores
// lock-freedom: the fast path alone is only obstruction-free, since a
// stalled writer's lock could starve it. docs/ALGORITHMS.md "invisible
// readers vs double-collect" walks the argument.
//
// Malformed requests — a value outside the wire form's range, a key named
// twice in one transaction — complete kInvalid with no effect: the
// service admits client payloads without inspecting them, so the engine
// refuses them instead of asserting.
//
// `SkipRevalidate` is a PLANTED BUG for the verifier: it drops the
// stamp <= rv check (keeping the lock check), which admits a torn read
// — reader peeks cell A before a writer locks it, then peeks cell B
// after the same writer fully committed and released. DFS and PCT must
// both catch it against TxnSpec (test_tl2.cpp NegativeControlTl2).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "core/llsc_traits.hpp"
#include "map/sharded_map.hpp"
#include "nonblocking/mcas.hpp"
#include "platform/yield_point.hpp"
#include "reclaim/reclaimer.hpp"
#include "stats/stats.hpp"
#include "txn/clock.hpp"
#include "util/assertion.hpp"
#include "util/backoff.hpp"

namespace moir::txn {

// The map's write outcomes (map/sharded_map.hpp), kInvalid included.
using TxnStatus = WriteStatus;

template <SmallLlscSubstrate S, reclaim::Reclaimer R,
          bool SkipRevalidate = false>
class TxnKv {
 public:
  using Map = ShardedHashMap<S, R>;

  static constexpr unsigned kMaxTxnKeys = Mcas::kMaxWords;
  // multi_get reads no cells transactionally, so its key budget is not
  // bound by the MCAS word count — E18 sweeps reads to k=16. The service
  // pipeline still caps requests at kMaxTxnKeys; wider reads are a
  // direct-embedding feature.
  static constexpr unsigned kMaxGetKeys = 16;
  // Service values leave room for the +1 of the wire form.
  static constexpr std::uint64_t kMaxValue = Mcas::kMaxValue - 1;
  static constexpr std::uint64_t kAbsent = 0;  // wire form of "no value"
  // Invisible-read attempts before falling back to the helping
  // double-collect. Small: each failed attempt means a writer committed
  // or holds a lock mid-sweep, and the fallback is only ~2x the cost.
  // The negative-control engine (SkipRevalidate) is single-shot on the
  // fast path: a disturbed reader drops straight to the (sound) helping
  // fallback instead of climbing the retry ladder, so the DFS negative
  // control explores the torn-read window rather than retry x writer
  // interleavings.
  static constexpr unsigned kMaxReadAttempts = SkipRevalidate ? 1 : 4;

  static constexpr std::uint64_t wire(std::uint64_t value) {
    return value + 1;
  }

  struct ThreadCtx {
    typename Map::ThreadCtx map;
    Mcas::ThreadCtx mcas;
    // Key->handle memo (direct-mapped, thread-private). Sound because of
    // the insert-only discipline: nodes are never unlinked, so a handle
    // once resolved names its key forever, and peek()/stamps index flat
    // arrays by handle — a hit needs neither the map walk nor the
    // reclaimer bracket. Only PRESENT keys are cached: an absent result
    // is timing-sensitive (the key may appear later, and the snapshot
    // argument needs absence established AFTER the rv sample).
    static constexpr unsigned kMemoSlots = 256;
    std::uint64_t memo_key[kMemoSlots];
    std::uint32_t memo_h[kMemoSlots];
  };

  // `n_processes` bounds concurrent ThreadCtxs. One cell and one stamp per
  // possible map node.
  TxnKv(Map& map, unsigned n_processes)
      : map_(map), mcas_(n_processes, map.handle_space()),
        stamps_(std::make_unique<std::atomic<std::uint64_t>[]>(
            map.handle_space())) {
    mcas_.enable_version_stamps(clock_.word(), stamps_.get());
  }

  TxnKv(const TxnKv&) = delete;
  TxnKv& operator=(const TxnKv&) = delete;

  ThreadCtx make_ctx() {
    ThreadCtx ctx{map_.make_ctx(), mcas_.make_ctx(), {}, {}};
    std::fill(std::begin(ctx.memo_h), std::end(ctx.memo_h), Map::kNoHandle);
    return ctx;
  }

  Map& map() { return map_; }

  // Test/diagnostic hooks.
  GlobalVersionClock& clock() { return clock_; }
  std::uint64_t stamp(std::uint32_t handle) const {
    return stamps_[handle].load(std::memory_order_seq_cst);
  }

  // ----- single-key verbs (map semantics) ----------------------------------
  // Every write runs through the stamped MCAS, single-key writes included,
  // or the invisible reader could not trust stamp <= rv.

  std::optional<std::uint64_t> get(ThreadCtx& ctx, std::uint64_t key) {
    const std::uint32_t h = resolve_for_read(ctx, key);
    if (h == Map::kNoHandle) return std::nullopt;
    const std::uint64_t c = mcas_.read(ctx.mcas, h);  // helps lockers
    if (c == kAbsent) return std::nullopt;
    return c - 1;
  }

  // kOk = inserted, kMiss = key already present (untouched), kNoSpace,
  // kInvalid = value above kMaxValue.
  TxnStatus insert(ThreadCtx& ctx, std::uint64_t key, std::uint64_t value) {
    if (value > kMaxValue) return TxnStatus::kInvalid;
    const std::uint32_t h = resolve_for_write(ctx, key, value);
    if (h == Map::kNoHandle) return TxnStatus::kNoSpace;
    const std::uint32_t addr[] = {h};
    const std::uint64_t exp[] = {kAbsent};
    const std::uint64_t des[] = {wire(value)};
    return mcas_.mcas(ctx.mcas, addr, exp, des) ? TxnStatus::kOk
                                                : TxnStatus::kMiss;
  }

  // kOk = inserted, kMiss = updated in place, kNoSpace, kInvalid.
  TxnStatus upsert(ThreadCtx& ctx, std::uint64_t key, std::uint64_t value) {
    if (value > kMaxValue) return TxnStatus::kInvalid;
    const std::uint32_t h = resolve_for_write(ctx, key, value);
    if (h == Map::kNoHandle) return TxnStatus::kNoSpace;
    const std::uint32_t addr[] = {h};
    const std::uint64_t des[] = {wire(value)};
    std::uint64_t old[1];
    mcas_.mset(ctx.mcas, addr, des, old);
    return old[0] == kAbsent ? TxnStatus::kOk : TxnStatus::kMiss;
  }

  // true = was present (now absent). The node stays; only the cell clears.
  bool erase(ThreadCtx& ctx, std::uint64_t key) {
    const std::uint32_t h = resolve_for_read(ctx, key);
    if (h == Map::kNoHandle) return false;
    const std::uint32_t addr[] = {h};
    const std::uint64_t des[] = {kAbsent};
    std::uint64_t old[1];
    mcas_.mset(ctx.mcas, addr, des, old);
    return old[0] != kAbsent;
  }

  // ----- multi-key transactions --------------------------------------------
  // out/expected/desired/witness are parallel to `keys` in USER order
  // (sorting happens internally). All cell-valued spans use the wire
  // form: 0 = absent, v+1 = value v.

  // Consistent snapshot read. out[i] = wire value of keys[i] at one
  // instant between invocation and response. Always succeeds: the
  // invisible reader first, the helping double-collect if it cannot
  // validate (header note).
  void multi_get(ThreadCtx& ctx, std::span<const std::uint64_t> keys,
                 std::span<std::uint64_t> out) {
    begin_read(keys, out);
    if (!invisible_read(ctx, keys, out)) {
      // A writer kept invalidating us (or stalled holding a lock): fall
      // back to the double-collect WITH helping for lock-freedom.
      stats::count(stats::Id::kTl2Fallback, 1, this);
      double_collect(ctx, keys, out);
    }
    stats::count(stats::Id::kTxnCommit, 1, this);
  }

  // multi_get's lock-free slow path on its own, same contract. The benches
  // time it as the double-collect read path; tests explore it directly.
  void multi_get_double_collect(ThreadCtx& ctx,
                                std::span<const std::uint64_t> keys,
                                std::span<std::uint64_t> out) {
    begin_read(keys, out);
    double_collect(ctx, keys, out);
    stats::count(stats::Id::kTxnCommit, 1, this);
  }

  // Atomic multi-key write of plain values (all keys present afterwards).
  // kNoSpace: some key's node could not be created; kInvalid: a value
  // above kMaxValue or a repeated key. Either way nothing was written.
  TxnStatus multi_put(ThreadCtx& ctx, std::span<const std::uint64_t> keys,
                      std::span<const std::uint64_t> values) {
    const unsigned n = static_cast<unsigned>(keys.size());
    MOIR_ASSERT(n >= 1 && n <= kMaxTxnKeys && values.size() == n);
    if (!in_range(values, kMaxValue)) return TxnStatus::kInvalid;
    stats::count(stats::Id::kTxnStart, 1, this);
    stats::record(stats::HistId::kTxnKeys, n);

    CellSet cs;
    const TxnStatus resolved = resolve_sorted(ctx, keys, cs);
    if (resolved != TxnStatus::kOk) return resolved;
    std::uint64_t des[kMaxTxnKeys];
    for (unsigned j = 0; j < n; ++j) des[j] = wire(values[cs.perm[j]]);
    mcas_.mset(ctx.mcas, std::span(cs.cells, n), std::span(des, n));
    stats::count(stats::Id::kTxnCommit, 1, this);
    return TxnStatus::kOk;
  }

  // k-key CAS in wire form: atomically, iff every key's cell holds
  // expected[i] (0 = "must be absent"), write desired[i] (0 = erase).
  // `witness` (optional) receives the consistent snapshot the committed
  // transaction read — on kMiss, the values that refuted the comparison.
  // Absent keys get their node (and cell) created first, so absence is
  // registered and locked like any other expectation. TL2's commit-time
  // read-set validation is exactly this comparison: expected[] is the
  // read set.
  TxnStatus multi_cas(ThreadCtx& ctx, std::span<const std::uint64_t> keys,
                      std::span<const std::uint64_t> expected,
                      std::span<const std::uint64_t> desired,
                      std::span<std::uint64_t> witness = {}) {
    const unsigned n = static_cast<unsigned>(keys.size());
    MOIR_ASSERT(n >= 1 && n <= kMaxTxnKeys);
    MOIR_ASSERT(expected.size() == n && desired.size() == n);
    MOIR_ASSERT(witness.empty() || witness.size() == n);
    if (!in_range(expected, Mcas::kMaxValue) ||
        !in_range(desired, Mcas::kMaxValue)) {
      return TxnStatus::kInvalid;
    }
    stats::count(stats::Id::kTxnStart, 1, this);
    stats::record(stats::HistId::kTxnKeys, n);

    CellSet cs;
    const TxnStatus resolved = resolve_sorted(ctx, keys, cs);
    if (resolved != TxnStatus::kOk) return resolved;
    std::uint64_t exp[kMaxTxnKeys];
    std::uint64_t des[kMaxTxnKeys];
    for (unsigned j = 0; j < n; ++j) {
      exp[j] = expected[cs.perm[j]];
      des[j] = desired[cs.perm[j]];
    }
    std::uint64_t wit[kMaxTxnKeys];
    const bool ok = mcas_.mcas(ctx.mcas, std::span(cs.cells, n),
                               std::span(exp, n), std::span(des, n),
                               std::span(wit, n));
    if (!witness.empty()) {
      for (unsigned j = 0; j < n; ++j) witness[cs.perm[j]] = wit[j];
    }
    if (!ok) stats::count(stats::Id::kTl2Abort, 1, this);
    stats::count(ok ? stats::Id::kTxnCommit : stats::Id::kTxnAbort, 1, this);
    return ok ? TxnStatus::kOk : TxnStatus::kMiss;
  }

  Stm::Stats stm_stats() const { return mcas_.stats(); }

 private:
  static bool in_range(std::span<const std::uint64_t> vals,
                       std::uint64_t max) {
    return std::all_of(vals.begin(), vals.end(),
                       [max](std::uint64_t v) { return v <= max; });
  }

  void begin_read(std::span<const std::uint64_t> keys,
                  std::span<std::uint64_t> out) {
    const unsigned n = static_cast<unsigned>(keys.size());
    MOIR_ASSERT(n >= 1 && n <= kMaxGetKeys && out.size() == n);
    stats::count(stats::Id::kTxnStart, 1, this);
    stats::record(stats::HistId::kTxnKeys, n);
  }

  // The fast path: up to kMaxReadAttempts single collects validated
  // against one clock sample each. false = none validated; `out` is then
  // untouched.
  bool invisible_read(ThreadCtx& ctx, std::span<const std::uint64_t> keys,
                      std::span<std::uint64_t> out) {
    const unsigned n = static_cast<unsigned>(keys.size());
    constexpr std::uint32_t kNoHandle = Map::kNoHandle;
    std::uint32_t h1[kMaxGetKeys];
    std::uint64_t val[kMaxGetKeys];
    // Resolve what the memo already knows; hits are present-key handles,
    // valid forever, so their timing relative to rv is irrelevant.
    bool all_resolved = true;
    for (unsigned i = 0; i < n; ++i) {
      h1[i] = memo_probe(ctx, keys[i]);
      all_resolved &= h1[i] != kNoHandle;
    }
    SpinWait backoff;
    for (unsigned attempt = 0; attempt < kMaxReadAttempts; ++attempt) {
      const std::uint64_t rv = clock_.sample();
      if (!all_resolved) {
        // One reclaimer bracket for the whole remainder of the read set
        // — the invisible reader's per-key work is then a peek and a
        // stamp load, nothing else. Must run AFTER the rv sample: a
        // kNoHandle result proves absence at rv only by locating later
        // than rv (insert-only monotonicity).
        map_.locate_handles(ctx.map, keys.first(n), h1);
        all_resolved = true;
        for (unsigned i = 0; i < n; ++i) {
          if (h1[i] != kNoHandle) {
            memo_remember(ctx, keys[i], h1[i]);
          } else {
            all_resolved = false;  // re-resolve absent keys per attempt
          }
        }
      }
      bool valid = true;
      for (unsigned i = 0; i < n && valid; ++i) {
        if (h1[i] == kNoHandle) {
          continue;  // monotonic: no node now => none at rv either
        }
        const auto v = mcas_.peek(h1[i]);
        if (v.locked) {
          // A writer is mid-sweep. Do NOT help on the fast path — the
          // invisible reader stays write-free; the fallback helps.
          valid = false;
          break;
        }
        val[i] = v.value;
      }
      if constexpr (!SkipRevalidate) {
        // Post-validation pass, AFTER every value read: unlocked with
        // stamp <= rv proves each value is its cell's committed state
        // at rv (header note). A separate pass — the stamp loads carry
        // no data dependency on each other, so the misses overlap.
        for (unsigned i = 0; i < n && valid; ++i) {
          if (h1[i] == kNoHandle) continue;
          MOIR_YIELD_READ(&stamps_[h1[i]]);
          if (stamps_[h1[i]].load(std::memory_order_seq_cst) > rv) {
            valid = false;
            break;
          }
        }
      }
      if (valid) {
        for (unsigned i = 0; i < n; ++i) {
          out[i] = h1[i] == kNoHandle ? kAbsent : val[i];
        }
        stats::count(stats::Id::kTl2RoCommit, 1, this);
        return true;
      }
      stats::count(stats::Id::kTl2Revalidate, 1, this);
      MOIR_YIELD_POINT();
      backoff.pause();
    }
    return false;
  }

  // Double-collect over the substrate's tags: collect 1 resolves handles
  // and peeks {value, tag}, helping any locker; collect 2 re-resolves and
  // re-peeks. Same handles, same tags, still unlocked => collect 1 was an
  // atomic snapshot. Writes nothing but help; every retry is caused by a
  // concurrent committed write or an in-flight lock just helped.
  void double_collect(ThreadCtx& ctx, std::span<const std::uint64_t> keys,
                      std::span<std::uint64_t> out) {
    const unsigned n = static_cast<unsigned>(keys.size());
    constexpr std::uint32_t kNoHandle = Map::kNoHandle;
    std::uint32_t h1[kMaxGetKeys];
    std::uint32_t h2[kMaxGetKeys];
    std::uint64_t val[kMaxGetKeys];
    std::uint64_t tag[kMaxGetKeys];
    SpinWait backoff;
    for (;;) {
      bool retry = false;
      map_.locate_handles(ctx.map, keys.first(n), h1);
      for (unsigned i = 0; i < n && !retry; ++i) {
        if (h1[i] == kNoHandle) continue;
        const auto v = mcas_.peek(h1[i]);
        if (v.locked) {
          stats::count(stats::Id::kTxnHelp, 1, this);
          mcas_.help_locked(v);
          retry = true;
          break;
        }
        val[i] = v.value;
        tag[i] = v.tag;
      }
      if (!retry) map_.locate_handles(ctx.map, keys.first(n), h2);
      for (unsigned i = 0; i < n && !retry; ++i) {
        if (h2[i] != h1[i]) {
          retry = true;
          break;
        }
        if (h1[i] == kNoHandle) continue;
        const auto v = mcas_.peek(h1[i]);
        if (v.locked) {
          stats::count(stats::Id::kTxnHelp, 1, this);
          mcas_.help_locked(v);
          retry = true;
          break;
        }
        if (v.tag != tag[i]) {
          retry = true;
          break;
        }
      }
      if (!retry) break;
      stats::count(stats::Id::kTxnRevalidate, 1, this);
      MOIR_YIELD_POINT();
      // Back off so the double-collect does not chase a hot writer
      // line-for-line.
      backoff.pause();
    }
    for (unsigned i = 0; i < n; ++i) {
      out[i] = h1[i] == kNoHandle ? kAbsent : val[i];
    }
  }

  // Thread-private key->handle memo (see ThreadCtx). Direct-mapped on the
  // low key bits so runs of adjacent keys never collide with each other.
  static unsigned memo_slot(std::uint64_t key) {
    return static_cast<unsigned>(key) & (ThreadCtx::kMemoSlots - 1);
  }
  static std::uint32_t memo_probe(const ThreadCtx& ctx, std::uint64_t key) {
    const unsigned s = memo_slot(key);
    return (ctx.memo_h[s] != Map::kNoHandle && ctx.memo_key[s] == key)
               ? ctx.memo_h[s]
               : Map::kNoHandle;
  }
  static void memo_remember(ThreadCtx& ctx, std::uint64_t key,
                            std::uint32_t h) {
    const unsigned s = memo_slot(key);
    ctx.memo_key[s] = key;
    ctx.memo_h[s] = h;
  }

  // Memo-first handle resolution. Readers locate (kNoHandle = no node);
  // writers find-or-insert (the node is born with its cell kAbsent;
  // `hint` only sizes the slot; kNoHandle = pool exhausted).
  std::uint32_t resolve_for_read(ThreadCtx& ctx, std::uint64_t key) {
    std::uint32_t h = memo_probe(ctx, key);
    if (h == Map::kNoHandle) {
      const auto found = map_.locate_handle(ctx.map, key);
      if (!found) return Map::kNoHandle;
      h = *found;
      memo_remember(ctx, key, h);
    }
    return h;
  }
  std::uint32_t resolve_for_write(ThreadCtx& ctx, std::uint64_t key,
                                  std::uint64_t hint) {
    std::uint32_t h = memo_probe(ctx, key);
    if (h == Map::kNoHandle) {
      const auto found = map_.find_or_insert_handle(ctx.map, key, hint);
      if (!found) return Map::kNoHandle;
      h = *found;
      memo_remember(ctx, key, h);
    }
    return h;
  }

  // A write set: cell addresses sorted ascending (the STM's acquisition
  // order) plus the permutation back to user order (perm[j] = user index
  // of sorted position j).
  struct CellSet {
    std::uint32_t cells[kMaxTxnKeys];
    unsigned perm[kMaxTxnKeys];
  };

  // Resolve every key to its cell (creating absent keys' nodes) and sort.
  // Distinct keys have distinct nodes, hence distinct cells, so equal
  // neighbours after the sort mean a key was named twice: kInvalid, with
  // no cell written (created nodes stay kAbsent, as after kNoSpace).
  TxnStatus resolve_sorted(ThreadCtx& ctx, std::span<const std::uint64_t> keys,
                           CellSet& cs) {
    const unsigned n = static_cast<unsigned>(keys.size());
    for (unsigned i = 0; i < n; ++i) {
      const std::uint32_t h = resolve_for_write(ctx, keys[i], 0);
      if (h == Map::kNoHandle) return TxnStatus::kNoSpace;
      // Insertion sort by cell address (n <= 8).
      unsigned j = i;
      while (j > 0 && cs.cells[j - 1] > h) {
        cs.cells[j] = cs.cells[j - 1];
        cs.perm[j] = cs.perm[j - 1];
        --j;
      }
      cs.cells[j] = h;
      cs.perm[j] = i;
    }
    for (unsigned j = 0; j + 1 < n; ++j) {
      if (cs.cells[j] == cs.cells[j + 1]) return TxnStatus::kInvalid;
    }
    return TxnStatus::kOk;
  }

  Map& map_;
  GlobalVersionClock clock_;
  Mcas mcas_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> stamps_;  // zeroed
};

}  // namespace moir::txn
