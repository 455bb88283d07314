// Sharded non-blocking hash map over small LL/VL/SC + pluggable reclamation.
//
// The first end-to-end "serve a key-value workload" structure in this
// repository: a hash table of S shards, each shard an open bucket-chain
// table whose chains are Harris-style sorted lists with a mark bit, linked
// through node *indices* into a per-shard lock-free BlockAllocator. The map
// is templated over
//
//   * the LL/SC substrate (Figure 4 CAS-backed, Figure 5 RLL/RSC-backed,
//     Figure 7 bounded-tag, the lock baseline — anything satisfying
//     SmallLlscSubstrate), which carries every link mutation, and
//   * the Reclaimer policy (epoch, hazard pointer, or the broken negative
//     control), which makes reads of *plain* node payload safe.
//
// Division of labor, and why both layers are needed:
//
//   * The substrate's tags make link CASes ABA-safe: a stale SC against a
//     recycled node's next field fails because every successful SC advanced
//     the tag (Figure 4/5) or the announcement check fails (Figure 7). No
//     reclaimer needed for that.
//   * Nothing in the substrate protects a traverser that READS node n's key
//     after n was unlinked, freed, and re-allocated — the read returns the
//     new occupant's bytes and the traverser reports membership of a key
//     that was never in the bucket. That is the reclaimer's job: between
//     enter() and exit(), a protected (hazard) or epoch-pinned node cannot
//     be handed back to the allocator, so `key` can be an ordinary non-
//     atomic field. (tests/test_reclaim.cpp demonstrates the corruption
//     with the negative-control reclaimer, and ASan catches it as
//     use-after-poison via the allocator's poisoning.)
//
// Chain encoding: a next word is (index << 1) | mark, where index ==
// capacity_per_shard is the null sentinel and the mark bit is Harris's
// logical-deletion flag. erase() marks the victim's next word (the
// linearization point), then unlinks it from its predecessor; traversals
// help-unlink marked nodes they encounter, and whichever SC performs the
// physical unlink retires the node — exactly once, because only one SC on
// the predecessor's next can succeed per tag.
//
// upsert() on an existing key updates the node's value field in place
// (std::atomic store); racing with a concurrent erase of the same key, the
// update linearizes immediately before the erase — the stored value is then
// never observed, which is the standard in-place-update semantics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/llsc_traits.hpp"
#include "platform/yield_point.hpp"
#include "reclaim/block_allocator.hpp"
#include "reclaim/reclaimer.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"

namespace moir {

// SplitMix64 finalizer: full-avalanche 64-bit hash for shard/bucket routing.
inline std::uint64_t hash_mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// Outcome of a write that may create its key's node. TxnKv reports its
// writes in the same terms (txn::TxnStatus is this type), so one executor
// switch can drive either store.
enum class WriteStatus : std::uint8_t {
  kOk,       // applied (insert: inserted; upsert: inserted; cas: matched)
  kMiss,     // comparison failed / key already present / updated in place
  kNoSpace,  // a key's shard node pool is exhausted; nothing was written
  kInvalid,  // TxnKv only: malformed (value out of range, duplicate key)
};

template <SmallLlscSubstrate S, reclaim::Reclaimer R>
class ShardedHashMap {
 public:
  struct Config {
    unsigned shards = 8;
    std::uint32_t buckets_per_shard = 64;
    std::uint32_t capacity_per_shard = 1024;
  };

  struct ThreadCtx {
    typename S::ThreadCtx sub;
    typename R::ThreadCtx rec;
  };

  // The reclaimer is owned by the map (its free function must route into
  // the per-shard allocators) and is constructed as R(max_threads, free_fn)
  // — the uniform signature all policies share. `max_threads` bounds
  // *concurrent* ThreadCtx holders, as everywhere in this library.
  ShardedHashMap(S& substrate, unsigned max_threads, Config cfg = {})
      : substrate_(substrate),
        cfg_(cfg),
        null_idx_(cfg.capacity_per_shard),
        reclaimer_(max_threads, [this](std::uint32_t global) {
          shards_[global / cfg_.capacity_per_shard]->alloc.free(
              global % cfg_.capacity_per_shard);
        }) {
    MOIR_ASSERT(cfg.shards >= 1 && cfg.buckets_per_shard >= 1);
    MOIR_ASSERT_MSG(
        (std::uint64_t{cfg.capacity_per_shard} << 1 | 1) <=
            substrate.max_value(),
        "next-word encoding (index<<1 | mark) must fit the substrate's "
        "value field");
    shards_.reserve(cfg.shards);
    for (unsigned s = 0; s < cfg.shards; ++s) {
      shards_.push_back(
          std::make_unique<Shard>(substrate, cfg, null_idx_, s));
    }
  }

  // All ThreadCtxs must be destroyed before the map (their fold path
  // touches the reclaimer, whose free function touches the shards).
  ThreadCtx make_ctx() {
    return ThreadCtx{substrate_.make_ctx(), reclaimer_.make_ctx()};
  }

  // Inserts key -> value. Returns false if the key is present or the
  // shard's node pool is exhausted (alloc_exhaustion counts the latter).
  bool insert(ThreadCtx& ctx, std::uint64_t key, std::uint64_t value) {
    return write(ctx, key, value, /*upsert=*/false) == WriteStatus::kOk;
  }

  // Updates in place if present (returns false), inserts otherwise
  // (returns true). YCSB "update" maps here.
  bool upsert(ThreadCtx& ctx, std::uint64_t key, std::uint64_t value) {
    return write(ctx, key, value, /*upsert=*/true) == WriteStatus::kOk;
  }

  // insert (upsert = false) or upsert, telling apart the cases their bool
  // folds together: inserted, key present (upsert: updated), no space.
  WriteStatus write(ThreadCtx& ctx, std::uint64_t key, std::uint64_t value,
                    bool upsert) {
    Shard& sh = shard_of(key);
    reclaimer_.enter(ctx.rec);
    const SlotResult r = insert_impl(ctx, sh, key, value, upsert);
    reclaimer_.exit(ctx.rec);
    if (!r.ok) return WriteStatus::kNoSpace;
    return r.inserted ? WriteStatus::kOk : WriteStatus::kMiss;
  }

  // ----- txn-layer hooks ---------------------------------------------------
  // A handle is a node's GLOBAL index (shard.index * capacity_per_shard +
  // node index within the shard): a dense id into any parallel per-node
  // array, e.g. the txn layer's Mcas cell array (src/txn/txn_kv.hpp). A
  // handle is stable exactly as long as its node stays linked; the txn
  // layer keeps nodes forever (its "erase" writes an absent marker into
  // the value cell instead of unlinking), so under that insert-only
  // discipline handles are stable for the map's lifetime. Mixing direct
  // erase() with handle-based access is not supported.
  std::uint32_t handle_space() const {
    return cfg_.shards * cfg_.capacity_per_shard;
  }

  // Find-or-insert returning a stable handle under the reclaimer bracket:
  // inserts a node carrying `node_value` if the key is absent, else
  // adopts the existing node. nullopt = shard node pool exhausted.
  std::optional<std::uint32_t> find_or_insert_handle(ThreadCtx& ctx,
                                                     std::uint64_t key,
                                                     std::uint64_t node_value) {
    Shard& sh = shard_of(key);
    reclaimer_.enter(ctx.rec);
    const SlotResult r =
        insert_impl(ctx, sh, key, node_value, /*upsert=*/false);
    reclaimer_.exit(ctx.rec);
    if (!r.ok) return std::nullopt;
    return global_idx(sh, r.idx);
  }

  // Handle lookup without insertion; nullopt = key has no node.
  std::optional<std::uint32_t> locate_handle(ThreadCtx& ctx,
                                             std::uint64_t key) {
    Shard& sh = shard_of(key);
    reclaimer_.enter(ctx.rec);
    std::optional<std::uint32_t> out;
    const Window w = search(ctx, sh, bucket_of(key), key);
    if (w.curr != null_idx_ && sh.alloc.node(w.curr).key == key) {
      out = global_idx(sh, w.curr);
    }
    reclaimer_.exit(ctx.rec);
    return out;
  }

  // Batched locate_handle: the whole key set under ONE reclaimer
  // bracket, kNoHandle marking absent keys. Per-key results match
  // locate_handle exactly; the single enter/exit amortizes the guard's
  // fences across the batch. The bracket protects only the searches —
  // returned handles outlive it under the txn layers' insert-only
  // discipline, exactly as for locate_handle. TxnKv's snapshot reads
  // (src/txn/) call this once per validation attempt.
  static constexpr std::uint32_t kNoHandle = ~std::uint32_t{0};
  void locate_handles(ThreadCtx& ctx, std::span<const std::uint64_t> keys,
                      std::uint32_t* out) {
    reclaimer_.enter(ctx.rec);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Shard& sh = shard_of(keys[i]);
      const Window w = search(ctx, sh, bucket_of(keys[i]), keys[i]);
      out[i] =
          (w.curr != null_idx_ && sh.alloc.node(w.curr).key == keys[i])
              ? global_idx(sh, w.curr)
              : kNoHandle;
    }
    reclaimer_.exit(ctx.rec);
  }

  std::optional<std::uint64_t> find(ThreadCtx& ctx, std::uint64_t key) {
    Shard& sh = shard_of(key);
    reclaimer_.enter(ctx.rec);
    std::optional<std::uint64_t> out;
    const Window w = search(ctx, sh, bucket_of(key), key);
    if (w.curr != null_idx_ && sh.alloc.node(w.curr).key == key) {
      MOIR_YIELD_READ(&sh.alloc.node(w.curr).value);
      out = sh.alloc.node(w.curr).value.load(std::memory_order_acquire);
    }
    reclaimer_.exit(ctx.rec);
    return out;
  }

  bool erase(ThreadCtx& ctx, std::uint64_t key) {
    Shard& sh = shard_of(key);
    reclaimer_.enter(ctx.rec);
    bool erased = false;
    for (;;) {
      const Window w = search(ctx, sh, bucket_of(key), key);
      if (w.curr == null_idx_ || sh.alloc.node(w.curr).key != key) break;
      Node& victim = sh.alloc.node(w.curr);
      // Logical deletion: set the mark bit on the victim's next word. This
      // SC is the erase's linearization point.
      typename S::Keep keep;
      const std::uint64_t nw = substrate_.ll(ctx.sub, victim.next, keep);
      if (is_marked(nw)) {
        // Concurrent erase won the mark; retry — the re-search helps
        // unlink and will report the key gone.
        substrate_.cl(ctx.sub, keep);
        continue;
      }
      if (!substrate_.sc(ctx.sub, victim.next, keep, nw | 1)) continue;
      sh.size.fetch_sub(1, std::memory_order_relaxed);
      erased = true;
      // Physical unlink; on failure some traversal will help and retire.
      typename S::Keep kp;
      const std::uint64_t pw = substrate_.ll(ctx.sub, *w.prev, kp);
      if (pw == word_of(w.curr, false)) {
        if (substrate_.sc(ctx.sub, *w.prev, kp, strip_mark(nw))) {
          retire(ctx, sh, w.curr);
        }
      } else {
        substrate_.cl(ctx.sub, kp);
      }
      break;
    }
    reclaimer_.exit(ctx.rec);
    return erased;
  }

  bool contains(ThreadCtx& ctx, std::uint64_t key) {
    return find(ctx, key).has_value();
  }

  // Signed on purpose: transiently negative per-shard counts can occur
  // between an erase's size decrement and a racing reader's sum.
  std::int64_t size_approx() const {
    std::int64_t n = 0;
    for (const auto& sh : shards_) {
      n += sh->size.load(std::memory_order_relaxed);
    }
    return n;
  }

  // Walks every chain, helping any pending unlink, then asks the reclaimer
  // to free everything freeable. After quiescence (no concurrent ops),
  // every erased node is back in its allocator — the leak-test hook.
  void purge(ThreadCtx& ctx) {
    reclaimer_.enter(ctx.rec);
    for (auto& sh : shards_) {
      for (std::uint32_t b = 0; b < cfg_.buckets_per_shard; ++b) {
        search(ctx, *sh, b, ~std::uint64_t{0});
      }
    }
    reclaimer_.exit(ctx.rec);
    reclaimer_.flush(ctx.rec);
  }

  void flush(ThreadCtx& ctx) { reclaimer_.flush(ctx.rec); }

  R& reclaimer() { return reclaimer_; }
  const Config& config() const { return cfg_; }

  // Quiescent-only: total free blocks across shards (see BlockAllocator).
  std::uint64_t free_blocks_quiescent() const {
    std::uint64_t n = 0;
    for (const auto& sh : shards_) n += sh->alloc.free_count_quiescent();
    return n;
  }

 private:
  struct Node {
    std::uint64_t key = 0;  // plain: immutable from publish to free —
                            // readable without atomics only because the
                            // reclaimer delays free past all readers
    std::atomic<std::uint64_t> value{0};
    typename S::Var next;   // (index << 1) | mark, through the substrate
  };

  struct Shard {
    Shard(S& substrate, const Config& cfg, std::uint32_t null_idx,
          unsigned shard_index)
        : heads(std::make_unique<typename S::Var[]>(cfg.buckets_per_shard)),
          alloc(cfg.capacity_per_shard, [&](Node& n) {
            substrate.init_var(n.next, std::uint64_t{null_idx} << 1);
          }),
          index(shard_index) {
      for (std::uint32_t b = 0; b < cfg.buckets_per_shard; ++b) {
        substrate.init_var(heads[b], std::uint64_t{null_idx} << 1);
      }
    }

    std::unique_ptr<typename S::Var[]> heads;
    reclaim::BlockAllocator<Node> alloc;
    const unsigned index;
    std::atomic<std::int64_t> size{0};
  };

  // The window search() returns: *prev holds (curr << 1) unmarked, curr is
  // the first node with node.key >= the searched key (or null), curr_next
  // is curr's unmarked next word. On return, hazard slot 0 protects curr
  // and slot 1 protects the node containing *prev (when it is not a bucket
  // head) — protection the caller's subsequent LL/SC relies on.
  struct Window {
    typename S::Var* prev;
    std::uint32_t curr;
    std::uint64_t curr_next;
  };

  static bool is_marked(std::uint64_t w) { return (w & 1) != 0; }
  static std::uint64_t strip_mark(std::uint64_t w) { return w & ~1ull; }
  static std::uint32_t idx_of(std::uint64_t w) {
    return static_cast<std::uint32_t>(w >> 1);
  }
  static std::uint64_t word_of(std::uint32_t idx, bool mark) {
    return (std::uint64_t{idx} << 1) | (mark ? 1 : 0);
  }

  Shard& shard_of(std::uint64_t key) {
    return *shards_[(hash_mix64(key) >> 32) % cfg_.shards];
  }
  std::uint32_t bucket_of(std::uint64_t key) const {
    return static_cast<std::uint32_t>(hash_mix64(key) & 0xffffffffull) %
           cfg_.buckets_per_shard;
  }

  std::uint32_t global_idx(const Shard& sh, std::uint32_t idx) const {
    return sh.index * cfg_.capacity_per_shard + idx;
  }

  void retire(ThreadCtx& ctx, Shard& sh, std::uint32_t idx) {
    reclaimer_.retire(ctx.rec, global_idx(sh, idx));
  }

  // Harris search with the hazard-pointer handshake folded in. The
  // protect-then-revalidate pair is what makes the subsequent plain key
  // read safe under hazard pointers; under epochs protect() is free and
  // enter() already pinned us, so the revalidation merely restarts a bit
  // more often than strictly needed.
  Window search(ThreadCtx& ctx, Shard& sh, std::uint32_t bucket,
                std::uint64_t key) {
  restart:
    for (;;) {
      typename S::Var* prev = &sh.heads[bucket];
      reclaimer_.clear(ctx.rec, 1);
      MOIR_YIELD_READ(prev);
      std::uint32_t curr = idx_of(substrate_.read(*prev));
      for (;;) {
        if (curr == null_idx_) return Window{prev, null_idx_, 0};
        reclaimer_.protect(ctx.rec, 0, global_idx(sh, curr));
        MOIR_YIELD_READ(prev);
        if (substrate_.read(*prev) != word_of(curr, false)) goto restart;
        Node& cn = sh.alloc.node(curr);
        MOIR_YIELD_READ(&cn);
        const std::uint64_t nw = substrate_.read(cn.next);
        if (is_marked(nw)) {
          // curr is logically deleted: help unlink it, retire on success.
          typename S::Keep keep;
          const std::uint64_t pw = substrate_.ll(ctx.sub, *prev, keep);
          if (pw != word_of(curr, false)) {
            substrate_.cl(ctx.sub, keep);
            goto restart;
          }
          if (!substrate_.sc(ctx.sub, *prev, keep, strip_mark(nw))) {
            goto restart;
          }
          retire(ctx, sh, curr);
          curr = idx_of(nw);
          continue;
        }
        if (cn.key >= key) return Window{prev, curr, nw};
        // Advance. Slot 1 takes over curr (it becomes prev, whose next
        // word we will keep reading); slot 0 moves to the next node on
        // the following iteration.
        reclaimer_.protect(ctx.rec, 1, global_idx(sh, curr));
        prev = &cn.next;
        curr = idx_of(nw);
      }
    }
  }

  // Outcome of the shared find-or-insert walk: ok = false only on pool
  // exhaustion; idx is the surviving node's shard-local index when ok.
  struct SlotResult {
    std::uint32_t idx = 0;
    bool inserted = false;
    bool ok = false;
  };

  SlotResult insert_impl(ThreadCtx& ctx, Shard& sh, std::uint64_t key,
                         std::uint64_t value, bool upsert) {
    const std::uint32_t bucket = bucket_of(key);
    for (;;) {
      const Window w = search(ctx, sh, bucket, key);
      if (w.curr != null_idx_ && sh.alloc.node(w.curr).key == key) {
        if (upsert) {
          MOIR_YIELD_WRITE(&sh.alloc.node(w.curr).value);
          sh.alloc.node(w.curr).value.store(value,
                                            std::memory_order_release);
        }
        return SlotResult{w.curr, false, true};
      }
      const auto n = sh.alloc.alloc();
      if (!n) return SlotResult{};  // pool exhausted (allocator counts it)
      Node& nn = sh.alloc.node(*n);
      nn.key = key;
      nn.value.store(value, std::memory_order_relaxed);
      reset_next(ctx, nn, word_of(w.curr == null_idx_ ? null_idx_ : w.curr,
                                  false));
      typename S::Keep keep;
      const std::uint64_t pw = substrate_.ll(ctx.sub, *w.prev, keep);
      if (pw != word_of(w.curr, false)) {
        substrate_.cl(ctx.sub, keep);
        sh.alloc.free(*n);  // never published: direct free, no grace period
        continue;
      }
      if (substrate_.sc(ctx.sub, *w.prev, keep, word_of(*n, false))) {
        sh.size.fetch_add(1, std::memory_order_relaxed);
        return SlotResult{*n, true, true};
      }
      sh.alloc.free(*n);
    }
  }

  // Point a freshly-allocated node's next THROUGH the LL/SC protocol so
  // its tag keeps advancing across recycles (same reasoning as the M&S
  // queue's reset_next): a plain re-init would rewind the tag and
  // reintroduce exactly the ABA the substrate exists to prevent.
  void reset_next(ThreadCtx& ctx, Node& n, std::uint64_t next_word) {
    for (;;) {
      typename S::Keep keep;
      substrate_.ll(ctx.sub, n.next, keep);
      if (substrate_.sc(ctx.sub, n.next, keep, next_word)) return;
    }
  }

  S& substrate_;
  const Config cfg_;
  const std::uint32_t null_idx_;
  std::vector<std::unique_ptr<Shard>> shards_;
  // Declared last: its destructor frees orphans through the shards above,
  // so it must run first.
  R reclaimer_;
};

}  // namespace moir
