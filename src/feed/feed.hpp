// ChangeFeed: per-shard broadcast of committed updates with per-key and
// per-shard subscription filters — the pub/sub layer over the KV service.
//
// One BroadcastRing per shard; the shard's executor publishes every
// committed write (insert/upsert/erase) right after the map operation, so
// a ring's record order IS the shard's commit order (the service's
// per-lane executor claim makes the executor the ring's single writer,
// and key-hashed routing puts all writes to one key on one ring).
//
// A subscription watches exactly one ring — a key filter watches the ring
// of shard_of(key) and delivers only that key's records; a shard filter
// delivers everything the ring carries — so its progress state is one
// scalar cursor. Polling is wait-free: a poll scans forward from the
// cursor, skipping filtered-out records, and completes in at most
// capacity + max_records slot reads (the cursor can only be within
// capacity of the writer before reads start overrunning).
//
// Overrun recovery ("latest value + at-least-once after resync"): when the
// writer laps a subscriber, the lost records are gone — by design, see
// broadcast_ring.hpp — and the subscriber falls back to the authoritative
// map. A key subscription resyncs INSIDE poll(): it samples the ring's
// published() FIRST, re-bases the cursor there, then reads the key through
// the caller-supplied resync function and delivers the result as a
// synthetic record stamped with the sample and kResyncBit. Sampling
// BEFORE the map read is what makes the resync lossless: the executor
// publishes to the ring after the map commit, so every commit with a
// sequence below the sample happened-before the sample (release publish /
// acquire published()) and is therefore visible to the later map read,
// while every commit the read could still miss has sequence >= the sample
// and is re-delivered from the ring as polling resumes. (Sampling after
// the read looks tempting — the synthetic record would never be stale —
// but it silently SKIPS any write that committed between the read and the
// sample, breaking convergence.) The price is at-least-once: the map read
// may already observe commits at or past the sample, which the following
// ring records then repeat — versions stay monotone (the first repeated
// record carries exactly the sampled sequence), and the repeats re-walk
// the commit order the resync jumped over, which FeedChecker permits
// after a resync record. A shard subscription cannot name "its" keys, so
// poll() only reports `resynced` and jumps the cursor to published(); the
// caller re-reads whatever map state it cares about after the poll
// returns (examples/kv_watch.cpp), the same sample-first order.
//
// Subscriber slots are counted LeaseRegistry leases; a refused
// try_acquire() is what turns "feed full" into a shedding kOverload at the
// service. Callers name a subscription by an opaque generation-stamped
// token, and poll()/unsubscribe() refuse one that is not live: a forged,
// stale, or double-freed token cannot over-free the registry or reach the
// cursor of a subscription that has since recycled the slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/lease_registry.hpp"
#include "feed/broadcast_ring.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"

namespace moir::feed {

enum class Filter : std::uint8_t {
  kKey,    // deliver records of one key (ring of shard_of(key))
  kShard,  // deliver every record of one shard's ring
};

struct PollResult {
  unsigned delivered = 0;  // records written to the caller's buffer
  bool overrun = false;    // the writer lapped the cursor during this poll
  bool resynced = false;   // the cursor was re-based on the map/published()
};

template <std::uint32_t RingCap = 64, bool SkipValidation = false>
class ChangeFeed {
 public:
  using Ring = BroadcastRing<RingCap, SkipValidation>;

  ChangeFeed(unsigned shards, unsigned max_subscribers)
      : shards_(shards),
        reg_(max_subscribers),
        subs_(std::make_unique<Subscription[]>(max_subscribers)) {
    MOIR_ASSERT(shards >= 1 && max_subscribers >= 1);
    rings_.reserve(shards);
    for (unsigned s = 0; s < shards; ++s) {
      rings_.push_back(std::make_unique<Ring>());
    }
  }

  unsigned shards() const { return shards_; }
  unsigned max_subscribers() const { return reg_.capacity(); }
  unsigned active_subscribers() const { return reg_.active(); }
  Ring& ring(unsigned shard) { return *rings_[shard]; }
  const Ring& ring(unsigned shard) const { return *rings_[shard]; }

  // Writer side: called by shard `shard`'s executor right after a map
  // commit. `wire_value` uses the map wire form (0 = erased, v+1 = v).
  // Returns the record's sequence number on the shard's ring.
  std::uint64_t publish(unsigned shard, std::uint64_t key,
                        std::uint64_t wire_value) {
    return rings_[shard]->publish(key, wire_value);
  }

  // Leases a subscription watching `key` (filter kKey, shard = the key's
  // shard, supplied by the caller since the feed does not own the hash) or
  // a whole shard (filter kShard). The cursor starts at published(): a new
  // subscriber sees updates committed after it subscribed, the snapshot
  // before that is the map itself. Returns the subscription's token, or
  // nullopt when max_subscribers leases are already out.
  std::optional<std::uint64_t> subscribe(Filter filter, unsigned shard,
                                         std::uint64_t key = 0) {
    MOIR_ASSERT(shard < shards_);
    const std::optional<unsigned> id = reg_.try_acquire();
    if (!id) return std::nullopt;
    Subscription& sub = subs_[*id];
    sub.filter = filter;
    sub.shard = shard;
    sub.key = key;
    sub.cursor = rings_[shard]->published();
    // Token: high half a generation, low half slot + 1 (never 0, so 0 marks
    // a free slot). The generation keeps a stale token for a recycled slot
    // from matching (modulo 2^32 subscribes). The release publishes the
    // fields above to whoever validates the token (live()).
    const std::uint64_t token =
        ((gen_.fetch_add(1, std::memory_order_relaxed) & 0xffffffffu) << 32) |
        (*id + 1);
    sub.token.store(token, std::memory_order_release);
    return token;
  }

  // Returns the lease; false, with no effect, when `token` is not live. The
  // caller must have consumed every outstanding poll of the subscription
  // first — the slot is immediately reusable (same discipline as ticket
  // slots). The CAS fails a second unsubscribe even when the two race.
  bool unsubscribe(std::uint64_t token) {
    Subscription* sub = live(token);
    std::uint64_t expected = token;
    if (sub == nullptr || !sub->token.compare_exchange_strong(expected, 0)) {
      return false;
    }
    reg_.release(static_cast<std::uint32_t>(token) - 1);
    return true;
  }

  // Reader side. Fills up to `max` records; `resync(key)` must return the
  // key's current wire-form value from the authoritative map. nullopt, with
  // nothing read, when `token` is not a live subscription. Calls for one
  // subscription must be serialized by the caller (the service's per-lane
  // claim does this; a direct subscriber is naturally its own single
  // poller) — the cursor is deliberately not atomic.
  template <class ResyncFn>
  std::optional<PollResult> poll(std::uint64_t token, Record* out,
                                 unsigned max, ResyncFn&& resync) {
    Subscription* const live_sub = live(token);
    if (live_sub == nullptr) return std::nullopt;
    Subscription& sub = *live_sub;
    Ring& ring = *rings_[sub.shard];
    PollResult res;
    Record rec;
    // Slot-read budget: without it a writer publishing as fast as a key
    // filter skips could chase the cursor indefinitely. One ring's worth
    // of skips plus the requested records bounds the scan, keeping poll
    // wait-free rather than merely lock-free.
    unsigned budget = RingCap + max;
    while (res.delivered < max && budget-- > 0) {
      const ReadStatus st = ring.read(sub.cursor, rec);
      if (st == ReadStatus::kNotReady) break;
      if (st == ReadStatus::kOverrun) {
        res.overrun = true;
        res.resynced = true;
        stats::count(stats::Id::kFeedResync, 1, this);
        if (sub.filter == Filter::kKey) {
          // published() sample FIRST, map read SECOND: any commit the
          // read misses has seq >= ver and is re-delivered from the
          // ring; see the file comment for why the reverse order loses
          // writes.
          const std::uint64_t ver = ring.published();
          rec.key = sub.key;
          rec.value = resync(sub.key);
          rec.version = ver | kResyncBit;
          sub.cursor = ver;
          out[res.delivered++] = rec;
          stats::count(stats::Id::kFeedDeliver, 1, this);
        } else {
          // A shard subscriber re-reads its own keys; just re-base.
          sub.cursor = ring.published();
        }
        continue;
      }
      sub.cursor += 1;
      if (sub.filter == Filter::kKey && rec.key != sub.key) continue;
      out[res.delivered++] = rec;
      stats::count(stats::Id::kFeedDeliver, 1, this);
    }
    return res;
  }

 private:
  struct Subscription {
    Filter filter = Filter::kKey;
    unsigned shard = 0;
    std::uint64_t key = 0;
    std::uint64_t cursor = 0;
    std::atomic<std::uint64_t> token{0};  // live token, 0 = slot free
  };

  // The subscription `token` names, or nullptr when it is not live. The
  // acquire pairs with subscribe()'s release. No yield point: the check
  // adds no step to the poll path the explorers enumerate.
  Subscription* live(std::uint64_t token) {
    const std::uint64_t low = token & 0xffffffffu;
    if (low == 0 || low > reg_.capacity()) return nullptr;
    Subscription& sub = subs_[low - 1];
    return sub.token.load(std::memory_order_acquire) == token ? &sub
                                                              : nullptr;
  }

  const unsigned shards_;
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<std::uint64_t> gen_{1};  // token generations (subscribe)
  LeaseRegistry<true> reg_;
  std::unique_ptr<Subscription[]> subs_;
};

}  // namespace moir::feed
