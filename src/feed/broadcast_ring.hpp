// Fixed-size SPMC broadcast ring of committed {key, value, version}
// records: one writer (the shard's executor) appends, any number of
// subscribers read — with ZERO writes on the read path, so fan-out scales
// without cache-line contention between readers.
//
// The publication primitive is the Blelloch–Wei descriptor trick from
// core/bw_llsc.hpp turned inside out: instead of a pointer-width install of
// an immutable descriptor, each slot is a seqlock-stamped record the writer
// rewrites in place. The per-slot stamp carries the FULL sequence number of
// the record occupying the slot (2*seq+1 while the writer is mid-rewrite,
// 2*seq+2 once stable), so a reader that validates the stamp it started
// from learns three things with one extra load: the record was not torn,
// it belongs to exactly the sequence the reader asked for, and — because
// stamps only grow — a mismatch means the writer lapped the reader (an
// overrun), never an ABA alias of an older record.
//
// Lossiness is the design, not a bug: the ring never blocks the writer on
// a slow reader (that would hand subscribers a veto over the service's
// progress). A lapped reader detects the gap from the stamp and resyncs by
// reading the authoritative map — "latest value + at-least-once after
// resync" semantics, the right contract for cache-invalidation and
// watch-style workloads where only the newest value matters.
//
// Memory ordering extends the seqlock in bw_llsc.hpp to a TWO-word
// payload: the writer stores the odd stamp relaxed, then BOTH payload
// words with release, then the even stamp with release; a reader loads
// the stamp with acquire, the payload with acquire (so the relaxed
// re-validation load below cannot be hoisted above the payload reads),
// and re-checks the stamp relaxed. Each payload store must be release —
// not just the last one — because a reader lapped mid-rewrite may observe
// either word's new value first: whichever it is, the acquire load of
// that word synchronizes with its release store and makes the preceding
// odd stamp visible to the re-validation load, which then reports the
// overrun instead of returning a torn {new key, old value} record. (With
// a relaxed key store that torn record is reachable on weakly-ordered
// hardware; DFS/PCT explore SC interleavings only and cannot see it.)
// The reader's entry check on published() gives the acquire edge that
// makes "stamp below 2*seq+2" impossible for any seq < published().
//
// SkipValidation is a PLANTED BUG for the negative-control tests: it
// compiles out the re-validation load, so a reader that overlaps a writer
// lap can return a torn record (this slot's old key with the lapping
// record's value). DFS and PCT must both catch it (tests/test_feed.cpp);
// production code always uses the default.
#pragma once

#include <atomic>
#include <cstdint>

#include "platform/yield_point.hpp"
#include "stats/stats.hpp"
#include "util/cache.hpp"

namespace moir::feed {

// One committed update. `value` is in wire form (0 = key absent/erased,
// v+1 = value v — the map/txn layers' convention); `version` is the
// record's per-shard sequence number, except that resync records carry
// kResyncBit (see ChangeFeed::poll).
struct Record {
  std::uint64_t key = 0;
  std::uint64_t value = 0;
  std::uint64_t version = 0;
};

// Versions with this bit set were synthesized by a resync (the value came
// from the map, not a ring slot); the low bits still order them against
// ring sequence numbers.
inline constexpr std::uint64_t kResyncBit = std::uint64_t{1} << 63;

enum class ReadStatus : std::uint8_t {
  kOk,        // record copied out
  kNotReady,  // seq not published yet
  kOverrun,   // slot recycled: the writer is >= capacity ahead of seq
};

template <std::uint32_t kCap = 64, bool SkipValidation = false>
class BroadcastRing {
  static_assert(kCap >= 2 && kCap <= (1u << 20),
                "broadcast ring capacity out of range");
  static_assert((kCap & (kCap - 1)) == 0,
                "broadcast ring capacity must be a power of two");

 public:
  BroadcastRing() = default;
  BroadcastRing(const BroadcastRing&) = delete;
  BroadcastRing& operator=(const BroadcastRing&) = delete;

  static constexpr std::uint32_t capacity() { return kCap; }

  // Writer side — single writer per ring (the service enforces this with
  // the per-lane executor claim; see svc/service.hpp). Returns the
  // record's sequence number.
  std::uint64_t publish(std::uint64_t key, std::uint64_t value) {
    const std::uint64_t seq = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[seq & kMask];
    MOIR_YIELD_WRITE(&s.stamp);
    s.stamp.store(2 * seq + 1, std::memory_order_relaxed);
    MOIR_YIELD_STEP(::moir::testing::StepInfo::write(&s.key)
                        .also_write(&s.value));
    s.key.store(key, std::memory_order_release);
    s.value.store(value, std::memory_order_release);
    MOIR_YIELD_WRITE(&s.stamp);
    s.stamp.store(2 * seq + 2, std::memory_order_release);
    MOIR_YIELD_WRITE(&head_);
    head_.store(seq + 1, std::memory_order_release);
    stats::count(stats::Id::kFeedPublish, 1, this);
    return seq;
  }

  // Sequence numbers [0, published()) have been fully written; the next
  // publish gets sequence published().
  std::uint64_t published() const {
    MOIR_YIELD_READ(&head_);
    return head_.load(std::memory_order_acquire);
  }

  // How far behind `seq` is; a lag > capacity() means read(seq) will
  // overrun. Advisory under concurrency.
  std::uint64_t lag(std::uint64_t seq) const {
    const std::uint64_t p = published();
    return p > seq ? p - seq : 0;
  }

  // Reader side: wait-free, write-free. Copies record `seq` into `out`
  // when the slot still holds it.
  ReadStatus read(std::uint64_t seq, Record& out) const {
    if (seq >= published()) return ReadStatus::kNotReady;
    const Slot& s = slots_[seq & kMask];
    const std::uint64_t want = 2 * seq + 2;
    MOIR_YIELD_READ(&s.stamp);
    const std::uint64_t stamp = s.stamp.load(std::memory_order_acquire);
    // published() > seq already ordered this slot's even stamp for `seq`
    // before our load, and stamps only grow, so stamp < want is impossible;
    // any mismatch is the writer having moved on.
    if (stamp != want) {
      stats::count(stats::Id::kFeedOverrun, 1, this);
      return ReadStatus::kOverrun;
    }
    MOIR_YIELD_STEP(::moir::testing::StepInfo::read(&s.value)
                        .also_read(&s.key));
    // Both payload loads are acquire so the relaxed re-validation below
    // cannot be reordered before either of them.
    const std::uint64_t value = s.value.load(std::memory_order_acquire);
    const std::uint64_t key = s.key.load(std::memory_order_acquire);
    if constexpr (!SkipValidation) {
      // Runs after both payload loads (their acquire ordering pins this
      // load), so stamp == want here proves key/value belong to `seq` and
      // were not torn by a lap.
      MOIR_YIELD_READ(&s.stamp);
      if (s.stamp.load(std::memory_order_relaxed) != want) {
        stats::count(stats::Id::kFeedOverrun, 1, this);
        return ReadStatus::kOverrun;
      }
    }
    out.key = key;
    out.value = value;
    out.version = seq;
    return ReadStatus::kOk;
  }

 private:
  static constexpr std::uint64_t kMask = kCap - 1;

  // stamp and payload share the slot's cache line on purpose: a reader
  // touches one line per record, and only the single writer dirties it.
  struct alignas(kCacheLine) Slot {
    std::atomic<std::uint64_t> stamp{0};
    std::atomic<std::uint64_t> key{0};
    std::atomic<std::uint64_t> value{0};
  };

  Slot slots_[kCap];
  // Writer-owned; padded so subscriber polls of published() do not share a
  // line with slot rewrites.
  alignas(kCacheLine) std::atomic<std::uint64_t> head_{0};
};

}  // namespace moir::feed
