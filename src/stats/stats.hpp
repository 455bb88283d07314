// Zero-overhead-when-off statistics layer: sharded event counters, retry
// histograms, and a per-thread event-trace ring buffer.
//
// The paper's claims are about progress under contention — how often SC
// fails, how much helping Figure 6/7 performs, how spurious RSC failures
// propagate (Theorems 1-5). This layer counts exactly those events so
// benchmarks and tests can report them. Design constraints, in order:
//
//  1. When compiled out (MOIR_STATS=0) every hook is a constexpr empty
//     inline — zero code, zero data, verified by a codegen test
//     (tests/test_stats.cpp uses the hooks in constant expressions, which
//     only compiles if they have no runtime effects).
//  2. When compiled in but disabled at runtime (env MOIR_STATS=0 or
//     set_counting(false)), the hot path is one relaxed atomic load and a
//     predictable branch.
//  3. When enabled, each thread owns a cache-line-padded shard leased from
//     a LeaseRegistry, so counting is a thread-local relaxed load+store
//     — no contended fetch_add on the measured path. Counters are
//     single-writer; readers merge shards on demand, so totals are exact
//     once writer threads are quiescent (joined or at a barrier) and a
//     close approximation while they run.
//
// Shards are recycled: a thread's lease is returned on thread exit after
// folding its counts into a retired accumulator, so the shard pool bounds
// *concurrent* threads (kMaxShards), not the lifetime thread count — the
// schedule explorer spawns fresh threads per trial and would exhaust any
// non-recycling pool. Writes that land after a thread's lease is already
// released (other thread_local destructors) go to a shared orphan shard:
// never lost to UB, merely allowed to race with other dying threads. A
// thread that finds all kMaxShards shards held counts into the orphan
// shard for its whole life, on the same terms.
//
// Tracing (env MOIR_TRACE=1 or set_tracing(true)) timestamps each event
// with a global sequence number into a per-shard ring buffer; dump_trace()
// prints the last events across all shards in sequence order. An assertion
// hook wires this to MOIR_ASSERT, so a failed invariant dumps the events
// leading up to it — composing with the `ms1:` schedule-replay strings
// from sim/explore.hpp for deterministic re-runs.
#pragma once

#include <cstdint>
#include <cstdio>

#include "util/histogram.hpp"

#ifndef MOIR_STATS
#define MOIR_STATS 1
#endif

#if MOIR_STATS
#include <atomic>

#include "util/cache.hpp"
#endif

namespace moir::stats {

// ----- Counter catalogue ---------------------------------------------------
// Both enums are generated from stats/catalogue.def, which carries each
// entry's meaning; the JSON name is name(id).
enum class Id : std::uint8_t {
#define MOIR_COUNTER(id, json) id,
#include "stats/catalogue.def"
  kNumIds
};

inline constexpr unsigned kNumCounters = static_cast<unsigned>(Id::kNumIds);

enum class HistId : std::uint8_t {
#define MOIR_HISTOGRAM(id, json) id,
#include "stats/catalogue.def"
  kNumHistIds
};

inline constexpr unsigned kNumHists = static_cast<unsigned>(HistId::kNumHistIds);

// Stable snake_case names used in JSON exports and table rows.
const char* name(Id id);
const char* name(HistId id);

// A merged view of all counters at a point in time. Exact when no thread
// is concurrently recording (tests snapshot around quiesced sections).
struct Snapshot {
  std::uint64_t counts[kNumCounters] = {};

  std::uint64_t operator[](Id id) const {
    return counts[static_cast<unsigned>(id)];
  }

  friend Snapshot operator-(Snapshot a, const Snapshot& b) {
    for (unsigned i = 0; i < kNumCounters; ++i) a.counts[i] -= b.counts[i];
    return a;
  }
};

inline constexpr bool kCompiledIn = MOIR_STATS != 0;

// ----- Cold API (available in both modes; inert when compiled out) --------
Snapshot snapshot();
Histogram merged_histogram(HistId id);
bool counting_enabled();
bool trace_enabled();
void set_counting(bool on);
void set_tracing(bool on);  // also installs the assertion trace-dump hook
// Zeroes all counters, histograms, and trace rings. Only exact when no
// thread is concurrently recording.
void reset();
// Prints the most recent trace events (all shards, merged by sequence
// number) to `out`. No-op when tracing never ran.
void dump_trace(std::FILE* out);

#if MOIR_STATS

// ----- Hot path ------------------------------------------------------------

inline constexpr std::uint32_t kCountingBit = 1;
inline constexpr std::uint32_t kTracingBit = 2;
inline constexpr unsigned kMaxShards = 128;
inline constexpr unsigned kTraceCap = 256;  // events per shard ring

struct TraceEvent {
  std::uint64_t seq = 0;
  std::uint64_t arg = 0;
  const void* obj = nullptr;
  Id id = Id::kNumIds;
};

// Single-writer histogram parts mirroring util::Histogram's buckets; the
// owning thread updates with relaxed load+store, readers fold into a real
// Histogram via merge_parts() once the writer is quiescent.
struct HistShard {
  std::atomic<std::uint64_t> buckets[Histogram::kBuckets + 1];
  std::atomic<std::uint64_t> total;
  std::atomic<std::uint64_t> n;
  std::atomic<std::uint64_t> max;
  std::atomic<std::uint64_t> min;

  void record(std::uint64_t v) {
    auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t d) {
      c.store(c.load(std::memory_order_relaxed) + d,
              std::memory_order_relaxed);
    };
    bump(buckets[Histogram::bucket_of(v)], 1);
    bump(total, v);
    const std::uint64_t old_n = n.load(std::memory_order_relaxed);
    if (old_n == 0 || v < min.load(std::memory_order_relaxed)) {
      min.store(v, std::memory_order_relaxed);
    }
    if (v > max.load(std::memory_order_relaxed)) {
      max.store(v, std::memory_order_relaxed);
    }
    n.store(old_n + 1, std::memory_order_relaxed);
  }
};

struct alignas(kCacheLine) Shard {
  std::atomic<std::uint64_t> counts[kNumCounters];
  HistShard hists[kNumHists];
  TraceEvent ring[kTraceCap];
  std::atomic<std::uint32_t> ring_len;  // events ever traced; slot = len % cap
};

// Mode word read on every hook: bitwise or of kCountingBit/kTracingBit.
// Zero (the static-init value, and the MOIR_STATS=0 env setting) short-
// circuits every hook to a load+branch.
extern std::atomic<std::uint32_t> g_mode;

// Raw shard pointer, deliberately trivially destructible so the fast path
// carries no thread_local destructor guard. The owning lease object lives
// in stats.cpp and repoints this at the orphan shard on thread exit.
extern thread_local Shard* tls_shard;

Shard& acquire_shard();  // cold: leases a shard for the calling thread
void trace_event(Shard& s, Id id, const void* obj, std::uint64_t arg);

inline Shard& shard() {
  Shard* s = tls_shard;
  return s != nullptr ? *s : acquire_shard();
}

// Count `delta` occurrences of `id`. `obj` is trace-only context (the
// shared variable involved), ignored unless tracing is on.
inline void count(Id id, std::uint64_t delta = 1, const void* obj = nullptr) {
  const std::uint32_t mode = g_mode.load(std::memory_order_relaxed);
  if (mode == 0) return;
  Shard& s = shard();
  if ((mode & kCountingBit) != 0) {
    auto& c = s.counts[static_cast<unsigned>(id)];
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
  if ((mode & kTracingBit) != 0) trace_event(s, id, obj, delta);
}

inline void record(HistId h, std::uint64_t value) {
  if ((g_mode.load(std::memory_order_relaxed) & kCountingBit) == 0) return;
  shard().hists[static_cast<unsigned>(h)].record(value);
}

#else  // !MOIR_STATS

// Compiled out: hooks are constexpr no-ops, so they are valid in constant
// expressions — the codegen test's static_asserts prove no runtime code
// can hide behind them.
constexpr void count(Id, std::uint64_t = 1, const void* = nullptr) noexcept {}
constexpr void record(HistId, std::uint64_t) noexcept {}

#endif  // MOIR_STATS

}  // namespace moir::stats
