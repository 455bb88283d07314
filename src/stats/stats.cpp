#include "stats/stats.hpp"

#include <algorithm>
#include <vector>

#include "util/assertion.hpp"
#include "util/env.hpp"

#if MOIR_STATS
#include <mutex>

#include "core/lease_registry.hpp"
#endif

namespace moir::stats {

const char* name(Id id) {
  static constexpr const char* kNames[] = {
#define MOIR_COUNTER(id, json) #json,
#include "stats/catalogue.def"
  };
  const auto i = static_cast<unsigned>(id);
  return i < kNumCounters ? kNames[i] : "unknown";
}

const char* name(HistId id) {
  static constexpr const char* kNames[] = {
#define MOIR_HISTOGRAM(id, json) #json,
#include "stats/catalogue.def"
  };
  const auto i = static_cast<unsigned>(id);
  return i < kNumHists ? kNames[i] : "unknown";
}

#if MOIR_STATS

namespace {

// Shard pool. Static storage: zero-initialized before any code runs, so a
// count() from another TU's dynamic initializer at worst sees g_mode==0
// and no-ops.
Shard g_shards[kMaxShards];

// Writes arriving after the owning thread's lease died (thread_local
// destructor ordering) land here. Multiple dying threads may interleave
// load+store increments and lose a few counts — bounded, documented, and
// never undefined behaviour.
Shard g_orphan;

// Guards the retired accumulators and lease release/zeroing, and
// stabilizes snapshots against concurrent releases.
std::mutex g_merge_mutex;

std::uint64_t g_retired_counts[kNumCounters];

struct HistParts {
  std::uint64_t buckets[Histogram::kBuckets + 1] = {};
  std::uint64_t total = 0;
  std::uint64_t n = 0;
  std::uint64_t max = 0;
  std::uint64_t min = ~std::uint64_t{0};
};
HistParts g_retired_hists[kNumHists];

constexpr unsigned kRetiredTraceCap = 1024;
std::vector<TraceEvent> g_retired_trace;

// Uncounted: a counted registry would count into the shard being leased.
LeaseRegistry<>& shard_registry() {
  static LeaseRegistry<> registry{kMaxShards};
  return registry;
}

void fold_hist_shard(HistShard& h, HistParts& into, bool zero) {
  std::uint64_t buckets[Histogram::kBuckets + 1];
  for (unsigned b = 0; b <= Histogram::kBuckets; ++b) {
    buckets[b] = h.buckets[b].load(std::memory_order_relaxed);
    into.buckets[b] += buckets[b];
    if (zero) h.buckets[b].store(0, std::memory_order_relaxed);
  }
  const std::uint64_t n = h.n.load(std::memory_order_relaxed);
  into.total += h.total.load(std::memory_order_relaxed);
  into.n += n;
  if (n > 0) {
    into.max = std::max(into.max, h.max.load(std::memory_order_relaxed));
    into.min = std::min(into.min, h.min.load(std::memory_order_relaxed));
  }
  if (zero) {
    h.total.store(0, std::memory_order_relaxed);
    h.n.store(0, std::memory_order_relaxed);
    h.max.store(0, std::memory_order_relaxed);
    h.min.store(0, std::memory_order_relaxed);
  }
}

void append_ring_events(const Shard& s, std::vector<TraceEvent>& out) {
  const std::uint32_t len = s.ring_len.load(std::memory_order_relaxed);
  const std::uint32_t have = len < kTraceCap ? len : kTraceCap;
  for (std::uint32_t i = 0; i < have; ++i) {
    out.push_back(s.ring[(len - have + i) % kTraceCap]);
  }
}

void zero_shard(Shard& s) {
  for (auto& c : s.counts) c.store(0, std::memory_order_relaxed);
  for (auto& h : s.hists) {
    HistParts sink;
    fold_hist_shard(h, sink, /*zero=*/true);
  }
  s.ring_len.store(0, std::memory_order_relaxed);
}

// Folds a dying thread's shard into the retired accumulators and returns
// the shard to the pool. Lives here (not in the header) so the fast path
// never sees a thread_local with a destructor.
struct ShardLease {
  Shard* shard = nullptr;
  unsigned id = 0;
  bool active = false;

  ~ShardLease() {
    if (!active) return;
    std::lock_guard<std::mutex> lock(g_merge_mutex);
    for (unsigned i = 0; i < kNumCounters; ++i) {
      g_retired_counts[i] +=
          shard->counts[i].load(std::memory_order_relaxed);
    }
    for (unsigned h = 0; h < kNumHists; ++h) {
      // fold only; zero_shard below clears
      HistParts& into = g_retired_hists[h];
      fold_hist_shard(shard->hists[h], into, /*zero=*/false);
    }
    if (g_retired_trace.size() < kRetiredTraceCap) {
      append_ring_events(*shard, g_retired_trace);
      if (g_retired_trace.size() > kRetiredTraceCap) {
        g_retired_trace.resize(kRetiredTraceCap);
      }
    }
    zero_shard(*shard);
    shard_registry().release(id);
    active = false;
    // Late writes from destructors running after this one go to the
    // orphan shard instead of a recycled (now someone else's) slot.
    tls_shard = &g_orphan;
  }
};

thread_local ShardLease tls_lease;

std::atomic<std::uint64_t> g_trace_seq{0};

void dump_trace_stderr() { dump_trace(stderr); }

}  // namespace

std::atomic<std::uint32_t> g_mode{0};
thread_local Shard* tls_shard = nullptr;

namespace {
// Dynamic initializer: picks up the runtime env toggles once at startup.
// Runs after g_mode's constant initialization, so hooks called earlier
// (other TUs' initializers) safely no-op.
[[maybe_unused]] const bool g_env_initialized = [] {
  std::uint32_t mode = 0;
  if (env_flag("MOIR_STATS", true)) mode |= kCountingBit;
  if (env_flag("MOIR_TRACE", false)) {
    mode |= kTracingBit;
    assertion_hook().store(&dump_trace_stderr, std::memory_order_release);
  }
  g_mode.store(mode, std::memory_order_relaxed);
  return true;
}();
}  // namespace

Shard& acquire_shard() {
  ShardLease& lease = tls_lease;
  MOIR_ASSERT_MSG(!lease.active, "shard lease already active without tls_shard");
  const std::optional<unsigned> id = shard_registry().try_acquire();
  if (!id) {
    // kMaxShards threads hold shards: share the orphan shard, whose
    // writers may race like late writes do.
    tls_shard = &g_orphan;
    return g_orphan;
  }
  lease.id = *id;
  lease.shard = &g_shards[lease.id];
  lease.active = true;
  tls_shard = lease.shard;
  return *lease.shard;
}

void trace_event(Shard& s, Id id, const void* obj, std::uint64_t arg) {
  const std::uint64_t seq =
      g_trace_seq.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t len = s.ring_len.load(std::memory_order_relaxed);
  TraceEvent& e = s.ring[len % kTraceCap];
  e.seq = seq;
  e.arg = arg;
  e.obj = obj;
  e.id = id;
  s.ring_len.store(len + 1, std::memory_order_relaxed);
}

Snapshot snapshot() {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(g_merge_mutex);
  for (unsigned i = 0; i < kNumCounters; ++i) {
    snap.counts[i] = g_retired_counts[i] +
                     g_orphan.counts[i].load(std::memory_order_relaxed);
  }
  const unsigned high_water = shard_registry().high_water();
  for (unsigned p = 0; p < high_water; ++p) {
    for (unsigned i = 0; i < kNumCounters; ++i) {
      snap.counts[i] += g_shards[p].counts[i].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

Histogram merged_histogram(HistId id) {
  Histogram out;
  std::lock_guard<std::mutex> lock(g_merge_mutex);
  const unsigned h = static_cast<unsigned>(id);
  HistParts parts = g_retired_hists[h];
  fold_hist_shard(g_orphan.hists[h], parts, /*zero=*/false);
  const unsigned high_water = shard_registry().high_water();
  for (unsigned p = 0; p < high_water; ++p) {
    fold_hist_shard(g_shards[p].hists[h], parts, /*zero=*/false);
  }
  out.merge_parts(parts.buckets, parts.total, parts.n, parts.max, parts.min);
  return out;
}

bool counting_enabled() {
  return (g_mode.load(std::memory_order_relaxed) & kCountingBit) != 0;
}

bool trace_enabled() {
  return (g_mode.load(std::memory_order_relaxed) & kTracingBit) != 0;
}

void set_counting(bool on) {
  if (on) {
    g_mode.fetch_or(kCountingBit, std::memory_order_relaxed);
  } else {
    g_mode.fetch_and(~kCountingBit, std::memory_order_relaxed);
  }
}

void set_tracing(bool on) {
  if (on) {
    g_mode.fetch_or(kTracingBit, std::memory_order_relaxed);
    assertion_hook().store(&dump_trace_stderr, std::memory_order_release);
  } else {
    g_mode.fetch_and(~kTracingBit, std::memory_order_relaxed);
  }
}

void reset() {
  std::lock_guard<std::mutex> lock(g_merge_mutex);
  for (auto& c : g_retired_counts) c = 0;
  for (auto& h : g_retired_hists) h = HistParts{};
  g_retired_trace.clear();
  zero_shard(g_orphan);
  const unsigned high_water = shard_registry().high_water();
  for (unsigned p = 0; p < high_water; ++p) {
    zero_shard(g_shards[p]);
  }
}

void dump_trace(std::FILE* out) {
  // Collect without the merge mutex: this runs from the assertion hook,
  // where the failing thread could already hold it (a release racing an
  // assert). Racy reads of a dying process's rings are acceptable.
  std::vector<TraceEvent> events;
  events.reserve(kMaxShards * 8);
  const unsigned high_water = shard_registry().high_water();
  for (unsigned p = 0; p < high_water; ++p) {
    append_ring_events(g_shards[p], events);
  }
  append_ring_events(g_orphan, events);
  events.insert(events.end(), g_retired_trace.begin(), g_retired_trace.end());
  if (events.empty()) return;
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.seq < b.seq;
            });
  constexpr std::size_t kDumpMax = 128;
  const std::size_t start =
      events.size() > kDumpMax ? events.size() - kDumpMax : 0;
  std::fprintf(out, "moir stats trace (last %zu of %zu events):\n",
               events.size() - start, events.size());
  for (std::size_t i = start; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(out, "  [%8llu] %-14s obj=%p arg=%llu\n",
                 static_cast<unsigned long long>(e.seq), name(e.id), e.obj,
                 static_cast<unsigned long long>(e.arg));
  }
}

#else  // !MOIR_STATS

Snapshot snapshot() { return Snapshot{}; }
Histogram merged_histogram(HistId) { return Histogram{}; }
bool counting_enabled() { return false; }
bool trace_enabled() { return false; }
void set_counting(bool) {}
void set_tracing(bool) {}
void reset() {}
void dump_trace(std::FILE*) {}

#endif  // MOIR_STATS

}  // namespace moir::stats
