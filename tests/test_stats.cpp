// Deterministic tests for the stats layer (src/stats/).
//
// The counter catalogue instruments the paper's progress arguments (SC
// failures, Figure 6 helping, Figure 7 tag recycling, spurious RSC
// retries). These tests pin exact counts under scripted schedules: the
// controlled scheduler serializes the threads, a policy picker stages the
// critical interleaving, and the snapshot delta must match the count the
// paper's argument predicts — not approximately, exactly.
//
// When the layer is compiled out (MOIR_STATS=0 preset) the scheduler tests
// skip and the codegen section takes over: the hooks must be usable in
// constant expressions, which only compiles if they are constexpr no-ops
// with zero runtime effects.
#include "stats/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <thread>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bounded_llsc.hpp"
#include "core/llsc_from_cas.hpp"
#include "core/llsc_from_rllrsc.hpp"
#include "core/wide_llsc.hpp"
#include "nonblocking/stm.hpp"
#include "platform/fault.hpp"
#include "sim/controlled_scheduler.hpp"
#include "stats/export.hpp"
#include "util/json.hpp"

namespace moir {
namespace {

using stats::HistId;
using stats::Id;
using testing::ControlledScheduler;
using testing::RunnableThread;

#if MOIR_STATS

// Enables counting for a test body and restores a clean slate around it.
class StatsGuard {
 public:
  StatsGuard() {
    stats::reset();
    stats::set_counting(true);
  }
  ~StatsGuard() {
    stats::set_tracing(false);
    stats::set_counting(false);
    stats::reset();
  }
};

bool runnable_has(const std::vector<RunnableThread>& runnable, unsigned id) {
  return std::any_of(runnable.begin(), runnable.end(),
                     [id](const RunnableThread& r) { return r.id == id; });
}

// ---------------------------------------------------------------------
// Figure 4, the forced-failure schedule: T0 LLs, T1 runs a complete
// LL;SC (success), then T0's SC must fail. Exactly one success, exactly
// one failure, and no helping (Figure 4 has none to do).
// ---------------------------------------------------------------------
TEST(StatsCounters, Fig4ForcedFailureExactCounts) {
  StatsGuard guard;
  using L = LlscFromCas<16>;

  L::Var var(7);
  std::atomic<bool> t0_ll_done{false};
  bool t0_sc_ok = true, t1_sc_ok = false;

  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    L::Keep keep;
    const std::uint64_t v = L::ll(var, keep);
    t0_ll_done.store(true, std::memory_order_relaxed);
    t0_sc_ok = L::sc(var, keep, (v + 1) & 0xffff);
  });
  bodies.push_back([&] {
    L::Keep keep;
    const std::uint64_t v = L::ll(var, keep);
    t1_sc_ok = L::sc(var, keep, (v + 2) & 0xffff);
  });

  const stats::Snapshot before = stats::snapshot();
  ControlledScheduler::run(
      std::move(bodies),
      [&](const std::vector<RunnableThread>& runnable, std::size_t) {
        // T0 until its LL returned, then T1 to completion, then drain T0.
        if (!t0_ll_done.load(std::memory_order_relaxed) &&
            runnable_has(runnable, 0)) {
          return 0u;
        }
        return runnable_has(runnable, 1) ? 1u : 0u;
      });
  const stats::Snapshot d = stats::snapshot() - before;

  EXPECT_TRUE(t1_sc_ok);
  EXPECT_FALSE(t0_sc_ok) << "T0's SC must fail: T1's SC intervened";
  EXPECT_EQ(d[Id::kScSuccess], 1u);
  EXPECT_EQ(d[Id::kScFail], 1u);
  EXPECT_EQ(d[Id::kHelpRounds], 0u);
  EXPECT_EQ(var.read(), 9u);
}

// ---------------------------------------------------------------------
// Figure 7, the tag-recycle schedule: N=2, k=1. T0 runs LL;SC while T1
// runs LL;CL interleaved after T0's LL. T0's single SC performs exactly
// one announcement scan (tag_recycle) and takes exactly one fresh tag
// (tag_alloc); T1's CL touches no tags at all.
// ---------------------------------------------------------------------
TEST(StatsCounters, Fig7TagRecycleTicksExactlyOnce) {
  StatsGuard guard;
  using B = BoundedLlsc<>;

  B dom(2, 1);
  B::Var var;
  dom.init_var(var, 5);
  std::vector<B::ThreadCtx> ctxs;
  ctxs.push_back(dom.make_ctx());
  ctxs.push_back(dom.make_ctx());

  std::atomic<bool> t0_ll_done{false};
  bool t0_sc_ok = false;

  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    B::Keep keep;
    const std::uint64_t v = dom.ll(ctxs[0], var, keep);
    t0_ll_done.store(true, std::memory_order_relaxed);
    t0_sc_ok = dom.sc(ctxs[0], var, keep, (v + 1) & 0xffff);
  });
  bodies.push_back([&] {
    B::Keep keep;
    dom.ll(ctxs[1], var, keep);
    dom.cl(ctxs[1], keep);  // abandon: recycles the slot, not a tag
  });

  const stats::Snapshot before = stats::snapshot();
  ControlledScheduler::run(
      std::move(bodies),
      [&](const std::vector<RunnableThread>& runnable, std::size_t) {
        if (!t0_ll_done.load(std::memory_order_relaxed) &&
            runnable_has(runnable, 0)) {
          return 0u;
        }
        return runnable_has(runnable, 1) ? 1u : 0u;
      });
  const stats::Snapshot d = stats::snapshot() - before;

  EXPECT_TRUE(t0_sc_ok) << "T1 only LL'd and aborted; T0's SC must succeed";
  EXPECT_EQ(d[Id::kTagRecycle], 1u);
  EXPECT_EQ(d[Id::kTagAlloc], 1u);
  EXPECT_EQ(d[Id::kScSuccess], 1u);
  EXPECT_EQ(d[Id::kScFail], 0u);
  EXPECT_EQ(d[Id::kTagExhaustion], 0u);
  EXPECT_EQ(dom.read(var), 6u);
}

// ---------------------------------------------------------------------
// Figure 6 helping: T0's SC installs the header and is parked before it
// copies any segment (the paper's "delayed after changing the header word
// ... before writing all of the segments"). T1's WLL must then finish the
// job: exactly one helping round, exactly W segment copies.
// ---------------------------------------------------------------------
TEST(StatsCounters, Fig6HelpingRoundCountedOnce) {
  StatsGuard guard;
  using W = WideLlsc<32>;
  constexpr unsigned kW = 2;

  W dom(2, kW);
  W::Var var;
  const std::vector<std::uint64_t> init{1, 2};
  dom.init_var(var, init);
  auto ctx0 = dom.make_ctx();
  auto ctx1 = dom.make_ctx();

  bool t0_sc_ok = false, t1_wll_ok = false;
  std::vector<std::uint64_t> buf0(kW), buf1(kW);

  std::vector<std::function<void()>> bodies;
  bodies.push_back([&] {
    W::Keep keep;
    if (dom.wll(ctx0, var, keep, buf0).success) {
      t0_sc_ok = dom.sc(ctx0, var, keep, std::vector<std::uint64_t>{10, 20});
    }
  });
  bodies.push_back([&] {
    W::Keep keep;
    t1_wll_ok = dom.wll(ctx1, var, keep, buf1).success;
  });

  const stats::Snapshot before = stats::snapshot();
  ControlledScheduler::run(
      std::move(bodies),
      [&](const std::vector<RunnableThread>& runnable, std::size_t) {
        // sc() counts kScSuccess right after the header CAS and before
        // copy(); the first yield point inside copy() is therefore the
        // first decision at which the delta reads 1 — park T0 exactly
        // there, run T1's helping WLL to completion, then drain T0.
        const stats::Snapshot now = stats::snapshot() - before;
        if (now[Id::kScSuccess] == 0 && runnable_has(runnable, 0)) return 0u;
        return runnable_has(runnable, 1) ? 1u : 0u;
      });
  const stats::Snapshot d = stats::snapshot() - before;

  EXPECT_TRUE(t0_sc_ok);
  EXPECT_TRUE(t1_wll_ok);
  EXPECT_EQ(buf1[0], 10u);
  EXPECT_EQ(buf1[1], 20u);
  EXPECT_EQ(d[Id::kHelpRounds], 1u) << "T1's WLL pass helped T0's SC once";
  EXPECT_EQ(d[Id::kWordCopies], kW)
      << "T1 copied every segment; T0 resumed to find them done";
  EXPECT_EQ(d[Id::kScSuccess], 1u);
}

// ---------------------------------------------------------------------
// Spurious RSC failures (Figure 5): one forced failure = one spurious
// event and one retry, after which the SC succeeds. No scheduler needed —
// force_failures is deterministic single-threaded.
// ---------------------------------------------------------------------
TEST(StatsCounters, SpuriousRscCountedAndRetried) {
  StatsGuard guard;
  using L = LlscFromRllRsc<16>;

  FaultInjector faults;
  faults.force_failures(1);
  L::Var var(0);
  Processor proc(&faults);

  const stats::Snapshot before = stats::snapshot();
  L::Keep keep;
  const std::uint64_t v = L::ll(var, keep);
  const bool ok = L::sc(proc, var, keep, (v + 1) & 0xffff);
  const stats::Snapshot d = stats::snapshot() - before;

  EXPECT_TRUE(ok);
  EXPECT_EQ(d[Id::kRscSpurious], 1u);
  EXPECT_EQ(d[Id::kRscRetry], 1u);
  EXPECT_EQ(d[Id::kRscConflict], 0u);
  EXPECT_EQ(d[Id::kScSuccess], 1u);

  // The retry count also lands in the sc_retries histogram.
  const Histogram h = stats::merged_histogram(HistId::kScRetries);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 1u);
}

// ---------------------------------------------------------------------
// STM: an uncontended transaction commits first try; the aborts-per-commit
// histogram records a zero.
// ---------------------------------------------------------------------
TEST(StatsCounters, StmCommitCounted) {
  StatsGuard guard;

  Stm stm(2, 4);
  for (int c = 0; c < 4; ++c) stm.set_initial(c, 100);
  auto ctx = stm.make_ctx();

  const stats::Snapshot before = stats::snapshot();
  const std::uint32_t addrs[] = {0, 1};
  stm.transact(
      ctx, addrs,
      [](const std::uint64_t* olds, std::uint64_t* news, unsigned,
         std::uint64_t) {
        news[0] = olds[0] - 5;
        news[1] = olds[1] + 5;
      },
      0);
  const stats::Snapshot d = stats::snapshot() - before;

  EXPECT_EQ(d[Id::kStmCommit], 1u);
  EXPECT_EQ(d[Id::kStmAbort], 0u);
  EXPECT_EQ(stm.read(ctx, 0), 95u);
  EXPECT_EQ(stm.read(ctx, 1), 105u);

  const Histogram h = stats::merged_histogram(HistId::kStmAbortsPerCommit);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.sum(), 0u);
}

// ---------------------------------------------------------------------
// Runtime kill switch: with counting off, the hooks must not move any
// counter; re-enabling resumes counting.
// ---------------------------------------------------------------------
TEST(StatsCounters, RuntimeToggleStopsCounting) {
  StatsGuard guard;
  using L = LlscFromCas<16>;
  L::Var var(0);

  stats::set_counting(false);
  EXPECT_FALSE(stats::counting_enabled());
  const stats::Snapshot before = stats::snapshot();
  for (int i = 0; i < 10; ++i) {
    L::Keep keep;
    const std::uint64_t v = L::ll(var, keep);
    L::sc(var, keep, (v + 1) & 0xffff);
  }
  stats::Snapshot d = stats::snapshot() - before;
  EXPECT_EQ(d[Id::kScSuccess], 0u);

  stats::set_counting(true);
  EXPECT_TRUE(stats::counting_enabled());
  {
    L::Keep keep;
    const std::uint64_t v = L::ll(var, keep);
    L::sc(var, keep, (v + 1) & 0xffff);
  }
  d = stats::snapshot() - before;
  EXPECT_EQ(d[Id::kScSuccess], 1u);
}

// ---------------------------------------------------------------------
// Trace ring: with tracing on, events appear in dump_trace() output in
// sequence order with their stable names.
// ---------------------------------------------------------------------
TEST(StatsTrace, DumpContainsRecentEvents) {
  StatsGuard guard;
  stats::set_tracing(true);
  using L = LlscFromCas<16>;
  L::Var var(0);
  for (int i = 0; i < 3; ++i) {
    L::Keep keep;
    const std::uint64_t v = L::ll(var, keep);
    L::sc(var, keep, (v + 1) & 0xffff);
  }

  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  stats::dump_trace(f);
  std::fseek(f, 0, SEEK_SET);
  std::string out;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, got);
  std::fclose(f);

  EXPECT_NE(out.find("sc_success"), std::string::npos) << out;
  // Three successes traced; each line carries the variable's address.
  char addr[32];
  std::snprintf(addr, sizeof addr, "%p", static_cast<const void*>(&var));
  EXPECT_NE(out.find(addr), std::string::npos) << out;
}

// Counter snapshots merge across real threads (each gets its own shard)
// and survive thread exit via the retired accumulator.
TEST(StatsCounters, ShardsMergeAcrossThreadExit) {
  StatsGuard guard;
  using L = LlscFromCas<16>;
  L::Var var(0);

  const stats::Snapshot before = stats::snapshot();
  constexpr int kThreads = 4, kOps = 100;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kOps; ++i) {
        for (;;) {
          L::Keep keep;
          const std::uint64_t v = L::ll(var, keep);
          if (L::sc(var, keep, (v + 1) & 0xffff)) break;
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  const stats::Snapshot d = stats::snapshot() - before;

  EXPECT_EQ(d[Id::kScSuccess], std::uint64_t{kThreads} * kOps);
  EXPECT_EQ(var.read(), std::uint64_t{kThreads} * kOps & 0xffff);
}

// More live counting threads than shards: the threads past the pool count
// into the shared orphan shard instead of aborting the process. Orphan
// writers may race and lose a count each, hence the range.
TEST(StatsCounters, ThreadsPastShardPoolShareOrphanShard) {
  StatsGuard guard;
  constexpr unsigned kThreads = stats::kMaxShards + 2;
  const stats::Snapshot before = stats::snapshot();
  std::atomic<unsigned> counted{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      stats::count(Id::kScSuccess);
      counted.fetch_add(1);
      // Stay alive, holding the shard, until every thread has counted.
      while (counted.load() < kThreads) std::this_thread::yield();
    });
  }
  for (auto& t : pool) t.join();
  const stats::Snapshot d = stats::snapshot() - before;

  EXPECT_GE(d[Id::kScSuccess], std::uint64_t{stats::kMaxShards});
  EXPECT_LE(d[Id::kScSuccess], std::uint64_t{kThreads});
}

#else  // !MOIR_STATS

// ---------------------------------------------------------------------
// Codegen proof for the stats-off preset: the hooks must be callable in
// constant expressions. A hook that touched an atomic, a thread_local, or
// any global would fail to compile here — so these static_asserts are the
// "empty inline" guarantee, checked at compile time rather than by
// eyeballing disassembly.
// ---------------------------------------------------------------------
static_assert((stats::count(Id::kScFail), true));
static_assert((stats::count(Id::kHelpRounds, 3, nullptr), true));
static_assert((stats::record(HistId::kScRetries, 42), true));

TEST(StatsOff, ColdApiIsInert) {
  EXPECT_FALSE(stats::kCompiledIn);
  EXPECT_FALSE(stats::counting_enabled());
  stats::set_counting(true);  // must be accepted and stay off
  EXPECT_FALSE(stats::counting_enabled());
  const stats::Snapshot s = stats::snapshot();
  for (unsigned i = 0; i < stats::kNumCounters; ++i) {
    EXPECT_EQ(s.counts[i], 0u);
  }
  EXPECT_EQ(stats::merged_histogram(HistId::kScRetries).count(), 0u);
  stats::dump_trace(stderr);  // no-op, must not crash
}

#endif  // MOIR_STATS

// ---------------------------------------------------------------------
// The JSON export schema is stable in BOTH modes: every counter name is
// present (zeros when off), so downstream parsers never branch on the
// build flavour.
// ---------------------------------------------------------------------
TEST(StatsExport, CountersJsonHasFullCatalogue) {
  JsonWriter w;
  stats::counters_json(w, stats::snapshot());
  const std::string json = w.str();
  for (unsigned i = 0; i < stats::kNumCounters; ++i) {
    const std::string key =
        std::string("\"") + stats::name(static_cast<Id>(i)) + "\"";
    EXPECT_NE(json.find(key), std::string::npos)
        << "missing counter " << key << " in " << json;
  }
}

TEST(StatsExport, ExportJsonIsBalanced) {
  const std::string doc = stats::export_json();
  EXPECT_EQ(doc.front(), '{');
  EXPECT_EQ(doc.back(), '}');
  EXPECT_NE(doc.find("\"compiled_in\""), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
}

}  // namespace
}  // namespace moir
