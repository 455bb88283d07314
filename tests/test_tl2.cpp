// TxnKv's TL2 machinery (src/txn/): the key->handle memo under the
// single-key verbs, invisible-reader multi_get semantics, tl2_* counter
// accounting on the engine and through the KvService pipeline, the 2^32
// clock-boundary crossing, GL-STM baseline semantics (bench/glstm.hpp),
// DFS linearizability against TxnSpec, the planted SkipRevalidate
// negative control (both explorers must catch it with a replayable ms1:
// schedule), and transfer-torture conservation for TxnKv and GL-STM.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bench/glstm.hpp"
#include "core/llsc_traits.hpp"
#include "reclaim/epoch.hpp"
#include "sim/explore.hpp"
#include "stats/stats.hpp"
#include "svc/service.hpp"
#include "txn/txn_kv.hpp"
#include "util/env.hpp"
#include "util/thread_utils.hpp"
#include "verify/history.hpp"
#include "verify/linearizability.hpp"
#include "verify/spec.hpp"

namespace moir {
namespace {

using reclaim::EpochReclaimer;
using txn::TxnStatus;
using Sub = CasBackedLlsc<16>;
using Map = ShardedHashMap<Sub, EpochReclaimer>;
using Txn = txn::TxnKv<Sub, EpochReclaimer>;
using TxnBug = txn::TxnKv<Sub, EpochReclaimer, /*SkipRevalidate=*/true>;
using Glstm = bench::GlstmKv<Sub, EpochReclaimer>;
using Svc = svc::KvService<Sub, EpochReclaimer>;
using svc::Op;
using svc::Status;
using testing::Schedule;
using testing::ScheduleExplorer;

class CountingScope {
 public:
  CountingScope() : was_(stats::counting_enabled()) {
    stats::set_counting(true);
  }
  ~CountingScope() { stats::set_counting(was_); }

 private:
  bool was_;
};

Map::Config small_map() {
  return {.shards = 2, .buckets_per_shard = 4, .capacity_per_shard = 64};
}

// ---------------------------------------------------------------------
// Engine semantics: GlstmKv must be behaviorally identical to TxnKv for
// every verb — they differ only in how reads are made atomic. One
// templated body exercises both.
// ---------------------------------------------------------------------
template <class Engine>
void run_single_key_verbs() {
  Sub sub;
  Map map(sub, 4, small_map());
  Engine txn(map, 4);
  auto ctx = txn.make_ctx();

  EXPECT_FALSE(txn.get(ctx, 7).has_value());
  EXPECT_EQ(txn.insert(ctx, 7, 100), TxnStatus::kOk);
  EXPECT_EQ(txn.insert(ctx, 7, 200), TxnStatus::kMiss);
  EXPECT_EQ(txn.get(ctx, 7), std::optional<std::uint64_t>{100});
  EXPECT_EQ(txn.upsert(ctx, 7, 300), TxnStatus::kMiss);
  EXPECT_EQ(txn.get(ctx, 7), std::optional<std::uint64_t>{300});
  EXPECT_EQ(txn.upsert(ctx, 8, 1), TxnStatus::kOk);
  EXPECT_TRUE(txn.erase(ctx, 7));
  EXPECT_FALSE(txn.get(ctx, 7).has_value());
  EXPECT_FALSE(txn.erase(ctx, 7));
  EXPECT_EQ(txn.insert(ctx, 7, 42), TxnStatus::kOk);
  EXPECT_EQ(txn.get(ctx, 7), std::optional<std::uint64_t>{42});
  EXPECT_EQ(txn.get(ctx, 8), std::optional<std::uint64_t>{1});
}

template <class Engine>
void run_multi_key_verbs() {
  Sub sub;
  Map map(sub, 4, small_map());
  Engine txn(map, 4);
  auto ctx = txn.make_ctx();

  const std::uint64_t keys[] = {1, 2, 3};
  std::uint64_t out[3];
  txn.multi_get(ctx, keys, out);
  for (const std::uint64_t c : out) EXPECT_EQ(c, Engine::kAbsent);

  const std::uint64_t vals[] = {10, 20, 30};
  EXPECT_EQ(txn.multi_put(ctx, keys, vals), TxnStatus::kOk);
  txn.multi_get(ctx, keys, out);
  EXPECT_EQ(out[0], Engine::wire(10));
  EXPECT_EQ(out[1], Engine::wire(20));
  EXPECT_EQ(out[2], Engine::wire(30));

  const std::uint64_t exp1[] = {Engine::wire(10), Engine::wire(20),
                                Engine::wire(30)};
  const std::uint64_t des1[] = {Engine::wire(5), Engine::wire(20),
                                Engine::wire(35)};
  std::uint64_t wit[3];
  EXPECT_EQ(txn.multi_cas(ctx, keys, exp1, des1, wit), TxnStatus::kOk);
  EXPECT_EQ(wit[0], Engine::wire(10));
  EXPECT_EQ(wit[2], Engine::wire(30));
  EXPECT_EQ(txn.multi_cas(ctx, keys, exp1, des1, wit), TxnStatus::kMiss);
  EXPECT_EQ(wit[0], Engine::wire(5));
  EXPECT_EQ(wit[2], Engine::wire(35));
  EXPECT_EQ(txn.get(ctx, 1), std::optional<std::uint64_t>{5});

  const std::uint64_t fresh[] = {4, 5};
  const std::uint64_t exp0[] = {Engine::kAbsent, Engine::kAbsent};
  const std::uint64_t desf[] = {Engine::wire(1), Engine::wire(2)};
  EXPECT_EQ(txn.multi_cas(ctx, fresh, exp0, desf), TxnStatus::kOk);
  EXPECT_EQ(txn.multi_cas(ctx, fresh, exp0, desf), TxnStatus::kMiss);
  const std::uint64_t dese[] = {Engine::kAbsent, Engine::kAbsent};
  EXPECT_EQ(txn.multi_cas(ctx, fresh, desf, dese), TxnStatus::kOk);
  EXPECT_FALSE(txn.get(ctx, 4).has_value());
  EXPECT_FALSE(txn.get(ctx, 5).has_value());
}

// The single-key verbs through the key->handle memo. Two contexts take
// turns, so a context's warm memo entry must see the OTHER context's
// erase and re-insert (the handle is stable, only the cell changes), a
// key first seen absent must be found once the other context creates it
// (absent results are never cached), and keys one memo stride apart
// evict each other from their shared direct-mapped slot without ever
// reading through each other's handle.
TEST(Tl2Kv, SingleKeyVerbs) {
  Sub sub;
  Map map(sub, 4, small_map());
  Txn txn(map, 4);
  auto a = txn.make_ctx();
  auto b = txn.make_ctx();

  EXPECT_FALSE(txn.get(a, 7).has_value());
  EXPECT_EQ(txn.insert(b, 7, 100), TxnStatus::kOk);
  EXPECT_EQ(txn.get(a, 7), std::optional<std::uint64_t>{100});
  EXPECT_EQ(txn.insert(a, 7, 200), TxnStatus::kMiss);
  EXPECT_EQ(txn.upsert(b, 7, 300), TxnStatus::kMiss);
  EXPECT_EQ(txn.get(a, 7), std::optional<std::uint64_t>{300});
  EXPECT_TRUE(txn.erase(b, 7));
  EXPECT_FALSE(txn.get(a, 7).has_value()) << "warm memo, erased cell";
  EXPECT_FALSE(txn.erase(a, 7));
  EXPECT_EQ(txn.insert(b, 7, 42), TxnStatus::kOk);
  EXPECT_EQ(txn.get(a, 7), std::optional<std::uint64_t>{42});
  EXPECT_EQ(txn.upsert(a, 8, 1), TxnStatus::kOk);
  EXPECT_EQ(txn.get(b, 8), std::optional<std::uint64_t>{1});

  constexpr std::uint64_t kAlias = 7 + Txn::ThreadCtx::kMemoSlots;
  EXPECT_EQ(txn.upsert(b, kAlias, 9), TxnStatus::kOk);
  EXPECT_EQ(txn.get(a, kAlias), std::optional<std::uint64_t>{9});
  EXPECT_EQ(txn.get(a, 7), std::optional<std::uint64_t>{42});
  EXPECT_TRUE(txn.erase(a, kAlias));
  EXPECT_EQ(txn.get(b, 7), std::optional<std::uint64_t>{42});
  EXPECT_FALSE(txn.get(b, kAlias).has_value());
}

TEST(Tl2Kv, MultiGetPutCas) { run_multi_key_verbs<Txn>(); }
TEST(GlstmKv, SingleKeyVerbs) { run_single_key_verbs<Glstm>(); }
TEST(GlstmKv, MultiGetPutCas) { run_multi_key_verbs<Glstm>(); }

// Both TxnKv read paths (the double-collect through
// bench::DoubleCollectKv) and GL-STM serve the widened read set
// (kMaxGetKeys = 16 > the MCAS word budget) — the E18 k-sweep's widest
// point.
template <class Engine>
void run_wide_read() {
  Sub sub;
  Map map(sub, 4, small_map());
  Engine txn(map, 4);
  auto ctx = txn.make_ctx();
  std::uint64_t keys[16];
  for (unsigned i = 0; i < 16; ++i) keys[i] = i;
  // Seed in two batches of kMaxTxnKeys (= 8): writes stay within the
  // MCAS word budget while reads cover the full widened set.
  for (unsigned base = 0; base < 16; base += 8) {
    std::uint64_t batch[8];
    std::uint64_t vals[8];
    for (unsigned i = 0; i < 8; ++i) {
      batch[i] = base + i;
      vals[i] = base + i;
    }
    ASSERT_EQ(txn.multi_put(ctx, batch, vals), TxnStatus::kOk);
  }
  std::uint64_t out[16];
  txn.multi_get(ctx, keys, out);
  for (unsigned i = 0; i < 16; ++i) EXPECT_EQ(out[i], Engine::wire(i));
}

TEST(Tl2Kv, WideReadSixteenKeys) { run_wide_read<Txn>(); }
TEST(TxnKv, WideReadSixteenKeys) {
  run_wide_read<bench::DoubleCollectKv<Txn>>();
}
TEST(GlstmKv, WideReadSixteenKeys) { run_wide_read<Glstm>(); }

// ---------------------------------------------------------------------
// Counter accounting: the clock advances once per value-changing commit
// (and NOT for a comparison miss), invisible reads count tl2_ro_commit,
// and a quiet store never revalidates or falls back.
// ---------------------------------------------------------------------
TEST(Tl2Kv, CountersAccount) {
  CountingScope counting;
  Sub sub;
  Map map(sub, 4, small_map());
  Txn txn(map, 4);
  auto ctx = txn.make_ctx();
  const auto before = stats::snapshot();

  const std::uint64_t keys[] = {1, 2};
  const std::uint64_t vals[] = {10, 20};
  ASSERT_EQ(txn.multi_put(ctx, keys, vals), TxnStatus::kOk);
  std::uint64_t out[2];
  txn.multi_get(ctx, keys, out);
  txn.multi_get(ctx, keys, out);
  const std::uint64_t bad[] = {0, 0};  // expects both absent: mismatch
  ASSERT_EQ(txn.multi_cas(ctx, keys, bad, bad), TxnStatus::kMiss);

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kTxnStart], 4u);
    EXPECT_EQ(d[stats::Id::kTl2ClockAdvance], 1u)
        << "one value-changing commit (the put); the missed cas must not "
           "advance the clock";
    EXPECT_EQ(d[stats::Id::kTl2RoCommit], 2u) << "both invisible reads";
    EXPECT_EQ(d[stats::Id::kTl2Abort], 1u) << "the failed comparison";
    EXPECT_EQ(d[stats::Id::kTxnAbort], 1u);
    EXPECT_EQ(d[stats::Id::kTl2Revalidate], 0u) << "quiet store";
    EXPECT_EQ(d[stats::Id::kTl2Fallback], 0u);
  }
}

// A put of IDENTICAL values commits without advancing the clock or the
// stamps: unchanged write-backs must not disturb invisible readers.
TEST(Tl2Kv, UnchangedWritesLeaveClockAlone) {
  CountingScope counting;
  Sub sub;
  Map map(sub, 4, small_map());
  Txn txn(map, 4);
  auto ctx = txn.make_ctx();
  const std::uint64_t keys[] = {1, 2};
  const std::uint64_t vals[] = {10, 20};
  ASSERT_EQ(txn.multi_put(ctx, keys, vals), TxnStatus::kOk);

  const auto before = stats::snapshot();
  ASSERT_EQ(txn.multi_put(ctx, keys, vals), TxnStatus::kOk);
  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kTl2ClockAdvance], 0u)
        << "news == olds: nothing changed, clock must not move";
  }
}

// ---------------------------------------------------------------------
// Clock boundary: park the clock just below 2^32 and commit across it.
// Stamps and the reader's rv comparison are 64-bit throughout — a u32
// truncation anywhere (stamp store, rv sample, WvSlot decode) would
// either trip the validation forever or accept a torn value. The true
// wrap is at 2^40 (WvSlot's stamp field), documented in ALGORITHMS.md
// alongside the substrate's tag-wraparound caveat.
// ---------------------------------------------------------------------
TEST(Tl2Clock, NearOverflowCrossingStaysMonotone) {
  Sub sub;
  Map map(sub, 4, small_map());
  Txn txn(map, 4);
  auto ctx = txn.make_ctx();

  const std::uint64_t kBoundary = std::uint64_t{1} << 32;
  txn.clock().set_for_test(kBoundary - 2);

  const std::uint64_t keys[] = {1, 2};
  std::uint64_t prev_stamp = 0;
  for (unsigned round = 0; round < 6; ++round) {
    const std::uint64_t vals[] = {round, round + 100};
    ASSERT_EQ(txn.multi_put(ctx, keys, vals), TxnStatus::kOk);
    std::uint64_t out[2];
    txn.multi_get(ctx, keys, out);
    EXPECT_EQ(out[0], Txn::wire(round));
    EXPECT_EQ(out[1], Txn::wire(round + 100));
    const auto h = map.locate_handle(ctx.map, 1);
    ASSERT_TRUE(h.has_value());
    const std::uint64_t s = txn.stamp(*h);
    EXPECT_GT(s, prev_stamp) << "stamps must stay strictly monotone "
                                "across the 2^32 boundary";
    prev_stamp = s;
  }
  EXPECT_GT(txn.clock().sample(), kBoundary)
      << "six commits from 2^32-2 must carry the clock past 2^32";
  EXPECT_GT(prev_stamp, kBoundary) << "stamps crossed the boundary too";
}

// ---------------------------------------------------------------------
// The same accounting through the txn-mode KvService pipeline: a
// kMultiGet commits on the invisible-reader path, a value-changing
// kMultiCas draws one clock value, and a kMultiCas whose comparison
// misses draws none and reads nothing invisibly.
// ---------------------------------------------------------------------
TEST(KvServiceTxn, PipelineCountsTl2Reads) {
  CountingScope counting;
  Sub sub;
  Svc svc(sub, {.queues = 2,
                .workers = 0,
                .max_sessions = 1,
                .tickets_per_session = 4,
                .txn = true,
                .map = small_map()});
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  auto run = [&](Op op, std::span<const std::uint64_t> keys,
                 std::span<const std::uint64_t> vals = {},
                 std::span<const std::uint64_t> exps = {}) {
    const auto t = svc.submit_multi(c, op, keys, vals, exps);
    EXPECT_TRUE(t.has_value());
    while (svc.serve(w).executed == 0) {
    }
    return svc.poll(c, *t)->status;
  };

  const std::uint64_t keys[] = {1, 2};
  const std::uint64_t vals[] = {10, 20};
  ASSERT_EQ(run(Op::kMultiPut, keys, vals), Status::kOk);
  auto before = stats::snapshot();
  ASSERT_EQ(run(Op::kMultiGet, keys), Status::kOk);
  auto d = stats::snapshot() - before;
  if constexpr (stats::kCompiledIn) {
    EXPECT_EQ(d[stats::Id::kTl2RoCommit], 1u);
    EXPECT_EQ(d[stats::Id::kTl2ClockAdvance], 0u);
  }

  const std::uint64_t exps[] = {Txn::wire(10), Txn::wire(20)};
  const std::uint64_t dess[] = {Txn::wire(15), Txn::wire(15)};
  before = stats::snapshot();
  ASSERT_EQ(run(Op::kMultiCas, keys, dess, exps), Status::kOk);
  d = stats::snapshot() - before;
  if constexpr (stats::kCompiledIn) {
    EXPECT_EQ(d[stats::Id::kTl2ClockAdvance], 1u);
    EXPECT_EQ(d[stats::Id::kTl2RoCommit], 0u);
  }

  before = stats::snapshot();
  ASSERT_EQ(run(Op::kMultiCas, keys, dess, exps), Status::kNotFound);
  d = stats::snapshot() - before;
  if constexpr (stats::kCompiledIn) {
    EXPECT_EQ(d[stats::Id::kTl2ClockAdvance], 0u)
        << "a missed comparison writes back unchanged values";
    EXPECT_EQ(d[stats::Id::kTl2RoCommit], 0u);
    EXPECT_EQ(d[stats::Id::kTl2Abort], 1u);
  }
}

// ---------------------------------------------------------------------
// DFS linearizability of the invisible reader against TxnSpec on the
// adversarial 1-shard config, same trial shape as the double-collect's
// (TxnKv.ExploreLinearizable, test_txn.cpp): interleaved insert/mcas vs
// mput/mget. Fresh ThreadCtx per transact-ful op keeps
// the descriptor-drain spin unreachable and the DFS tree finite; the ctxs
// stay held until the trial ends, or the body's next op would reuse the
// released STM pid.
// ---------------------------------------------------------------------
template <class Engine>
struct Tl2LinShared {
  Sub sub;
  Map map;
  Engine txn;
  HistoryRecorder rec{2};
  std::array<std::vector<typename Engine::ThreadCtx>, 2> held;  // per body

  Tl2LinShared()
      : map(sub, 16,
            {.shards = 1, .buckets_per_shard = 1, .capacity_per_shard = 16}),
        txn(map, 16) {}

  typename Engine::ThreadCtx& fresh_ctx(unsigned t) {
    return held[t].emplace_back(txn.make_ctx());
  }

  void do_insert(unsigned t, std::uint64_t key, std::uint64_t val) {
    auto& ctx = fresh_ctx(t);
    const auto inv = rec.now();
    const TxnStatus st = txn.insert(ctx, key, val);
    rec.add(t, t, OpKind::kMapInsert, TxnSpec::pack_args(key, val),
            st == TxnStatus::kOk ? 1 : 0, inv);
  }

  void do_upsert(unsigned t, std::uint64_t key, std::uint64_t val) {
    auto& ctx = fresh_ctx(t);
    do_upsert_in(ctx, t, key, val);
  }

  void do_upsert_in(typename Engine::ThreadCtx& ctx, unsigned t,
                    std::uint64_t key, std::uint64_t val) {
    const auto inv = rec.now();
    const TxnStatus st = txn.upsert(ctx, key, val);
    rec.add(t, t, OpKind::kMapUpsert, TxnSpec::pack_args(key, val),
            st == TxnStatus::kOk ? 1 : 0, inv);
  }

  void do_mput(unsigned t, std::uint64_t k1, std::uint64_t k2,
               std::uint64_t v1, std::uint64_t v2) {
    auto& ctx = fresh_ctx(t);
    const std::uint64_t keys[] = {k1, k2};
    const std::uint64_t vals[] = {v1, v2};
    const auto inv = rec.now();
    const TxnStatus st = txn.multi_put(ctx, keys, vals);
    ASSERT_EQ(st, TxnStatus::kOk);
    rec.add(t, t, OpKind::kTxnMPut, TxnSpec::pack_mput(k1, k2, v1, v2), 1,
            inv);
  }

  void do_mcas(unsigned t, std::uint64_t k1, std::uint64_t k2,
               std::uint64_t e1, std::uint64_t e2, std::uint64_t d1,
               std::uint64_t d2) {
    auto& ctx = fresh_ctx(t);
    const std::uint64_t keys[] = {k1, k2};
    const std::uint64_t exps[] = {e1, e2};
    const std::uint64_t dess[] = {d1, d2};
    std::uint64_t wit[2];
    const auto inv = rec.now();
    const TxnStatus st = txn.multi_cas(ctx, keys, exps, dess, wit);
    rec.add(t, t, OpKind::kTxnMCas,
            TxnSpec::pack_mcas(k1, k2, e1, e2, d1, d2),
            TxnSpec::mcas_ret(st == TxnStatus::kOk, wit[0], wit[1]), inv);
  }

  void do_mget(unsigned t, std::uint64_t k1, std::uint64_t k2) {
    auto& ctx = fresh_ctx(t);
    do_mget_in(ctx, t, k1, k2);
  }

  void do_mget_in(typename Engine::ThreadCtx& ctx, unsigned t,
                  std::uint64_t k1, std::uint64_t k2) {
    const std::uint64_t keys[] = {k1, k2};
    std::uint64_t out[2];
    const auto inv = rec.now();
    txn.multi_get(ctx, keys, out);
    rec.add(t, t, OpKind::kTxnMGet, TxnSpec::pack_mget(k1, k2),
            TxnSpec::mget_ret(out[0], out[1]), inv);
  }

  // Pre-leased ThreadCtxs for the torn-read trials: created at factory
  // time, OUTSIDE the scheduled bodies, so the registry lease/release
  // yields at ctx birth and death don't multiply the DFS tree. Each ctx
  // still serves exactly one op — the fresh-ctx-per-op discipline above
  // (descriptor-drain unreachability) is preserved.
  typename Engine::ThreadCtx rctx = txn.make_ctx();
  typename Engine::ThreadCtx wctx0 = txn.make_ctx();
  typename Engine::ThreadCtx wctx1 = txn.make_ctx();

  bool check(const TxnSpec::State& initial = {}) {
    LinearizabilityChecker<TxnSpec> checker;
    return checker.check(rec.collect(), initial);
  }
};

TEST(Tl2Kv, ExploreLinearizable) {
  auto make_trial = [] {
    auto sh = std::make_shared<Tl2LinShared<Txn>>();
    ScheduleExplorer::Trial trial;
    trial.bodies.push_back([sh] {
      sh->do_insert(0, 0, 1);
      sh->do_mcas(0, 0, 1, Txn::wire(1), Txn::kAbsent, Txn::kAbsent,
                  Txn::wire(1));
    });
    trial.bodies.push_back([sh] {
      sh->do_mput(1, 0, 1, 3, 4);
      sh->do_mget(1, 0, 1);
    });
    trial.check = [sh] { return sh->check(); };
    return trial;
  };

  const testing::ExploreOptions opts{.max_trials = scaled_budget(150)};
  const auto r = ScheduleExplorer::explore(make_trial, opts);
  EXPECT_FALSE(r.violation_found)
      << "non-linearizable tl2 transaction history under schedule "
      << r.schedule_string();
  EXPECT_GT(r.trials, 0u);
}

// ---------------------------------------------------------------------
// Planted bug: SkipRevalidate drops the stamp <= rv check. The torn
// read: the reader peeks cell 0 (old value) before the writer touches
// it, then cell 1 (new value) after the writer is done — both peeks see
// unlocked cells, so only the stamp check can refute the snapshot.
// {old0, new1} linearizes nowhere: new1 implies both writes completed,
// which implies cell 0 was already new.
//
// Trial shape is tuned for the DFS budget, three knobs:
//   * the writer is two SEQUENTIAL single-key puts (not one 2-key mput),
//     so at most one cell is ever locked and a reader that trips over a
//     mid-transaction lock recovers in a single retry — the lex-smaller
//     subtrees DFS exhausts on the way to the torn-read schedule stay
//     polynomial. (A 2-key mput holds both locks at once; an early peek
//     then burns every retry attempt plus the fallback, and DFS drowns
//     in those subtrees long before the bug.)
//   * ThreadCtxs are pre-leased in the trial factory (Tl2LinShared's
//     rctx/wctx0/wctx1), and the reader's handle lookups go through the
//     map's batched locate_handles — both shrink the yield window
//     between the reader's two peeks to a single decision point, which
//     is what makes the park-the-reader-run-the-writer subtree linear
//     instead of combinatorial.
//   * the store is preloaded in the trial factory, outside the
//     scheduled bodies, so the trial is exactly one writer vs one
//     reader.
// ---------------------------------------------------------------------
TxnSpec::State preloaded_state() {
  TxnSpec::State s{};
  s.v[0] = Txn::wire(1);
  s.v[1] = Txn::wire(2);
  return s;
}

ScheduleExplorer::Trial make_skip_revalidate_trial() {
  auto sh = std::make_shared<Tl2LinShared<TxnBug>>();
  {
    auto ctx = sh->txn.make_ctx();
    const std::uint64_t keys[] = {0, 1};
    const std::uint64_t vals[] = {1, 2};
    EXPECT_EQ(sh->txn.multi_put(ctx, keys, vals), TxnStatus::kOk);
  }
  ScheduleExplorer::Trial trial;
  // Reader FIRST: DFS prefers lower thread ids at every decision, so with
  // the reader as thread 0 the torn-read schedule — reader pauses right
  // before its second peek, writer runs out (forced: the reader is
  // parked), reader resumes — sits only a few anti-preference choices
  // deep. Writer-first ordering buries it exponentially.
  trial.bodies.push_back([sh] { sh->do_mget_in(sh->rctx, 0, 0, 1); });
  trial.bodies.push_back([sh] {
    sh->do_upsert_in(sh->wctx0, 1, 0, 3);
    sh->do_upsert_in(sh->wctx1, 1, 1, 4);
  });
  trial.check = [sh] { return sh->check(preloaded_state()); };
  return trial;
}

TEST(NegativeControlTl2, DfsCatchesSkippedRevalidation) {
  // Sleep-set reduction prunes the reader-retry subtrees (reader loads
  // commute with the writer's operations on other cells), which is what
  // brings the torn-read interleaving inside a fixed trial budget.
  const auto r = ScheduleExplorer::explore(
      make_skip_revalidate_trial,
      testing::ExploreOptions{.max_trials = 400000, .sleep_sets = true});
  ASSERT_TRUE(r.violation_found)
      << "DFS failed to find the torn read SkipRevalidate admits "
         "(positive control for the stamp validation)";
  const auto parsed = Schedule::parse(r.schedule_string());
  ASSERT_TRUE(parsed.has_value()) << r.schedule_string();
  EXPECT_FALSE(
      ScheduleExplorer::replay(make_skip_revalidate_trial, *parsed))
      << "schedule " << r.schedule_string() << " did not replay the bug";
}

TEST(NegativeControlTl2, PctCatchesSkippedRevalidation) {
  const testing::PctOptions opts{
      .runs = scaled_budget(800),
      .depth = 3,
      .change_range = 64,
      .seed = base_seed() + 59,
  };
  const auto r =
      ScheduleExplorer::pct_explore(make_skip_revalidate_trial, opts);
  ASSERT_TRUE(r.violation_found)
      << "PCT failed to catch the SkipRevalidate torn read";
  const auto parsed = Schedule::parse(r.schedule_string());
  ASSERT_TRUE(parsed.has_value()) << r.schedule_string();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(
        ScheduleExplorer::replay(make_skip_revalidate_trial, *parsed))
        << "schedule " << r.schedule_string() << " did not replay the bug";
  }
}

// The same two-body trial on the REAL engine must be clean: the stamp
// check is exactly what closes the window the negative control opens.
TEST(Tl2Kv, RevalidationClosesTheTornReadWindow) {
  auto make_trial = [] {
    auto sh = std::make_shared<Tl2LinShared<Txn>>();
    {
      auto ctx = sh->txn.make_ctx();
      const std::uint64_t keys[] = {0, 1};
      const std::uint64_t vals[] = {1, 2};
      EXPECT_EQ(sh->txn.multi_put(ctx, keys, vals), TxnStatus::kOk);
    }
    ScheduleExplorer::Trial trial;
    // Same bodies as the negative control: the clean engine must survive
    // exactly the schedule region where the bug is caught.
    trial.bodies.push_back([sh] { sh->do_mget_in(sh->rctx, 0, 0, 1); });
    trial.bodies.push_back([sh] {
      sh->do_upsert_in(sh->wctx0, 1, 0, 3);
      sh->do_upsert_in(sh->wctx1, 1, 1, 4);
    });
    trial.check = [sh] { return sh->check(preloaded_state()); };
    return trial;
  };
  const testing::ExploreOptions opts{.max_trials = scaled_budget(400),
                                     .sleep_sets = true};
  const auto r = ScheduleExplorer::explore(make_trial, opts);
  EXPECT_FALSE(r.violation_found)
      << "torn tl2 read under schedule " << r.schedule_string();
  EXPECT_GT(r.trials, 0u);
}

// ---------------------------------------------------------------------
// Transfer torture on TxnKv's invisible reader and on GL-STM
// (asan-reclaim runs these by the Tl2Torture name): concurrent 2-key
// transfers, k=8 snapshots asserting conservation mid-run — the in-tree
// twin of bench_tl2's checksum check.
// ---------------------------------------------------------------------
template <class Engine>
void run_transfer_torture() {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kAccounts = 8;
  constexpr std::uint64_t kInitial = 100;
  constexpr std::uint64_t kTotal = kAccounts * kInitial;
  Sub sub;
  Map map(sub, kThreads + 4, small_map());
  Engine txn(map, kThreads + 4);

  std::uint64_t all_keys[kAccounts];
  for (unsigned i = 0; i < kAccounts; ++i) all_keys[i] = i;
  {
    auto ctx = txn.make_ctx();
    std::uint64_t init[kAccounts];
    std::fill(std::begin(init), std::end(init), kInitial);
    ASSERT_EQ(txn.multi_put(ctx, all_keys, init), TxnStatus::kOk);
  }

  auto snapshot_sum = [&](typename Engine::ThreadCtx& ctx) {
    std::uint64_t snap[kAccounts];
    txn.multi_get(ctx, all_keys, snap);
    std::uint64_t sum = 0;
    for (const std::uint64_t c : snap) {
      EXPECT_NE(c, Engine::kAbsent) << "account vanished";
      sum += c - 1;
    }
    return sum;
  };

  run_threads(kThreads, [&](std::size_t tid) {
    auto ctx = txn.make_ctx();
    std::uint64_t s = tid * 0x9e3779b97f4a7c15ULL + 1;
    auto rnd = [&s] {
      s = s * 6364136223846793005ULL + 1442695040888963407ULL;
      return s >> 33;
    };
    for (unsigned iter = 0; iter < 2000; ++iter) {
      const std::uint64_t i = rnd() % kAccounts;
      std::uint64_t j = rnd() % kAccounts;
      if (j == i) j = (j + 1) % kAccounts;
      const std::uint64_t pair[] = {i, j};
      std::uint64_t snap[2];
      txn.multi_get(ctx, pair, snap);
      ASSERT_NE(snap[0], Engine::kAbsent);
      ASSERT_NE(snap[1], Engine::kAbsent);
      const std::uint64_t vi = snap[0] - 1;
      const std::uint64_t vj = snap[1] - 1;
      const std::uint64_t d = std::min<std::uint64_t>(vi, 1 + rnd() % 10);
      const std::uint64_t des[] = {Engine::wire(vi - d),
                                   Engine::wire(vj + d)};
      txn.multi_cas(ctx, pair, snap, des);  // kMiss = lost race, fine
      if (iter % 64 == 0) {
        EXPECT_EQ(snapshot_sum(ctx), kTotal)
            << "snapshot caught a non-conserving interleaving";
      }
    }
  });

  auto ctx = txn.make_ctx();
  EXPECT_EQ(snapshot_sum(ctx), kTotal);
}

TEST(Tl2Torture, TransfersConserveSum) { run_transfer_torture<Txn>(); }
TEST(Tl2Torture, GlstmTransfersConserveSum) {
  run_transfer_torture<Glstm>();
}

}  // namespace
}  // namespace moir
