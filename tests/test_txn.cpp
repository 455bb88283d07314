// Multi-key transactions (src/txn/): TxnKv semantics for the single-key
// verbs and multi_get/multi_put/multi_cas, counter accounting, pool
// exhaustion, the txn-mode KvService round trip, linearizability of
// interleaved single/multi-key ops against TxnSpec under DFS and PCT
// controlled schedules, and a transfer-torture conservation check. The
// engine-level read cases call multi_get_double_collect directly: the
// invisible reader (test_tl2.cpp) serves almost every multi_get, so the
// lock-free slow path it falls back to is checked on its own here.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

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
using Svc = svc::KvService<Sub, EpochReclaimer>;
using svc::Op;
using svc::Status;

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

TEST(TxnKv, SingleKeyVerbs) {
  Sub sub;
  Map map(sub, 4, small_map());
  Txn txn(map, 4);
  auto ctx = txn.make_ctx();

  EXPECT_FALSE(txn.get(ctx, 7).has_value());
  EXPECT_EQ(txn.insert(ctx, 7, 100), TxnStatus::kOk);
  EXPECT_EQ(txn.insert(ctx, 7, 200), TxnStatus::kMiss)
      << "duplicate insert reports already-present";
  EXPECT_EQ(txn.get(ctx, 7), std::optional<std::uint64_t>{100});
  EXPECT_EQ(txn.upsert(ctx, 7, 300), TxnStatus::kMiss)
      << "upsert on a present key reports updated-in-place";
  EXPECT_EQ(txn.get(ctx, 7), std::optional<std::uint64_t>{300});
  EXPECT_EQ(txn.upsert(ctx, 8, 1), TxnStatus::kOk) << "upsert inserted";

  EXPECT_TRUE(txn.erase(ctx, 7));
  EXPECT_FALSE(txn.get(ctx, 7).has_value());
  EXPECT_FALSE(txn.erase(ctx, 7)) << "second erase finds nothing";
  // Reinsert after erase: the node survived (insert-only discipline), the
  // cell was 0, so a conditional insert succeeds again.
  EXPECT_EQ(txn.insert(ctx, 7, 42), TxnStatus::kOk);
  EXPECT_EQ(txn.get(ctx, 7), std::optional<std::uint64_t>{42});
  EXPECT_EQ(txn.get(ctx, 8), std::optional<std::uint64_t>{1});
}

TEST(TxnKv, MultiGetPutCas) {
  Sub sub;
  Map map(sub, 4, small_map());
  Txn txn(map, 4);
  auto ctx = txn.make_ctx();

  const std::uint64_t keys[] = {1, 2, 3};
  std::uint64_t out[3];
  txn.multi_get_double_collect(ctx, keys, out);
  for (const std::uint64_t c : out) EXPECT_EQ(c, Txn::kAbsent);

  const std::uint64_t vals[] = {10, 20, 30};
  EXPECT_EQ(txn.multi_put(ctx, keys, vals), TxnStatus::kOk);
  txn.multi_get_double_collect(ctx, keys, out);
  EXPECT_EQ(out[0], Txn::wire(10));
  EXPECT_EQ(out[1], Txn::wire(20));
  EXPECT_EQ(out[2], Txn::wire(30));
  EXPECT_EQ(txn.get(ctx, 2), std::optional<std::uint64_t>{20});

  // Matched 3-key CAS (a transfer), witness = the snapshot it read.
  const std::uint64_t exp1[] = {Txn::wire(10), Txn::wire(20), Txn::wire(30)};
  const std::uint64_t des1[] = {Txn::wire(5), Txn::wire(20), Txn::wire(35)};
  std::uint64_t wit[3];
  EXPECT_EQ(txn.multi_cas(ctx, keys, exp1, des1, wit), TxnStatus::kOk);
  EXPECT_EQ(wit[0], Txn::wire(10));
  EXPECT_EQ(wit[2], Txn::wire(30));

  // The same comparison now mismatches; the witness reports the values
  // that refuted it and nothing changed.
  EXPECT_EQ(txn.multi_cas(ctx, keys, exp1, des1, wit), TxnStatus::kMiss);
  EXPECT_EQ(wit[0], Txn::wire(5));
  EXPECT_EQ(wit[2], Txn::wire(35));
  EXPECT_EQ(txn.get(ctx, 1), std::optional<std::uint64_t>{5});

  // Expect-absent insert: fresh keys, expected = 0. Absence is registered
  // on the (pre-created) cells, so it is part of the atomic comparison.
  const std::uint64_t fresh[] = {4, 5};
  const std::uint64_t exp0[] = {Txn::kAbsent, Txn::kAbsent};
  const std::uint64_t desf[] = {Txn::wire(1), Txn::wire(2)};
  EXPECT_EQ(txn.multi_cas(ctx, fresh, exp0, desf), TxnStatus::kOk);
  EXPECT_EQ(txn.multi_cas(ctx, fresh, exp0, desf), TxnStatus::kMiss)
      << "now present: expect-absent must fail";

  // Multi-key erase: desired = 0 writes both keys absent atomically.
  const std::uint64_t dese[] = {Txn::kAbsent, Txn::kAbsent};
  EXPECT_EQ(txn.multi_cas(ctx, fresh, desf, dese), TxnStatus::kOk);
  EXPECT_FALSE(txn.get(ctx, 4).has_value());
  EXPECT_FALSE(txn.get(ctx, 5).has_value());
}

TEST(TxnKv, CountersAccount) {
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
  txn.multi_get_double_collect(ctx, keys, out);
  const std::uint64_t bad[] = {0, 0};  // expects both absent: mismatch
  ASSERT_EQ(txn.multi_cas(ctx, keys, bad, bad), TxnStatus::kMiss);

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kTxnStart], 3u);
    EXPECT_EQ(d[stats::Id::kTxnCommit], 2u) << "put + get commit";
    EXPECT_EQ(d[stats::Id::kTxnAbort], 1u) << "the failed comparison";
    // Uncontended single-threaded run: no helping, no revalidation.
    EXPECT_EQ(d[stats::Id::kTxnHelp], 0u);
    EXPECT_EQ(d[stats::Id::kTxnRevalidate], 0u);
  }
}

TEST(TxnKv, NoSpaceLeavesStoreUntouched) {
  Sub sub;
  // One shard with a tiny node pool so it exhausts quickly.
  Map map(sub, 4, {.shards = 1, .buckets_per_shard = 1,
                   .capacity_per_shard = 8});
  Txn txn(map, 4);
  auto ctx = txn.make_ctx();

  ASSERT_EQ(txn.insert(ctx, 0, 5), TxnStatus::kOk);
  // Exhaust the pool with fresh keys (insert-only: erase frees nothing).
  std::uint64_t k = 1;
  while (txn.insert(ctx, k, 1) != TxnStatus::kNoSpace) {
    ASSERT_LT(k, 64u) << "pool never exhausted";
    ++k;
  }
  const std::uint64_t fresh[] = {k + 1, k + 2};
  const std::uint64_t vals[] = {1, 2};
  EXPECT_EQ(txn.multi_put(ctx, fresh, vals), TxnStatus::kNoSpace);
  const std::uint64_t exp0[] = {Txn::kAbsent, Txn::kAbsent};
  EXPECT_EQ(txn.multi_cas(ctx, fresh, exp0, exp0), TxnStatus::kNoSpace);
  // Existing keys are untouched and still transactional.
  EXPECT_EQ(txn.get(ctx, 0), std::optional<std::uint64_t>{5});
  const std::uint64_t present[] = {0, 1};
  std::uint64_t out[2];
  txn.multi_get(ctx, present, out);
  EXPECT_EQ(out[0], Txn::wire(5));
  EXPECT_EQ(out[1], Txn::wire(1));
}

// ---------------------------------------------------------------------
// Txn-mode service: single-key verbs keep their semantics through the
// pipeline, multi ops round-trip through submit_multi/poll with the
// response vector, and a mismatching kMultiCas reports kNotFound plus
// the witness.
// ---------------------------------------------------------------------
TEST(KvServiceTxn, MultiOpRoundTrip) {
  Sub sub;
  Svc svc(sub, {.queues = 2,
                .workers = 2,
                .batch = 4,
                .max_sessions = 2,
                .tickets_per_session = 8,
                .txn = true,
                .map = small_map()});
  auto c = svc.connect();

  auto do_op = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    return svc.wait(c, *t);
  };

  // Single-key semantics survive the txn routing.
  EXPECT_EQ(do_op(Op::kInsert, 1, 5).status, Status::kOk);
  EXPECT_EQ(do_op(Op::kInsert, 1, 6).status, Status::kNotFound);
  const auto hit = do_op(Op::kFind, 1);
  EXPECT_EQ(hit.status, Status::kOk);
  EXPECT_EQ(hit.value, 5u);
  EXPECT_EQ(do_op(Op::kUpsert, 1, 6).status, Status::kNotFound);
  EXPECT_EQ(do_op(Op::kFind, 1).value, 6u);

  // multi_put then multi_get across shards.
  const std::uint64_t keys[] = {2, 3};
  const std::uint64_t vals[] = {20, 30};
  auto t = svc.submit_multi(c, Op::kMultiPut, keys, vals);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(svc.wait(c, *t).status, Status::kOk);

  const std::uint64_t all[] = {1, 2, 3, 4};
  std::uint64_t got[4];
  t = svc.submit_multi(c, Op::kMultiGet, all);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(svc.wait(c, *t, got).status, Status::kOk);
  EXPECT_EQ(got[0], Txn::wire(6));
  EXPECT_EQ(got[1], Txn::wire(20));
  EXPECT_EQ(got[2], Txn::wire(30));
  EXPECT_EQ(got[3], Txn::kAbsent);

  // Matched transfer via kMultiCas (wire-form desired/expected).
  const std::uint64_t exps[] = {Txn::wire(20), Txn::wire(30)};
  const std::uint64_t dess[] = {Txn::wire(15), Txn::wire(35)};
  std::uint64_t wit[2];
  t = svc.submit_multi(c, Op::kMultiCas, keys, dess, exps);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(svc.wait(c, *t, wit).status, Status::kOk);
  EXPECT_EQ(wit[0], Txn::wire(20));
  EXPECT_EQ(wit[1], Txn::wire(30));

  // The stale comparison now misses; witness carries the refuting values.
  t = svc.submit_multi(c, Op::kMultiCas, keys, dess, exps);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(svc.wait(c, *t, wit).status, Status::kNotFound);
  EXPECT_EQ(wit[0], Txn::wire(15));
  EXPECT_EQ(wit[1], Txn::wire(35));

  // Erase through the pipeline, observed by a snapshot.
  EXPECT_EQ(do_op(Op::kErase, 2).status, Status::kOk);
  t = svc.submit_multi(c, Op::kMultiGet, keys);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(svc.wait(c, *t, wit).status, Status::kOk);
  EXPECT_EQ(wit[0], Txn::kAbsent);
  EXPECT_EQ(wit[1], Txn::wire(35));
}

// This process's virtual size in KiB (the VmSize line of
// /proc/self/status), or 0 where that file is unavailable.
std::uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) return std::stoull(line.substr(7));
  }
  return 0;
}

// Txn mode with an elastic pool: each grow/shrink cycle spawns workers
// whose txn ctxs lease STM pids, and retiring workers return them, so the
// pool cycles indefinitely on a store sized for concurrent ctxs. Retired
// workers are joined as the pool grows again, so the cycles do not
// accumulate thread stacks either: virtual size stays flat after warm-up.
TEST(KvServiceTxn, ElasticPoolReturnsStmPids) {
  Sub sub;
  Svc svc(sub, {.workers = 1,
                .max_workers = 3,
                .grow_streak = 1,
                .shrink_idle = 64,
                .batch = 1,
                .txn = true,
                .map = small_map()});
  // Enough cycles that one leaked 8 MiB stack per cycle clears the
  // 256 MiB bound below, wherever scheduling spawns only one worker.
  constexpr std::uint64_t kCycles = 48, kClients = 2, kUpserts = 300;
  std::uint64_t warm_kib = 0;
  for (std::uint64_t cycle = 0; cycle < kCycles; ++cycle) {
    std::vector<std::thread> clients;
    for (std::uint64_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto sess = svc.connect();
        for (std::uint64_t i = 0; i < kUpserts; ++i) {
          for (;;) {  // retry shed admissions
            const auto t =
                svc.submit(sess, Op::kUpsert, c, cycle * kUpserts + i);
            if (t.has_value() &&
                svc.wait(sess, *t).status != Status::kOverload) {
              break;
            }
          }
        }
      });
    }
    for (auto& th : clients) th.join();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (svc.live_workers() > 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(svc.live_workers(), 1u) << "pool stuck above its floor";
    if (cycle == 1) warm_kib = vm_size_kib();
  }
  EXPECT_GE(svc.worker_registry().high_water(), 2u)
      << "the pool never grew, so no pid was ever returned";
  const std::uint64_t end_kib = vm_size_kib();
  if (warm_kib != 0 && end_kib != 0) {
    EXPECT_LT(end_kib, warm_kib + 256 * 1024)
        << "VmSize grew from " << warm_kib << " KiB after cycle 2 to "
        << end_kib << " KiB after cycle " << kCycles
        << ": retired workers' threads are not being joined";
  }

  auto sess = svc.connect();
  for (std::uint64_t c = 0; c < kClients; ++c) {
    const auto t = svc.submit(sess, Op::kFind, c);
    ASSERT_TRUE(t.has_value());
    const auto r = svc.wait(sess, *t);
    EXPECT_EQ(r.status, Status::kOk);
    EXPECT_EQ(r.value, kCycles * kUpserts - 1);
  }
}

// ---------------------------------------------------------------------
// Linearizability of interleaved single- and multi-key operations against
// TxnSpec, DFS-explored on an adversarial 1-shard configuration (every
// key collides on one Harris list, every transaction crosses the same
// cells). Direct TxnKv access; each transact-ful operation runs on a
// FRESH ThreadCtx (fresh STM pid), so the descriptor-drain spin in
// try_transact is structurally unreachable and the DFS tree stays finite.
// The ctxs stay held until the trial ends: a released pid would be reused
// by the body's next op, whose drain could then wait on the other body
// while DFS keeps scheduling the spinner.
// ---------------------------------------------------------------------
struct TxnLinShared {
  Sub sub;
  Map map;
  Txn txn;
  HistoryRecorder rec{2};
  std::array<std::vector<Txn::ThreadCtx>, 2> held;  // per body

  TxnLinShared()
      : map(sub, 16,
            {.shards = 1, .buckets_per_shard = 1, .capacity_per_shard = 16}),
        txn(map, 16) {}

  Txn::ThreadCtx& fresh_ctx(unsigned t) {
    return held[t].emplace_back(txn.make_ctx());
  }

  void do_insert(unsigned t, std::uint64_t key, std::uint64_t val) {
    auto& ctx = fresh_ctx(t);
    const auto inv = rec.now();
    const TxnStatus st = txn.insert(ctx, key, val);
    rec.add(t, t, OpKind::kMapInsert, TxnSpec::pack_args(key, val),
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

  // The double-collect never transacts, so reusing a ctx would be fine;
  // a fresh one keeps the pid accounting uniform.
  void do_mget(unsigned t, std::uint64_t k1, std::uint64_t k2) {
    auto& ctx = fresh_ctx(t);
    const std::uint64_t keys[] = {k1, k2};
    std::uint64_t out[2];
    const auto inv = rec.now();
    txn.multi_get_double_collect(ctx, keys, out);
    rec.add(t, t, OpKind::kTxnMGet, TxnSpec::pack_mget(k1, k2),
            TxnSpec::mget_ret(out[0], out[1]), inv);
  }

  bool check() {
    LinearizabilityChecker<TxnSpec> checker;
    return checker.check(rec.collect(), TxnSpec::State{});
  }
};

TEST(TxnKv, ExploreLinearizable) {
  auto make_trial = [] {
    auto sh = std::make_shared<TxnLinShared>();
    testing::ScheduleExplorer::Trial trial;
    trial.bodies.push_back([sh] {
      sh->do_insert(0, 0, 1);
      // Transfer iff key 0 holds 1 and key 1 is absent.
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
  const auto r = testing::ScheduleExplorer::explore(make_trial, opts);
  EXPECT_FALSE(r.violation_found)
      << "non-linearizable transaction history under schedule "
      << r.schedule_string();
  EXPECT_GT(r.trials, 0u);
}

// ---------------------------------------------------------------------
// The full txn-mode ring pipeline under PCT schedules: two sessions
// interleave single-key ops and two-key transactions; each body runs
// worker passes on the shared service, whose routing and lane claims keep
// every ring and lane to one consumer; the observer reconstructs TxnSpec
// return values from the slot's response vector at completion time.
// ---------------------------------------------------------------------
struct SvcTxnPending {
  OpKind kind = OpKind::kMapFind;
  std::uint64_t arg = 0;
  std::uint64_t inv = 0;
};

struct SvcTxnShared {
  Sub sub;
  Svc svc;
  HistoryRecorder rec{2};
  std::vector<Svc::ClientCtx> clients;
  std::vector<Svc::WorkerCtx> workers;
  std::array<std::array<SvcTxnPending, 8>, 2> pending{};
  std::array<std::uint32_t, 2> next_slot{};
  std::array<std::vector<Svc::Ticket>, 2> issued;

  SvcTxnShared()
      : svc(sub, {.queues = 1,
                  .queue_capacity = 16,
                  .workers = 0,
                  .batch = 4,
                  .max_sessions = 2,
                  .tickets_per_session = 8,
                  .txn = true,
                  .map = {.shards = 1, .buckets_per_shard = 1,
                          .capacity_per_shard = 16}}) {
    clients.reserve(2);
    workers.reserve(2);
    for (int t = 0; t < 2; ++t) {
      clients.push_back(svc.connect());
      workers.push_back(svc.make_worker_ctx());
    }
  }

  std::uint64_t ret_of(const SvcTxnPending& p, std::uint64_t handle,
                       const svc::Response& r) {
    if (r.status == Status::kOverload) return TxnSpec::kShed;
    switch (p.kind) {
      case OpKind::kMapFind:
        return r.status == Status::kOk ? r.value + 1 : 0;
      case OpKind::kTxnMGet: {
        const auto& ts = svc.peek_slot(handle);
        return TxnSpec::mget_ret(ts.resp_values[0], ts.resp_values[1]);
      }
      case OpKind::kTxnMPut:
        return 1;
      case OpKind::kTxnMCas: {
        const auto& ts = svc.peek_slot(handle);
        return TxnSpec::mcas_ret(r.status == Status::kOk, ts.resp_values[0],
                                 ts.resp_values[1]);
      }
      default:
        return r.status == Status::kOk ? 1 : 0;
    }
  }

  auto observer() {
    return [this](std::uint64_t handle, const svc::Response& r) {
      const unsigned sid = svc::handle_session(handle);
      const SvcTxnPending& p = pending[sid][svc::handle_slot(handle)];
      rec.add(sid, sid, p.kind, p.arg, ret_of(p, handle, r), p.inv);
    };
  }

  void book(unsigned t, OpKind kind, std::uint64_t arg,
            const std::optional<Svc::Ticket>& ticket) {
    const std::uint32_t slot = next_slot[t];
    if (!ticket.has_value()) {
      rec.add(t, t, kind, arg, TxnSpec::kShed, pending[t][slot].inv);
      return;
    }
    next_slot[t] = slot + 1;
    issued[t].push_back(*ticket);
  }

  void submit_single(unsigned t, OpKind kind, Op op, std::uint64_t key,
                     std::uint64_t val) {
    const std::uint64_t arg = kind == OpKind::kMapErase ||
                                      kind == OpKind::kMapFind
                                  ? key
                                  : TxnSpec::pack_args(key, val);
    pending[t][next_slot[t]] = SvcTxnPending{kind, arg, rec.now()};
    book(t, kind, arg, svc.submit(clients[t], op, key, val));
  }

  void submit_mput(unsigned t, std::uint64_t k1, std::uint64_t k2,
                   std::uint64_t v1, std::uint64_t v2) {
    const std::uint64_t keys[] = {k1, k2};
    const std::uint64_t vals[] = {v1, v2};
    const std::uint64_t arg = TxnSpec::pack_mput(k1, k2, v1, v2);
    pending[t][next_slot[t]] = SvcTxnPending{OpKind::kTxnMPut, arg, rec.now()};
    book(t, OpKind::kTxnMPut, arg,
         svc.submit_multi(clients[t], Op::kMultiPut, keys, vals));
  }

  void submit_mget(unsigned t, std::uint64_t k1, std::uint64_t k2) {
    const std::uint64_t keys[] = {k1, k2};
    const std::uint64_t arg = TxnSpec::pack_mget(k1, k2);
    pending[t][next_slot[t]] = SvcTxnPending{OpKind::kTxnMGet, arg, rec.now()};
    book(t, OpKind::kTxnMGet, arg,
         svc.submit_multi(clients[t], Op::kMultiGet, keys));
  }

  void submit_mcas(unsigned t, std::uint64_t k1, std::uint64_t k2,
                   std::uint64_t e1, std::uint64_t e2, std::uint64_t d1,
                   std::uint64_t d2) {
    const std::uint64_t keys[] = {k1, k2};
    const std::uint64_t exps[] = {e1, e2};
    const std::uint64_t dess[] = {d1, d2};
    const std::uint64_t arg = TxnSpec::pack_mcas(k1, k2, e1, e2, d1, d2);
    pending[t][next_slot[t]] = SvcTxnPending{OpKind::kTxnMCas, arg, rec.now()};
    book(t, OpKind::kTxnMCas, arg,
         svc.submit_multi(clients[t], Op::kMultiCas, keys, dess, exps));
  }

  // Body t's worker passes until one moves nothing.
  void drain(unsigned t) {
    for (;;) {
      const auto p = svc.serve(workers[t], observer());
      if (p.routed + p.executed == 0) break;
    }
  }

  bool check() {
    for (unsigned t = 0; t < 2; ++t) {
      for (const auto& ticket : issued[t]) {
        if (!svc.poll(clients[t], ticket).has_value()) return false;
      }
    }
    LinearizabilityChecker<TxnSpec> checker;
    return checker.check(rec.collect(), TxnSpec::State{});
  }
};

TEST(PctSmoke, TxnPipeline) {
  auto make_trial = [] {
    auto sh = std::make_shared<SvcTxnShared>();
    testing::ScheduleExplorer::Trial trial;
    trial.bodies.push_back([sh] {
      sh->submit_single(0, OpKind::kMapInsert, Op::kInsert, 0, 1);
      sh->svc.serve(sh->workers[0], sh->observer());
      // Transfer 0 -> 1 iff key 0 holds 1 and key 1 is absent.
      sh->submit_mcas(0, 0, 1, Txn::wire(1), Txn::kAbsent, Txn::kAbsent,
                      Txn::wire(1));
      sh->drain(0);
    });
    trial.bodies.push_back([sh] {
      sh->submit_mput(1, 0, 1, 3, 4);
      sh->svc.serve(sh->workers[1], sh->observer());
      sh->submit_mget(1, 0, 1);
      sh->drain(1);
    });
    trial.check = [sh] {
      sh->drain(0);  // post-join: a lone caller wins every claim
      return sh->check();
    };
    return trial;
  };

  const testing::PctOptions opts{
      .runs = scaled_budget(30),
      .depth = 3,
      .change_range = 128,
      .seed = base_seed() + 41,
  };
  const auto r = testing::ScheduleExplorer::pct_explore(make_trial, opts);
  EXPECT_FALSE(r.violation_found)
      << "non-linearizable txn pipeline history under schedule "
      << r.schedule_string();
  EXPECT_EQ(r.trials, opts.runs);
}

// ---------------------------------------------------------------------
// Transfer torture: concurrent 2-key multi_cas transfers over an 8-key
// account set, with k=8 double-collect snapshots asserting value
// conservation mid-run (Tl2Torture runs the invisible reader). This is
// the asan-reclaim shard's txn entry and the in-tree twin of bench_txn's
// checksum hard check.
// ---------------------------------------------------------------------
TEST(TxnTorture, TransfersConserveSum) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kAccounts = 8;
  constexpr std::uint64_t kInitial = 100;
  constexpr std::uint64_t kTotal = kAccounts * kInitial;
  Sub sub;
  Map map(sub, kThreads + 4, small_map());
  Txn txn(map, kThreads + 4);

  std::uint64_t all_keys[kAccounts];
  for (unsigned i = 0; i < kAccounts; ++i) all_keys[i] = i;
  {
    auto ctx = txn.make_ctx();
    std::uint64_t init[kAccounts];
    std::fill(std::begin(init), std::end(init), kInitial);
    ASSERT_EQ(txn.multi_put(ctx, all_keys, init), TxnStatus::kOk);
  }

  auto snapshot_sum = [&](Txn::ThreadCtx& ctx) {
    std::uint64_t snap[kAccounts];
    txn.multi_get_double_collect(ctx, all_keys, snap);
    std::uint64_t sum = 0;
    for (const std::uint64_t c : snap) {
      EXPECT_NE(c, Txn::kAbsent) << "account vanished";
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
      txn.multi_get_double_collect(ctx, pair, snap);
      ASSERT_NE(snap[0], Txn::kAbsent);
      ASSERT_NE(snap[1], Txn::kAbsent);
      const std::uint64_t vi = snap[0] - 1;
      const std::uint64_t vj = snap[1] - 1;
      const std::uint64_t d = std::min<std::uint64_t>(vi, 1 + rnd() % 10);
      const std::uint64_t des[] = {Txn::wire(vi - d), Txn::wire(vj + d)};
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

}  // namespace
}  // namespace moir
