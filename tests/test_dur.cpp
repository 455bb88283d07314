// Durable LL/SC over simulated pmem (figdur) + dynamic membership:
// pmem persist and snapshot semantics, substrate conformance, concurrent
// counters with join/leave churn, descriptor conservation through crash
// recovery, exhaustive crash-inject DFS + PCT durable-linearizability
// checks, the missing-persist negative control (DFS and PCT, with
// schedule replay), LeaseRegistry aliasing storms, figdur and figbw
// traffic under membership churn, and the elastic worker pool
// growing/shrinking under offered load.
#include "dur/dur_llsc.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/bw_llsc.hpp"
#include "core/lease_registry.hpp"
#include "core/llsc_traits.hpp"
#include "dur/pmem.hpp"
#include "reclaim/epoch.hpp"
#include "sim/crash.hpp"
#include "sim/explore.hpp"
#include "sim/schedule.hpp"
#include "stats/stats.hpp"
#include "svc/service.hpp"
#include "util/env.hpp"
#include "verify/durable.hpp"
#include "verify/history.hpp"
#include "verify/spec.hpp"

namespace moir {
namespace {

using testing::ExploreOptions;
using testing::Schedule;
using testing::ScheduleExplorer;
using testing::with_crash;

using Dur = dur::DurLlsc<>;
using DurBroken = dur::DurLlscNoPersist<>;

static_assert(SmallLlscSubstrate<dur::DurLlsc<>>);
static_assert(SmallLlscSubstrate<dur::DurLlsc<16>>);
static_assert(SmallLlscSubstrate<dur::DurLlscNoPersist<>>);

// ---------------------------------------------------------------------
// Simulated-pmem semantics: the model the barrier proofs lean on.
// ---------------------------------------------------------------------
TEST(Pmem, PersistAndSnapshotRestoreRoundTrip) {
  dur::PmemDomain d;
  dur::DurWord a(1), b(2);
  d.attach(a);
  d.attach(b);
  a.store(10);
  d.persist(a);
  b.store(20);  // volatile only: a crash loses it
  const auto image = d.snapshot();
  ASSERT_EQ(image.size(), 2u);
  EXPECT_EQ(image[0], 10u);
  EXPECT_EQ(image[1], 2u);

  // "Recovered machine": same attach order, image loaded into both copies.
  dur::PmemDomain d2;
  dur::DurWord a2(0), b2(0);
  d2.attach(a2);
  d2.attach(b2);
  d2.restore(image);
  EXPECT_EQ(a2.load(), 10u);
  EXPECT_EQ(a2.durable(), 10u);
  EXPECT_EQ(b2.load(), 2u);
}

TEST(Pmem, BarrierCountersTick) {
  stats::set_counting(true);
  dur::PmemDomain d;
  dur::DurWord w(0);
  d.attach(w);
  const stats::Snapshot before = stats::snapshot();
  w.store(1);
  d.persist(w);
  w.store(2);
  d.persist(w);
  if (stats::kCompiledIn) {
    const stats::Snapshot delta = stats::snapshot() - before;
    EXPECT_EQ(delta[stats::Id::kDurFlush], 2u);
    EXPECT_EQ(delta[stats::Id::kDurFence], 2u);
  }
}

// ---------------------------------------------------------------------
// figdur conformance: the same bodies as the figbw suite. Note the
// constructor shape: (k, Config) — membership is dynamic, there is no N.
// ---------------------------------------------------------------------
TEST(DurLlsc, InitAndRead) {
  Dur s(2);
  Dur::Var var;
  s.init_var(var, 37);
  EXPECT_EQ(s.read(var), 37u);
}

TEST(DurLlsc, LlVlScRoundTrip) {
  Dur s(2);
  Dur::Var var;
  s.init_var(var, 5);
  auto ctx = s.make_ctx();
  Dur::Keep keep;
  EXPECT_EQ(s.ll(ctx, var, keep), 5u);
  EXPECT_TRUE(s.vl(ctx, var, keep));
  EXPECT_TRUE(s.sc(ctx, var, keep, 6));
  EXPECT_EQ(s.read(var), 6u);
}

TEST(DurLlsc, ScFailsAfterInterferingSc) {
  Dur s(2);
  Dur::Var var;
  s.init_var(var, 1);
  auto ctx = s.make_ctx();
  Dur::Keep mine, other;
  s.ll(ctx, var, mine);
  s.ll(ctx, var, other);
  EXPECT_TRUE(s.sc(ctx, var, other, 2));
  EXPECT_FALSE(s.sc(ctx, var, mine, 3));
  EXPECT_FALSE(s.vl(ctx, var, mine));
  EXPECT_EQ(s.read(var), 2u);
}

TEST(DurLlsc, ClEndsASequence) {
  Dur s(2);
  Dur::Var var;
  s.init_var(var, 1);
  auto ctx = s.make_ctx();
  for (int i = 0; i < 100; ++i) {
    Dur::Keep keep;
    s.ll(ctx, var, keep);
    s.cl(ctx, keep);
  }
  Dur::Keep keep;
  s.ll(ctx, var, keep);
  EXPECT_TRUE(s.sc(ctx, var, keep, 2));
}

TEST(DurLlsc, FullWidthValues) {
  Dur s(2);
  EXPECT_EQ(s.max_value(), ~std::uint64_t{0});
  Dur::Var var;
  s.init_var(var, 0);
  auto ctx = s.make_ctx();
  Dur::Keep keep;
  s.ll(ctx, var, keep);
  EXPECT_TRUE(s.sc(ctx, var, keep, s.max_value()));
  EXPECT_EQ(s.read(var), s.max_value());
}

TEST(DurLlsc, ReInitVarReusesDescriptor) {
  Dur s(1, {.reserve = 2, .chunk = 1, .max_members = 2});
  Dur::Var var;
  s.init_var(var, 3);
  s.init_var(var, 4);
  s.init_var(var, 5);
  EXPECT_EQ(s.read(var), 5u);
}

TEST(DurLlsc, DetectsValueRestorationAba) {
  Dur s(2);
  Dur::Var var;
  s.init_var(var, 1);
  auto ctx = s.make_ctx();
  Dur::Keep victim, k;
  s.ll(ctx, var, victim);
  s.ll(ctx, var, k);
  ASSERT_TRUE(s.sc(ctx, var, k, 2));
  s.ll(ctx, var, k);
  ASSERT_TRUE(s.sc(ctx, var, k, 1));  // value restored: ABA
  EXPECT_FALSE(s.sc(ctx, var, victim, 9));
  EXPECT_EQ(s.read(var), 1u);
}

// Every completed SC ends with the var's durable word covering its install
// (P2), so after any quiescent point a "power cut now" image recovers to
// exactly the current value — the per-op durability the barriers buy.
TEST(DurLlsc, CompletedScIsImmediatelyDurable) {
  stats::set_counting(true);
  const Dur::Config cfg{.reserve = 2, .chunk = 2, .scan_threshold = 4,
                        .max_members = 2};
  Dur s(1, cfg);
  Dur::Var var;
  s.init_var(var, 0);
  const stats::Snapshot before = stats::snapshot();
  {
    auto ctx = s.make_ctx();
    for (int i = 0; i < 10; ++i) {
      Dur::Keep keep;
      const std::uint64_t v = s.ll(ctx, var, keep);
      ASSERT_TRUE(s.sc(ctx, var, keep, v + 1));

      Dur fresh(1, cfg);
      Dur::Var fvar;
      fresh.init_var(fvar, 0);
      fresh.restore_and_recover(s.snapshot());
      EXPECT_EQ(fresh.read(fvar), v + 1)
          << "crash image after a completed SC lost its effect";
    }
  }
  if (stats::kCompiledIn) {
    const stats::Snapshot delta = stats::snapshot() - before;
    EXPECT_GT(delta[stats::Id::kDurFlush], 0u);
    EXPECT_GT(delta[stats::Id::kDurFence], 0u);
    EXPECT_EQ(delta[stats::Id::kDurRecover], 10u);
  }
}

TEST(DurLlsc, ConcurrentCounterInvariant) {
  Dur s(4, {.max_members = 8});
  Dur::Var var;
  s.init_var(var, 0);
  std::atomic<std::uint64_t> successes{0};
  constexpr int kThreads = 4;
  constexpr int kAttempts = 5000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      auto ctx = s.make_ctx();  // joins the dynamic membership
      std::uint64_t local = 0;
      for (int i = 0; i < kAttempts; ++i) {
        Dur::Keep keep;
        const auto v = s.ll(ctx, var, keep);
        local += s.sc(ctx, var, keep, v + 1);
      }
      successes.fetch_add(local);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(s.read(var), successes.load());
  EXPECT_EQ(s.registry().active(), 0u);
}

// Descriptor conservation through heavy recycling AND through a crash:
// recovery rebuilds the free list from the durable roots, so descriptors
// stranded in (volatile) limbo at the crash return to the pool.
TEST(DurLlsc, RecoveryConservesDescriptors) {
  stats::set_counting(true);
  const Dur::Config cfg{.reserve = 4, .chunk = 2, .scan_threshold = 3,
                        .max_members = 2};
  Dur s(2, cfg);
  Dur::Var var;
  s.init_var(var, 0);
  const stats::Snapshot before = stats::snapshot();
  {
    auto ctx = s.make_ctx();
    for (int i = 0; i < 200; ++i) {
      Dur::Keep keep;
      const auto v = s.ll(ctx, var, keep);
      ASSERT_TRUE(s.sc(ctx, var, keep, v + 1));
    }
  }
  EXPECT_EQ(s.read(var), 200u);
  if (stats::kCompiledIn) {
    const stats::Snapshot delta = stats::snapshot() - before;
    EXPECT_GT(delta[stats::Id::kBwAllocReuse], 0u)
        << "200 SCs in a 4-descriptor reserve never recycled";
    EXPECT_EQ(delta[stats::Id::kScSuccess], 200u);
  }
  EXPECT_EQ(s.pool_free_quiescent() + s.orphans_quiescent() + 1,
            s.pool_capacity())
      << "descriptors leaked through retire/scan";

  // Crash and recover on a fresh instance: ONE descriptor (the installed
  // one) is live; everything else — including anything that was sitting in
  // limbo or on the orphan stack at the crash — is back in the pool.
  Dur fresh(2, cfg);
  Dur::Var fvar;
  fresh.init_var(fvar, 0);
  fresh.restore_and_recover(s.snapshot());
  EXPECT_EQ(fresh.read(fvar), 200u);
  EXPECT_EQ(fresh.pool_free_quiescent() + 1, fresh.pool_capacity())
      << "recovery leaked descriptors that died with the crash";

  // And the recovered instance is fully operational.
  auto ctx = fresh.make_ctx();
  Dur::Keep keep;
  EXPECT_EQ(fresh.ll(ctx, fvar, keep), 200u);
  EXPECT_TRUE(fresh.sc(ctx, fvar, keep, 201));
  EXPECT_EQ(fresh.read(fvar), 201u);
}

// ---------------------------------------------------------------------
// Crash-inject DFS: one writer's SC (its LL pre-opened quiescently, so
// the tree is exactly the durability-critical window: P1, install, P2),
// one context-free reader exercising the conditional P3, and a crash
// thread whose single step the explorer places at every schedule point.
// Every (interleaving, crash point) pair must be durably linearizable:
// the recovered value explained by the completed ops plus some subset of
// the in-flight ones. Plain DFS — the history clock rides between yield
// points, so sleep sets would prune real-time edges (see
// test_bw_llsc.cpp). The full LL+SC tree (~300k schedules) lives in the
// explore shard (test_exploration_deep.cpp).
// ---------------------------------------------------------------------
// Tiny on purpose: the whole pool is constructed TWICE per trial (the
// trial's instance and the recovered one), so capacity is the constant
// factor on every DFS node.
constexpr Dur::Config kCrashCfg{.reserve = 2, .chunk = 1,
                                .scan_threshold = 2, .max_members = 1};

ScheduleExplorer::Trial make_crash_trial() {
  struct Shared {
    Dur s{1, kCrashCfg};
    Dur::Var var;
    std::vector<Dur::ThreadCtx> ctxs;
    HistoryRecorder rec{2};
    std::uint64_t crash_ts = 0;
    std::vector<std::uint64_t> image;
  };
  auto sh = std::make_shared<Shared>();
  sh->s.init_var(sh->var, 0);
  sh->ctxs.push_back(sh->s.make_ctx());

  ScheduleExplorer::Trial trial;
  // The LL runs here, before the scheduler takes over: it completes
  // before every other op and before the crash, which the recorded
  // timestamps encode, so the checker treats it as mandatory history.
  auto keep = std::make_shared<Dur::Keep>();
  {
    const auto inv = sh->rec.now();
    const std::uint64_t v = sh->s.ll(sh->ctxs[0], sh->var, *keep);
    sh->rec.add(0, 0, OpKind::kLl, 0, v, inv);
  }
  trial.bodies.push_back([sh, keep] {  // writer: the SC half only
    const auto inv = sh->rec.now();
    const bool ok = sh->s.sc(sh->ctxs[0], sh->var, *keep, 1);
    sh->rec.add(0, 0, OpKind::kSc, 1, ok, inv);
  });
  trial.bodies.push_back([sh] {  // context-free reader
    const auto inv = sh->rec.now();
    const std::uint64_t v = sh->s.read(sh->var);
    sh->rec.add(1, 1, OpKind::kRead, 0, v, inv);
  });
  trial = with_crash(std::move(trial), [sh] {
    sh->crash_ts = sh->rec.now();
    sh->image = sh->s.snapshot();
  });
  trial.check = [sh] {
    // Recovered machine: identical construction, image restored, recovery
    // run, then one probe read of the (only) variable.
    Dur fresh(1, kCrashCfg);
    Dur::Var fvar;
    fresh.init_var(fvar, 0);
    fresh.restore_and_recover(sh->image);
    Operation probe;
    probe.proc = 2;
    probe.kind = OpKind::kRead;
    probe.ret = fresh.read(fvar);
    DurableLinearizabilityChecker<LlscRegisterSpec> checker;
    return checker.check(sh->rec.collect(), sh->crash_ts, {probe},
                         LlscRegisterSpec::State{});
  };
  return trial;
}

TEST(Exploration, DurCrashRecoverExhaustive) {
  const auto r = ScheduleExplorer::explore(make_crash_trial, 400000);
  EXPECT_TRUE(r.exhausted) << "trials=" << r.trials;
  EXPECT_FALSE(r.violation_found)
      << "non-durably-linearizable figdur recovery under schedule "
      << r.schedule_string();
  EXPECT_GT(r.trials, 10u);
}

// PCT over a bigger crash config DFS couldn't exhaust: two writers doing
// two increments each, crash placement sampled like any preemption.
constexpr Dur::Config kPctCrashCfg{.reserve = 2, .chunk = 2,
                                   .scan_threshold = 4, .max_members = 2};

TEST(PctSmoke, DurCrashRecover) {
  auto make_trial = [] {
    struct Shared {
      Dur s{1, kPctCrashCfg};
      Dur::Var var;
      std::vector<Dur::ThreadCtx> ctxs;
      HistoryRecorder rec{2};
      std::uint64_t crash_ts = 0;
      std::vector<std::uint64_t> image;
    };
    auto sh = std::make_shared<Shared>();
    sh->s.init_var(sh->var, 0);
    sh->ctxs.push_back(sh->s.make_ctx());
    sh->ctxs.push_back(sh->s.make_ctx());

    ScheduleExplorer::Trial trial;
    for (unsigned t = 0; t < 2; ++t) {
      trial.bodies.push_back([sh, t] {
        for (int i = 0; i < 2; ++i) {
          Dur::Keep keep;
          auto inv = sh->rec.now();
          const std::uint64_t v = sh->s.ll(sh->ctxs[t], sh->var, keep);
          sh->rec.add(t, t, OpKind::kLl, 0, v, inv);
          inv = sh->rec.now();
          const bool ok = sh->s.sc(sh->ctxs[t], sh->var, keep, v + 1);
          sh->rec.add(t, t, OpKind::kSc, v + 1, ok, inv);
        }
      });
    }
    trial = with_crash(std::move(trial), [sh] {
      sh->crash_ts = sh->rec.now();
      sh->image = sh->s.snapshot();
    });
    trial.check = [sh] {
      Dur fresh(1, kPctCrashCfg);
      Dur::Var fvar;
      fresh.init_var(fvar, 0);
      fresh.restore_and_recover(sh->image);
      Operation probe;
      probe.proc = 2;
      probe.kind = OpKind::kRead;
      probe.ret = fresh.read(fvar);
      DurableLinearizabilityChecker<LlscRegisterSpec> checker;
      return checker.check(sh->rec.collect(), sh->crash_ts, {probe},
                           LlscRegisterSpec::State{});
    };
    return trial;
  };

  const testing::PctOptions opts{
      .runs = scaled_budget(60),
      .depth = 3,
      .change_range = 96,
      .seed = base_seed() + 23,
  };
  const auto r = ScheduleExplorer::pct_explore(make_trial, opts);
  EXPECT_FALSE(r.violation_found)
      << "non-durably-linearizable figdur recovery under schedule "
      << r.schedule_string();
  EXPECT_EQ(r.trials, opts.runs);
}

// ---------------------------------------------------------------------
// Negative control (planted bug): DurLlscNoPersist elides P2 — a
// successful SC returns without persisting the variable word, so a crash
// scheduled right after the SC completes recovers a state missing a
// completed operation's effect. Both explorers must find it, and the
// ms1: schedule must replay it deterministically.
// ---------------------------------------------------------------------
constexpr DurBroken::Config kBrokenCfg{.reserve = 2, .chunk = 1,
                                       .scan_threshold = 2,
                                       .max_members = 1};

ScheduleExplorer::Trial make_missing_persist_trial() {
  struct Shared {
    DurBroken s{1, kBrokenCfg};
    DurBroken::Var var;
    std::vector<DurBroken::ThreadCtx> ctxs;
    HistoryRecorder rec{1};
    std::uint64_t crash_ts = 0;
    std::vector<std::uint64_t> image;
  };
  auto sh = std::make_shared<Shared>();
  sh->s.init_var(sh->var, 0);
  sh->ctxs.push_back(sh->s.make_ctx());

  ScheduleExplorer::Trial trial;
  trial.bodies.push_back([sh] {
    DurBroken::Keep keep;
    auto inv = sh->rec.now();
    const std::uint64_t v = sh->s.ll(sh->ctxs[0], sh->var, keep);
    sh->rec.add(0, 0, OpKind::kLl, 0, v, inv);
    inv = sh->rec.now();
    const bool ok = sh->s.sc(sh->ctxs[0], sh->var, keep, v + 1);
    sh->rec.add(0, 0, OpKind::kSc, v + 1, ok, inv);
  });
  trial = with_crash(std::move(trial), [sh] {
    sh->crash_ts = sh->rec.now();
    sh->image = sh->s.snapshot();
  });
  trial.check = [sh] {
    DurBroken fresh(1, kBrokenCfg);
    DurBroken::Var fvar;
    fresh.init_var(fvar, 0);
    fresh.restore_and_recover(sh->image);
    Operation probe;
    probe.proc = 2;
    probe.kind = OpKind::kRead;
    probe.ret = fresh.read(fvar);
    DurableLinearizabilityChecker<LlscRegisterSpec> checker;
    return checker.check(sh->rec.collect(), sh->crash_ts, {probe},
                         LlscRegisterSpec::State{});
  };
  return trial;
}

TEST(NegativeControl, DfsCatchesMissingPersist) {
  const auto r = ScheduleExplorer::explore(make_missing_persist_trial, 400000);
  EXPECT_TRUE(r.violation_found)
      << "DFS failed to find the missing-P2 durability hole";
}

TEST(NegativeControl, PctCatchesMissingPersist) {
  const testing::PctOptions opts{
      .runs = scaled_budget(800),
      .depth = 3,
      .change_range = 32,
      .seed = base_seed() + 29,
  };
  const auto r =
      ScheduleExplorer::pct_explore(make_missing_persist_trial, opts);
  ASSERT_TRUE(r.violation_found)
      << "PCT failed to catch the elided persist barrier (positive control "
         "for the P2 placement)";

  const auto parsed = Schedule::parse(r.schedule_string());
  ASSERT_TRUE(parsed.has_value()) << r.schedule_string();
  for (int i = 0; i < 3; ++i) {
    EXPECT_FALSE(
        ScheduleExplorer::replay(make_missing_persist_trial, *parsed))
        << "schedule " << r.schedule_string() << " did not replay the bug";
  }
}

// ---------------------------------------------------------------------
// Counted LeaseRegistry: join/leave storms. Each leased id must be
// exclusive (no aliasing) and ids stay dense (< capacity; high_water
// tracks the peak, not the ceiling).
// ---------------------------------------------------------------------
TEST(RegistryChurn, JoinLeaveStormNoAliasing) {
  stats::set_counting(true);
  constexpr unsigned kCeiling = 64;
  constexpr int kThreads = 8;
  LeaseRegistry<true> reg(kCeiling);
  std::vector<std::atomic<int>> claims(kCeiling);
  for (auto& c : claims) c.store(0);
  std::atomic<std::uint64_t> aliased{0};
  const stats::Snapshot before = stats::snapshot();
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (std::uint64_t i = 0; i < scaled_budget(4000); ++i) {
        const unsigned id = reg.acquire();
        ASSERT_LT(id, kCeiling);
        if (claims[id].fetch_add(1, std::memory_order_acq_rel) != 0) {
          aliased.fetch_add(1);  // two members holding one lease
        }
        claims[id].fetch_sub(1, std::memory_order_acq_rel);
        reg.release(id);
      }
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(aliased.load(), 0u) << "a member id was leased twice at once";
  EXPECT_EQ(reg.active(), 0u);
  EXPECT_GE(reg.high_water(), 1u);
  EXPECT_LE(reg.high_water(), static_cast<unsigned>(kThreads))
      << "high_water exceeded the true concurrency";
  if (stats::kCompiledIn) {
    const stats::Snapshot delta = stats::snapshot() - before;
    EXPECT_EQ(delta[stats::Id::kRegJoin], delta[stats::Id::kRegLeave]);
    EXPECT_GE(delta[stats::Id::kRegJoin],
              static_cast<std::uint64_t>(kThreads) * scaled_budget(4000));
  }
}

// Membership churn concurrent with traffic: short-lived contexts join,
// increment a few times, and leave (parking limbo on the orphan stack)
// while a stable member runs `stable_ops` increments on the same
// variable, or stops early at a wall-clock bound that only slow
// (sanitized) builds reach. No update may be lost and no descriptor
// leaked. A two-descriptor reserve keeps the pool running dry, so a
// dry allocator must wait out the scanner that adopted the orphan pile.
template <class S>
void traffic_during_churn(S& s, std::uint64_t stable_ops) {
  typename S::Var var;
  s.init_var(var, 0);
  // Held for the whole episode: every churner's join overlaps this
  // membership, so high_water >= 2 is deterministic, not scheduling luck.
  std::optional<typename S::ThreadCtx> anchor(s.make_ctx());
  std::atomic<std::uint64_t> successes{0};
  std::atomic<bool> stop{false};
  std::thread stable([&] {
    auto ctx = s.make_ctx();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::uint64_t local = 0;
    for (std::uint64_t i = 0; i < stable_ops; ++i) {
      typename S::Keep keep;
      const auto v = s.ll(ctx, var, keep);
      local += s.sc(ctx, var, keep, v + 1);
      if (i % 4096 == 0 && std::chrono::steady_clock::now() > deadline) break;
    }
    successes.fetch_add(local);
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> churners;
  for (int t = 0; t < 4; ++t) {
    churners.emplace_back([&] {
      std::uint64_t local = 0;
      do {
        auto ctx = s.make_ctx();  // join under load
        for (int i = 0; i < 4; ++i) {
          typename S::Keep keep;
          const auto v = s.ll(ctx, var, keep);
          local += s.sc(ctx, var, keep, v + 1);
        }
        // ctx dtor: leave under load, limbo -> orphans
      } while (!stop.load(std::memory_order_acquire));
      successes.fetch_add(local);
    });
  }
  stable.join();
  for (auto& th : churners) th.join();
  anchor.reset();  // return the anchor lease before the quiescent checks
  EXPECT_EQ(s.read(var), successes.load()) << "updates lost across churn";
  EXPECT_EQ(s.registry().active(), 0u);
  EXPECT_GE(s.registry().high_water(), 2u);
  EXPECT_EQ(s.pool_free_quiescent() + s.orphans_quiescent() + 1,
            s.pool_capacity())
      << "descriptors leaked through departing members";
}

TEST(RegistryChurn, FigdurTrafficDuringChurn) {
  Dur s(1, {.reserve = 2, .chunk = 4, .scan_threshold = 0, .max_members = 16});
  traffic_during_churn(s, scaled_budget(20000));
}

// The same body on figbw, whose dry allocator must likewise retry until
// the scanner holding the orphan pile spills it back. The stable budget
// is large because the pool runs dry only now and then: an allocator
// that gives up after one scan aborts well inside it.
TEST(RegistryChurn, FigbwTrafficDuringChurn) {
  BwLlsc<> s(17, 2, {.reserve = 2, .chunk = 4});
  traffic_during_churn(s, scaled_budget(2'000'000));
}

// ---------------------------------------------------------------------
// Elastic worker pool on the figdur-backed service: the pool starts at
// the floor, grows toward the ceiling under sustained offered load
// (every completed request checksum-verified — growth must not lose or
// corrupt completions), and shrinks back to the floor once idle.
// ---------------------------------------------------------------------
TEST(DurElasticService, GrowsUnderLoadThenShrinksToFloor) {
  using Svc = svc::KvService<Dur, reclaim::EpochReclaimer>;
  // k = 4 is slack: the map holds one LL-SC sequence open at a time.
  Dur sub(4);
  Svc svc(sub, {.queues = 2,
                .workers = 1,
                .max_workers = 3,
                .grow_streak = 2,
                .shrink_idle = 512,
                .batch = 1,  // any productive pump is a "full" batch
                .max_sessions = 4,
                .tickets_per_session = 16,
                .map = {.shards = 2, .buckets_per_shard = 8,
                        .capacity_per_shard = 256}});
  ASSERT_EQ(svc.live_workers(), 1u);
  ASSERT_EQ(svc.worker_ceiling(), 3u);

  constexpr int kClients = 3;
  const std::uint64_t kOpsPerClient = scaled_budget(2000);
  std::atomic<std::uint64_t> bad{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto sess = svc.connect();
      std::uint64_t local_bad = 0;
      // Submit-until-admitted, wait every ticket: zero lost completions by
      // construction; values are checksummed so a misrouted or clobbered
      // completion is visible.
      auto do_op = [&](svc::Op op, std::uint64_t k, std::uint64_t v) {
        for (;;) {
          const auto t = svc.submit(sess, op, k, v);
          if (!t.has_value()) continue;  // window full: retry
          const auto r = svc.wait(sess, *t);
          if (r.status == svc::Status::kOverload) continue;  // shed: retry
          return r;
        }
      };
      for (std::uint64_t i = 0; i < kOpsPerClient; ++i) {
        const std::uint64_t key = (i % 16) * kClients + c;  // per-client keys
        const std::uint64_t val = key * 7 + i;
        do_op(svc::Op::kUpsert, key, val);
        const auto hit = do_op(svc::Op::kFind, key, 0);
        if (hit.status != svc::Status::kOk || hit.value != val) ++local_bad;
      }
      bad.fetch_add(local_bad);
    });
  }
  for (auto& th : clients) th.join();

  EXPECT_EQ(bad.load(), 0u) << "lost or corrupted completions during growth";
  EXPECT_GE(svc.worker_registry().high_water(), 2u)
      << "sustained full batches never grew the pool";
  EXPECT_LE(svc.live_workers(), svc.worker_ceiling());

  // Idle now: above-floor workers must retire back to the floor.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (svc.live_workers() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(svc.live_workers(), 1u) << "pool failed to shrink to the floor";

  // And the service still works at the floor.
  auto sess = svc.connect();
  const auto t = svc.submit(sess, svc::Op::kFind, 0, 0);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(svc.wait(sess, *t).status, svc::Status::kOk);
}

}  // namespace
}  // namespace moir
