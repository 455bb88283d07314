// KvService pipeline: end-to-end round trips through the full
// ring -> routing -> lane -> executor path, shed-on-full admission
// (window, ring, and lane exhaustion), graceful drain, the worker
// topology (routing is a claimed worker role, not a thread), kInvalid
// completion of malformed txn payloads, and linearizability of the whole
// pipeline against SvcSpec under both DFS and PCT controlled schedules,
// including the routing and lane claims and their planted unclaimed
// controls.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "core/llsc_traits.hpp"
#include "reclaim/epoch.hpp"
#include "sim/explore.hpp"
#include "stats/stats.hpp"
#include "svc/service.hpp"
#include "util/env.hpp"
#include "verify/history.hpp"
#include "verify/linearizability.hpp"
#include "verify/spec.hpp"

namespace moir {
namespace {

using reclaim::EpochReclaimer;
using Sub = CasBackedLlsc<16>;
using Svc = svc::KvService<Sub, EpochReclaimer>;
using svc::Op;
using svc::Status;

// Toggles stats counting on for a scope (and restores the previous mode),
// so counter-delta assertions see live counters. All such assertions are
// additionally guarded on stats::kCompiledIn: the tier1-stats-off preset
// runs this suite with MOIR_STATS=0, where every counter reads zero.
class CountingScope {
 public:
  CountingScope() : was_(stats::counting_enabled()) {
    stats::set_counting(true);
  }
  ~CountingScope() { stats::set_counting(was_); }

 private:
  bool was_;
};

TEST(SpscRing, SizeAndCapacityObservers) {
  svc::SpscRing ring(8);
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.empty_approx());
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_push(i));
    EXPECT_EQ(ring.size(), i + 1);
  }
  EXPECT_FALSE(ring.try_push(99)) << "full ring must refuse";
  EXPECT_EQ(ring.size(), ring.capacity());
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
    EXPECT_EQ(ring.size(), 7 - i);
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_TRUE(ring.empty_approx());
  // Free-running indices: size stays exact after wraparound of the mask.
  for (int lap = 0; lap < 3; ++lap) {
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_push(i));
    EXPECT_EQ(ring.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i) EXPECT_TRUE(ring.try_pop(v));
    EXPECT_EQ(ring.size(), 0u);
  }
}

// Smallest ring with a distinct full and non-empty partial state: one
// free slot after a push, exact full/empty detection, FIFO across reuse.
TEST(SpscRing, MinimumCapacityTwo) {
  svc::SpscRing ring(2);
  EXPECT_EQ(ring.capacity(), 2u);
  std::uint64_t v = 0;
  for (int round = 0; round < 5; ++round) {
    EXPECT_TRUE(ring.try_push(10 + round));
    EXPECT_TRUE(ring.try_push(20 + round));
    EXPECT_FALSE(ring.try_push(99)) << "2-slot ring full after two pushes";
    EXPECT_EQ(ring.size(), 2u);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 10u + round);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 20u + round);
    EXPECT_FALSE(ring.try_pop(v));
  }
}

// The free-running indices are 64-bit on purpose; this re-bases them just
// below 2^32 and walks traffic across the boundary, where a 32-bit index
// (or a size computed in 32 bits) would wrap to garbage.
TEST(SpscRing, IndexWraparoundAcross32BitBoundary) {
  svc::SpscRing ring(8);
  ring.reset_indices_for_test((std::uint64_t{1} << 32) - 3);
  std::uint64_t v = 0;
  // Straddle the boundary with a partially-filled ring in flight.
  for (std::uint64_t i = 0; i < 6; ++i) EXPECT_TRUE(ring.try_push(100 + i));
  EXPECT_EQ(ring.size(), 6u);
  for (std::uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 100 + i);
  }
  for (std::uint64_t i = 6; i < 10; ++i) EXPECT_TRUE(ring.try_push(100 + i));
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_FALSE(ring.try_push(999)) << "full at capacity across the boundary";
  for (std::uint64_t i = 2; i < 10; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, 100 + i) << "FIFO order broken across the 2^32 boundary";
  }
  EXPECT_FALSE(ring.try_pop(v));
  EXPECT_EQ(ring.size(), 0u);
}

// A one-slot ring is full after one push and empty after one pop, lap
// after lap: the mask is 0, so every index maps to the same slot.
TEST(SpscRing, CapacityOneHoldsOneEntry) {
  svc::SpscRing ring(1);
  EXPECT_EQ(ring.capacity(), 1u);
  std::uint64_t v = 0;
  for (std::uint64_t round = 0; round < 4; ++round) {
    EXPECT_TRUE(ring.try_push(round));
    EXPECT_FALSE(ring.try_push(99)) << "1-slot ring full after one push";
    EXPECT_EQ(ring.size(), 1u);
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, round);
    EXPECT_FALSE(ring.try_pop(v));
  }
}

// The capacity is masked, never rounded up: anything but a power of two
// (or zero) is refused at construction.
TEST(SpscRingDeathTest, NonPowerOfTwoCapacityAborts) {
  EXPECT_DEATH(svc::SpscRing ring(3), "power of two");
  EXPECT_DEATH(svc::SpscRing ring(0), "power of two");
}

// The ticket seqlock: one slot recycled through many generations. Each
// reuse bumps gen, and done==gen from a STALE generation must never
// complete a newer ticket (the slot's whole completion protocol).
TEST(KvService, TicketGenerationReuseAfterDrain) {
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 16,
                .workers = 0,
                .max_sessions = 1,
                .tickets_per_session = 1,  // every request reuses slot 0
                .map = {.shards = 1, .buckets_per_shard = 4,
                        .capacity_per_shard = 32}});
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  std::uint64_t last_gen = 0;
  for (std::uint64_t round = 1; round <= 6; ++round) {
    const auto t = svc.submit(c, Op::kUpsert, 5, round * 11);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(t->slot, 0u);
    EXPECT_GT(t->gen, last_gen) << "generation must advance on slot reuse";
    last_gen = t->gen;
    EXPECT_FALSE(svc.poll(c, *t).has_value())
        << "stale done word must not satisfy a newer generation";
    EXPECT_EQ(svc.serve(w).executed, 1u);
    const auto r = svc.poll(c, *t);
    ASSERT_TRUE(r.has_value());
    const auto tf = svc.submit(c, Op::kFind, 5, 0);
    ASSERT_TRUE(tf.has_value());
    svc.serve(w);
    const auto rf = svc.poll(c, *tf);
    ASSERT_TRUE(rf.has_value());
    EXPECT_EQ(rf->value, round * 11);
  }
}

// The service's key->lane hash must spread a dense key space evenly:
// chi-squared over 1e5 sequential keys into 4 lanes, against a cutoff
// far beyond df=3 noise (p << 1e-4) — catches a route that degenerates
// to low bits or collapses shards, not ordinary variance.
TEST(Dispatcher, KeyHashShardDistribution) {
  Sub sub;
  Svc svc(sub, {.queues = 4,
                .queue_capacity = 16,
                .workers = 0,
                .max_sessions = 1,
                .map = {.shards = 4, .buckets_per_shard = 4,
                        .capacity_per_shard = 8}});
  constexpr unsigned kKeys = 100000;
  std::array<unsigned, 4> counts{};
  for (std::uint64_t k = 0; k < kKeys; ++k) counts[svc.shard_of(k)]++;
  const double expected = kKeys / 4.0;
  double chi2 = 0;
  for (const unsigned c : counts) {
    const double d = c - expected;
    chi2 += d * d / expected;
  }
  EXPECT_LT(chi2, 30.0) << counts[0] << " " << counts[1] << " " << counts[2]
                        << " " << counts[3];
  for (const unsigned c : counts) EXPECT_GT(c, 0u);
}

TEST(KvService, EndToEndRoundTrip) {
  Sub sub;
  Svc svc(sub, {.queues = 2,
                .workers = 2,
                .batch = 4,
                .max_sessions = 2,
                .tickets_per_session = 8,
                .map = {.shards = 2, .buckets_per_shard = 4,
                        .capacity_per_shard = 64}});
  auto c = svc.connect();

  auto do_op = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    return svc.wait(c, *t);
  };

  // Insert across several keys (crossing shards), then the full verb set.
  for (std::uint64_t k = 0; k < 8; ++k) {
    EXPECT_EQ(do_op(Op::kInsert, k, k * 100).status, Status::kOk);
  }
  const auto hit = do_op(Op::kFind, 3);
  EXPECT_EQ(hit.status, Status::kOk);
  EXPECT_EQ(hit.value, 300u);

  EXPECT_EQ(do_op(Op::kInsert, 3, 999).status, Status::kNotFound)
      << "duplicate insert must report already-present";
  EXPECT_EQ(do_op(Op::kUpsert, 3, 333).status, Status::kNotFound)
      << "upsert on a present key reports updated-in-place";
  EXPECT_EQ(do_op(Op::kFind, 3).value, 333u);
  EXPECT_EQ(do_op(Op::kErase, 3).status, Status::kOk);
  EXPECT_EQ(do_op(Op::kFind, 3).status, Status::kNotFound);
  EXPECT_EQ(do_op(Op::kErase, 3).status, Status::kNotFound);

  // A second concurrent session sees the first session's writes.
  auto c2 = svc.connect();
  const auto t2 = svc.submit(c2, Op::kFind, 5);
  ASSERT_TRUE(t2.has_value());
  const auto r2 = svc.wait(c2, *t2);
  EXPECT_EQ(r2.status, Status::kOk);
  EXPECT_EQ(r2.value, 500u);
}

// Admission window: W in-flight tickets, the W+1'th submit sheds (EBUSY),
// and consuming a completion reopens the window. Manual pumping keeps
// every step deterministic.
TEST(KvService, ShedOnFullWindow) {
  CountingScope counting;
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 64,
                .workers = 0,
                .batch = 16,
                .max_sessions = 1,
                .tickets_per_session = 4,
                .map = {.shards = 1, .buckets_per_shard = 4,
                        .capacity_per_shard = 32}});
  auto c = svc.connect();
  const auto before = stats::snapshot();

  std::vector<Svc::Ticket> issued;
  for (int i = 0; i < 4; ++i) {
    const auto t = svc.submit(c, Op::kInsert, i, i);
    ASSERT_TRUE(t.has_value()) << "submit " << i << " within the window";
    issued.push_back(*t);
  }
  EXPECT_FALSE(svc.submit(c, Op::kInsert, 99, 99).has_value())
      << "window exhausted: 5th in-flight submit must shed, not block";

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kSvcEnqueue], 4u);
    EXPECT_EQ(d[stats::Id::kSvcShed], 1u);
  }

  // Nothing completed yet: polls are empty and non-blocking.
  for (const auto& t : issued) EXPECT_FALSE(svc.poll(c, t).has_value());

  auto w = svc.make_worker_ctx();
  EXPECT_EQ(svc.serve(w).executed, 4u);
  for (const auto& t : issued) {
    const auto r = svc.poll(c, t);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, Status::kOk);
  }

  // The window reopened.
  const auto t = svc.submit(c, Op::kFind, 2);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(svc.serve(w).executed, 1u);
  const auto r = svc.poll(c, *t);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->value, 2u);

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_GE(d[stats::Id::kSvcBatch], 2u);
  }
}

// Back-pressure: a full ring sheds at submit; a full lane makes ROUTING
// complete the ticket with kOverload instead of blocking on the executor.
TEST(KvService, RingAndQueueOverload) {
  // Ring capacity is a compile-time parameter now; this test wants a tiny
  // 4-entry ring, so it instantiates its own service type.
  using Svc4 = svc::KvService<Sub, EpochReclaimer, 4>;
  Sub sub;
  Svc4 svc(sub, {.queues = 1,
                 .queue_capacity = 1,  // one lane slot
                 .workers = 0,
                 .batch = 16,
                 .max_sessions = 1,
                 .tickets_per_session = 8,
                  .map = {.shards = 1, .buckets_per_shard = 4,
                         .capacity_per_shard = 32}});
  auto c = svc.connect();
  auto rc = svc.make_router_ctx();
  auto w = svc.make_worker_ctx();

  // Phase 1: three requests reach the router, but the lane has one free
  // slot — the surplus two complete kOverload at the router.
  std::vector<Svc4::Ticket> issued;
  for (int i = 0; i < 3; ++i) {
    const auto t = svc.submit(c, Op::kInsert, i, i);
    ASSERT_TRUE(t.has_value());
    issued.push_back(*t);
  }
  EXPECT_EQ(svc.pump_session(rc, c.session()), 3u);

  const auto r1 = svc.poll(c, issued[1]);
  const auto r2 = svc.poll(c, issued[2]);
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->status, Status::kOverload);
  EXPECT_EQ(r2->status, Status::kOverload);
  EXPECT_FALSE(svc.poll(c, issued[0]).has_value())
      << "the routed request needs an executor pump";
  EXPECT_EQ(svc.pump(w), 1u);
  const auto r0 = svc.poll(c, issued[0]);
  ASSERT_TRUE(r0.has_value());
  EXPECT_EQ(r0->status, Status::kOk);

  // Phase 2: with no router pass, the 4-entry ring itself fills and the
  // 5th submit sheds at admission.
  issued.clear();
  for (int i = 0; i < 4; ++i) {
    const auto t = svc.submit(c, Op::kFind, i);
    ASSERT_TRUE(t.has_value());
    issued.push_back(*t);
  }
  EXPECT_FALSE(svc.submit(c, Op::kFind, 0).has_value())
      << "full ring must shed, not block";

  // Drain: one router pass completes-or-pushes everything it pops, so a
  // bounded number of pump passes finishes all four.
  svc.pump_session(rc, c.session());
  svc.pump(w);
  for (const auto& t : issued) {
    const auto r = svc.poll(c, t);
    ASSERT_TRUE(r.has_value());
    EXPECT_TRUE(r->status == Status::kOk || r->status == Status::kOverload);
  }
}

// Graceful drain with live workers: every ticket submitted before stop()
// completes by the time stop() returns; submits after stop() shed.
TEST(KvService, DrainCompletesInFlight) {
  Sub sub;
  Svc svc(sub, {.queues = 2,
                .workers = 2,
                .batch = 4,
                .max_sessions = 1,
                .tickets_per_session = 16,
                .map = {.shards = 2, .buckets_per_shard = 4,
                        .capacity_per_shard = 64}});
  auto c = svc.connect();

  std::vector<Svc::Ticket> issued;
  for (int i = 0; i < 8; ++i) {
    // Under load some submits may shed (ring backlog); every ACCEPTED one
    // must complete across stop().
    if (const auto t = svc.submit(c, Op::kInsert, i, i * 7)) {
      issued.push_back(*t);
    }
  }
  svc.stop();
  for (const auto& t : issued) {
    const auto r = svc.poll(c, t);
    ASSERT_TRUE(r.has_value())
        << "ticket accepted before stop() not completed by drain";
    EXPECT_EQ(r->status, Status::kOk);
  }
  EXPECT_FALSE(svc.submit(c, Op::kFind, 0).has_value())
      << "post-stop submits must shed";
}

// Routing is a worker role, not a thread: a fixed pool of two workers adds
// exactly two threads to the process, and requests submitted through the
// rings still complete.
TEST(KvService, WorkersRouteWithoutRouterThread) {
  const auto threads = [] {
    const std::filesystem::directory_iterator tasks("/proc/self/task");
    return std::distance(begin(tasks), end(tasks));
  };
  // A sanitizer runtime may start a helper thread along with the
  // process's first thread; start and join one first so the count below
  // sees the service's threads only.
  std::thread([] {}).join();
  Sub sub;
  const auto before = threads();
  Svc svc(sub, {.queues = 2,
                .workers = 2,
                .max_workers = 0,
                .batch = 4,
                .max_sessions = 1,
                .tickets_per_session = 8,
                .map = {.shards = 2, .buckets_per_shard = 4,
                        .capacity_per_shard = 64}});
  EXPECT_EQ(threads() - before, 2) << "one thread per worker, no router";
  auto c = svc.connect();
  for (std::uint64_t k = 0; k < 16; ++k) {
    const auto t = svc.submit(c, Op::kInsert, k, k * 3);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(svc.wait(c, *t).status, Status::kOk);
  }
  for (std::uint64_t k = 0; k < 16; ++k) {
    const auto t = svc.submit(c, Op::kFind, k);
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(svc.wait(c, *t).value, k * 3);
  }
}

// One lane shared by four workers and four client threads: every batch's
// head index and cached tail pass from worker to worker through the lane
// claim, and the lane's tail through the routing claim. Each client writes
// and reads back keys of its own, so every response is predictable. Under
// tsan-smoke, a handoff without its release/acquire edge is a data race.
TEST(KvService, WorkersShareOneLane) {
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 64,
                .workers = 4,
                .batch = 4,
                .max_sessions = 4,
                .tickets_per_session = 8,
                .map = {.shards = 1, .buckets_per_shard = 16,
                        .capacity_per_shard = 128}});
  constexpr unsigned kClients = 4;
  const std::uint64_t rounds = scaled_budget(2000);
  std::atomic<unsigned> wrong{0};
  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      auto c = svc.connect();
      for (std::uint64_t i = 0; i < rounds; ++i) {
        const std::uint64_t key = t * 16 + i % 16;
        const auto tu = svc.submit(c, Op::kUpsert, key, i);
        const auto ru = tu ? svc.wait(c, *tu) : svc::Response{};
        const auto tf = svc.submit(c, Op::kFind, key);
        const auto rf = tf ? svc.wait(c, *tf) : svc::Response{};
        if (!tu || ru.status == Status::kOverload || !tf ||
            rf.status != Status::kOk || rf.value != i) {
          wrong.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : clients) th.join();
  EXPECT_EQ(wrong.load(), 0u);
}

// Drain accounting, deterministically: with manual pumping, completions
// that happen after stop() are counted as svc_drain.
TEST(KvService, StopShedsAndCountsDrain) {
  CountingScope counting;
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 64,
                .workers = 0,
                .max_sessions = 1,
                .tickets_per_session = 8,
                .map = {.shards = 1, .buckets_per_shard = 4,
                        .capacity_per_shard = 32}});
  auto c = svc.connect();
  const auto before = stats::snapshot();

  std::vector<Svc::Ticket> issued;
  for (int i = 0; i < 3; ++i) {
    const auto t = svc.submit(c, Op::kUpsert, i, i);
    ASSERT_TRUE(t.has_value());
    issued.push_back(*t);
  }
  svc.stop();
  EXPECT_TRUE(svc.draining());
  EXPECT_FALSE(svc.submit(c, Op::kFind, 0).has_value());

  auto w = svc.make_worker_ctx();
  EXPECT_EQ(svc.serve(w).executed, 3u);
  for (const auto& t : issued) {
    ASSERT_TRUE(svc.poll(c, t).has_value());
  }
  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kSvcDrain], 3u);
    EXPECT_GE(d[stats::Id::kSvcShed], 1u);
  }
}

// Session exhaustion ends in a defined status: a connect() past
// max_sessions returns a handle that holds no session, whose submits shed
// (counted as svc_shed), whose polls take no other session's ticket, and
// whose destruction releases nothing. A session freed by a disconnect is
// leased again.
TEST(KvService, ConnectPastMaxSessionsIsRefused) {
  CountingScope counting;
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 64,
                .workers = 0,
                .max_sessions = 2,
                .tickets_per_session = 4,
                .map = {.shards = 1, .buckets_per_shard = 4,
                        .capacity_per_shard = 32}});
  auto a = svc.connect();
  std::optional<Svc::ClientCtx> b(svc.connect());
  ASSERT_TRUE(a.connected());
  ASSERT_TRUE(b->connected());
  auto w = svc.make_worker_ctx();
  const auto ta = svc.submit(a, Op::kUpsert, 1, 10);
  ASSERT_TRUE(ta.has_value());
  EXPECT_EQ(svc.serve(w).executed, 1u);
  const auto before = stats::snapshot();
  {
    auto refused = svc.connect();
    EXPECT_FALSE(refused.connected());
    EXPECT_FALSE(svc.submit(refused, Op::kUpsert, 1, 1).has_value())
        << "a refused handle must shed, not index a session";
    EXPECT_FALSE(svc.poll(refused, *ta).has_value())
        << "a refused handle must not take another session's ticket";
    if constexpr (stats::kCompiledIn) {
      const auto d = stats::snapshot() - before;
      EXPECT_EQ(d[stats::Id::kSvcShed], 1u);
      EXPECT_EQ(d[stats::Id::kSvcEnqueue], 0u);
    }
  }  // destroying the refused handle must not release a's or b's lease
  const auto ra = svc.poll(a, *ta);
  ASSERT_TRUE(ra.has_value());
  EXPECT_EQ(ra->status, Status::kOk);

  b.reset();
  auto c = svc.connect();
  ASSERT_TRUE(c.connected()) << "a disconnect must free its session";
  const auto t = svc.submit(c, Op::kUpsert, 2, 20);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(svc.serve(w).executed, 1u);
  const auto r = svc.poll(c, *t);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, Status::kOk);
  EXPECT_FALSE(svc.connect().connected()) << "both sessions are held again";
}

// ---------------------------------------------------------------------
// Malformed txn payloads. submit/submit_multi admit a request without
// inspecting its values or its key set, so the executor must refuse what
// the txn layer cannot apply: each such request completes kInvalid with
// no effect, and the service keeps serving the requests behind it.
// ---------------------------------------------------------------------
using Txn = Svc::Txn;

// A txn-mode service pumped by the test itself, one client.
struct ManualTxnService {
  Sub sub;
  Svc svc{sub, {.queues = 2,
                .workers = 0,
                .max_sessions = 1,
                .tickets_per_session = 4,
                .txn = true,
                .map = {.shards = 2, .buckets_per_shard = 4,
                        .capacity_per_shard = 32}}};
  Svc::ClientCtx c = svc.connect();
  Svc::WorkerCtx w = svc.make_worker_ctx();

  // Executes an admitted request and consumes its completion.
  svc::Response finish(const std::optional<Svc::Ticket>& t,
                       std::span<std::uint64_t> values_out = {}) {
    if (!t.has_value()) {
      ADD_FAILURE() << "request shed at admission";
      return {Status::kOverload, 0};
    }
    while (svc.serve(w).executed == 0) {
    }
    return *svc.poll(c, *t, values_out);
  }
};

TEST(KvServiceTxn, OversizedValueCompletesInvalid) {
  ManualTxnService s;
  constexpr std::uint64_t kTooBig = Txn::kMaxValue + 1;
  EXPECT_EQ(s.finish(s.svc.submit(s.c, Op::kUpsert, 5, kTooBig)).status,
            Status::kInvalid);
  EXPECT_EQ(s.finish(s.svc.submit(s.c, Op::kInsert, 5, kTooBig)).status,
            Status::kInvalid);
  const std::uint64_t keys[] = {5, 6};
  const std::uint64_t vals[] = {1, kTooBig};
  EXPECT_EQ(
      s.finish(s.svc.submit_multi(s.c, Op::kMultiPut, keys, vals)).status,
      Status::kInvalid);
  const std::uint64_t absent[] = {Txn::kAbsent, Txn::kAbsent};
  const std::uint64_t des[] = {Txn::wire(1), Txn::wire(kTooBig)};
  EXPECT_EQ(s.finish(s.svc.submit_multi(s.c, Op::kMultiCas, keys, des,
                                        absent))
                .status,
            Status::kInvalid);

  // Nothing was written, and the largest legal value still goes through.
  std::uint64_t got[2];
  EXPECT_EQ(s.finish(s.svc.submit_multi(s.c, Op::kMultiGet, keys), got).status,
            Status::kOk);
  EXPECT_EQ(got[0], Txn::kAbsent);
  EXPECT_EQ(got[1], Txn::kAbsent);
  EXPECT_EQ(
      s.finish(s.svc.submit(s.c, Op::kUpsert, 5, Txn::kMaxValue)).status,
      Status::kOk);
  const auto hit = s.finish(s.svc.submit(s.c, Op::kFind, 5));
  EXPECT_EQ(hit.status, Status::kOk);
  EXPECT_EQ(hit.value, Txn::kMaxValue);
}

TEST(KvServiceTxn, DuplicateKeysCompleteInvalid) {
  ManualTxnService s;
  const std::uint64_t keys[] = {3, 4};
  const std::uint64_t vals[] = {30, 40};
  ASSERT_EQ(
      s.finish(s.svc.submit_multi(s.c, Op::kMultiPut, keys, vals)).status,
      Status::kOk);

  // The repeat need not be adjacent in user order, and may name a key
  // that has no node yet.
  const std::uint64_t dup[] = {3, 4, 3};
  const std::uint64_t dup_vals[] = {1, 2, 3};
  EXPECT_EQ(
      s.finish(s.svc.submit_multi(s.c, Op::kMultiPut, dup, dup_vals)).status,
      Status::kInvalid);
  const std::uint64_t exps[] = {Txn::wire(30), Txn::wire(40), Txn::wire(30)};
  const std::uint64_t dess[] = {Txn::wire(31), Txn::wire(40), Txn::wire(29)};
  EXPECT_EQ(
      s.finish(s.svc.submit_multi(s.c, Op::kMultiCas, dup, dess, exps)).status,
      Status::kInvalid);
  const std::uint64_t fresh_dup[] = {9, 9};
  EXPECT_EQ(s.finish(s.svc.submit_multi(s.c, Op::kMultiPut, fresh_dup,
                                        std::span(vals)))
                .status,
            Status::kInvalid);

  // No effect, and the service keeps serving.
  const std::uint64_t all[] = {3, 4, 9};
  std::uint64_t got[3];
  EXPECT_EQ(s.finish(s.svc.submit_multi(s.c, Op::kMultiGet, all), got).status,
            Status::kOk);
  EXPECT_EQ(got[0], Txn::wire(30));
  EXPECT_EQ(got[1], Txn::wire(40));
  EXPECT_EQ(got[2], Txn::kAbsent);
  const std::uint64_t swap[] = {Txn::wire(40), Txn::wire(30)};
  std::uint64_t wit[2];
  EXPECT_EQ(s.finish(s.svc.submit_multi(s.c, Op::kMultiCas, keys, swap,
                                        std::span(got, 2)),
                     wit)
                .status,
            Status::kOk);
  EXPECT_EQ(wit[0], Txn::wire(30));
  EXPECT_EQ(wit[1], Txn::wire(40));
}

// A multi-key op needs a key set the executor can run: one to kMaxTxnKeys
// keys, with exactly the value/expected spans the op reads. Anything else
// — including a kMulti* op sent through the single-key submit(), on a
// fresh or a reused ticket slot — completes kInvalid with no effect.
TEST(KvServiceTxn, MultiOpWithoutKeySetCompletesInvalid) {
  ManualTxnService s;
  // Fresh slot: no key set was ever written.
  EXPECT_EQ(s.finish(s.svc.submit(s.c, Op::kMultiGet, 5)).status,
            Status::kInvalid);

  // Reused slot: the previous tenant's key set must not be re-applied.
  const std::uint64_t keys[] = {3, 4};
  const std::uint64_t vals[] = {30, 40};
  ASSERT_EQ(
      s.finish(s.svc.submit_multi(s.c, Op::kMultiPut, keys, vals)).status,
      Status::kOk);
  EXPECT_EQ(s.finish(s.svc.submit(s.c, Op::kMultiPut, 9, 99)).status,
            Status::kInvalid);

  // Malformed key sets through submit_multi.
  std::uint64_t wide[svc::kMaxTxnKeys + 1];
  std::uint64_t wide_vals[svc::kMaxTxnKeys + 1];
  for (unsigned i = 0; i <= svc::kMaxTxnKeys; ++i) {
    wide[i] = 20 + i;
    wide_vals[i] = i;
  }
  const std::uint64_t dess[] = {Txn::wire(31), Txn::wire(41)};
  EXPECT_EQ(s.finish(s.svc.submit_multi(s.c, Op::kMultiGet, {})).status,
            Status::kInvalid)
      << "empty key set";
  EXPECT_EQ(
      s.finish(s.svc.submit_multi(s.c, Op::kMultiPut, wide, wide_vals)).status,
      Status::kInvalid)
      << "more than kMaxTxnKeys keys";
  EXPECT_EQ(s.finish(s.svc.submit_multi(s.c, Op::kMultiPut, keys,
                                        std::span(vals, 1)))
                .status,
            Status::kInvalid)
      << "values shorter than keys";
  EXPECT_EQ(
      s.finish(s.svc.submit_multi(s.c, Op::kMultiCas, keys, dess)).status,
      Status::kInvalid)
      << "kMultiCas without expected values";
  EXPECT_EQ(
      s.finish(s.svc.submit_multi(s.c, Op::kMultiGet, keys, vals)).status,
      Status::kInvalid)
      << "kMultiGet carrying values it does not read";

  // No effect: 3 and 4 keep their values, 9 and the wide keys stay absent.
  const std::uint64_t all[] = {3, 4, 9, 20};
  std::uint64_t got[4];
  EXPECT_EQ(s.finish(s.svc.submit_multi(s.c, Op::kMultiGet, all), got).status,
            Status::kOk);
  EXPECT_EQ(got[0], Txn::wire(30));
  EXPECT_EQ(got[1], Txn::wire(40));
  EXPECT_EQ(got[2], Txn::kAbsent);
  EXPECT_EQ(got[3], Txn::kAbsent);

  // Without Config::txn, a multi-key op completes kOverload, well-formed
  // or not.
  Sub sub;
  Svc plain(sub, {.queues = 1,
                  .workers = 0,
                  .max_sessions = 1,
                  .tickets_per_session = 2,
                  .map = {.shards = 1, .buckets_per_shard = 4,
                          .capacity_per_shard = 8}});
  auto c = plain.connect();
  auto w = plain.make_worker_ctx();
  const auto t1 = plain.submit_multi(c, Op::kMultiPut, keys, vals);
  const auto t2 = plain.submit(c, Op::kMultiGet, 3);
  ASSERT_TRUE(t1.has_value());
  ASSERT_TRUE(t2.has_value());
  EXPECT_EQ(plain.serve(w).executed, 2u);
  EXPECT_EQ(plain.poll(c, *t1)->status, Status::kOverload);
  EXPECT_EQ(plain.poll(c, *t2)->status, Status::kOverload);
}

// Sessions hold no STM pid: only context holders (workers and manual
// pumpers) count against the STM's 256-pid cap, so a txn-mode service
// connects 255 sessions and serves each one request.
TEST(KvServiceTxn, SessionsDoNotCapTxnMode) {
  constexpr unsigned kSessions = 255;
  Sub sub;
  Svc svc(sub, {.queues = 2,
                .workers = 0,
                .max_sessions = kSessions,
                .tickets_per_session = 1,
                .txn = true,
                .map = {.shards = 2, .buckets_per_shard = 64,
                        .capacity_per_shard = 256}});
  std::vector<Svc::ClientCtx> clients;
  clients.reserve(kSessions);
  for (unsigned i = 0; i < kSessions; ++i) {
    clients.push_back(svc.connect());
    ASSERT_TRUE(clients.back().connected());
  }
  auto w = svc.make_worker_ctx();
  for (unsigned i = 0; i < kSessions; ++i) {
    const auto t = svc.submit(clients[i], Op::kUpsert, i, i + 1);
    ASSERT_TRUE(t.has_value());
    while (svc.serve(w).executed == 0) {
    }
    const auto r = svc.poll(clients[i], *t);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->status, Status::kOk) << "session " << i;
  }
}

// ---------------------------------------------------------------------
// Pipeline linearizability under controlled schedules. Two client
// sessions submit overlapping operations on a 3-key space through the
// service and pump the executor themselves; an observer hook records the
// response at completion time, so each operation's [inv, res] window
// brackets its actual map effect. Histories must linearize against
// SvcSpec (map semantics + shed-as-no-op).
//
// Slot indices are deterministic here — the free-ticket stack pops
// 0,1,2,... and nothing is polled mid-body — so each body can register
// its operation's kind/arg/inv under the predicted slot BEFORE submit,
// and the observer (possibly running on the OTHER body's thread) finds
// them by handle. ControlledScheduler serializes the bodies, so the
// shared pending table needs no further synchronization.
// ---------------------------------------------------------------------
struct PendingOp {
  OpKind kind = OpKind::kMapFind;
  std::uint64_t arg = 0;
  std::uint64_t inv = 0;
};

template <class SvcT>
struct LinTrialSharedT {
  Sub sub;
  SvcT svc;
  HistoryRecorder rec{2};
  std::vector<typename SvcT::ClientCtx> clients;
  std::vector<typename SvcT::WorkerCtx> workers;
  std::array<std::array<PendingOp, 8>, 2> pending{};
  // Completions per (session, slot): a handle routed twice completes twice.
  std::array<std::array<unsigned, 8>, 2> completions{};
  std::array<std::uint32_t, 2> next_slot{};
  std::array<std::vector<typename SvcT::Ticket>, 2> issued;

  LinTrialSharedT()
      : svc(sub, {.queues = 1,
                  .queue_capacity = 16,
                  .workers = 0,
                  .batch = 4,
                  .max_sessions = 2,
                  .tickets_per_session = 8,
                  .map = {.shards = 1, .buckets_per_shard = 1,
                          .capacity_per_shard = 16}}) {
    clients.reserve(2);
    workers.reserve(2);
    for (int t = 0; t < 2; ++t) {
      clients.push_back(svc.connect());
      workers.push_back(svc.make_worker_ctx());
    }
  }

  static std::uint64_t ret_of(OpKind kind, const svc::Response& r) {
    if (r.status == Status::kOverload) return SvcSpec::kShed;
    if (kind == OpKind::kMapFind) {
      return r.status == Status::kOk ? r.value + 1 : 0;
    }
    return r.status == Status::kOk ? 1 : 0;
  }

  // Completion hook: fires inside pump/pump_session before publication.
  auto observer() {
    return [this](std::uint64_t handle, const svc::Response& r) {
      const unsigned sid = svc::handle_session(handle);
      const PendingOp& p = pending[sid][svc::handle_slot(handle)];
      ++completions[sid][svc::handle_slot(handle)];
      rec.add(sid, sid, p.kind, p.arg, ret_of(p.kind, r), p.inv);
    };
  }

  void submit_op(unsigned t, OpKind kind, std::uint64_t key,
                 std::uint64_t val) {
    Op op{};
    std::uint64_t arg = 0;
    switch (kind) {
      case OpKind::kMapInsert: op = Op::kInsert;
        arg = SvcSpec::pack_args(key, val);
        break;
      case OpKind::kMapUpsert: op = Op::kUpsert;
        arg = SvcSpec::pack_args(key, val);
        break;
      case OpKind::kMapErase: op = Op::kErase;
        arg = key;
        break;
      default: op = Op::kFind;
        arg = key;
        break;
    }
    const std::uint32_t slot = next_slot[t];
    pending[t][slot] = PendingOp{kind, arg, rec.now()};
    const auto ticket = svc.submit(clients[t], op, key, val);
    if (!ticket.has_value()) {
      // Client-side shed: a no-op the spec accepts anywhere.
      rec.add(t, t, kind, arg, SvcSpec::kShed, pending[t][slot].inv);
      return;
    }
    next_slot[t] = slot + 1;
    issued[t].push_back(*ticket);
  }

  // Body t's worker passes until one moves nothing. The other body may
  // hold a claim at that moment, so this alone need not drain everything.
  void drain(unsigned t) {
    for (;;) {
      const auto p = svc.serve(workers[t], observer());
      if (p.routed + p.executed == 0) break;
    }
  }

  // Post-join, on one thread: a lone caller always wins every claim, so
  // its last pass saw every ring and every lane empty.
  void settle() { drain(0); }

  // Post-join: everything was drained, so one poll sweep consumes every
  // ticket (required by the disconnect assertion); each issued ticket
  // must have completed exactly once; then the merged history is checked.
  bool check() {
    for (unsigned t = 0; t < 2; ++t) {
      for (const auto& ticket : issued[t]) {
        const auto r = svc.poll(clients[t], ticket);
        if (!r.has_value()) return false;  // drain failed to complete it
      }
    }
    for (unsigned t = 0; t < 2; ++t) {
      unsigned total = 0;
      for (const unsigned n : completions[t]) total += n;
      if (total != issued[t].size()) return false;
      for (const auto& ticket : issued[t]) {
        if (completions[t][ticket.slot] != 1) return false;
      }
    }
    LinearizabilityChecker<SvcSpec> checker;
    return checker.check(rec.collect(), SvcSpec::State{});
  }
};

using LinTrialShared = LinTrialSharedT<Svc>;

TEST(KvService, ExploreLinearizable) {
  auto make_trial = [] {
    auto sh = std::make_shared<LinTrialShared>();
    testing::ScheduleExplorer::Trial trial;
    // Each body runs worker passes after its own submits; check() settles
    // whatever a claim held by the other body left behind, so every
    // request is executed before the history is checked.
    trial.bodies.push_back([sh] {
      sh->submit_op(0, OpKind::kMapInsert, 0, 10);
      sh->svc.serve(sh->workers[0], sh->observer());
      sh->submit_op(0, OpKind::kMapFind, 1, 0);
      sh->submit_op(0, OpKind::kMapErase, 0, 0);
      sh->drain(0);
    });
    trial.bodies.push_back([sh] {
      sh->submit_op(1, OpKind::kMapInsert, 1, 11);
      sh->svc.serve(sh->workers[1], sh->observer());
      sh->submit_op(1, OpKind::kMapUpsert, 0, 20);
      sh->submit_op(1, OpKind::kMapFind, 0, 0);
      sh->drain(1);
    });
    trial.check = [sh] {
      sh->settle();
      return sh->check();
    };
    return trial;
  };

  const testing::ExploreOptions opts{.max_trials = scaled_budget(120)};
  const auto r = testing::ScheduleExplorer::explore(make_trial, opts);
  EXPECT_FALSE(r.violation_found)
      << "non-linearizable service history under schedule "
      << r.schedule_string();
  EXPECT_GT(r.trials, 0u);
}

// The full ring pipeline under PCT schedules. A lane has one producer,
// so the bodies do not route their own rings side by side: each runs
// worker passes, and the routing and lane claims keep every ring and lane
// to one consumer and one producer.
TEST(PctSmoke, ServicePipeline) {
  auto make_trial = [] {
    auto sh = std::make_shared<LinTrialShared>();
    testing::ScheduleExplorer::Trial trial;
    trial.bodies.push_back([sh] {
      sh->submit_op(0, OpKind::kMapInsert, 0, 10);
      sh->svc.serve(sh->workers[0], sh->observer());
      sh->submit_op(0, OpKind::kMapUpsert, 1, 21);
      sh->submit_op(0, OpKind::kMapErase, 0, 0);
      sh->drain(0);
    });
    trial.bodies.push_back([sh] {
      sh->submit_op(1, OpKind::kMapInsert, 1, 11);
      sh->svc.serve(sh->workers[1], sh->observer());
      sh->submit_op(1, OpKind::kMapFind, 0, 0);
      sh->submit_op(1, OpKind::kMapErase, 1, 0);
      sh->drain(1);
    });
    trial.check = [sh] {
      sh->settle();
      return sh->check();
    };
    return trial;
  };

  const testing::PctOptions opts{
      .runs = scaled_budget(30),
      .depth = 3,
      .change_range = 128,
      .seed = base_seed() + 23,
  };
  const auto r = testing::ScheduleExplorer::pct_explore(make_trial, opts);
  EXPECT_FALSE(r.violation_found)
      << "non-linearizable pipeline history under schedule "
      << r.schedule_string();
  EXPECT_EQ(r.trials, opts.runs);
}

// ---------------------------------------------------------------------
// Routing and lanes as claimed worker roles. Two bodies each submit
// through their own ring session, then run worker passes on one shared
// service with one lane. Either pass may route either ring and pop the
// lane, so only serve()'s routing claim keeps each ring to one consumer
// and the lane to one producer, and only pump()'s lane claim keeps the
// lane to one consumer. check() settles what the bodies left, then
// requires every issued ticket to complete exactly once and the history
// to linearize against SvcSpec. Two planted controls: `claimed == false`
// runs pump_router + pump without the routing claim (two consumers on one
// ring, two producers on the lane), and SvcLaneBug pops the lane without
// its claim (two consumers on the lane). Either way a handle popped by
// both completes twice, or one is lost.
// ---------------------------------------------------------------------
using SvcLaneBug = svc::KvService<Sub, EpochReclaimer, 64, 64,
                                  /*SkipLaneClaim=*/true>;

template <class SvcT = Svc>
testing::ScheduleExplorer::Trial make_routing_trial(bool claimed) {
  auto sh = std::make_shared<LinTrialSharedT<SvcT>>();
  auto pass = [sh, claimed](unsigned t) {
    auto& w = sh->workers[t];
    if (claimed) {
      sh->svc.serve(w, sh->observer());
    } else {
      sh->svc.pump_router({}, sh->observer());
      sh->svc.pump(w, sh->observer());
    }
  };
  testing::ScheduleExplorer::Trial trial;
  // Body 0's second pass puts a ring pop near the end of its run, where
  // DFS (deepest branch first) reaches the interleavings that open it.
  trial.bodies.push_back([sh, pass] {
    sh->submit_op(0, OpKind::kMapInsert, 0, 10);
    pass(0);
    pass(0);
  });
  trial.bodies.push_back([sh, pass] {
    sh->submit_op(1, OpKind::kMapUpsert, 0, 20);
    pass(1);
  });
  trial.check = [sh] {
    sh->settle();
    return sh->check();
  };
  return trial;
}

// The DFS budget: the planted control below is caught inside it, so the
// real pass explores the same part of the tree clean.
constexpr std::size_t kRoutingDfsTrials = 2500;

TEST(KvService, ExploreRoutingClaim) {
  const auto r = testing::ScheduleExplorer::explore(
      [] { return make_routing_trial(true); },
      testing::ExploreOptions{.max_trials = scaled_budget(kRoutingDfsTrials),
                              .sleep_sets = true});
  EXPECT_FALSE(r.violation_found)
      << "claimed routing lost or repeated a request under schedule "
      << r.schedule_string();
  EXPECT_GT(r.trials, 10u);
}

TEST(PctSmoke, RoutingClaim) {
  const testing::PctOptions opts{
      .runs = scaled_budget(60),
      .depth = 3,
      .change_range = 96,
      .seed = base_seed() + 41,
  };
  const auto r = testing::ScheduleExplorer::pct_explore(
      [] { return make_routing_trial(true); }, opts);
  EXPECT_FALSE(r.violation_found)
      << "claimed routing lost or repeated a request under schedule "
      << r.schedule_string();
  EXPECT_EQ(r.trials, opts.runs);
}

TEST(NegativeControl, DfsCatchesUnclaimedRouting) {
  const auto make_trial = [] { return make_routing_trial(false); };
  const auto r = testing::ScheduleExplorer::explore(
      make_trial,
      testing::ExploreOptions{.max_trials = scaled_budget(kRoutingDfsTrials),
                              .sleep_sets = true});
  ASSERT_TRUE(r.violation_found)
      << "DFS lost the planted second ring consumer (trials=" << r.trials
      << ")";
  const auto parsed = testing::Schedule::parse(r.schedule_string());
  ASSERT_TRUE(parsed.has_value()) << r.schedule_string();
  EXPECT_FALSE(testing::ScheduleExplorer::replay(make_trial, *parsed))
      << "schedule " << r.schedule_string() << " did not replay the bug";
}

TEST(NegativeControl, PctCatchesUnclaimedRouting) {
  const auto make_trial = [] { return make_routing_trial(false); };
  const testing::PctOptions opts{
      .runs = scaled_budget(400),
      .depth = 3,
      .change_range = 96,
      .seed = base_seed() + 43,
  };
  const auto r = testing::ScheduleExplorer::pct_explore(make_trial, opts);
  ASSERT_TRUE(r.violation_found)
      << "PCT lost the planted second ring consumer (runs=" << r.trials
      << ")";
  const auto parsed = testing::Schedule::parse(r.schedule_string());
  ASSERT_TRUE(parsed.has_value()) << r.schedule_string();
  EXPECT_FALSE(testing::ScheduleExplorer::replay(make_trial, *parsed))
      << "schedule " << r.schedule_string() << " did not replay the bug";
}

TEST(NegativeControl, DfsCatchesUnclaimedLanePop) {
  const auto make_trial = [] { return make_routing_trial<SvcLaneBug>(true); };
  const auto r = testing::ScheduleExplorer::explore(
      make_trial,
      testing::ExploreOptions{.max_trials = scaled_budget(kRoutingDfsTrials),
                              .sleep_sets = true});
  ASSERT_TRUE(r.violation_found)
      << "DFS lost the planted second lane consumer (trials=" << r.trials
      << ")";
  const auto parsed = testing::Schedule::parse(r.schedule_string());
  ASSERT_TRUE(parsed.has_value()) << r.schedule_string();
  EXPECT_FALSE(testing::ScheduleExplorer::replay(make_trial, *parsed))
      << "schedule " << r.schedule_string() << " did not replay the bug";
}

TEST(NegativeControl, PctCatchesUnclaimedLanePop) {
  const auto make_trial = [] { return make_routing_trial<SvcLaneBug>(true); };
  const testing::PctOptions opts{
      .runs = scaled_budget(400),
      .depth = 3,
      .change_range = 96,
      .seed = base_seed() + 47,
  };
  const auto r = testing::ScheduleExplorer::pct_explore(make_trial, opts);
  ASSERT_TRUE(r.violation_found)
      << "PCT lost the planted second lane consumer (runs=" << r.trials
      << ")";
  const auto parsed = testing::Schedule::parse(r.schedule_string());
  ASSERT_TRUE(parsed.has_value()) << r.schedule_string();
  EXPECT_FALSE(testing::ScheduleExplorer::replay(make_trial, *parsed))
      << "schedule " << r.schedule_string() << " did not replay the bug";
}

}  // namespace
}  // namespace moir
