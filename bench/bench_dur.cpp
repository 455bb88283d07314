// E16 (durable LL/SC + dynamic joining): what durability costs on top of
// the volatile figbw skeleton, and what the elastic pool does under load.
// figdur is that skeleton (core/bw_llsc.hpp) run with the dur::Durable
// policy, so the figdur-vs-figbw delta is exactly the policy's persist
// hooks and its 16-byte durable words.
//
// Four sections:
//   * micro: single-thread LL;SC and read() for figdur (compare the figbw
//     numbers in bench_bw_llsc.cpp — the delta is P1+P2 on the SC path and
//     the conditional P3 on the read path).
//   * contended-increment table, figdur vs figbw, with the persist-barrier
//     traffic the workload generated (dur_flush / op): the conditional
//     barriers mean the rate is well below the 3-barriers-per-SC worst
//     case — concurrent readers' P3 persists cover writers' P2s.
//   * crash/recovery cost: snapshot + restore + recover wall time across
//     pool sizes (recovery rebuilds the free list, so it scales with pool
//     capacity, not with how much work crashed).
//   * elastic service: the figdur-backed KvService under a client burst,
//     floor 1 / ceiling 4 — reg_join/reg_leave counters and the workers
//     high-water mark show the pool growing and shrinking.
#include <benchmark/benchmark.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/bw_llsc.hpp"
#include "dur/dur_llsc.hpp"
#include "reclaim/epoch.hpp"
#include "svc/service.hpp"
#include "util/stopwatch.hpp"

namespace {

using Bw = moir::BwLlsc<>;
using Dur = moir::dur::DurLlsc<>;

void BM_DurLlScPair(benchmark::State& state) {
  Dur s(1, {.max_members = 2});
  Dur::Var var;
  s.init_var(var, 0);
  auto ctx = s.make_ctx();
  std::uint64_t i = 0;
  for (auto _ : state) {
    Dur::Keep keep;
    const std::uint64_t v = s.ll(ctx, var, keep);
    benchmark::DoNotOptimize(s.sc(ctx, var, keep, v + ++i));
  }
}
BENCHMARK(BM_DurLlScPair);

void BM_DurReadOnly(benchmark::State& state) {
  Dur s(1, {.max_members = 2});
  Dur::Var var;
  s.init_var(var, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.read(var));
  }
}
BENCHMARK(BM_DurReadOnly);

void contention_table(moir::bench::Harness& h) {
  h.header(
      "E16 table: LL;SC increment under contention — figdur vs figbw, with "
      "persist-barrier traffic",
      "durable LL/SC (JJJ'23 barriers over the Blelloch-Wei skeleton) adds "
      "P1 on every SC plus conditional P2/P3 var-word persists; link-and-"
      "persist sharing keeps barriers/op near 2 instead of the naive 3");

  const std::uint64_t kOps = moir::bench::scaled(200000);
  moir::Table t(
      "ns/op and persist barriers/op by thread count (LL;SC until success)");
  t.columns({"threads", "figdur", "figbw", "figdur_flush_per_op"});
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    Dur du(1, {.max_members = 2 * threads});
    Dur::Var du_var;
    du.init_var(du_var, 0);
    std::vector<Dur::ThreadCtx> du_ctxs;
    du_ctxs.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) du_ctxs.push_back(du.make_ctx());
    const auto& r_du = h.run_ops(
        "figdur_llsc/t" + std::to_string(threads), threads, kOps,
        [&](std::size_t tid, std::uint64_t) {
          for (;;) {
            Dur::Keep keep;
            const std::uint64_t v = du.ll(du_ctxs[tid], du_var, keep);
            if (du.sc(du_ctxs[tid], du_var, keep, v + 1)) break;
          }
        });

    Bw bw(threads, /*k=*/1);
    Bw::Var bw_var;
    bw.init_var(bw_var, 0);
    std::vector<Bw::ThreadCtx> bw_ctxs;
    bw_ctxs.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) bw_ctxs.push_back(bw.make_ctx());
    const auto& r_bw = h.run_ops(
        "figbw_llsc/t" + std::to_string(threads), threads, kOps,
        [&](std::size_t tid, std::uint64_t) {
          for (;;) {
            Bw::Keep keep;
            const std::uint64_t v = bw.ll(bw_ctxs[tid], bw_var, keep);
            if (bw.sc(bw_ctxs[tid], bw_var, keep, v + 1)) break;
          }
        });

    const double flush_per_op =
        r_du.ops == 0 ? 0.0
                      : static_cast<double>(
                            r_du.counters[moir::stats::Id::kDurFlush]) /
                            static_cast<double>(r_du.ops);
    t.row({moir::Table::num(threads), moir::Table::num(r_du.ns_op(), 1),
           moir::Table::num(r_bw.ns_op(), 1),
           moir::Table::num(flush_per_op, 2)});
  }
  h.table(t);
}

void recovery_table(moir::bench::Harness& h) {
  moir::Table t(
      "crash/recovery cost by descriptor-pool size (snapshot; restore + "
      "recover on a fresh instance)");
  t.columns({"pool_descs", "snapshot_us", "recover_us"});
  for (const std::uint32_t reserve : {256u, 1024u, 4096u}) {
    const Dur::Config cfg{.reserve = reserve, .chunk = 16,
                          .scan_threshold = 0, .max_members = 8};
    Dur s(1, cfg);
    Dur::Var var;
    s.init_var(var, 0);
    {
      auto ctx = s.make_ctx();
      for (int i = 0; i < 1000; ++i) {  // leave real churn behind
        Dur::Keep keep;
        const std::uint64_t v = s.ll(ctx, var, keep);
        (void)s.sc(ctx, var, keep, v + 1);
      }
    }
    moir::Stopwatch snap_sw;
    const auto image = s.snapshot();
    const double snap_s = snap_sw.elapsed_s();

    Dur fresh(1, cfg);
    Dur::Var fvar;
    fresh.init_var(fvar, 0);
    moir::Stopwatch rec_sw;
    fresh.restore_and_recover(image);
    const double rec_s = rec_sw.elapsed_s();
    h.add_run("figdur_recover/p" + std::to_string(s.pool_capacity()), 1,
              s.pool_capacity(), rec_s);
    t.row({moir::Table::num(s.pool_capacity()),
           moir::Table::num(snap_s * 1e6, 1),
           moir::Table::num(rec_s * 1e6, 1)});
  }
  h.table(t);
}

void elastic_service_run(moir::bench::Harness& h) {
  using Svc = moir::svc::KvService<Dur, moir::reclaim::EpochReclaimer>;
  // k = 4 is slack: the map holds one LL-SC sequence open at a time.
  Dur sub(4);
  Svc svc(sub, {.queues = 2,
                .workers = 1,
                .max_workers = 4,
                .grow_streak = 2,
                .shrink_idle = 4096,
                .batch = 1,
                .max_sessions = 4,
                .tickets_per_session = 16,
                .map = {.shards = 4, .buckets_per_shard = 16,
                        .capacity_per_shard = 1024}});

  const unsigned kClients = 3;
  const std::uint64_t kOps = moir::bench::scaled(40000);
  std::vector<Svc::ClientCtx> sessions;
  sessions.reserve(kClients);
  for (unsigned c = 0; c < kClients; ++c) sessions.push_back(svc.connect());
  h.run_ops("figdur_svc_elastic/c" + std::to_string(kClients), kClients, kOps,
            [&](std::size_t tid, std::uint64_t i) {
              auto& sess = sessions[tid];
              const std::uint64_t key = (i % 64) * kClients + tid;
              for (;;) {
                const auto t = svc.submit(sess, moir::svc::Op::kUpsert, key,
                                          key * 3 + i);
                if (!t.has_value()) continue;
                if (svc.wait(sess, *t).status !=
                    moir::svc::Status::kOverload) {
                  break;
                }
              }
            });
  h.metric("svc_worker_high_water",
           static_cast<double>(svc.worker_registry().high_water()));
  h.metric("svc_worker_ceiling", static_cast<double>(svc.worker_ceiling()));
  h.printf("\nelastic pool: floor 1, ceiling %u, high water %u\n",
           svc.worker_ceiling(), svc.worker_registry().high_water());
}

}  // namespace

int main(int argc, char** argv) {
  moir::bench::Harness h(argc, argv, "bench_dur");
  h.header(
      "E16: durable LL/SC over simulated pmem + elastic membership",
      "persist barriers price durability at ~2 conditional barriers per "
      "update; recovery is pool-proportional; the worker pool tracks load");
  if (h.micro()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  contention_table(h);
  recovery_table(h);
  elastic_service_run(h);

  Dur probe(2, {.max_members = 8});
  h.metric("sizeof_var_bytes", static_cast<double>(sizeof(Dur::Var)));
  h.metric("pool_capacity_default_m8_k2",
           static_cast<double>(probe.pool_capacity()));
  h.printf("\nspace: sizeof(Var)=%zu (volatile word + durable shadow); "
           "default pool at max_members=8, k=2: %u descriptors\n",
           sizeof(Dur::Var), probe.pool_capacity());
  return h.finish();
}
