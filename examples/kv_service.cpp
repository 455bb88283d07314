// Minimal KV service session: four client threads drive mixed traffic
// through the full wait-free pipeline (SPSC ring -> routing by whichever
// worker holds the claim -> per-shard SPSC lanes -> batching executors,
// one per lane at a time -> sharded map), then the tail latency
// comes out of the stats layer's svc_latency histogram. Part 2 runs a
// teller workload in transaction mode and insists the books balance.
//
// Build & run:  cmake --build build --target kv_service && ./build/examples/kv_service
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/llsc_traits.hpp"
#include "reclaim/epoch.hpp"
#include "stats/stats.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"

using Svc = moir::svc::KvService<moir::CasBackedLlsc<16>,
                                 moir::reclaim::EpochReclaimer>;
using moir::svc::Op;
using moir::svc::Status;

// Part 2 body: four tellers make atomic two-key transfers between eight
// accounts via kMultiCas; the global balance is checked with one atomic
// 8-key snapshot per teller pass and the final sum must come out exactly
// conserved.
void run_teller_bank() {
  constexpr unsigned kClients = 4;
  constexpr std::uint64_t kAccounts = 8;
  constexpr std::uint64_t kBalance = 1000;

  moir::CasBackedLlsc<16> substrate;
  Svc bank(substrate, {.queues = 2,
                       .workers = 2,
                       .batch = 16,
                       .max_sessions = 4,
                       .txn = true,
                       .map = {.shards = 2, .buckets_per_shard = 32,
                               .capacity_per_shard = 512}});
  {
    auto c = bank.connect();
    std::uint64_t keys[kAccounts], vals[kAccounts];
    for (std::uint64_t k = 0; k < kAccounts; ++k) {
      keys[k] = k;
      vals[k] = kBalance;
    }
    for (;;) {  // an empty fresh service only sheds transiently
      const auto t = bank.submit_multi(c, Op::kMultiPut, keys, vals);
      if (t.has_value()) {
        bank.wait(c, *t);
        break;
      }
    }
  }

  std::vector<std::thread> tellers;
  for (unsigned t = 0; t < kClients; ++t) {
    tellers.emplace_back([&bank, t] {
      auto c = bank.connect();
      moir::Xoshiro256 rng(0xba2d5eedULL + t);
      std::uint64_t commits = 0, retries = 0;
      for (std::uint64_t i = 0; i < 2000; ++i) {
        const std::uint64_t from = rng.next_below(kAccounts);
        std::uint64_t to = rng.next_below(kAccounts);
        if (to == from) to = (to + 1) % kAccounts;
        const std::uint64_t pair[] = {from, to};
        // Snapshot the pair, then transfer 1 expecting that snapshot.
        std::uint64_t snap[2];
        auto tk = bank.submit_multi(c, Op::kMultiGet, pair);
        if (!tk.has_value()) continue;
        bank.wait(c, *tk, snap);
        const std::uint64_t bal_from = snap[0] - 1;
        if (bal_from == 0) continue;  // overdraft refused
        const std::uint64_t des[] = {snap[0] - 1, snap[1] + 1};
        tk = bank.submit_multi(c, Op::kMultiCas, pair, des, snap);
        if (!tk.has_value()) continue;
        const auto r = bank.wait(c, *tk);
        r.status == Status::kOk ? ++commits : ++retries;
        if (i % 200 == 0) {
          // One atomic 8-key snapshot: the books must balance mid-flight.
          std::uint64_t all[kAccounts], out[kAccounts];
          for (std::uint64_t k = 0; k < kAccounts; ++k) all[k] = k;
          tk = bank.submit_multi(c, Op::kMultiGet, all);
          if (!tk.has_value()) continue;
          bank.wait(c, *tk, out);
          std::uint64_t sum = 0;
          for (const std::uint64_t cell : out) sum += cell - 1;
          if (sum != kAccounts * kBalance) {
            std::printf("teller %u: CONSERVATION VIOLATED (%llu)\n", t,
                        static_cast<unsigned long long>(sum));
            std::exit(1);
          }
        }
      }
      std::printf("teller %u: %llu transfers committed, %llu lost races\n",
                  t, static_cast<unsigned long long>(commits),
                  static_cast<unsigned long long>(retries));
    });
  }
  for (auto& th : tellers) th.join();

  {
    auto c = bank.connect();
    std::uint64_t all[kAccounts], out[kAccounts];
    for (std::uint64_t k = 0; k < kAccounts; ++k) all[k] = k;
    const auto tk = bank.submit_multi(c, Op::kMultiGet, all);
    std::uint64_t sum = 0;
    if (tk.has_value()) {
      bank.wait(c, *tk, out);
      for (const std::uint64_t cell : out) sum += cell - 1;
    }
    std::printf("final balance: %llu (expected %llu) — %s\n",
                static_cast<unsigned long long>(sum),
                static_cast<unsigned long long>(kAccounts * kBalance),
                sum == kAccounts * kBalance ? "conserved" : "VIOLATED");
    if (sum != kAccounts * kBalance) std::exit(1);
  }
  bank.stop();
}

int main() {

  moir::stats::set_counting(true);  // feeds the svc_latency histogram

  moir::CasBackedLlsc<16> substrate;
  Svc svc(substrate, {.queues = 2,
                      .workers = 2,
                      .batch = 16,
                      .max_sessions = 4,
                      .map = {.shards = 2, .buckets_per_shard = 32,
                              .capacity_per_shard = 512}});

  constexpr unsigned kClients = 4;
  constexpr std::uint64_t kOpsEach = 20000;
  constexpr std::uint64_t kKeys = 256;

  std::vector<std::thread> clients;
  for (unsigned t = 0; t < kClients; ++t) {
    clients.emplace_back([&svc, t] {
      auto c = svc.connect();  // leases a session + its ring and tickets
      moir::Xoshiro256 rng(0x5eed + t);
      std::uint64_t hits = 0, sheds = 0;
      for (std::uint64_t i = 0; i < kOpsEach; ++i) {
        const std::uint64_t key = rng.next_below(kKeys);
        const Op op = rng.next_below(100) < 50
                          ? Op::kFind
                          : (rng.next_below(2) != 0 ? Op::kUpsert : Op::kErase);
        const auto ticket = svc.submit(c, op, key, key * 3 + 1);
        if (!ticket.has_value()) {
          ++sheds;  // EBUSY: the service refused rather than blocked
          continue;
        }
        const auto r = svc.wait(c, *ticket);
        hits += r.status == Status::kOk ? 1 : 0;
      }
      std::printf("client %u: %llu ok, %llu shed\n", t,
                  static_cast<unsigned long long>(hits),
                  static_cast<unsigned long long>(sheds));
    });
  }
  for (auto& th : clients) th.join();
  svc.stop();

  const auto lat = moir::stats::merged_histogram(moir::stats::HistId::kSvcLatency);
  const auto s = moir::stats::snapshot();
  std::printf("requests: %llu, executor batches: %llu\n",
              static_cast<unsigned long long>(
                  s[moir::stats::Id::kSvcEnqueue]),
              static_cast<unsigned long long>(s[moir::stats::Id::kSvcBatch]));
  std::printf("latency p50 %.1fus  p99 %.1fus  max %.1fus\n",
              lat.percentile(0.50) / 1e3, lat.percentile(0.99) / 1e3,
              static_cast<double>(lat.max()) / 1e3);

  // ----- Part 2: multi-key transactions (txn mode) --------------------------
  // Exits nonzero unless the final 8-account balance is exactly 8000.
  run_teller_bank();
  return 0;
}
