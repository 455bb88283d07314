// E14 (multi-key transactions): the transaction layer over the sharded
// map — atomic multi_get snapshots and multi_cas transfers, k in
// {2,4,8}, on both the Figure 4 CAS-backed and the Figure 7 bounded-tag
// substrates at 8 threads, plus an ENGINE axis on Figure 4: TxnKv
// (src/txn/) against the GL-STM global-lock baseline (bench/glstm.hpp),
// with TxnKv's double-collect slow path timed directly as the "mcas"
// read-path column. bench_tl2 (E18) owns the deep read-path sweep; the
// runs here keep them comparable inside E14's k-scaling frame.
//
// Workloads per (k, substrate/engine):
//   * read-only: k-key multi_get snapshots over a quiescent store; every
//     returned cell is checked against the reference value — a torn or
//     stale snapshot is an integrity failure;
//   * read-write: snapshot k consecutive accounts, then multi_cas a
//     1-unit transfer from the richest to the poorest, expecting exactly
//     the snapshot (kMiss = lost race = retry next op).
//
// The hard check: transfers CONSERVE the global value checksum. After
// every read-write run the full 256-account sum must equal the preload
// total; any deviation (or read-only snapshot mismatch) exits 2 — the
// same class of seeded-bug tripwire as bench_service's find checksum.
#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "bench/glstm.hpp"
#include "core/bounded_llsc.hpp"
#include "core/bw_llsc.hpp"
#include "core/llsc_traits.hpp"
#include "reclaim/epoch.hpp"
#include "txn/txn_kv.hpp"
#include "util/rng.hpp"

namespace {

using moir::reclaim::EpochReclaimer;
using moir::txn::TxnStatus;

constexpr unsigned kThreads = 8;
constexpr std::uint64_t kAccounts = 256;
constexpr std::uint64_t kInitial = 1000;
constexpr std::uint64_t kTotal = kAccounts * kInitial;

std::atomic<std::uint64_t> g_integrity_failures{0};

std::vector<std::pair<std::string, double>> g_results;

double mops_of(const std::string& name) {
  for (const auto& [n, v] : g_results) {
    if (n == name) return v;
  }
  return 0.0;
}

// Lifetime ThreadCtx budget per run: the worker threads plus the
// preloader and the post-run checker (the Figure 7 substrate's pids are
// leased per ctx and never returned).
constexpr unsigned kCtxBudget = kThreads + 4;

// Every column shares the TxnKv duck-typed interface: ctor(Map&,
// unsigned), make_ctx, wire/kAbsent, multi_get/multi_put/multi_cas.
template <class S, class Engine>
struct Store {
  using Map = moir::ShardedHashMap<S, EpochReclaimer>;

  Map map;
  Engine txn;

  explicit Store(S& substrate)
      : map(substrate, kCtxBudget,
            {.shards = 4, .buckets_per_shard = 64, .capacity_per_shard = 256}),
        txn(map, kCtxBudget) {}

  void preload() {
    auto ctx = txn.make_ctx();
    for (std::uint64_t k = 0; k < kAccounts; ++k) {
      if (txn.insert(ctx, k, kInitial) != TxnStatus::kOk) {
        std::fprintf(stderr, "preload failed at account %llu\n",
                     static_cast<unsigned long long>(k));
        g_integrity_failures.fetch_add(1);
        return;
      }
    }
  }

  // Quiescent full sum in 8-key snapshots. Run only with no writers.
  std::uint64_t full_sum() {
    auto ctx = txn.make_ctx();
    std::uint64_t sum = 0;
    for (std::uint64_t base = 0; base < kAccounts; base += 8) {
      std::uint64_t keys[8];
      std::uint64_t out[8];
      for (unsigned i = 0; i < 8; ++i) keys[i] = base + i;
      txn.multi_get(ctx, keys, out);
      for (const std::uint64_t c : out) {
        if (c == Engine::kAbsent) {
          g_integrity_failures.fetch_add(1);
          continue;
        }
        sum += c - 1;
      }
    }
    return sum;
  }
};

// k consecutive accounts starting at a random base: distinct by
// construction, and consecutive bases still collide across threads (the
// contention the transfer loop is meant to measure).
inline void pick_keys(moir::Xoshiro256& rng, unsigned k,
                      std::uint64_t* keys) {
  const std::uint64_t base = rng.next_below(kAccounts);
  for (unsigned i = 0; i < k; ++i) keys[i] = (base + i) % kAccounts;
}

template <class S, class Engine>
void read_only_run(moir::bench::Harness& h, const std::string& name,
                   S& substrate, unsigned k) {
  Store<S, Engine> store(substrate);
  store.preload();

  std::vector<typename Engine::ThreadCtx> ctxs;
  ctxs.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    ctxs.push_back(store.txn.make_ctx());
  }
  std::vector<moir::Xoshiro256> rngs;
  for (unsigned t = 0; t < kThreads; ++t) {
    rngs.emplace_back(moir::bench::thread_seed(t));
  }
  std::vector<std::uint64_t> mismatches(kThreads, 0);

  const auto& stats = h.run_timed(
      name, kThreads, h.duration_ms(300), h.warmup_ms(100),
      [&](std::size_t t, std::uint64_t) {
        std::uint64_t keys[8];
        std::uint64_t out[8];
        pick_keys(rngs[t], k, keys);
        store.txn.multi_get(ctxs[t], {keys, k}, {out, k});
        // Quiescent store: every cell must hold exactly the preload value.
        for (unsigned i = 0; i < k; ++i) {
          if (out[i] != Engine::wire(kInitial)) ++mismatches[t];
        }
      });
  for (const std::uint64_t m : mismatches) g_integrity_failures.fetch_add(m);
  g_results.emplace_back(name, stats.mops_s());
}

template <class S, class Engine>
void read_write_run(moir::bench::Harness& h, const std::string& name,
                    S& substrate, unsigned k) {
  Store<S, Engine> store(substrate);
  store.preload();

  std::vector<typename Engine::ThreadCtx> ctxs;
  ctxs.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    ctxs.push_back(store.txn.make_ctx());
  }
  std::vector<moir::Xoshiro256> rngs;
  for (unsigned t = 0; t < kThreads; ++t) {
    rngs.emplace_back(moir::bench::thread_seed(t) ^ 0xabcdefULL);
  }

  const auto& stats = h.run_timed(
      name, kThreads, h.duration_ms(300), h.warmup_ms(100),
      [&](std::size_t t, std::uint64_t) {
        std::uint64_t keys[8];
        std::uint64_t snap[8];
        std::uint64_t des[8];
        pick_keys(rngs[t], k, keys);
        store.txn.multi_get(ctxs[t], {keys, k}, {snap, k});
        // Transfer 1 unit richest -> poorest, expecting the snapshot.
        unsigned rich = 0, poor = 0;
        for (unsigned i = 1; i < k; ++i) {
          if (snap[i] > snap[rich]) rich = i;
          if (snap[i] < snap[poor]) poor = i;
        }
        // All equal (the initial state): still transfer, endpoints only.
        if (rich == poor) poor = k - 1;
        if (rich == poor || snap[rich] <= Engine::wire(0)) return;
        for (unsigned i = 0; i < k; ++i) des[i] = snap[i];
        des[rich] -= 1;
        des[poor] += 1;
        store.txn.multi_cas(ctxs[t], {keys, k}, {snap, k}, {des, k});
      });
  g_results.emplace_back(name, stats.mops_s());

  const std::uint64_t sum = store.full_sum();
  if (sum != kTotal) {
    std::fprintf(stderr,
                 "%s: CONSERVATION VIOLATED: sum %llu != %llu\n",
                 name.c_str(), static_cast<unsigned long long>(sum),
                 static_cast<unsigned long long>(kTotal));
    g_integrity_failures.fetch_add(1);
  }
}

std::string run_name(const char* mode, const char* fig, unsigned k) {
  return std::string(mode) + "/" + fig + "/k" + std::to_string(k) + "/t8";
}

// Engine-axis runs carry the engine token between mode and substrate:
// "ro/glstm/fig4/k8/t8". The bare-substrate names are TxnKv's.
std::string engine_run_name(const char* mode, const char* engine,
                            unsigned k) {
  return std::string(mode) + "/" + engine + "/fig4/k" + std::to_string(k) +
         "/t8";
}

}  // namespace

int main(int argc, char** argv) {
  moir::bench::Harness h(argc, argv, "bench_txn");
  h.header(
      "E14: multi-key atomic transactions — k x read-only/read-write x "
      "substrate x engine, conservation hard check",
      "MCAS-backed transactions over the sharded map commit atomic k-key "
      "snapshots and transfers on both Figure 4 and Figure 7 substrates; "
      "the double-collect read path and the GL-STM baseline answer the "
      "same workloads on Figure 4; value checksums are conserved under "
      "8-thread contention");

  using Fig4 = moir::CasBackedLlsc<16>;
  using Txn = moir::txn::TxnKv<Fig4, EpochReclaimer>;
  using Mcas = moir::bench::DoubleCollectKv<Txn>;
  using Glstm = moir::bench::GlstmKv<Fig4, EpochReclaimer>;

  for (const unsigned k : {2u, 4u, 8u}) {
    {
      Fig4 fig4;
      read_only_run<Fig4, Txn>(h, run_name("ro", "fig4", k), fig4, k);
    }
    {
      moir::BoundedLlsc<> fig7(kCtxBudget, /*k=*/3);
      read_only_run<moir::BoundedLlsc<>,
                    moir::txn::TxnKv<moir::BoundedLlsc<>, EpochReclaimer>>(
          h, run_name("ro", "fig7", k), fig7, k);
    }
    {
      Fig4 fig4;
      read_write_run<Fig4, Txn>(h, run_name("rw", "fig4", k), fig4, k);
    }
    {
      moir::BoundedLlsc<> fig7(kCtxBudget, /*k=*/3);
      read_write_run<moir::BoundedLlsc<>,
                     moir::txn::TxnKv<moir::BoundedLlsc<>, EpochReclaimer>>(
          h, run_name("rw", "fig7", k), fig7, k);
    }
    {
      moir::BwLlsc<> figbw(kCtxBudget, /*k=*/3);
      read_only_run<moir::BwLlsc<>,
                    moir::txn::TxnKv<moir::BwLlsc<>, EpochReclaimer>>(
          h, run_name("ro", "figbw", k), figbw, k);
    }
    {
      moir::BwLlsc<> figbw(kCtxBudget, /*k=*/3);
      read_write_run<moir::BwLlsc<>,
                     moir::txn::TxnKv<moir::BwLlsc<>, EpochReclaimer>>(
          h, run_name("rw", "figbw", k), figbw, k);
    }
    // Engine axis, Figure 4 only: the double-collect read path and glstm
    // against the TxnKv runs above (same workload, same substrate, same
    // store geometry).
    {
      Fig4 fig4;
      read_only_run<Fig4, Mcas>(h, engine_run_name("ro", "mcas", k), fig4, k);
    }
    {
      Fig4 fig4;
      read_write_run<Fig4, Mcas>(h, engine_run_name("rw", "mcas", k), fig4,
                                 k);
    }
    {
      Fig4 fig4;
      read_only_run<Fig4, Glstm>(h, engine_run_name("ro", "glstm", k), fig4,
                                 k);
    }
    {
      Fig4 fig4;
      read_write_run<Fig4, Glstm>(h, engine_run_name("rw", "glstm", k), fig4,
                                  k);
    }
  }

  {
    moir::Table t("transactions, 8 threads: k x mode x substrate (Mops/s)");
    t.columns({"k", "ro/fig4", "ro/fig7", "ro/figbw", "rw/fig4", "rw/fig7",
               "rw/figbw"});
    for (const unsigned k : {2u, 4u, 8u}) {
      t.row({"k" + std::to_string(k),
             moir::Table::num(mops_of(run_name("ro", "fig4", k)), 3),
             moir::Table::num(mops_of(run_name("ro", "fig7", k)), 3),
             moir::Table::num(mops_of(run_name("ro", "figbw", k)), 3),
             moir::Table::num(mops_of(run_name("rw", "fig4", k)), 3),
             moir::Table::num(mops_of(run_name("rw", "fig7", k)), 3),
             moir::Table::num(mops_of(run_name("rw", "figbw", k)), 3)});
    }
    h.table(t);
  }

  {
    moir::Table t("engine axis on fig4, 8 threads (Mops/s)");
    t.columns({"k", "ro/txn", "ro/mcas", "ro/glstm", "rw/txn", "rw/mcas",
               "rw/glstm"});
    for (const unsigned k : {2u, 4u, 8u}) {
      t.row({"k" + std::to_string(k),
             moir::Table::num(mops_of(run_name("ro", "fig4", k)), 3),
             moir::Table::num(mops_of(engine_run_name("ro", "mcas", k)), 3),
             moir::Table::num(mops_of(engine_run_name("ro", "glstm", k)), 3),
             moir::Table::num(mops_of(run_name("rw", "fig4", k)), 3),
             moir::Table::num(mops_of(engine_run_name("rw", "mcas", k)), 3),
             moir::Table::num(mops_of(engine_run_name("rw", "glstm", k)),
                              3)});
    }
    h.table(t);
  }

  const double ro2 = mops_of(run_name("ro", "fig4", 2));
  const double ro8 = mops_of(run_name("ro", "fig4", 8));
  const double rw2 = mops_of(run_name("rw", "fig4", 2));
  const double rw8 = mops_of(run_name("rw", "fig4", 8));
  h.metric("ro_k8_over_k2_fig4", ro2 > 0 ? ro8 / ro2 : 0.0);
  h.metric("rw_k8_over_k2_fig4", rw2 > 0 ? rw8 / rw2 : 0.0);
  const double mcas_ro2 = mops_of(engine_run_name("ro", "mcas", 2));
  const double mcas_ro8 = mops_of(engine_run_name("ro", "mcas", 8));
  h.metric("ro_k8_over_k2_fig4_mcas",
           mcas_ro2 > 0 ? mcas_ro8 / mcas_ro2 : 0.0);
  h.metric("integrity_failures",
           static_cast<double>(g_integrity_failures.load()));
  h.printf(
      "snapshot scaling k8/k2 (fig4): ro %.2fx, rw %.2fx, mcas ro %.2fx\n",
      ro2 > 0 ? ro8 / ro2 : 0.0, rw2 > 0 ? rw8 / rw2 : 0.0,
      mcas_ro2 > 0 ? mcas_ro8 / mcas_ro2 : 0.0);
  h.printf("integrity: %llu failures (conservation + snapshot checks)\n",
           static_cast<unsigned long long>(g_integrity_failures.load()));

  const int rc = h.finish();
  if (g_integrity_failures.load() != 0) return 2;
  return rc;
}
