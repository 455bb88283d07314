// E18 (TL2 versioned-clock STM): TxnKv's invisible-reader multi_get
// against its own double-collect slow path and the GL-STM global-lock
// baseline.
//
// Two sweeps at 8 threads over a 256-account store:
//   * read-only k-sweep, k in {2,4,8,16}: tl2 (TxnKv::multi_get) on all
//     three substrates (fig4 CAS-backed, fig7 bounded-tag, figbw
//     block/wide), mcas (TxnKv::multi_get_double_collect, timed directly)
//     and glstm on fig4 as the comparison axis. The double-collect pays
//     two collect passes plus a per-key tag recheck, so its read
//     throughput falls with k; the invisible reader reads each cell once
//     and validates a stamp, so the curve should stay flat. Acceptance:
//     tl2 ro k=8 >= 2x mcas ro k=8 on fig4.
//   * read-write mix at k=4 on fig4, write fraction in {10,50,90}%:
//     abort-rate sweep. Writers transfer 1 unit richest -> poorest via
//     multi_cas expecting their snapshot; losers retry nothing (the next
//     op re-snapshots). Abort rates come from the stats counters the
//     harness captures per run (tl2_abort / txn_abort over txn_start).
//
// Hard checks, exit 2 on any violation:
//   * read-only snapshots on the quiescent store must return exactly the
//     preload value for every cell (torn/stale read tripwire);
//   * after every mix run the 256-account sum must equal the preload
//     total (conservation);
//   * tl2 read-only validation aborts on a quiescent store must be rare
//     (rate <= 0.05) — invisible readers on an idle clock should commit
//     first try.
#include <atomic>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/bounded_llsc.hpp"
#include "core/bw_llsc.hpp"
#include "core/llsc_traits.hpp"
#include "reclaim/epoch.hpp"
#include "bench/glstm.hpp"
#include "stats/stats.hpp"
#include "txn/txn_kv.hpp"
#include "util/rng.hpp"

namespace {

using moir::reclaim::EpochReclaimer;
using moir::txn::TxnStatus;

constexpr unsigned kThreads = 8;
constexpr std::uint64_t kAccounts = 256;
constexpr std::uint64_t kInitial = 1000;
constexpr std::uint64_t kTotal = kAccounts * kInitial;
constexpr unsigned kMaxK = 16;

std::atomic<std::uint64_t> g_integrity_failures{0};

std::vector<std::pair<std::string, double>> g_results;

double mops_of(const std::string& name) {
  for (const auto& [n, v] : g_results) {
    if (n == name) return v;
  }
  return 0.0;
}

// Aggregated abort accounting across runs, split by engine and mode.
struct AbortTally {
  std::uint64_t starts = 0;
  std::uint64_t aborts = 0;
  double rate() const {
    return starts == 0 ? 0.0
                       : static_cast<double>(aborts) /
                             static_cast<double>(starts);
  }
};

AbortTally g_tl2_ro;
AbortTally g_tl2_rw;
AbortTally g_mcas_rw;
AbortTally g_glstm_rw;

constexpr unsigned kCtxBudget = kThreads + 4;

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

inline void pick_keys(moir::Xoshiro256& rng, unsigned k,
                      std::uint64_t* keys) {
  const std::uint64_t base = rng.next_below(kAccounts);
  for (unsigned i = 0; i < k; ++i) keys[i] = (base + i) % kAccounts;
}

template <class S, class Engine>
void read_only_run(moir::bench::Harness& h, const std::string& name,
                   S& substrate, unsigned k, AbortTally* tally) {
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
        std::uint64_t keys[kMaxK];
        std::uint64_t out[kMaxK];
        pick_keys(rngs[t], k, keys);
        store.txn.multi_get(ctxs[t], {keys, k}, {out, k});
        for (unsigned i = 0; i < k; ++i) {
          if (out[i] != Engine::wire(kInitial)) ++mismatches[t];
        }
      });
  for (const std::uint64_t m : mismatches) g_integrity_failures.fetch_add(m);
  g_results.emplace_back(name, stats.mops_s());
  if (tally != nullptr) {
    tally->starts += stats.counters[moir::stats::Id::kTxnStart];
    tally->aborts += stats.counters[moir::stats::Id::kTl2Revalidate];
  }
}

// Mixed run: each op draws against the write fraction; writers snapshot
// k accounts and multi_cas a 1-unit richest->poorest transfer expecting
// the snapshot, readers just snapshot. Lost races are aborts, not
// retries — throughput counts attempted ops.
template <class S, class Engine>
void mix_run(moir::bench::Harness& h, const std::string& name, S& substrate,
             unsigned k, unsigned write_pct, AbortTally* tally,
             moir::stats::Id abort_id) {
  Store<S, Engine> store(substrate);
  store.preload();

  std::vector<typename Engine::ThreadCtx> ctxs;
  ctxs.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    ctxs.push_back(store.txn.make_ctx());
  }
  std::vector<moir::Xoshiro256> rngs;
  for (unsigned t = 0; t < kThreads; ++t) {
    rngs.emplace_back(moir::bench::thread_seed(t) ^ 0x7e57ULL);
  }

  const auto& stats = h.run_timed(
      name, kThreads, h.duration_ms(300), h.warmup_ms(100),
      [&](std::size_t t, std::uint64_t) {
        std::uint64_t keys[kMaxK];
        std::uint64_t snap[kMaxK];
        std::uint64_t des[kMaxK];
        auto& rng = rngs[t];
        pick_keys(rng, k, keys);
        const bool write = rng.next_below(100) < write_pct;
        store.txn.multi_get(ctxs[t], {keys, k}, {snap, k});
        if (!write) return;
        unsigned rich = 0, poor = 0;
        for (unsigned i = 1; i < k; ++i) {
          if (snap[i] > snap[rich]) rich = i;
          if (snap[i] < snap[poor]) poor = i;
        }
        if (rich == poor) poor = k - 1;
        if (rich == poor || snap[rich] <= Engine::wire(0)) return;
        for (unsigned i = 0; i < k; ++i) des[i] = snap[i];
        des[rich] -= 1;
        des[poor] += 1;
        store.txn.multi_cas(ctxs[t], {keys, k}, {snap, k}, {des, k});
      });
  g_results.emplace_back(name, stats.mops_s());
  if (tally != nullptr) {
    tally->starts += stats.counters[moir::stats::Id::kTxnStart];
    tally->aborts += stats.counters[abort_id];
  }

  const std::uint64_t sum = store.full_sum();
  if (sum != kTotal) {
    std::fprintf(stderr, "%s: CONSERVATION VIOLATED: sum %llu != %llu\n",
                 name.c_str(), static_cast<unsigned long long>(sum),
                 static_cast<unsigned long long>(kTotal));
    g_integrity_failures.fetch_add(1);
  }
}

std::string ro_name(const char* engine, const char* fig, unsigned k) {
  return std::string("ro/") + engine + "/" + fig + "/k" + std::to_string(k) +
         "/t8";
}

std::string mix_name(const char* engine, unsigned write_pct) {
  return std::string("mix/") + engine + "/fig4/w" +
         std::to_string(write_pct) + "/k4/t8";
}

}  // namespace

int main(int argc, char** argv) {
  moir::bench::Harness h(argc, argv, "bench_tl2");
  h.header(
      "E18: TL2 invisible readers — read-only k-sweep x substrate vs "
      "mcas/glstm, write-mix abort rates, conservation hard check",
      "the invisible reader's single-pass validated reads hold their "
      "throughput as snapshot width k grows while the double-collect "
      "slow path's falls; abort rates stay proportional to the write "
      "fraction; value checksums are conserved");

  using Fig4 = moir::CasBackedLlsc<16>;
  using Fig7 = moir::BoundedLlsc<>;
  using FigBw = moir::BwLlsc<>;
  using TxnFig4 = moir::txn::TxnKv<Fig4, EpochReclaimer>;
  using TxnFig7 = moir::txn::TxnKv<Fig7, EpochReclaimer>;
  using TxnFigBw = moir::txn::TxnKv<FigBw, EpochReclaimer>;
  using McasEng = moir::bench::DoubleCollectKv<TxnFig4>;
  using GlstmEng = moir::bench::GlstmKv<Fig4, EpochReclaimer>;

  // Read-only k-sweep.
  for (const unsigned k : {2u, 4u, 8u, 16u}) {
    {
      Fig4 fig4;
      read_only_run<Fig4, TxnFig4>(h, ro_name("tl2", "fig4", k), fig4, k,
                                   &g_tl2_ro);
    }
    {
      Fig7 fig7(kCtxBudget, /*k=*/3);
      read_only_run<Fig7, TxnFig7>(h, ro_name("tl2", "fig7", k), fig7, k,
                                   &g_tl2_ro);
    }
    {
      FigBw figbw(kCtxBudget, /*k=*/3);
      read_only_run<FigBw, TxnFigBw>(h, ro_name("tl2", "figbw", k), figbw, k,
                                     &g_tl2_ro);
    }
    {
      Fig4 fig4;
      read_only_run<Fig4, McasEng>(h, ro_name("mcas", "fig4", k), fig4, k,
                                   nullptr);
    }
    {
      Fig4 fig4;
      read_only_run<Fig4, GlstmEng>(h, ro_name("glstm", "fig4", k), fig4, k,
                                    nullptr);
    }
  }

  // Write-mix abort-rate sweep, k=4 on fig4.
  for (const unsigned w : {10u, 50u, 90u}) {
    {
      Fig4 fig4;
      mix_run<Fig4, McasEng>(h, mix_name("mcas", w), fig4, 4, w, &g_mcas_rw,
                             moir::stats::Id::kTxnAbort);
    }
    {
      Fig4 fig4;
      mix_run<Fig4, TxnFig4>(h, mix_name("tl2", w), fig4, 4, w, &g_tl2_rw,
                             moir::stats::Id::kTl2Abort);
    }
    {
      Fig4 fig4;
      mix_run<Fig4, GlstmEng>(h, mix_name("glstm", w), fig4, 4, w,
                              &g_glstm_rw, moir::stats::Id::kTxnAbort);
    }
  }

  {
    moir::Table t("read-only snapshots, 8 threads (Mops/s)");
    t.columns({"k", "tl2/fig4", "tl2/fig7", "tl2/figbw", "mcas/fig4",
               "glstm/fig4"});
    for (const unsigned k : {2u, 4u, 8u, 16u}) {
      t.row({"k" + std::to_string(k),
             moir::Table::num(mops_of(ro_name("tl2", "fig4", k)), 3),
             moir::Table::num(mops_of(ro_name("tl2", "fig7", k)), 3),
             moir::Table::num(mops_of(ro_name("tl2", "figbw", k)), 3),
             moir::Table::num(mops_of(ro_name("mcas", "fig4", k)), 3),
             moir::Table::num(mops_of(ro_name("glstm", "fig4", k)), 3)});
    }
    h.table(t);
  }

  {
    moir::Table t("write-mix at k=4 on fig4, 8 threads (Mops/s)");
    t.columns({"write%", "mcas", "tl2", "glstm"});
    for (const unsigned w : {10u, 50u, 90u}) {
      t.row({"w" + std::to_string(w),
             moir::Table::num(mops_of(mix_name("mcas", w)), 3),
             moir::Table::num(mops_of(mix_name("tl2", w)), 3),
             moir::Table::num(mops_of(mix_name("glstm", w)), 3)});
    }
    h.table(t);
  }

  const double tl2_ro8 = mops_of(ro_name("tl2", "fig4", 8));
  const double mcas_ro8 = mops_of(ro_name("mcas", "fig4", 8));
  h.metric("ro_k8_tl2_over_mcas_fig4",
           mcas_ro8 > 0 ? tl2_ro8 / mcas_ro8 : 0.0);
  h.metric("tl2_ro_abort_rate", g_tl2_ro.rate());
  h.metric("tl2_rw_abort_rate", g_tl2_rw.rate());
  h.metric("mcas_rw_abort_rate", g_mcas_rw.rate());
  h.metric("glstm_rw_abort_rate", g_glstm_rw.rate());
  h.metric("integrity_failures",
           static_cast<double>(g_integrity_failures.load()));
  h.printf("ro k=8 fig4: tl2 %.2f Mops/s vs mcas %.2f Mops/s (%.2fx)\n",
           tl2_ro8, mcas_ro8, mcas_ro8 > 0 ? tl2_ro8 / mcas_ro8 : 0.0);
  h.printf(
      "abort rates: tl2 ro %.4f (validation), tl2 rw %.4f, mcas rw %.4f, "
      "glstm rw %.4f\n",
      g_tl2_ro.rate(), g_tl2_rw.rate(), g_mcas_rw.rate(), g_glstm_rw.rate());
  h.printf("integrity: %llu failures (conservation + snapshot checks)\n",
           static_cast<unsigned long long>(g_integrity_failures.load()));

  const int rc = h.finish();
  if (g_integrity_failures.load() != 0) return 2;
  // A quiescent store must not abort invisible readers: the clock never
  // moves, so validation failures here mean the stamp protocol is wrong.
  if (g_tl2_ro.rate() > 0.05) {
    std::fprintf(stderr, "tl2 ro abort rate %.4f exceeds 0.05\n",
                 g_tl2_ro.rate());
    return 2;
  }
  return rc;
}
