// E13 (service pipeline): the wait-free KV request pipeline (src/svc/) —
// SPSC client rings -> routing -> per-shard SPSC lanes -> batching
// executors over the sharded map (the paper's LL/SC + SMR on the serving
// hot path). Routing is a worker role: each worker pass try-claims it,
// drains the rings into the lanes, then try-claims each lane and executes.
//
// Sweeps:
//   * executor batch size B in {1,4,16,64} x substrate (fig4 CAS-backed vs
//     fig7 bounded-tag vs figbw) at 8 closed-loop clients — batching
//     amortizes the lane claim and the shard rotor, so B=16 should beat
//     B=1;
//   * closed-loop client scaling {1,2,4,8} at B=16; the 4-client row is
//     also the "rings+router" pipeline-shape row;
//   * shard count {1,4} at 8 clients (with one shard, both workers take
//     turns on one lane);
//   * open-loop Poisson arrivals at an under-capacity and an over-capacity
//     rate: latency is measured from the SCHEDULED arrival, so queueing
//     delay shows up honestly, and the over-capacity point must shed
//     (nonzero svc_shed) instead of collapsing.
//
// Every find is checksum-verified against its key; any mismatch fails the
// bench with exit code 2.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hpp"
#include "core/bounded_llsc.hpp"
#include "core/bw_llsc.hpp"
#include "core/llsc_traits.hpp"
#include "reclaim/epoch.hpp"
#include "svc/service.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

using moir::reclaim::EpochReclaimer;
using moir::svc::Op;
using moir::svc::Status;

constexpr std::uint64_t kKeys = 1024;
constexpr std::uint64_t kValueSalt = 0x5bd1e995u;

std::uint64_t value_of(std::uint64_t key) { return key * 31 + kValueSalt; }

std::atomic<std::uint64_t> g_mismatches{0};

std::vector<std::pair<std::string, double>> g_results;

double mops_of(const std::string& name) {
  for (const auto& [n, v] : g_results) {
    if (n == name) return v;
  }
  return 0.0;
}

template <class Svc>
typename Svc::Config svc_config(unsigned clients, unsigned batch,
                                unsigned queues) {
  typename Svc::Config cfg;
  cfg.queues = queues;
  cfg.queue_capacity = 1024;
  cfg.workers = 2;
  cfg.batch = batch;
  cfg.max_sessions = clients;
  cfg.tickets_per_session = 64;
  cfg.map = {.shards = queues, .buckets_per_shard = 64,
             .capacity_per_shard = 4096};
  return cfg;
}

// Substrate process-slot budget for one run: BoundedLlsc pids are leased
// per ThreadCtx and never returned, so size for the lifetime total — each
// worker holds a map ctx, plus the preloader and slack. Sessions and
// routing hold none.
unsigned fig7_processes() { return 2 + 1 + 8; }

// Closed-loop clients pipeline kPipeline requests: submit until the
// window is full, then complete-one/submit-one. Without pipelining an
// executor pop never sees more than one queued request per client and the
// batch-size sweep measures nothing.
constexpr unsigned kPipeline = 8;

// Mixed client op: 60% verified find / 30% upsert / 5% insert / 5% erase
// over the preloaded keyspace. Erase+insert keep the same checksum value,
// so any kOk find either matches value_of(key) or the payload was
// corrupted in flight.
template <class Svc, class Client>
struct PipelinedClient {
  Svc& svc;
  Client& c;
  moir::Xoshiro256 rng;
  std::uint64_t mismatches = 0;
  struct InFlight {
    typename Svc::Ticket ticket;
    std::uint64_t key = 0;
    Op op = Op::kFind;
  };
  std::vector<InFlight> pipe;  // FIFO by index; bounded by kPipeline

  PipelinedClient(Svc& s, Client& cc, std::uint64_t seed)
      : svc(s), c(cc), rng(seed) {
    pipe.reserve(kPipeline);
  }

  bool submit_one() {
    const std::uint64_t key = rng.next_below(kKeys);
    const unsigned dice = static_cast<unsigned>(rng.next_below(100));
    Op op = Op::kFind;
    if (dice >= 60) {
      op = dice < 90 ? Op::kUpsert : (dice < 95 ? Op::kInsert : Op::kErase);
    }
    const auto t = svc.submit(c, op, key, value_of(key));
    if (!t.has_value()) return false;  // shed; counted by the service
    pipe.push_back(InFlight{*t, key, op});
    return true;
  }

  void complete_front() {
    const InFlight f = pipe.front();
    pipe.erase(pipe.begin());
    const auto r = svc.wait(c, f.ticket);
    if (f.op == Op::kFind && r.status == Status::kOk &&
        r.value != value_of(f.key)) {
      ++mismatches;
    }
  }

  // One logical op: keep the pipeline full, account one completion.
  void step() {
    while (pipe.size() < kPipeline && submit_one()) {
    }
    if (!pipe.empty()) complete_front();
  }

  void drain() {
    while (!pipe.empty()) complete_front();
  }
};

template <class S>
void preload(moir::svc::KvService<S, EpochReclaimer>& svc) {
  auto mctx = svc.make_map_ctx();
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (!svc.map().insert(mctx, k, value_of(k))) {
      std::fprintf(stderr, "preload failed at key %llu\n",
                   static_cast<unsigned long long>(k));
      g_mismatches.fetch_add(1);
      return;
    }
  }
}

// One closed-loop run: each client thread keeps exactly one request in
// flight (submit, spin-wait, repeat) for the harness-timed duration.
template <class S>
void closed_loop_run(moir::bench::Harness& h, const std::string& name,
                     S& substrate, unsigned clients, unsigned batch,
                     unsigned queues) {
  using Svc = moir::svc::KvService<S, EpochReclaimer>;
  Svc svc(substrate, svc_config<Svc>(clients, batch, queues));
  preload(svc);

  using Pipe = PipelinedClient<Svc, typename Svc::ClientCtx>;
  std::vector<typename Svc::ClientCtx> ctxs;
  ctxs.reserve(clients);
  for (unsigned t = 0; t < clients; ++t) ctxs.push_back(svc.connect());
  std::vector<std::unique_ptr<Pipe>> pipes;
  for (unsigned t = 0; t < clients; ++t) {
    pipes.push_back(std::make_unique<Pipe>(svc, ctxs[t],
                                           moir::bench::thread_seed(t)));
  }

  const auto& stats = h.run_timed(
      name, clients, h.duration_ms(300), h.warmup_ms(100),
      [&](std::size_t t, std::uint64_t) { pipes[t]->step(); });
  for (auto& p : pipes) {
    p->drain();
    g_mismatches.fetch_add(p->mismatches);
  }
  g_results.emplace_back(name, stats.mops_s());
  svc.stop();
}

// One open-loop run: each client samples Poisson arrivals (exponential
// interarrival, mean `mean_ns`), submits at the scheduled instant, and
// records completion latency from the SCHEDULED arrival time — a late
// submit therefore pays its queueing delay instead of hiding it
// (coordinated-omission-proof). Overload surfaces as shed submits, never
// as blocking.
template <class S>
void open_loop_run(moir::bench::Harness& h, const std::string& name,
                   S& substrate, unsigned clients, double mean_ns,
                   std::uint64_t* sheds_out) {
  using Svc = moir::svc::KvService<S, EpochReclaimer>;
  Svc svc(substrate, svc_config<Svc>(clients, /*batch=*/16, /*queues=*/4));
  preload(svc);

  std::vector<typename Svc::ClientCtx> ctxs;
  ctxs.reserve(clients);
  for (unsigned t = 0; t < clients; ++t) ctxs.push_back(svc.connect());

  const std::uint64_t dur_ms = h.duration_ms(300);
  const double dur_ns = static_cast<double>(dur_ms) * 1e6;
  std::vector<moir::Histogram> hists(clients);
  std::vector<std::uint64_t> done(clients, 0);
  std::vector<std::uint64_t> sheds(clients, 0);
  std::vector<std::uint64_t> mismatches(clients, 0);

  const double secs = moir::bench::timed_threads(clients, [&](std::size_t t) {
    moir::Xoshiro256 rng(moir::bench::thread_seed(t));
    auto& c = ctxs[t];
    moir::Histogram& hist = hists[t];
    struct InFlight {
      typename Svc::Ticket ticket;
      std::uint64_t sched_ns;
      std::uint64_t key;
      Op op;
    };
    std::vector<InFlight> out;
    const auto interarrival = [&] {
      return -std::log(1.0 - rng.next_double()) * mean_ns;
    };
    const auto poll_once = [&](std::uint64_t now) {
      for (std::size_t i = 0; i < out.size();) {
        if (const auto r = svc.poll(c, out[i].ticket)) {
          hist.record(now > out[i].sched_ns ? now - out[i].sched_ns : 1);
          if (out[i].op == Op::kFind && r->status == Status::kOk &&
              r->value != value_of(out[i].key)) {
            ++mismatches[t];
          }
          ++done[t];
          out[i] = out.back();
          out.pop_back();
        } else {
          ++i;
        }
      }
    };

    moir::Stopwatch clk;
    double next_arrival = interarrival();
    for (;;) {
      const std::uint64_t now = clk.elapsed_ns();
      if (static_cast<double>(now) >= dur_ns) break;
      if (static_cast<double>(now) >= next_arrival) {
        const std::uint64_t key = rng.next_below(kKeys);
        const Op op = rng.next_below(100) < 70 ? Op::kFind : Op::kUpsert;
        const auto tk = svc.submit(c, op, key, value_of(key));
        if (tk.has_value()) {
          out.push_back(InFlight{*tk, static_cast<std::uint64_t>(next_arrival),
                                 key, op});
        } else {
          ++sheds[t];
        }
        next_arrival += interarrival();
        continue;  // catch up on the arrival schedule before polling
      }
      poll_once(now);
      moir::svc::SpinWait::relax();
    }
    // Drain: every accepted ticket completes (workers are still up).
    while (!out.empty()) {
      poll_once(clk.elapsed_ns());
      moir::svc::SpinWait::relax();
    }
  });
  svc.stop();

  moir::Histogram merged;
  std::uint64_t total_done = 0, total_sheds = 0;
  for (unsigned t = 0; t < clients; ++t) {
    merged.merge(hists[t]);
    total_done += done[t];
    total_sheds += sheds[t];
    g_mismatches.fetch_add(mismatches[t]);
  }
  (void)secs;
  const double window_s = static_cast<double>(dur_ms) / 1e3;
  const auto& stats = h.add_run(name, clients, total_done > 0 ? total_done : 1,
                                window_s, std::move(merged));
  g_results.emplace_back(name, stats.mops_s());
  if (sheds_out != nullptr) *sheds_out += total_sheds;
  h.printf("%s: %llu completed, %llu shed, p50 %.0fns p99 %.0fns\n",
           name.c_str(), static_cast<unsigned long long>(total_done),
           static_cast<unsigned long long>(total_sheds),
           stats.latency_ns.percentile(0.50), stats.latency_ns.percentile(0.99));
}

}  // namespace

int main(int argc, char** argv) {
  moir::bench::Harness h(argc, argv, "bench_service");
  h.header(
      "E13: wait-free KV request pipeline — batch size x substrate, client "
      "scaling, shard count, open-loop Poisson latency",
      "a request pipeline of SPSC rings and lanes over the paper's "
      "primitives (LL/SC + SMR + sharded map) serves closed- and open-loop "
      "traffic, sheds under overload instead of blocking, and batching "
      "amortizes the per-lane claim");

  // Batch-size sweep at 8 closed-loop clients, both substrates.
  for (const unsigned batch : {1u, 4u, 16u, 64u}) {
    moir::CasBackedLlsc<16> fig4;
    closed_loop_run(h, "batch/fig4/B" + std::to_string(batch) + "/t8", fig4,
                    8, batch, 4);
  }
  for (const unsigned batch : {1u, 4u, 16u, 64u}) {
    moir::BoundedLlsc<> fig7(fig7_processes(), /*k=*/3);
    closed_loop_run(h, "batch/fig7/B" + std::to_string(batch) + "/t8", fig7,
                    8, batch, 4);
  }
  for (const unsigned batch : {1u, 4u, 16u, 64u}) {
    moir::BwLlsc<> figbw(fig7_processes(), /*k=*/3);
    closed_loop_run(h, "batch/figbw/B" + std::to_string(batch) + "/t8",
                    figbw, 8, batch, 4);
  }

  // Client scaling at B=16 on fig4.
  for (const unsigned clients : {1u, 2u, 4u}) {
    moir::CasBackedLlsc<16> fig4;
    closed_loop_run(h, "clients/fig4/B16/t" + std::to_string(clients), fig4,
                    clients, 16, 4);
  }

  // The pipeline at 4 clients.
  {
    moir::CasBackedLlsc<16> fig4;
    closed_loop_run(h, "ingress/rings/t4", fig4, 4, 16, 4);
  }

  // Shard count at 8 clients (map shards track lanes).
  for (const unsigned queues : {1u, 4u}) {
    moir::CasBackedLlsc<16> fig4;
    closed_loop_run(h, "queues/fig4/q" + std::to_string(queues) + "/t8",
                    fig4, 8, 16, queues);
  }

  // Open loop: under capacity (50us mean interarrival per client) and far
  // over capacity (500ns mean — the admission window must shed).
  std::uint64_t over_sheds = 0;
  {
    moir::CasBackedLlsc<16> fig4;
    open_loop_run(h, "open/under/t4", fig4, 4, 50e3, nullptr);
  }
  {
    moir::CasBackedLlsc<16> fig4;
    open_loop_run(h, "open/over/t4", fig4, 4, 500.0, &over_sheds);
  }

  {
    moir::Table t("closed loop, 8 clients: batch size x substrate (Mops/s)");
    t.columns({"batch", "fig4/epoch", "fig7/epoch", "figbw/epoch"});
    for (const unsigned batch : {1u, 4u, 16u, 64u}) {
      const std::string b = "B" + std::to_string(batch);
      t.row({b, moir::Table::num(mops_of("batch/fig4/" + b + "/t8"), 3),
             moir::Table::num(mops_of("batch/fig7/" + b + "/t8"), 3),
             moir::Table::num(mops_of("batch/figbw/" + b + "/t8"), 3)});
    }
    h.table(t);
  }
  {
    moir::Table t("closed loop, fig4, B=16: client scaling (Mops/s)");
    t.columns({"clients", "Mops/s"});
    for (const unsigned clients : {1u, 2u, 4u}) {
      t.row({moir::Table::num(clients),
             moir::Table::num(
                 mops_of("clients/fig4/B16/t" + std::to_string(clients)), 3)});
    }
    t.row({moir::Table::num(8), moir::Table::num(mops_of("batch/fig4/B16/t8"), 3)});
    h.table(t);
  }
  {
    moir::Table t("pipeline shape, 4 clients, B=16 (Mops/s)");
    t.columns({"config", "Mops/s"});
    t.row({"rings+router", moir::Table::num(mops_of("ingress/rings/t4"), 3)});
    h.table(t);
  }

  const double b1_fig4 = mops_of("batch/fig4/B1/t8");
  const double b16_fig4 = mops_of("batch/fig4/B16/t8");
  const double b1_fig7 = mops_of("batch/fig7/B1/t8");
  const double b16_fig7 = mops_of("batch/fig7/B16/t8");
  h.metric("b16_over_b1_fig4", b1_fig4 > 0 ? b16_fig4 / b1_fig4 : 0.0);
  h.metric("b16_over_b1_fig7", b1_fig7 > 0 ? b16_fig7 / b1_fig7 : 0.0);
  h.metric("open_over_sheds", static_cast<double>(over_sheds));
  h.metric("value_mismatches", static_cast<double>(g_mismatches.load()));
  h.printf("batching speedup B16/B1: fig4 %.2fx, fig7 %.2fx\n",
           b1_fig4 > 0 ? b16_fig4 / b1_fig4 : 0.0,
           b1_fig7 > 0 ? b16_fig7 / b1_fig7 : 0.0);
  h.printf("integrity: %llu mismatches; overload sheds: %llu\n",
           static_cast<unsigned long long>(g_mismatches.load()),
           static_cast<unsigned long long>(over_sheds));

  const int rc = h.finish();
  if (g_mismatches.load() != 0) return 2;
  return rc;
}
