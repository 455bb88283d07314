// E17 (change-feed fan-out): what broadcast costs the writer, and what
// subscribers see, as fan-out grows 1 -> 64 across the three substrates
// that back the service (fig4 CAS-backed, fig7 bounded-tag, figbw
// constant-time LL/SC).
//
// The claim under test: the seqlock broadcast ring makes fan-out free for
// the writer. Publishing is one slot write + two stamp writes per commit
// regardless of subscriber count, and readers never write shared memory,
// so publish throughput should stay flat (within ~1.5x, scheduling noise)
// from 1 to 64 subscribers while per-subscriber delivery degrades
// gracefully into overrun/resync territory as pollers fall behind.
//
// Sections:
//   * micro: single-thread ring publish and read (the raw primitive cost
//     with no service pipeline around it).
//   * fan-out table per substrate: a closed-loop writer upserts
//     timestamped values through the full service pipeline while S direct
//     subscribers (shard filter, wait-free read path, see
//     KvService::feed()) poll concurrently. Reports writer ns/op,
//     notification latency p50/p99 (publish-to-delivery, timestamps ride
//     in the values), deliveries per publish, and overrun/resync rates.
//   * coherence: every subscriber checks masked versions are monotone per
//     key on every delivered record; the total violation count is exported
//     as the `feed_version_violations` metric and must be zero
//     (tools/check_bench_json.py fails the smoke run otherwise).
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/bounded_llsc.hpp"
#include "core/bw_llsc.hpp"
#include "core/llsc_traits.hpp"
#include "feed/feed.hpp"
#include "reclaim/epoch.hpp"
#include "svc/service.hpp"
#include "util/histogram.hpp"

namespace {

using moir::svc::Op;
using moir::svc::Status;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void BM_RingPublish(benchmark::State& state) {
  moir::feed::BroadcastRing<64> ring;
  std::uint64_t i = 0;
  for (auto _ : state) {
    ++i;
    benchmark::DoNotOptimize(ring.publish(i & 7, i));
  }
}
BENCHMARK(BM_RingPublish);

void BM_RingRead(benchmark::State& state) {
  moir::feed::BroadcastRing<64> ring;
  for (std::uint64_t i = 0; i < 64; ++i) ring.publish(i & 7, i + 1);
  std::uint64_t cursor = 0;
  moir::feed::Record rec;
  for (auto _ : state) {
    // Stay one lap behind the head so every read validates and succeeds.
    if (cursor == ring.published()) cursor = 0;
    benchmark::DoNotOptimize(ring.read(cursor, rec));
    ++cursor;
  }
}
BENCHMARK(BM_RingRead);

constexpr unsigned kQueues = 2;
constexpr std::uint64_t kKeys = 64;

template <class Svc>
typename Svc::Config feed_bench_config() {
  typename Svc::Config cfg;
  cfg.queues = kQueues;
  cfg.queue_capacity = 1024;
  cfg.workers = 2;
  cfg.max_sessions = 2;
  cfg.tickets_per_session = 16;
  cfg.feed = true;
  cfg.feed_max_subscribers = 72;
  cfg.map = {.shards = kQueues, .buckets_per_shard = 64,
             .capacity_per_shard = 1024};
  return cfg;
}

// What one polling subscriber accumulates over a run. Subscribers are
// wait-free ring readers; the version check is the bench's coherence
// oracle (FeedChecker's property 2, cheap enough for the hot loop).
struct SubscriberTally {
  moir::Histogram latency_ns;
  std::uint64_t delivered = 0;
  std::uint64_t violations = 0;
};

// One fan-out point: S direct shard subscribers polling while a single
// closed-loop writer drives upserts through the service. Returns the
// total version violations observed (accumulated into the global metric).
template <class Svc>
std::uint64_t fanout_run(moir::bench::Harness& h, const std::string& sub_name,
                         Svc& svc, unsigned fanout, std::uint64_t ops,
                         moir::Table& t) {
  std::atomic<bool> stop{false};
  std::vector<SubscriberTally> tallies(fanout);
  std::vector<std::thread> subs;
  subs.reserve(fanout);
  auto& feed = svc.feed();
  for (unsigned s = 0; s < fanout; ++s) {
    // Subscribe on this thread (before any publish) so every subscriber's
    // cursor starts at sequence 0 and sees the whole run.
    const unsigned shard = s % kQueues;
    const auto token = feed.subscribe(moir::feed::Filter::kShard, shard);
    MOIR_ASSERT(token.has_value());
    subs.emplace_back([&, s, token] {
      SubscriberTally& tally = tallies[s];
      std::map<std::uint64_t, std::uint64_t> last_ver;
      moir::feed::Record buf[32];
      const auto no_resync = [](std::uint64_t) { return std::uint64_t{0}; };
      for (;;) {
        const auto res = feed.poll(*token, buf, 32, no_resync).value();
        for (unsigned i = 0; i < res.delivered; ++i) {
          const moir::feed::Record& r = buf[i];
          const std::uint64_t ver = r.version & ~moir::feed::kResyncBit;
          if (const auto it = last_ver.find(r.key);
              it != last_ver.end() && ver < it->second) {
            ++tally.violations;
          }
          last_ver[r.key] = ver;
          ++tally.delivered;
          if (r.value != 0 && (r.version & moir::feed::kResyncBit) == 0) {
            const std::uint64_t sent = r.value - 1;  // wire form: v+1
            const std::uint64_t now = now_ns();
            tally.latency_ns.record(now > sent ? now - sent : 0);
          }
        }
        if (res.delivered == 0) {
          if (stop.load(std::memory_order_acquire)) break;
          // Sleep, don't spin — and scale the interval with fan-out so
          // the AGGREGATE poll/wakeup rate stays constant across sweep
          // points. S busy (or fixed-interval) pollers would contend with
          // the writer for cores and the sweep would measure the
          // scheduler, not the ring; coarser per-subscriber polling at
          // high fan-out is also how real watcher deployments batch.
          // Laggards pay in overruns/resyncs and delivery latency — those
          // are the columns that show the trade-off.
          std::this_thread::sleep_for(std::chrono::microseconds(250 * fanout));
        }
      }
      feed.unsubscribe(*token);
    });
  }

  auto session = svc.connect();
  const auto& r = h.run_ops(
      sub_name + "_publish/s" + std::to_string(fanout), 1, ops,
      [&](std::size_t, std::uint64_t i) {
        const std::uint64_t key = i % kKeys;
        for (;;) {
          const auto tk = svc.submit(session, Op::kUpsert, key, now_ns());
          if (!tk.has_value()) continue;  // ticket window full; retry
          if (svc.wait(session, *tk).status != Status::kOverload) break;
        }
      });
  stop.store(true, std::memory_order_release);
  for (auto& th : subs) th.join();

  moir::Histogram lat;
  std::uint64_t delivered = 0;
  std::uint64_t violations = 0;
  for (const SubscriberTally& tally : tallies) {
    lat.merge(tally.latency_ns);
    delivered += tally.delivered;
    violations += tally.violations;
  }
  const auto ctr = [&](moir::stats::Id id) {
    return static_cast<double>(r.counters[id]);
  };
  const double publishes = ctr(moir::stats::Id::kFeedPublish);
  t.row({moir::Table::num(fanout), moir::Table::num(r.ns_op(), 1),
         moir::Table::num(lat.percentile(0.50) / 1e3, 1),
         moir::Table::num(lat.percentile(0.99) / 1e3, 1),
         moir::Table::num(
             publishes == 0 ? 0.0 : static_cast<double>(delivered) / publishes,
             2),
         moir::Table::num(
             publishes == 0 ? 0.0 : ctr(moir::stats::Id::kFeedOverrun) /
                                        publishes,
             3),
         moir::Table::num(
             publishes == 0 ? 0.0 : ctr(moir::stats::Id::kFeedResync) /
                                        publishes,
             3)});
  if (violations != 0) {
    h.printf("!! %s fanout %u: %llu version violations\n", sub_name.c_str(),
             fanout, static_cast<unsigned long long>(violations));
  }
  return violations;
}

// MakeSub builds a FRESH substrate per fan-out point: process slots are
// leased per ThreadCtx and never returned, so one substrate cannot back
// four service lifetimes in a row.
template <class MakeSub>
std::uint64_t fanout_table(moir::bench::Harness& h, const std::string& name,
                           MakeSub make_sub) {
  using Sub = decltype(make_sub());
  // Feed ring sized for interval pollers: subscribers wake every
  // 250us * S and drain in batches, so the ring must hold an interval's
  // worth of publishes (~interval / writer ns_op). 1024 rides out the
  // 4ms interval at S=16; at S=64 the writer laps the 16ms sleepers and
  // the overrun/resync columns show the lossy fallback.
  using Svc =
      moir::svc::KvService<Sub, moir::reclaim::EpochReclaimer, 64, 1024>;
  const std::uint64_t kOps = moir::bench::scaled(20000);
  moir::Table t("E17 " + name +
                ": closed-loop writer vs fan-out (latency in us; rates per "
                "publish)");
  t.columns({"subs", "writer_ns_op", "p50_us", "p99_us", "deliver/pub",
             "overrun/pub", "resync/pub"});
  std::uint64_t violations = 0;
  for (unsigned fanout : {1u, 4u, 16u, 64u}) {
    Sub sub = make_sub();
    Svc svc(sub, feed_bench_config<Svc>());
    violations += fanout_run(h, name, svc, fanout, kOps, t);
    svc.stop();
  }
  h.table(t);
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  moir::bench::Harness h(argc, argv, "bench_feed");
  h.header(
      "E17: change-feed fan-out — publish cost, notification latency, "
      "overrun behavior",
      "the seqlock broadcast ring gives subscribers a write-free read "
      "path, so writer throughput should not move with fan-out; laggards "
      "pay in overruns/resyncs, not in writer stalls");
  if (h.micro()) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }

  std::uint64_t violations = 0;
  violations +=
      fanout_table(h, "fig4", [] { return moir::CasBackedLlsc<16>(); });
  // Pid budget for the tag substrates: worker and manual-pumper map ctxs
  // per service lifetime, never returned — sized with slack for one
  // service each.
  violations +=
      fanout_table(h, "fig7", [] { return moir::BoundedLlsc<>(32, /*k=*/3); });
  violations +=
      fanout_table(h, "figbw", [] { return moir::BwLlsc<>(32, /*k=*/3); });

  // The coherence gate: check_bench_json.py fails the smoke run when this
  // metric is present and nonzero.
  h.metric("feed_version_violations", static_cast<double>(violations));
  h.printf("\ncoherence: %llu per-key version violations across all runs\n",
           static_cast<unsigned long long>(violations));
  return h.finish();
}
