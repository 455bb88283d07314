// KvService: the wait-free request pipeline over the sharded map.
//
//   client --(SPSC ring,  --> routing --(SPSC lane,   --> lane-claim holder
//            1 per session)             1 per shard)
//
//   routing: a role the workers claim in    workers try-claim a lane, pop
//   turn, not a thread of its own (see      batches of <= B, execute on the
//   serve()); the holder is every ring's    ShardedHashMap, publish seqlock
//   one consumer and every lane's one       responses the clients poll
//   producer
//
// End-to-end progress argument (docs/SERVICE.md has the long form): no
// stage ever waits for another stage inside an operation. Admission either
// takes a free ticket or returns EBUSY (shed) immediately; ring push either
// succeeds or sheds; routing either pushes into the lane or completes the
// ticket with kOverload; ring and lane steps are wait-free Lamport pushes
// and pops, and map operations are lock-free through the paper's LL/SC;
// response publication is a single release store. The only waiting in the
// subsystem is *voluntary* (wait() spinning on a ticket the caller chose
// to block on, idle workers between passes), through the futex-free
// SpinWait. Claims are try-claims, so no worker waits for one; but a
// preempted claim holder delays what its claim covers: the routing-claim
// holder delays routing, and a lane-claim holder delays that lane's
// requests, no other lane's.
//
// Sessions reuse the LeaseRegistry slot discipline: connect() leases a
// dense session id whose preallocated SessionState (ticket slots + ring)
// is recycled across connects; ticket-slot generations are monotonic per
// slot across reuse, so a stale done word can never match a fresh ticket.
//
// Shutdown contract: stop() flips draining (subsequent submits shed), and
// the workers drain rings before lanes: a worker exits only after a pass
// that held the routing claim, routed nothing and found every lane empty. Every ALREADY-SUBMITTED ticket thus completes
// (counted as svc_drain) before stop() joins. Callers must stop submitting
// before calling stop() concurrently with in-flight submits — the
// graceful-drain guarantee covers requests, not racing admission calls.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "core/lease_registry.hpp"
#include "core/llsc_traits.hpp"
#include "feed/feed.hpp"
#include "map/sharded_map.hpp"
#include "platform/yield_point.hpp"
#include "reclaim/reclaimer.hpp"
#include "stats/stats.hpp"
#include "svc/spsc_ring.hpp"
#include "svc/ticket.hpp"
#include "txn/txn_kv.hpp"
#include "util/assertion.hpp"
#include "util/stopwatch.hpp"

namespace moir::svc {

// RingCap: per-session SPSC ring capacity (a power of two).
// FeedRingCap: per-shard broadcast-ring capacity in feed mode (tiny in the
// adversarial exploration tests, 64 for real deployments).
// SkipLaneClaim is a PLANTED BUG for the verifier: pump() pops and executes
// a lane without its claim, so two pumpers can both be the lane's consumer
// and pop one handle twice. Only the negative-control tests instantiate it.
template <SmallLlscSubstrate S, reclaim::Reclaimer R,
          std::uint32_t RingCap = 64, std::uint32_t FeedRingCap = 64,
          bool SkipLaneClaim = false>
class KvService {
 public:
  using Map = ShardedHashMap<S, R>;
  using Txn = txn::TxnKv<S, R>;
  using Feed = feed::ChangeFeed<FeedRingCap>;

  static_assert(kMaxTxnKeys == Txn::kMaxTxnKeys,
                "ticket slot arrays must fit a full transaction");

  struct Config {
    unsigned queues = 4;                 // shards, one lane each
    std::uint32_t queue_capacity = 1024; // slots per lane, a power of two
    unsigned workers = 2;                // floor; 0 = manual pump (tests)
    // Elastic pool ceiling: 0 (default) pins the pool at `workers`; > 0
    // lets the pool grow itself up to this many workers under load and
    // shrink back to the floor when idle (see worker_main / SERVICE.md).
    unsigned max_workers = 0;
    // A worker that drains this many CONSECUTIVE full batches concludes
    // the offered load exceeds the pool's capacity and spawns a peer.
    unsigned grow_streak = 4;
    // A worker above the floor that sees this many consecutive empty pump
    // passes retires. Large by design: retiring is cheap to get wrong in
    // neither direction, but thrashing join/leave on a bursty load is
    // pure overhead.
    unsigned shrink_idle = 4096;
    unsigned batch = 16;                 // B: max requests per executor pop
    unsigned max_sessions = 8;           // concurrent clients
    std::uint32_t tickets_per_session = 64;  // in-flight window W
    // Transaction mode: values live in the txn layer's per-node Mcas
    // cells (insert-only map discipline) and the kMulti* ops are
    // accepted. Single-key semantics are unchanged; off (the default)
    // keeps the plain map path and completes multi-key requests kOverload.
    bool txn = false;
    // Change-feed mode: every committed write is broadcast on the key's
    // shard ring and the kSubscribe/kUnsubscribe/kPoll verbs are accepted
    // (src/feed/feed.hpp). Each lane's claim serializes its shard's
    // execution, so the shard's broadcast ring has a single writer (see
    // pump()). Mutually exclusive with txn mode, whose
    // authoritative values live in Mcas cells the plain commit path never
    // sees.
    bool feed = false;
    // Subscription-lease ceiling; a kSubscribe past it completes with
    // kOverload (shedding, never blocking).
    unsigned feed_max_subscribers = 8;
    typename Map::Config map{};
  };

  struct Ticket {
    std::uint32_t slot = 0;
    std::uint64_t gen = 0;
  };

  // Move-only session handle; destruction disconnects. One per client
  // thread — submit/poll on a ClientCtx are single-threaded. A handle that
  // holds no session (connect() was refused, or it was moved from) sheds
  // every submit, and its polls complete nothing.
  class ClientCtx {
   public:
    ClientCtx(ClientCtx&& o) noexcept : svc_(o.svc_), sid_(o.sid_) {
      o.svc_ = nullptr;
    }
    ClientCtx& operator=(ClientCtx&& o) noexcept {
      if (this != &o) {
        release();
        svc_ = o.svc_;
        sid_ = o.sid_;
        o.svc_ = nullptr;
      }
      return *this;
    }
    ClientCtx(const ClientCtx&) = delete;
    ClientCtx& operator=(const ClientCtx&) = delete;
    ~ClientCtx() { release(); }

    unsigned session() const { return sid_; }
    bool connected() const { return svc_ != nullptr; }

   private:
    friend class KvService;
    ClientCtx(KvService* svc, unsigned sid) : svc_(svc), sid_(sid) {}
    void release() {
      if (svc_ != nullptr) svc_->disconnect(sid_);
      svc_ = nullptr;
    }

    KvService* svc_ = nullptr;
    unsigned sid_ = 0;
  };

  // Executor-side contexts; one per worker (or per manual pumper).
  struct WorkerCtx {
    std::vector<std::uint64_t> buf;  // batch buffer, cfg.batch entries
    unsigned rotor = 0;              // round-robin start shard
    // The store's context, one map context either way: the map's own, or
    // in txn mode the txn store's (which embeds the worker's map context).
    std::optional<typename Map::ThreadCtx> mctx;
    std::unique_ptr<typename Txn::ThreadCtx> tctx;
  };

  // The observer serve/pump/pump_session/pump_router run when given none.
  struct NoObserver {
    void operator()(std::uint64_t, const Response&) const {}
  };

  // Routing holds no per-thread state: the rings' consumer fields and the
  // lanes' producer fields pass from router to router with the routing
  // claim. RouterCtx is the empty token manual routers pass to
  // pump_router/pump_session.
  struct RouterCtx {};

  struct Pass {  // what one serve() pass did
    bool routing = false;   // held the routing claim
    unsigned routed = 0;    // ring entries moved while holding it
    unsigned executed = 0;  // requests the lane pump completed
  };

  explicit KvService(S& substrate, Config cfg = {})
      : cfg_(cfg),
        worker_ceiling_(std::max(cfg.workers, cfg.max_workers)),
        // Concurrent ThreadCtx holders across the map reclaimer and the txn
        // store's STM: one per worker at the elastic ceiling, and two of
        // slack for manual pumpers or a preloader. Sessions and routers
        // hold none. The ceiling term is doubled: a retiring worker still
        // holds its ctx while its replacement may already be spinning up.
        // Every txn ctx also holds a map ctx, so STM pids cannot run out
        // before the map reclaimer's ids do.
        max_threads_(2 * worker_ceiling_ + 2),
        map_(substrate, max_threads_, cfg.map),
        session_reg_(cfg.max_sessions),
        worker_reg_(2 * worker_ceiling_ + 2) {
    MOIR_ASSERT(cfg_.batch >= 1 && cfg_.queues >= 1);
    MOIR_ASSERT(cfg_.tickets_per_session >= 1 && cfg_.max_sessions >= 1);
    MOIR_ASSERT(cfg_.grow_streak >= 1 && cfg_.shrink_idle >= 1);
    MOIR_ASSERT_MSG(!(cfg_.feed && cfg_.txn),
                    "feed mode broadcasts plain-map commits; txn values "
                    "live in Mcas cells the feed hook cannot see");
    if (cfg_.txn) txn_ = std::make_unique<Txn>(map_, max_threads_);
    if (cfg_.feed) {
      feed_ = std::make_unique<Feed>(cfg_.queues, cfg_.feed_max_subscribers);
    }
    lanes_.reserve(cfg_.queues);
    for (unsigned q = 0; q < cfg_.queues; ++q) {
      lanes_.push_back(std::make_unique<Lane>(cfg_.queue_capacity));
    }
    sessions_.reserve(cfg_.max_sessions);
    for (unsigned i = 0; i < cfg_.max_sessions; ++i) {
      sessions_.push_back(std::make_unique<SessionState>(cfg_));
    }
    if (cfg_.workers > 0) {
      std::lock_guard<std::mutex> g(pool_mu_);
      threads_.reserve(worker_ceiling_);
      for (unsigned w = 0; w < cfg_.workers; ++w) {
        ++live_workers_;
        threads_.emplace_back([this] { worker_main(); });
      }
    }
  }

  ~KvService() { stop(); }

  KvService(const KvService&) = delete;
  KvService& operator=(const KvService&) = delete;

  const Config& config() const { return cfg_; }

  // ----- Client API --------------------------------------------------------

  // Leases a session, or returns a handle that holds none (connected() is
  // false) when max_sessions clients are already connected.
  ClientCtx connect() {
    const std::optional<unsigned> lease = session_reg_.try_acquire();
    if (!lease) return ClientCtx(nullptr, 0);
    const unsigned sid = *lease;
    SessionState& ss = *sessions_[sid];
    ss.free.clear();
    for (std::uint32_t i = cfg_.tickets_per_session; i > 0; --i) {
      ss.free.push_back(i - 1);
    }
    ss.live.store(true, std::memory_order_release);
    return ClientCtx(this, sid);
  }

  // Admission + enqueue. Returns the ticket to poll, or nullopt (EBUSY)
  // when the request is shed: the handle holds no session, service
  // draining, the per-session in-flight window is exhausted, or the
  // session ring is full. Never blocks.
  std::optional<Ticket> submit(ClientCtx& c, Op op, std::uint64_t key,
                               std::uint64_t value = 0) {
    return admit(c, op, key, value, {}, {}, {});
  }

  // Multi-key admission (txn mode). `keys` are the transaction's distinct
  // keys in user order; `values` are plain values for kMultiPut and
  // WIRE-FORM desired words for kMultiCas (0 = erase, v+1 = v);
  // `expected` is the wire-form comparison vector for kMultiCas. Same
  // shed discipline as submit(): the whole transaction is admitted or
  // refused atomically — a shed here (or a kOverload later) means NO key
  // was touched, so a shed can never strand a partial transaction. A key
  // set the executor cannot run (empty, over kMaxTxnKeys, or a span whose
  // length is not what the op reads) is admitted and completes kInvalid.
  std::optional<Ticket> submit_multi(
      ClientCtx& c, Op op, std::span<const std::uint64_t> keys,
      std::span<const std::uint64_t> values = {},
      std::span<const std::uint64_t> expected = {}) {
    // Routed by keys[0]; see pump_session.
    return admit(c, op, keys.empty() ? 0 : keys[0], 0, keys, values,
                 expected);
  }

  // Non-blocking completion check. Consumes the ticket on success: the
  // slot returns to the window and the Ticket must not be reused. A
  // multi-key request's per-key response vector (kMultiGet snapshot /
  // kMultiCas witness, wire form, user key order) is copied into
  // values_out, up to its size.
  std::optional<Response> poll(ClientCtx& c, const Ticket& t,
                               std::span<std::uint64_t> values_out = {}) {
    return take(c, t, [&](const TicketSlot& ts) {
      const std::size_t n =
          std::min<std::size_t>(ts.nkeys, values_out.size());
      std::copy_n(ts.resp_values, n, values_out.begin());
      return Response{ts.resp_status, ts.resp_value};
    });
  }

  // Voluntary blocking on one ticket: spin-then-yield until complete. Only
  // meaningful while workers (or a manual pumper on another thread) run.
  Response wait(ClientCtx& c, const Ticket& t,
                std::span<std::uint64_t> values_out = {}) {
    return spin([&] { return poll(c, t, values_out); });
  }

  // ----- Feed client API (feed mode; see src/feed/feed.hpp) ----------------
  //
  // Submit side reuses submit(): kSubscribe with (key, 0) / (shard, 1)
  // completes with the subscription token in resp_value; kUnsubscribe
  // with (token), kPoll with (token, max_records). poll_feed decodes a
  // kPoll completion.

  // Flag bits packed next to the record count in a kPoll resp_value.
  static constexpr std::uint64_t kPollOverrun = std::uint64_t{1} << 8;
  static constexpr std::uint64_t kPollResynced = std::uint64_t{1} << 9;

  struct FeedDelivery {
    Status status = Status::kOk;  // kOverload: feed off / subscriber limit
    unsigned delivered = 0;
    bool overrun = false;   // the writer lapped this subscription's cursor
    bool resynced = false;  // cursor re-based (key: resync record included)
  };

  // Non-blocking completion check for a kPoll ticket: copies up to `max`
  // delivered records into `out` and consumes the ticket. nullopt while
  // the request is still in flight. `delivered` reports only what was
  // copied: a `max` smaller than the kPoll's max_records truncates the
  // delivery, and the truncated records are gone (the executor already
  // advanced the cursor past them) — size `out` to the kPoll request.
  std::optional<FeedDelivery> poll_feed(ClientCtx& c, const Ticket& t,
                                        feed::Record* out, unsigned max) {
    return take(c, t, [&](const TicketSlot& ts) {
      FeedDelivery d;
      d.status = ts.resp_status;
      if (d.status == Status::kOk) {
        d.delivered =
            std::min(static_cast<unsigned>(ts.resp_value & 0xff), max);
        d.overrun = (ts.resp_value & kPollOverrun) != 0;
        d.resynced = (ts.resp_value & kPollResynced) != 0;
        for (unsigned i = 0; i < d.delivered; ++i) {
          out[i] = feed::Record{ts.keys[i], ts.args[i], ts.exps[i]};
        }
      }
      return d;
    });
  }

  FeedDelivery wait_feed(ClientCtx& c, const Ticket& t, feed::Record* out,
                         unsigned max) {
    return spin([&] { return poll_feed(c, t, out, max); });
  }

  // ----- Executor API (workers call these; tests/benches may pump
  // manually when cfg.workers == 0) ----------------------------------------

  WorkerCtx make_worker_ctx() {
    WorkerCtx w{std::vector<std::uint64_t>(cfg_.batch), 0, std::nullopt,
                nullptr};
    if (txn_) {
      w.tctx = std::make_unique<typename Txn::ThreadCtx>(txn_->make_ctx());
    } else {
      w.mctx.emplace(map_.make_ctx());
    }
    return w;
  }

  RouterCtx make_router_ctx() { return {}; }

  // Instrumentation: the slot behind a handle. Race-free only where the
  // completion handshake already orders the reads — inside a pump
  // observer (after execution, before publication), where test harnesses
  // read the multi-key response vector at completion time.
  const TicketSlot& peek_slot(std::uint64_t handle) const {
    return sessions_[handle_session(handle)]->slots[handle_slot(handle)];
  }

  // One pass over the shard lanes. A lane is popped and executed only
  // while its TRY-claim is held, so a shard runs on one worker at a time:
  // the lane keeps one consumer, as an SPSC ring requires, and in feed mode
  // the shard's broadcast ring keeps one writer. A worker that loses a
  // claim moves on to the next lane (the holder is executing the very
  // batch the loser wanted, so system-wide progress is unchanged; a parked
  // holder stalls only its own lane, as a parked routing-claim holder
  // stalls only routing). The release/acquire pair on the claim word hands
  // the lane's consumer-private head index and cached tail — and in feed
  // mode the ring's writer role and the subscription cursors, which ride
  // the same key-hashed routing — from one worker to the next.
  //
  // Pops up to B handles per lane, executes them against the store, and
  // publishes responses. Returns requests completed. `obs(handle,
  // response)` fires after the store operation and before the publication
  // — the test harness's completion timestamp hook.
  template <class Observer = NoObserver>
  unsigned pump(WorkerCtx& w, Observer&& obs = {}) {
    unsigned total = 0;
    const unsigned nq = cfg_.queues;
    for (unsigned i = 0; i < nq; ++i) {
      Lane& lane = *lanes_[(w.rotor + i) % nq];
      if (!SkipLaneClaim && !try_claim(lane.claim)) continue;
      unsigned k = 0;
      while (k < cfg_.batch && lane.ring.try_pop(w.buf[k])) ++k;
      if (k != 0) {
        stats::count(stats::Id::kSvcBatch);
        stats::record(stats::HistId::kSvcBatchSize, k);
        for (unsigned j = 0; j < k; ++j) {
          const std::uint64_t h = w.buf[j];
          TicketSlot& ts = sessions_[handle_session(h)]->slots[handle_slot(h)];
          complete(ts, execute(w, ts), h, obs);
        }
        total += k;
      }
      if (!SkipLaneClaim) release_claim(lane.claim);
    }
    w.rotor = (w.rotor + 1) % nq;
    return total;
  }

  // Route one session's ring into the shard lanes. The caller must be the
  // only router at the time: it is then the ring's one consumer and every
  // lane's one producer. serve()'s routing claim guarantees that, and its
  // release/acquire pair hands the ring's head and the lanes' tails (each
  // with its cached opposite index) to the next holder; one dedicated
  // router thread needs no claim. A full lane completes the ticket with
  // kOverload right here — shedding, not blocking, so a stalled executor
  // cannot wedge routing. At most one ring's capacity is moved per call.
  template <class Observer = NoObserver>
  unsigned pump_session(RouterCtx, unsigned sid, Observer&& obs = {}) {
    SessionState& ss = *sessions_[sid];
    unsigned moved = 0;
    for (std::uint32_t i = 0; i < RingCap; ++i) {
      std::uint64_t handle;
      if (!ss.ring.try_pop(handle)) break;
      TicketSlot& ts = ss.slots[handle_slot(handle)];
      if (!lanes_[shard_of(ts.key)]->ring.try_push(handle)) {
        stats::count(stats::Id::kSvcShed);
        complete(ts, Response{Status::kOverload, 0}, handle, obs);
      }
      ++moved;
    }
    return moved;
  }

  // One pass over all live session rings (the routing half of serve()).
  template <class Observer = NoObserver>
  unsigned pump_router(RouterCtx rc, Observer&& obs = {}) {
    unsigned moved = 0;
    for (unsigned sid = 0; sid < cfg_.max_sessions; ++sid) {
      if (!sessions_[sid]->live.load(std::memory_order_acquire)) continue;
      moved += pump_session(rc, sid, obs);
    }
    return moved;
  }

  // One worker pass (worker_main's loop body): try-claim routing and route
  // every live ring, then pump the lanes. A loser goes straight to pump().
  template <class Observer = NoObserver>
  Pass serve(WorkerCtx& w, Observer&& obs = {}) {
    Pass p;
    if (try_claim(routing_claim_)) {
      p.routing = true;
      p.routed = pump_router({}, obs);
      release_claim(routing_claim_);
    }
    p.executed = pump(w, obs);
    return p;
  }

  bool queues_empty() const {
    for (const auto& lane : lanes_) {
      if (!lane->ring.empty_approx()) return false;
    }
    return true;
  }

  // Direct map access for preload and post-run inspection AROUND measured
  // sections — not a bypass of the pipeline during one. In txn mode use
  // txn() for the same purposes (the map's node values are not the
  // authoritative store there).
  Map& map() { return map_; }
  typename Map::ThreadCtx make_map_ctx() { return map_.make_ctx(); }

  Txn& txn() {
    MOIR_ASSERT(cfg_.txn);
    return *txn_;
  }
  typename Txn::ThreadCtx make_txn_ctx() { return txn().make_ctx(); }

  // Feed-mode introspection and the direct-subscriber path: bench/example
  // threads may subscribe and poll the ChangeFeed in-process (each such
  // subscriber is its own single poller), bypassing the kPoll verb — the
  // ring read path is write-free, so out-of-band readers cost the
  // pipeline nothing.
  Feed& feed() {
    MOIR_ASSERT(cfg_.feed);
    return *feed_;
  }
  // The shard — lane, and in feed mode broadcast ring — a key belongs to:
  // the map's SplitMix64 route, so with equal counts a lane feeds exactly
  // one map shard.
  unsigned shard_of(std::uint64_t key) const {
    return static_cast<unsigned>((hash_mix64(key) >> 32) % cfg_.queues);
  }

  // ----- Shutdown ----------------------------------------------------------

  // Graceful drain: refuse new admissions, finish every submitted request,
  // stop the threads. Idempotent. See the shutdown contract above.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    draining_.store(true, std::memory_order_release);
    {
      // Barrier against in-flight growth: a spawn_worker() that slipped
      // past the flag emplaces under pool_mu_, so after this threads_ is
      // final (later spawns re-check draining_ under the lock and bail).
      std::lock_guard<std::mutex> g(pool_mu_);
    }
    for (auto& t : threads_) t.join();
    threads_.clear();
  }

  bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }

  // ----- Elastic pool introspection ---------------------------------------

  // Workers currently counted toward the pool (spawned and not retired).
  // Advisory under churn; exact at quiescence.
  unsigned live_workers() const {
    std::lock_guard<std::mutex> g(pool_mu_);
    return live_workers_;
  }
  unsigned worker_ceiling() const { return worker_ceiling_; }
  // join/leave lease bookkeeping for the elastic pool; high_water() bounds
  // how wide the pool ever got, active() how wide it is now.
  LeaseRegistry<true>& worker_registry() { return worker_reg_; }

 private:
  struct SessionState {
    explicit SessionState(const Config& cfg)
        : slots(std::make_unique<TicketSlot[]>(cfg.tickets_per_session)),
          ring(RingCap) {
      free.reserve(cfg.tickets_per_session);
    }

    std::unique_ptr<TicketSlot[]> slots;
    SpscRing ring;
    std::vector<std::uint32_t> free;  // client-thread-private ticket stack
    std::atomic<bool> live{false};
  };

  // One shard's lane. The claim sits on its own line: pumpers exchange it
  // every pass, while the router only reads the ring's slot pointer.
  struct Lane {
    explicit Lane(std::uint32_t capacity) : ring(capacity) {}
    alignas(kCacheLine) std::atomic<bool> claim{false};
    SpscRing ring;
  };

  void disconnect(unsigned sid) {
    SessionState& ss = *sessions_[sid];
    MOIR_ASSERT_MSG(ss.free.size() == cfg_.tickets_per_session,
                    "disconnect with in-flight or unconsumed tickets");
    ss.live.store(false, std::memory_order_release);
    session_reg_.release(sid);
  }

  // The one admission path: writes the whole payload — the key count too,
  // so a reused slot never carries its previous tenant's key set; a key
  // set the executor cannot run is stored as none (nkeys = 0, which a
  // kMulti* completes as kInvalid) — then pushes the handle into the
  // session's ring.
  std::optional<Ticket> admit(ClientCtx& c, Op op, std::uint64_t key,
                              std::uint64_t value,
                              std::span<const std::uint64_t> keys,
                              std::span<const std::uint64_t> values,
                              std::span<const std::uint64_t> expected) {
    if (!c.connected() || draining_.load(std::memory_order_acquire) ||
        sessions_[c.sid_]->free.empty()) {
      stats::count(stats::Id::kSvcShed);
      return std::nullopt;
    }
    SessionState& ss = *sessions_[c.sid_];
    const std::uint32_t slot = ss.free.back();
    TicketSlot& ts = ss.slots[slot];
    ts.key = key;
    ts.value = value;
    ts.op = op;
    const std::size_t n = keys.size();
    const bool runnable =
        n >= 1 && n <= kMaxTxnKeys &&
        values.size() == (op == Op::kMultiGet ? 0 : n) &&
        expected.size() == (op == Op::kMultiCas ? n : 0);
    ts.nkeys = runnable ? static_cast<std::uint8_t>(n) : 0;
    for (std::uint8_t i = 0; i < ts.nkeys; ++i) {
      ts.keys[i] = keys[i];
      ts.args[i] = i < values.size() ? values[i] : 0;
      ts.exps[i] = i < expected.size() ? expected[i] : 0;
    }
    ts.gen += 1;
    ts.submit_ns = stats::counting_enabled() ? clock_.elapsed_ns() : 0;
    const std::uint64_t handle = make_handle(c.sid_, slot);
    if (!ss.ring.try_push(handle)) {
      // The slot was never published; the gen bump is harmless and the
      // ticket stays free.
      stats::count(stats::Id::kSvcShed);
      return std::nullopt;
    }
    ss.free.pop_back();
    stats::count(stats::Id::kSvcEnqueue);
    return Ticket{slot, ts.gen};
  }

  // The one ticket-take behind poll and poll_feed: nullopt while the
  // request is in flight, or if the handle holds no session; once done ==
  // gen, `read` copies the response out and the slot returns to the window.
  template <class Read>
  auto take(ClientCtx& c, const Ticket& t, Read&& read)
      -> std::optional<decltype(read(std::declval<const TicketSlot&>()))> {
    if (!c.connected()) return std::nullopt;
    SessionState& ss = *sessions_[c.sid_];
    const TicketSlot& ts = ss.slots[t.slot];
    MOIR_YIELD_READ(&ts.done);
    if (ts.done.load(std::memory_order_acquire) != t.gen) {
      return std::nullopt;
    }
    auto out = read(ts);
    ss.free.push_back(t.slot);
    return out;
  }

  // wait/wait_feed: spin-then-yield on a poll until it completes.
  template <class Poll>
  static auto spin(Poll&& poll) {
    SpinWait sw;
    for (;;) {
      if (auto r = poll()) return *r;
      sw.pause();
    }
  }

  // Map a store's write outcome onto the wire Status. kNoSpace (node pool
  // exhausted before anything was written) is an EBUSY-class outcome: the
  // request completed WITH an error and had no effect, same contract as a
  // shed at routing. kInvalid also had no effect, but retrying the same
  // payload cannot succeed.
  static Status to_status(WriteStatus s) {
    switch (s) {
      case WriteStatus::kOk:
        return Status::kOk;
      case WriteStatus::kMiss:
        return Status::kNotFound;
      case WriteStatus::kNoSpace:
        return Status::kOverload;
      case WriteStatus::kInvalid:
        return Status::kInvalid;
    }
    return Status::kOverload;
  }

  // One switch over Op for both stores. In txn mode the single-key verbs
  // keep their map semantics but run through the txn layer (its cells are
  // the authoritative store), and the multi-key ops are the atomic
  // transactions; both stores report writes as a WriteStatus.
  //
  // Feed verbs run executor-side, which keeps the admission path free of
  // registration: a shed request (EBUSY at submit) provably never touched
  // a subscription lease. kSubscribe routes by the watched key, kPoll and
  // kUnsubscribe by the subscription token — constant per subscription, so
  // all polls of one subscription land on one lane and its claim
  // serializes its cursor (and every verb that could free or reuse this
  // subscription's slot). The executor does NOT trust a client-supplied
  // token: the ChangeFeed refuses one that is not live (never issued,
  // stale, or double-freed), and the request completes kNotFound. Forced
  // inline into pump(): out of line it cost ~5% of txn_bank throughput.
  [[gnu::always_inline]] Response execute(WorkerCtx& w, TicketSlot& ts) {
    // A verb whose mode is off (multi-key ops without Config::txn, feed
    // verbs without Config::feed) completes kOverload with no effect.
    Response r{Status::kOverload, 0};
    // Wire form of a committed single-key write (0 = erased, v+1 = v).
    std::optional<std::uint64_t> committed;
    switch (ts.op) {
      case Op::kFind: {
        const auto v = txn_ ? txn_->get(*w.tctx, ts.key)
                            : map_.find(*w.mctx, ts.key);
        r.status = v ? Status::kOk : Status::kNotFound;
        r.value = v.value_or(0);
        break;
      }
      case Op::kInsert:
      case Op::kUpsert: {
        const bool upsert = ts.op == Op::kUpsert;
        const WriteStatus s =
            !txn_    ? map_.write(*w.mctx, ts.key, ts.value, upsert)
            : upsert ? txn_->upsert(*w.tctx, ts.key, ts.value)
                     : txn_->insert(*w.tctx, ts.key, ts.value);
        r.status = to_status(s);
        // Inserted, or (upsert) updated in place: a write committed.
        if (s == WriteStatus::kOk || (upsert && s == WriteStatus::kMiss)) {
          committed = ts.value + 1;
        }
        break;
      }
      case Op::kErase: {
        const bool erased = txn_ ? txn_->erase(*w.tctx, ts.key)
                                 : map_.erase(*w.mctx, ts.key);
        r.status = erased ? Status::kOk : Status::kNotFound;
        if (erased) committed = 0;
        break;
      }
      case Op::kMultiGet:
      case Op::kMultiPut:
      case Op::kMultiCas: {
        if (!txn_) break;
        if (ts.nkeys == 0) {
          r.status = Status::kInvalid;  // no runnable key set (see admit)
          break;
        }
        const std::span keys(ts.keys, ts.nkeys);
        const std::span args(ts.args, ts.nkeys);
        const std::span out(ts.resp_values, ts.nkeys);
        if (ts.op == Op::kMultiGet) {
          txn_->multi_get(*w.tctx, keys, out);
          r.status = Status::kOk;
        } else if (ts.op == Op::kMultiPut) {
          r.status = to_status(txn_->multi_put(*w.tctx, keys, args));
        } else {
          r.status = to_status(txn_->multi_cas(
              *w.tctx, keys, std::span(ts.exps, ts.nkeys), args, out));
        }
        break;
      }
      case Op::kSubscribe: {
        if (!feed_) break;
        const bool shard_filter = ts.value != 0;
        const unsigned shard =
            shard_filter ? static_cast<unsigned>(ts.key % cfg_.queues)
                         : shard_of(ts.key);
        const auto token =
            shard_filter ? feed_->subscribe(feed::Filter::kShard, shard)
                         : feed_->subscribe(feed::Filter::kKey, shard, ts.key);
        if (token) r = {Status::kOk, *token};
        break;
      }
      case Op::kUnsubscribe:
        if (!feed_) break;
        r.status =
            feed_->unsubscribe(ts.key) ? Status::kOk : Status::kNotFound;
        break;
      case Op::kPoll: {
        if (!feed_) break;
        const unsigned max = static_cast<unsigned>(std::min<std::uint64_t>(
            ts.value == 0 ? kMaxTxnKeys : ts.value, kMaxTxnKeys));
        feed::Record recs[kMaxTxnKeys];
        const auto pr =
            feed_->poll(ts.key, recs, max, [&](std::uint64_t key) {
              const auto v = map_.find(*w.mctx, key);
              return v.has_value() ? *v + 1 : 0;
            });
        if (!pr) {
          r.status = Status::kNotFound;  // no such (live) subscription
          break;
        }
        // Reuse the multi-key arrays as the delivery vector; the client
        // reads them back through poll_feed after done==gen.
        for (unsigned i = 0; i < pr->delivered; ++i) {
          ts.keys[i] = recs[i].key;
          ts.args[i] = recs[i].value;
          ts.exps[i] = recs[i].version;
        }
        r.status = Status::kOk;
        r.value = pr->delivered | (pr->overrun ? kPollOverrun : 0) |
                  (pr->resynced ? kPollResynced : 0);
        break;
      }
    }
    // Broadcast a committed write on its shard's ring (feed mode only).
    // Published after the store operation and before the response, from
    // inside the lane claim: the ring's single-writer requirement is
    // exactly "one claim holder per lane", and lane == feed shard (both are
    // shard_of(key)), so every write to a key lands on one ring in its
    // commit order.
    if (committed && feed_) {
      feed_->publish(shard_of(ts.key), ts.key, *committed);
    }
    return r;
  }

  template <class Observer>
  void complete(TicketSlot& ts, const Response& r, std::uint64_t handle,
                Observer&& obs) {
    ts.resp_value = r.value;
    ts.resp_status = r.status;
    if (ts.submit_ns != 0 && stats::counting_enabled()) {
      stats::record(stats::HistId::kSvcLatency,
                    clock_.elapsed_ns() - ts.submit_ns);
    }
    if (draining_.load(std::memory_order_relaxed)) {
      stats::count(stats::Id::kSvcDrain);
    }
    // The observer runs before the publication: once done==gen the client
    // may consume and resubmit the slot, so nothing reads ts afterwards.
    obs(handle, r);
    MOIR_YIELD_WRITE(&ts.done);
    ts.done.store(ts.gen, std::memory_order_release);
  }

  // Elastic worker loop. Each worker leases a membership id for its whole
  // life (reg_join/reg_leave counters make churn observable) and scales
  // the pool from inside: a sustained run of FULL batches means requests
  // are arriving at least as fast as this worker drains them, so it
  // spawns a peer (up to the ceiling); a long run of empty passes on a
  // worker above the floor means the pool is overprovisioned, so it
  // retires. Decisions are local — no coordinator thread — and the floor
  // workers never retire, so the drain guarantee of stop() is unchanged.
  void worker_main() {
    const unsigned wid = worker_reg_.acquire();
    {
      WorkerCtx w = make_worker_ctx();
      SpinWait sw;
      unsigned full_streak = 0;
      std::uint64_t idle_streak = 0;
      for (;;) {
        // Read first: an idle pass begun after draining is final.
        const bool draining = draining_.load(std::memory_order_acquire);
        const Pass p = serve(w);
        if (p.routed + p.executed > 0) {
          sw.reset();
          idle_streak = 0;
          full_streak = p.executed >= cfg_.batch ? full_streak + 1 : 0;
          if (full_streak >= cfg_.grow_streak) {
            full_streak = 0;
            spawn_worker();
          }
          continue;
        }
        full_streak = 0;
        // Only a pass that held the routing claim saw every ring.
        if (draining && p.routing && queues_empty()) {
          std::lock_guard<std::mutex> g(pool_mu_);
          --live_workers_;
          break;
        }
        if (++idle_streak >= cfg_.shrink_idle && try_retire()) break;
        sw.pause();
      }
    }
    worker_reg_.release(wid);
  }

  // Adds a worker if the pool is below the ceiling and not stopping. The
  // re-check of draining_ under pool_mu_ pairs with the lock barrier
  // in stop(): either the spawn lands in threads_ before stop() walks it,
  // or it is refused here. Retired workers are joined and dropped first,
  // so a churning pool holds at most one exited thread per retirement
  // since the last spawn. The join cannot deadlock: a retiree never takes
  // pool_mu_ after try_retire().
  void spawn_worker() {
    if (worker_ceiling_ <= cfg_.workers) return;  // pool is fixed-size
    std::lock_guard<std::mutex> g(pool_mu_);
    if (draining_.load(std::memory_order_acquire)) return;
    if (live_workers_ >= worker_ceiling_) return;
    for (const std::thread::id id : retired_) {
      const auto t = std::find_if(threads_.begin(), threads_.end(),
                                  [id](const std::thread& th) {
                                    return th.get_id() == id;
                                  });
      MOIR_ASSERT(t != threads_.end());
      t->join();
      threads_.erase(t);
    }
    retired_.clear();
    ++live_workers_;
    threads_.emplace_back([this] { worker_main(); });
  }

  // A worker above the floor may leave; the floor stays to honor the
  // drain guarantee. The retiring thread is recorded for the next
  // spawn_worker() (or stop()) to join, and releases its reclaimer and
  // membership leases as it exits.
  bool try_retire() {
    if (worker_ceiling_ <= cfg_.workers) return false;  // pool is fixed-size
    std::lock_guard<std::mutex> g(pool_mu_);
    if (live_workers_ <= cfg_.workers) return false;
    if (draining_.load(std::memory_order_acquire)) return false;
    --live_workers_;
    retired_.push_back(std::this_thread::get_id());
    return true;
  }

  // Routing and lane try-claims: acquire on the winning exchange pairs
  // with release_claim()'s store, ordering the previous holder's writes
  // (ring and lane indices, feed publishes, cursors) before ours.
  static bool try_claim(std::atomic<bool>& claim) {
    MOIR_YIELD_UPDATE(&claim);
    return !claim.exchange(true, std::memory_order_acquire);
  }

  static void release_claim(std::atomic<bool>& claim) {
    MOIR_YIELD_WRITE(&claim);
    claim.store(false, std::memory_order_release);
  }

  const Config cfg_;
  const unsigned worker_ceiling_;
  const unsigned max_threads_;
  Stopwatch clock_;  // latency origin for the svc_latency histogram
  // Declaration order is destruction-critical: every ThreadCtx (worker
  // ctxs die at thread exit, before the joins in stop()) before map_.
  Map map_;
  // Txn mode only. Declared after map_ (hence destroyed first): the txn
  // store holds Map& plus its cells; per-worker ctxs die with the worker
  // threads.
  std::unique_ptr<Txn> txn_;
  // Feed mode only (null otherwise).
  std::unique_ptr<Feed> feed_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  LeaseRegistry<> session_reg_;
  // Membership leases for the elastic pool (2x ceiling: a retiree's lease
  // may overlap its replacement's), counted as reg_join/reg_leave.
  LeaseRegistry<true> worker_reg_;
  std::vector<std::unique_ptr<SessionState>> sessions_;
  // Guards live_workers_, threads_ and retired_ against stop(); workers
  // take it only on scaling decisions, never per request.
  mutable std::mutex pool_mu_;
  unsigned live_workers_ = 0;
  std::vector<std::thread> threads_;
  std::vector<std::thread::id> retired_;  // exited or exiting, not joined
  std::atomic<bool> draining_{false};
  // Every worker pass writes it; its own line keeps that traffic off
  // draining_, which every submit reads.
  alignas(kCacheLine) std::atomic<bool> routing_claim_{false};
  bool stopped_ = false;
};

}  // namespace moir::svc
