// Request/ticket types and the sharded MPMC dispatch stage.
//
// The dispatch queue is the paper's own machinery on the serving hot path:
// each shard queue is a ReclaimedMsQueue — the Michael–Scott queue spelled
// in LL/VL/SC over any SmallLlscSubstrate (Figure 4 CAS-backed, Figure 7
// bounded-tag, ...) with nodes recycled through a PR-3 Reclaimer. The
// queue carries only a 64-bit ticket HANDLE (session << 32 | slot); the
// request payload itself lives in the session's fixed TicketSlot array, so
// payload size never collides with the substrate's bounded value field
// (only node indices must fit ValBits; the payload word is unconstrained).
//
// Ticket completion is a seqlock-style generation handshake, not a lock:
// the executor writes the response fields with plain stores and then
// publishes done=gen with release; the client polls done==gen with acquire
// and only then reads the response. A slot is reused only after its owner
// consumed the response, so a slow executor from a previous generation can
// never be mid-write when the slot is resubmitted (the previous response
// must have been published AND consumed first), and the single done word
// is both the sequence and the ready flag.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/llsc_traits.hpp"
#include "map/sharded_map.hpp"  // hash_mix64
#include "nonblocking/ms_queue.hpp"
#include "platform/yield_point.hpp"
#include "reclaim/reclaimer.hpp"
#include "stats/stats.hpp"
#include "util/cache.hpp"

namespace moir::svc {

enum class Op : std::uint8_t {
  kFind,
  kInsert,
  kUpsert,
  kErase,
  // Multi-key transactions (txn mode only; see src/txn/txn_kv.hpp). The
  // keys/args/exps arrays of the TicketSlot carry the payload; responses
  // come back through resp_values in wire form (0 = absent, v+1 = v).
  kMultiGet,
  kMultiPut,
  kMultiCas,
  // Change-feed verbs (feed mode only; see src/feed/feed.hpp and the
  // service's execute). kSubscribe: key = watched key (value == 0) or
  // shard index (value == 1), resp_value = the subscription token.
  // kUnsubscribe: key = the token. kPoll: key = the token, value = max records
  // (<= kMaxTxnKeys); the executor returns delivered records through the
  // keys/args/exps arrays (key/value/version per record — safe to reuse
  // because the done==gen handshake means the client is not reading them)
  // and packs count + overrun/resync flags into resp_value.
  kSubscribe,
  kUnsubscribe,
  kPoll,
};

enum class Status : std::uint8_t {
  kOk,        // operation applied; value meaningful for kFind hits
  kNotFound,  // kFind/kErase on an absent key, kUpsert updated in place,
              // kInsert on a present key, kMultiCas comparison mismatch:
              // the "false/absent" return
  kOverload,  // completed WITH an error and no effect (EBUSY): shard
              // queue full at routing, a write's node pool exhausted,
              // or a multi-key / feed verb whose mode is off
  kInvalid,   // malformed txn payload (a value past TxnKv::kMaxValue, a key
              // named twice in one kMulti*, a kMulti* without a runnable
              // key set): no effect, do not retry
};

// Keys per multi-key transaction request (mirrors txn::TxnKv::kMaxTxnKeys
// == Mcas::kMaxWords; the service static_asserts they agree).
inline constexpr unsigned kMaxTxnKeys = 8;

struct Response {
  Status status = Status::kOk;
  std::uint64_t value = 0;
};

// One in-flight request slot, owned by a session. Written by the client
// before the handle is enqueued (the queue's release/acquire ordering
// publishes the plain fields to the executor), completed by the executor
// through the done word.
struct alignas(kCacheLine) TicketSlot {
  // Request, client-written, stable from enqueue to completion.
  std::uint64_t key = 0;  // multi ops route by keys[0], mirrored here
  std::uint64_t value = 0;
  std::uint64_t gen = 0;        // client-owned reuse counter
  std::uint64_t submit_ns = 0;  // stats-only latency origin (0 = untimed)
  Op op = Op::kFind;
  std::uint8_t nkeys = 0;  // multi ops: keys, 1..kMaxTxnKeys; 0 = none runnable
  // Multi-key payload (txn mode): args = plain values for kMultiPut /
  // wire-form desired for kMultiCas; exps = wire-form expected (kMultiCas).
  std::uint64_t keys[kMaxTxnKeys] = {};
  std::uint64_t args[kMaxTxnKeys] = {};
  std::uint64_t exps[kMaxTxnKeys] = {};
  // Response, executor-written before the done publication. resp_values:
  // kMultiGet snapshot / kMultiCas witness, wire form, user key order.
  std::uint64_t resp_value = 0;
  std::uint64_t resp_values[kMaxTxnKeys] = {};
  Status resp_status = Status::kOk;
  // Seqlock word: last generation whose response is published.
  std::atomic<std::uint64_t> done{0};
};

// Ticket handles: session index in the high half, slot index in the low.
inline std::uint64_t make_handle(std::uint32_t session, std::uint32_t slot) {
  return std::uint64_t{session} << 32 | slot;
}
inline std::uint32_t handle_session(std::uint64_t h) {
  return static_cast<std::uint32_t>(h >> 32);
}
inline std::uint32_t handle_slot(std::uint64_t h) {
  return static_cast<std::uint32_t>(h);
}

// Sharded MPMC dispatch stage: routes a key to one of `queues` MS-queues
// (same SplitMix64 route as the map's shard_of, so with equal counts a
// dispatch queue feeds exactly one map shard) and pops handles in batches.
template <SmallLlscSubstrate S, reclaim::Reclaimer R>
class Dispatcher {
 public:
  using Queue = ReclaimedMsQueue<S, R>;

  // A thread's contexts, one per shard queue (each queue owns its own
  // reclaimer instance). Destroy before the dispatcher.
  struct ThreadCtx {
    std::vector<typename Queue::ThreadCtx> q;
  };

  Dispatcher(S& substrate, unsigned max_threads, unsigned queues,
             std::uint32_t queue_capacity) {
    queues_.reserve(queues);
    for (unsigned i = 0; i < queues; ++i) {
      queues_.push_back(
          std::make_unique<Queue>(substrate, max_threads, queue_capacity));
    }
  }

  unsigned queue_count() const {
    return static_cast<unsigned>(queues_.size());
  }

  ThreadCtx make_ctx() {
    ThreadCtx ctx;
    ctx.q.reserve(queues_.size());
    for (auto& q : queues_) ctx.q.push_back(q->make_ctx());
    return ctx;
  }

  unsigned queue_of(std::uint64_t key) const {
    return static_cast<unsigned>((hash_mix64(key) >> 32) % queues_.size());
  }

  // Returns false when the target shard queue's node pool is exhausted
  // (the shed signal — never blocks).
  bool enqueue(ThreadCtx& ctx, std::uint64_t key, std::uint64_t handle) {
    const unsigned q = queue_of(key);
    return queues_[q]->enqueue(ctx.q[q], handle);
  }

  // Pops up to `max` handles from shard queue `q` under one reclaimer
  // bracket. Returns the number popped.
  unsigned pop_batch(ThreadCtx& ctx, unsigned q, std::uint64_t* out,
                     unsigned max) {
    return queues_[q]->dequeue_batch(ctx.q[q], out, max);
  }

  bool all_empty() const {
    for (const auto& q : queues_) {
      if (!q->empty()) return false;
    }
    return true;
  }

  Queue& queue(unsigned i) { return *queues_[i]; }

 private:
  std::vector<std::unique_ptr<Queue>> queues_;
};

}  // namespace moir::svc
