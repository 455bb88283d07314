// Request/ticket types shared by the client, routing and executor sides
// of KvService.
//
// Rings and lanes carry only a 64-bit ticket HANDLE (session << 32 |
// slot); the request payload itself lives in the session's fixed
// TicketSlot array, so a request costs one word per hop whatever its size.
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

#include <atomic>
#include <cstdint>

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
              // lane full at routing, a write's node pool exhausted,
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
// before the handle is pushed (the ring's and then the lane's
// release/acquire ordering publishes the plain fields to the executor),
// completed by the executor through the done word.
struct alignas(kCacheLine) TicketSlot {
  // Request, client-written, stable from submit to completion.
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

}  // namespace moir::svc
