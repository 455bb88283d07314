// Change-feed subsystem: seqlock broadcast ring unit tests, ChangeFeed
// filter/resync semantics, the FeedChecker itself, service-level
// subscribe/poll round trips, exhaustive DFS + PCT feed-coherence under
// controlled schedules (including the SkipValidation planted torn-read
// bug, which both explorers must catch), and a real-thread torture run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/llsc_traits.hpp"
#include "feed/broadcast_ring.hpp"
#include "feed/feed.hpp"
#include "platform/yield_point.hpp"
#include "reclaim/epoch.hpp"
#include "sim/explore.hpp"
#include "stats/stats.hpp"
#include "svc/service.hpp"
#include "util/env.hpp"
#include "verify/feed.hpp"

namespace moir {
namespace {

using reclaim::EpochReclaimer;
using testing::FeedChecker;
using testing::PctOptions;
using testing::ScheduleExplorer;
using Sub = CasBackedLlsc<16>;
using Svc = svc::KvService<Sub, EpochReclaimer>;
using svc::Op;
using svc::Status;

// Same idiom as test_service.cpp: live counters for a scope, restored on
// exit; every delta assertion is additionally guarded on kCompiledIn.
class CountingScope {
 public:
  CountingScope() : was_(stats::counting_enabled()) {
    stats::set_counting(true);
  }
  ~CountingScope() { stats::set_counting(was_); }

 private:
  bool was_;
};

std::uint64_t no_resync(std::uint64_t) { return 0; }

// ---------------------------------------------------------------------
// BroadcastRing.
// ---------------------------------------------------------------------

TEST(BroadcastRing, PublishReadRoundTrip) {
  CountingScope counting;
  const auto before = stats::snapshot();
  feed::BroadcastRing<4> ring;
  EXPECT_EQ(ring.published(), 0u);

  feed::Record rec;
  EXPECT_EQ(ring.read(0, rec), feed::ReadStatus::kNotReady);

  EXPECT_EQ(ring.publish(10, 101), 0u);
  EXPECT_EQ(ring.publish(11, 102), 1u);
  EXPECT_EQ(ring.published(), 2u);
  EXPECT_EQ(ring.lag(0), 2u);
  EXPECT_EQ(ring.lag(2), 0u);

  ASSERT_EQ(ring.read(0, rec), feed::ReadStatus::kOk);
  EXPECT_EQ(rec.key, 10u);
  EXPECT_EQ(rec.value, 101u);
  EXPECT_EQ(rec.version, 0u);
  ASSERT_EQ(ring.read(1, rec), feed::ReadStatus::kOk);
  EXPECT_EQ(rec.key, 11u);
  EXPECT_EQ(rec.version, 1u);
  EXPECT_EQ(ring.read(2, rec), feed::ReadStatus::kNotReady);

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kFeedPublish], 2u);
    EXPECT_EQ(d[stats::Id::kFeedOverrun], 0u);
  }
}

TEST(BroadcastRing, MinimumCapacityOverrun) {
  CountingScope counting;
  const auto before = stats::snapshot();
  feed::BroadcastRing<2> ring;  // smallest legal ring
  ring.publish(1, 11);
  ring.publish(2, 12);
  ring.publish(3, 13);  // recycles slot 0

  feed::Record rec;
  EXPECT_EQ(ring.read(0, rec), feed::ReadStatus::kOverrun);
  ASSERT_EQ(ring.read(1, rec), feed::ReadStatus::kOk);
  EXPECT_EQ(rec.key, 2u);
  ASSERT_EQ(ring.read(2, rec), feed::ReadStatus::kOk);
  EXPECT_EQ(rec.key, 3u);
  EXPECT_EQ(rec.value, 13u);

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kFeedOverrun], 1u);
  }
}

// The stamp carries the FULL sequence number, so a slot that has been
// lapped an exact multiple of the capacity still rejects the stale read —
// the classic ring-buffer ABA a modulo-stamp would alias.
TEST(BroadcastRing, StampRejectsExactLapAlias) {
  feed::BroadcastRing<2> ring;
  for (std::uint64_t i = 0; i < 10; ++i) ring.publish(i, 100 + i);
  feed::Record rec;
  // Sequences 0, 2, 4, 6 all mapped to slot 0; only the latest survives.
  for (const std::uint64_t seq : {0u, 2u, 4u, 6u}) {
    EXPECT_EQ(ring.read(seq, rec), feed::ReadStatus::kOverrun) << seq;
  }
  ASSERT_EQ(ring.read(8, rec), feed::ReadStatus::kOk);
  EXPECT_EQ(rec.key, 8u);
  ASSERT_EQ(ring.read(9, rec), feed::ReadStatus::kOk);
  EXPECT_EQ(rec.value, 109u);
}

// ---------------------------------------------------------------------
// ChangeFeed.
// ---------------------------------------------------------------------

TEST(ChangeFeed, KeyFilterDeliversOnlyWatchedKey) {
  CountingScope counting;
  const auto before = stats::snapshot();
  feed::ChangeFeed<8> feed(1, 2);
  const auto token = feed.subscribe(feed::Filter::kKey, 0, 5);
  ASSERT_TRUE(token.has_value());

  feed.publish(0, 5, 51);
  feed.publish(0, 6, 61);
  feed.publish(0, 5, 52);

  feed::Record recs[8];
  const auto pr = feed.poll(*token, recs, 8, no_resync).value();
  EXPECT_FALSE(pr.overrun);
  EXPECT_FALSE(pr.resynced);
  ASSERT_EQ(pr.delivered, 2u);
  EXPECT_EQ(recs[0].key, 5u);
  EXPECT_EQ(recs[0].value, 51u);
  EXPECT_EQ(recs[0].version, 0u);
  EXPECT_EQ(recs[1].value, 52u);
  EXPECT_EQ(recs[1].version, 2u);

  // Nothing new: an empty poll, not a repeat delivery.
  EXPECT_EQ(feed.poll(*token, recs, 8, no_resync).value().delivered, 0u);

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kFeedPublish], 3u);
    EXPECT_EQ(d[stats::Id::kFeedDeliver], 2u);
    EXPECT_EQ(d[stats::Id::kFeedResync], 0u);
  }
}

TEST(ChangeFeed, ShardFilterDeliversEverything) {
  feed::ChangeFeed<8> feed(2, 2);
  const auto token = feed.subscribe(feed::Filter::kShard, 1);
  ASSERT_TRUE(token.has_value());

  feed.publish(1, 5, 51);
  feed.publish(0, 9, 91);  // other shard: never seen by this subscription
  feed.publish(1, 6, 61);

  feed::Record recs[8];
  const auto pr = feed.poll(*token, recs, 8, no_resync).value();
  ASSERT_EQ(pr.delivered, 2u);
  EXPECT_EQ(recs[0].key, 5u);
  EXPECT_EQ(recs[1].key, 6u);
}

TEST(ChangeFeed, SubscriberCeilingRefusedAndReleased) {
  feed::ChangeFeed<4> feed(1, 2);
  const auto a = feed.subscribe(feed::Filter::kKey, 0, 1);
  const auto b = feed.subscribe(feed::Filter::kShard, 0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(feed.active_subscribers(), 2u);
  EXPECT_FALSE(feed.subscribe(feed::Filter::kKey, 0, 2).has_value())
      << "lease ceiling must refuse, not assert";
  EXPECT_TRUE(feed.unsubscribe(*a));
  EXPECT_EQ(feed.active_subscribers(), 1u);
  const auto c = feed.subscribe(feed::Filter::kKey, 0, 3);
  ASSERT_TRUE(c.has_value()) << "released lease must be reusable";
}

// A new subscription starts at published(): history before subscribe is
// the map's business, not the ring's.
TEST(ChangeFeed, SubscriptionStartsAtSubscribeTime) {
  feed::ChangeFeed<8> feed(1, 1);
  feed.publish(0, 5, 50);
  const auto token = feed.subscribe(feed::Filter::kKey, 0, 5);
  ASSERT_TRUE(token.has_value());
  feed::Record recs[4];
  EXPECT_EQ(feed.poll(*token, recs, 4, no_resync).value().delivered, 0u);
  feed.publish(0, 5, 51);
  const auto pr = feed.poll(*token, recs, 4, no_resync).value();
  ASSERT_EQ(pr.delivered, 1u);
  EXPECT_EQ(recs[0].value, 51u);
}

TEST(ChangeFeed, KeyOverrunResyncsFromMap) {
  CountingScope counting;
  const auto before = stats::snapshot();
  feed::ChangeFeed<4> feed(1, 1);
  const auto token = feed.subscribe(feed::Filter::kKey, 0, 7);
  ASSERT_TRUE(token.has_value());

  // Lap the 4-slot ring: 6 commits to the watched key.
  for (std::uint64_t v = 1; v <= 6; ++v) feed.publish(0, 7, v);

  std::uint64_t map_value = 6;  // what the authoritative map now holds
  feed::Record recs[8];
  const auto pr =
      feed.poll(*token, recs, 8, [&](std::uint64_t key) {
        EXPECT_EQ(key, 7u);
        return map_value;
      }).value();
  EXPECT_TRUE(pr.overrun);
  EXPECT_TRUE(pr.resynced);
  ASSERT_EQ(pr.delivered, 1u) << "resync collapses the lost run into one "
                                 "latest-value record";
  EXPECT_EQ(recs[0].key, 7u);
  EXPECT_EQ(recs[0].value, 6u);
  EXPECT_TRUE(recs[0].version & feed::kResyncBit);
  EXPECT_EQ(recs[0].version & ~feed::kResyncBit, 6u)
      << "resync version = published() sampled before the map read";

  // Back in sync: the next commit arrives as a plain ring record.
  feed.publish(0, 7, 9);
  const auto pr2 = feed.poll(*token, recs, 8, no_resync).value();
  EXPECT_FALSE(pr2.overrun);
  ASSERT_EQ(pr2.delivered, 1u);
  EXPECT_EQ(recs[0].value, 9u);
  EXPECT_EQ(recs[0].version, 6u);

  if constexpr (stats::kCompiledIn) {
    const auto d = stats::snapshot() - before;
    EXPECT_EQ(d[stats::Id::kFeedResync], 1u);
    EXPECT_GE(d[stats::Id::kFeedOverrun], 1u);
  }
}

TEST(ChangeFeed, ShardOverrunRebasesWithoutSyntheticRecord) {
  feed::ChangeFeed<4> feed(1, 1);
  const auto token = feed.subscribe(feed::Filter::kShard, 0);
  ASSERT_TRUE(token.has_value());
  for (std::uint64_t v = 1; v <= 6; ++v) feed.publish(0, v, v);

  feed::Record recs[8];
  const auto pr = feed.poll(*token, recs, 8, no_resync).value();
  EXPECT_TRUE(pr.overrun);
  EXPECT_TRUE(pr.resynced);
  // The cursor re-based to published(): records 2..5 are simply lost
  // (shard subscribers re-read the map themselves) and polling resumes.
  EXPECT_EQ(pr.delivered, 0u);
  feed.publish(0, 9, 99);
  const auto pr2 = feed.poll(*token, recs, 8, no_resync).value();
  ASSERT_EQ(pr2.delivered, 1u);
  EXPECT_EQ(recs[0].key, 9u);
}

// Records of other keys are consumed (cursor advances) but not
// delivered; a full ring of misses still completes within the scan
// budget and leaves the subscription positioned for the next match.
TEST(ChangeFeed, PollSkipsFilteredRecords) {
  feed::ChangeFeed<8> feed(1, 1);
  const auto token = feed.subscribe(feed::Filter::kKey, 0, 42);
  ASSERT_TRUE(token.has_value());
  for (std::uint64_t i = 0; i < 8; ++i) feed.publish(0, 1 + (i % 3), i + 1);
  feed::Record recs[4];
  auto pr = feed.poll(*token, recs, 4, no_resync).value();
  EXPECT_EQ(pr.delivered, 0u);
  EXPECT_FALSE(pr.overrun);
  feed.publish(0, 42, 7);
  pr = feed.poll(*token, recs, 4, no_resync).value();
  ASSERT_EQ(pr.delivered, 1u);
  EXPECT_EQ(recs[0].value, 7u);
}

// A key subscriber lapped before its key was ever written resyncs to
// "absent": one synthetic record with the wire-form 0.
TEST(ChangeFeed, LappedKeySubscriberResyncsToAbsent) {
  feed::ChangeFeed<8> feed(1, 1);
  const auto token = feed.subscribe(feed::Filter::kKey, 0, 42);
  ASSERT_TRUE(token.has_value());
  for (std::uint64_t i = 0; i < 100; ++i) feed.publish(0, 1 + (i % 3), i + 1);
  feed::Record recs[4];
  const auto pr = feed.poll(*token, recs, 4, no_resync).value();
  EXPECT_TRUE(pr.overrun);
  ASSERT_EQ(pr.delivered, 1u);
  EXPECT_EQ(recs[0].key, 42u);
  EXPECT_EQ(recs[0].value, 0u);
  EXPECT_TRUE(recs[0].version & feed::kResyncBit);
  EXPECT_EQ(recs[0].version & ~feed::kResyncBit, 100u);
}

// Direct subscribers get the same token checks as the service verbs: a
// forged, stale, or double-freed token is refused by poll and unsubscribe
// without touching the lease gate or the slot's new tenant.
TEST(ChangeFeed, StaleTokenRefused) {
  feed::ChangeFeed<8> feed(1, 2);
  const auto token = feed.subscribe(feed::Filter::kKey, 0, 5);
  ASSERT_TRUE(token.has_value());
  EXPECT_NE(*token, 0u);
  feed::Record recs[4];
  for (const std::uint64_t forged :
       {std::uint64_t{0}, *token + 1, *token ^ (std::uint64_t{1} << 32),
        ~std::uint64_t{0}}) {
    EXPECT_FALSE(feed.poll(forged, recs, 4, no_resync).has_value());
    EXPECT_FALSE(feed.unsubscribe(forged));
  }
  EXPECT_EQ(feed.active_subscribers(), 1u);

  EXPECT_TRUE(feed.unsubscribe(*token));
  EXPECT_FALSE(feed.unsubscribe(*token))
      << "double unsubscribe must fail, not underflow the lease gate";
  EXPECT_FALSE(feed.poll(*token, recs, 4, no_resync).has_value());
  EXPECT_EQ(feed.active_subscribers(), 0u);

  // The slot is recycled under a fresh generation: the stale token
  // neither polls the new cursor nor frees the new lease.
  const auto next = feed.subscribe(feed::Filter::kKey, 0, 6);
  ASSERT_TRUE(next.has_value());
  EXPECT_NE(*next, *token);
  EXPECT_EQ(*next & 0xffffffffu, *token & 0xffffffffu) << "same slot reused";
  feed.publish(0, 6, 61);
  EXPECT_FALSE(feed.poll(*token, recs, 4, no_resync).has_value());
  EXPECT_FALSE(feed.unsubscribe(*token));
  EXPECT_EQ(feed.poll(*next, recs, 4, no_resync).value().delivered, 1u);
  EXPECT_EQ(feed.active_subscribers(), 1u);
}

// ---------------------------------------------------------------------
// FeedChecker.
// ---------------------------------------------------------------------

TEST(FeedChecker, AcceptsValidStreamAndConvergence) {
  FeedChecker ck;
  ck.commit(1, 11);
  ck.commit(1, 12);
  ck.commit(2, 21);
  ck.commit(1, 13);
  ck.set_final(1, 13);
  ck.set_final(2, 21);

  // A lossy-but-coherent stream: (1,11) was dropped by an overrun, the
  // resync jumped straight to 13; key 2 arrived normally.
  const std::vector<feed::Record> stream = {
      {1, 12, 1},
      {2, 21, 2},
      {1, 13, feed::kResyncBit | 4},
  };
  std::string diag;
  EXPECT_TRUE(ck.check_stream(stream, &diag)) << diag;
  EXPECT_TRUE(ck.check_converged(stream, &diag)) << diag;
}

TEST(FeedChecker, RejectsInventedValue) {
  FeedChecker ck;
  ck.commit(1, 11);
  const std::vector<feed::Record> stream = {{1, 99, 0}};
  std::string diag;
  EXPECT_FALSE(ck.check_stream(stream, &diag));
  EXPECT_NE(diag.find("never committed"), std::string::npos) << diag;
}

TEST(FeedChecker, RejectsTornKeyValuePair) {
  FeedChecker ck;
  ck.commit(1, 11);
  ck.commit(2, 22);
  // The planted bug's signature: key of one commit, value of another.
  const std::vector<feed::Record> stream = {{1, 22, 0}};
  std::string diag;
  EXPECT_FALSE(ck.check_stream(stream, &diag));
}

TEST(FeedChecker, RejectsVersionRegressionAndReplay) {
  FeedChecker ck;
  ck.commit(1, 11);
  ck.commit(1, 12);
  std::string diag;
  const std::vector<feed::Record> regress = {{1, 12, 3}, {1, 11, 1}};
  EXPECT_FALSE(ck.check_stream(regress, &diag));
  EXPECT_NE(diag.find("version"), std::string::npos) << diag;
  // Same version delivered twice (a re-delivered ring record).
  const std::vector<feed::Record> replay = {{1, 11, 0}, {1, 11, 0}};
  EXPECT_FALSE(ck.check_stream(replay, &diag));
}

TEST(FeedChecker, RejectsStaleResyncAndDivergence) {
  FeedChecker ck;
  ck.commit(1, 11);
  ck.commit(1, 12);
  ck.set_final(1, 12);
  std::string diag;
  // A resync may repeat the last delivered value but never an older one.
  const std::vector<feed::Record> stale = {
      {1, 12, 1}, {1, 11, feed::kResyncBit | 2}};
  EXPECT_FALSE(ck.check_stream(stale, &diag));
  const std::vector<feed::Record> repeat = {
      {1, 12, 1}, {1, 12, feed::kResyncBit | 2}};
  EXPECT_TRUE(ck.check_stream(repeat, &diag)) << diag;
  const std::vector<feed::Record> diverged = {{1, 11, 0}};
  EXPECT_FALSE(ck.check_converged(diverged, &diag));
  const std::vector<feed::Record> nothing = {};
  EXPECT_FALSE(ck.check_converged(nothing, &diag))
      << "committed key with no delivery after the final drain";
}

// The resync samples published() before its map read (feed.hpp), so the
// read may observe commits the ring then re-delivers: SEVERAL ring
// records at or before the resync's commit position are legal, as long
// as they advance in commit order among themselves.
TEST(FeedChecker, AcceptsMultipleRedeliveriesAfterResync) {
  FeedChecker ck;
  ck.commit(1, 11);
  ck.commit(1, 12);
  ck.commit(1, 13);
  ck.set_final(1, 13);
  std::string diag;
  // Resync jumped to 13 (map read raced ahead of the sampled cursor 1);
  // the ring then re-walks commits 12 and 13 from the sample point.
  const std::vector<feed::Record> redelivered = {
      {1, 13, feed::kResyncBit | 1}, {1, 12, 1}, {1, 13, 2}};
  EXPECT_TRUE(ck.check_stream(redelivered, &diag)) << diag;
  EXPECT_TRUE(ck.check_converged(redelivered, &diag)) << diag;
  // But re-delivered ring records still advance among themselves.
  const std::vector<feed::Record> shuffled = {
      {1, 13, feed::kResyncBit | 1}, {1, 13, 1}, {1, 12, 2}};
  EXPECT_FALSE(ck.check_stream(shuffled, &diag));
  // And a later resync can never regress behind the furthest position.
  const std::vector<feed::Record> regressed = {
      {1, 13, feed::kResyncBit | 1}, {1, 12, feed::kResyncBit | 2}};
  EXPECT_FALSE(ck.check_stream(regressed, &diag));
}

// ---------------------------------------------------------------------
// Service integration (manual pump, single thread).
// ---------------------------------------------------------------------

Svc::Config feed_config(unsigned max_subscribers) {
  return {.queues = 1,
          .queue_capacity = 32,
          .workers = 0,
          .batch = 8,
          .max_sessions = 2,
          .tickets_per_session = 8,
          .feed = true,
          .feed_max_subscribers = max_subscribers,
          .map = {.shards = 1, .buckets_per_shard = 4,
                  .capacity_per_shard = 64}};
}

TEST(KvServiceFeed, SubscribePollRoundTrip) {
  CountingScope counting;
  const auto before = stats::snapshot();
  Sub sub;
  Svc svc(sub, feed_config(4));
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();

  auto run = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    svc.serve(w);
    const auto r = svc.poll(c, *t);
    EXPECT_TRUE(r.has_value());
    return *r;
  };

  const auto s = run(Op::kSubscribe, 42, 0);  // value 0 = key filter
  ASSERT_EQ(s.status, Status::kOk);
  const std::uint64_t id = s.value;
  EXPECT_EQ(svc.feed().active_subscribers(), 1u);

  EXPECT_EQ(run(Op::kInsert, 42, 7).status, Status::kOk);
  EXPECT_EQ(run(Op::kInsert, 43, 1).status, Status::kOk);  // filtered out
  EXPECT_EQ(run(Op::kInsert, 43, 9).status, Status::kNotFound)
      << "failed insert must not publish";
  EXPECT_EQ(run(Op::kUpsert, 42, 8).status, Status::kNotFound);
  EXPECT_EQ(run(Op::kErase, 42).status, Status::kOk);

  const auto tp = svc.submit(c, Op::kPoll, id, 8);
  ASSERT_TRUE(tp.has_value());
  svc.serve(w);
  feed::Record recs[8];
  const auto d = svc.poll_feed(c, *tp, recs, 8);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->status, Status::kOk);
  EXPECT_FALSE(d->overrun);
  ASSERT_EQ(d->delivered, 3u);
  // Wire form: insert 7 -> 8, upsert 8 -> 9, erase -> 0; versions are the
  // shard ring's sequence numbers and skip the key-43 publish.
  EXPECT_EQ(recs[0].key, 42u);
  EXPECT_EQ(recs[0].value, 8u);
  EXPECT_EQ(recs[1].value, 9u);
  EXPECT_EQ(recs[2].value, 0u);
  EXPECT_LT(recs[0].version, recs[1].version);
  EXPECT_LT(recs[1].version, recs[2].version);

  // Drained: the next poll is empty, not a replay.
  const auto tp2 = svc.submit(c, Op::kPoll, id, 8);
  ASSERT_TRUE(tp2.has_value());
  svc.serve(w);
  const auto d2 = svc.poll_feed(c, *tp2, recs, 8);
  ASSERT_TRUE(d2.has_value());
  EXPECT_EQ(d2->delivered, 0u);

  EXPECT_EQ(run(Op::kUnsubscribe, id).status, Status::kOk);
  EXPECT_EQ(svc.feed().active_subscribers(), 0u);

  if constexpr (stats::kCompiledIn) {
    const auto delta = stats::snapshot() - before;
    EXPECT_EQ(delta[stats::Id::kFeedPublish], 4u);
    EXPECT_EQ(delta[stats::Id::kFeedDeliver], 3u);
  }
}

TEST(KvServiceFeed, ShardSubscriptionSeesAllKeys) {
  Sub sub;
  Svc svc(sub, feed_config(4));
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  auto run = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    svc.serve(w);
    return *svc.poll(c, *t);
  };

  const auto s = run(Op::kSubscribe, 0, 1);  // value 1 = shard filter
  ASSERT_EQ(s.status, Status::kOk);
  run(Op::kInsert, 10, 1);
  run(Op::kInsert, 11, 2);

  const auto tp = svc.submit(c, Op::kPoll, s.value, 8);
  ASSERT_TRUE(tp.has_value());
  svc.serve(w);
  feed::Record recs[8];
  const auto d = svc.poll_feed(c, *tp, recs, 8);
  ASSERT_TRUE(d.has_value());
  ASSERT_EQ(d->delivered, 2u);
  EXPECT_EQ(recs[0].key, 10u);
  EXPECT_EQ(recs[1].key, 11u);
  run(Op::kUnsubscribe, s.value);
}

TEST(KvServiceFeed, SubscribeShedsAtLeaseCeiling) {
  Sub sub;
  Svc svc(sub, feed_config(1));
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  auto run = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    svc.serve(w);
    return *svc.poll(c, *t);
  };

  const auto a = run(Op::kSubscribe, 1, 0);
  ASSERT_EQ(a.status, Status::kOk);
  EXPECT_EQ(run(Op::kSubscribe, 2, 0).status, Status::kOverload)
      << "subscription past the lease ceiling must shed (EBUSY), not block";
  run(Op::kUnsubscribe, a.value);
  EXPECT_EQ(run(Op::kSubscribe, 2, 0).status, Status::kOk)
      << "ceiling reopens after unsubscribe";
}

// The executor must not trust client-supplied subscription tokens: a
// forged or stale kPoll/kUnsubscribe completes kNotFound instead of
// touching the lease gate (a double unsubscribe would underflow it and
// shed every future subscribe) or another subscription's cursor.
TEST(KvServiceFeed, RejectsForgedAndStaleSubscriptionTokens) {
  Sub sub;
  Svc svc(sub, feed_config(2));
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  auto run = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    svc.serve(w);
    return *svc.poll(c, *t);
  };

  const auto s = run(Op::kSubscribe, 1, 0);
  ASSERT_EQ(s.status, Status::kOk);
  // Never-issued tokens, including the raw slot index a pre-token client
  // might guess, are refused without touching the registry.
  EXPECT_EQ(run(Op::kPoll, s.value + 1, 4).status, Status::kNotFound);
  EXPECT_EQ(run(Op::kUnsubscribe, 0).status, Status::kNotFound);
  EXPECT_EQ(run(Op::kUnsubscribe, ~std::uint64_t{0}).status,
            Status::kNotFound);
  EXPECT_EQ(svc.feed().active_subscribers(), 1u);

  EXPECT_EQ(run(Op::kUnsubscribe, s.value).status, Status::kOk);
  EXPECT_EQ(run(Op::kUnsubscribe, s.value).status, Status::kNotFound)
      << "double unsubscribe must fail, not underflow the lease gate";
  EXPECT_EQ(svc.feed().active_subscribers(), 0u);

  // The gate survived: the ceiling still admits two fresh subscriptions,
  // and a stale token does not alias the slot its lease recycled into.
  const auto s2 = run(Op::kSubscribe, 2, 0);
  const auto s3 = run(Op::kSubscribe, 3, 0);
  ASSERT_EQ(s2.status, Status::kOk);
  ASSERT_EQ(s3.status, Status::kOk);
  EXPECT_NE(s2.value, s.value);
  EXPECT_EQ(run(Op::kPoll, s.value, 4).status, Status::kNotFound)
      << "stale token for a reused slot must not poll the new cursor";
  run(Op::kUnsubscribe, s2.value);
  run(Op::kUnsubscribe, s3.value);
}

// poll_feed reports only the records it copied: a caller buffer smaller
// than the kPoll's max_records truncates the delivery and `delivered`
// must say so (the executor already advanced the cursor, so the
// truncated tail is lost — but never silently miscounted).
TEST(KvServiceFeed, PollFeedClampsDeliveredToCallerBuffer) {
  Sub sub;
  Svc svc(sub, feed_config(2));
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  auto run = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    svc.serve(w);
    return *svc.poll(c, *t);
  };

  const auto s = run(Op::kSubscribe, 5, 0);
  ASSERT_EQ(s.status, Status::kOk);
  for (std::uint64_t v = 1; v <= 3; ++v) run(Op::kUpsert, 5, v);

  const auto tp = svc.submit(c, Op::kPoll, s.value, 8);
  ASSERT_TRUE(tp.has_value());
  svc.serve(w);
  feed::Record recs[2];
  const auto d = svc.poll_feed(c, *tp, recs, 2);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->status, Status::kOk);
  EXPECT_EQ(d->delivered, 2u)
      << "delivered must count copied records, not the executor's total";
  EXPECT_EQ(recs[0].value, 2u);  // wire form: upsert 1 -> 2
  EXPECT_EQ(recs[1].value, 3u);
  run(Op::kUnsubscribe, s.value);
}

// A write that finds its shard's node pool exhausted had no effect: it
// completes kOverload, like a txn-mode kNoSpace, and broadcasts nothing.
// An in-place update needs no node and still commits and publishes.
TEST(KvServiceFeed, FullPoolWriteCompletesOverloadUnpublished) {
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 32,
                .workers = 0,
                .batch = 8,
                .max_sessions = 1,
                .tickets_per_session = 8,
                .feed = true,
                .feed_max_subscribers = 1,
                .map = {.shards = 1, .buckets_per_shard = 4,
                        .capacity_per_shard = 4}});
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  auto run = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    svc.serve(w);
    return *svc.poll(c, *t);
  };

  for (std::uint64_t k = 0; k < 4; ++k) {
    ASSERT_EQ(run(Op::kInsert, k, k).status, Status::kOk);
  }
  const auto s = run(Op::kSubscribe, 0, 1);  // the shard's only ring
  ASSERT_EQ(s.status, Status::kOk);

  EXPECT_EQ(run(Op::kUpsert, 100, 7).status, Status::kOverload);
  EXPECT_EQ(run(Op::kInsert, 101, 7).status, Status::kOverload);
  EXPECT_EQ(run(Op::kFind, 100).status, Status::kNotFound);
  EXPECT_EQ(run(Op::kFind, 101).status, Status::kNotFound);
  EXPECT_EQ(run(Op::kUpsert, 3, 30).status, Status::kNotFound)
      << "upsert on a present key reports updated-in-place";

  const auto tp = svc.submit(c, Op::kPoll, s.value, 8);
  ASSERT_TRUE(tp.has_value());
  svc.serve(w);
  feed::Record recs[8];
  const auto d = svc.poll_feed(c, *tp, recs, 8);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->status, Status::kOk);
  ASSERT_EQ(d->delivered, 1u) << "only the in-place update committed";
  EXPECT_EQ(recs[0].key, 3u);
  EXPECT_EQ(recs[0].value, 31u);
  run(Op::kUnsubscribe, s.value);
}

TEST(KvServiceFeed, FeedVerbsRequireFeedMode) {
  Sub sub;
  Svc svc(sub, {.queues = 1,
                .queue_capacity = 16,
                .workers = 0,
                .max_sessions = 1,
                .tickets_per_session = 4,
                .map = {.shards = 1, .buckets_per_shard = 4,
                        .capacity_per_shard = 32}});
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  const auto t = svc.submit(c, Op::kSubscribe, 1, 0);
  ASSERT_TRUE(t.has_value());
  svc.serve(w);
  const auto r = svc.poll(c, *t);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->status, Status::kOverload);
}

TEST(KvServiceFeed, PollResyncAfterRingOverrun) {
  // 4-slot feed rings so six commits lap a parked subscriber.
  using Svc4 = svc::KvService<Sub, EpochReclaimer, 64, 4>;
  Sub sub;
  Svc4 svc(sub, {.queues = 1,
                 .queue_capacity = 32,
                 .workers = 0,
                 .batch = 8,
                 .max_sessions = 1,
                 .tickets_per_session = 8,
                 .feed = true,
                 .feed_max_subscribers = 2,
                 .map = {.shards = 1, .buckets_per_shard = 4,
                         .capacity_per_shard = 64}});
  auto c = svc.connect();
  auto w = svc.make_worker_ctx();
  auto run = [&](Op op, std::uint64_t k, std::uint64_t v = 0) {
    const auto t = svc.submit(c, op, k, v);
    EXPECT_TRUE(t.has_value());
    svc.serve(w);
    return *svc.poll(c, *t);
  };

  const auto s = run(Op::kSubscribe, 7, 0);
  ASSERT_EQ(s.status, Status::kOk);
  for (std::uint64_t v = 1; v <= 6; ++v) run(Op::kUpsert, 7, v);

  const auto tp = svc.submit(c, Op::kPoll, s.value, 8);
  ASSERT_TRUE(tp.has_value());
  svc.serve(w);
  feed::Record recs[8];
  const auto d = svc.poll_feed(c, *tp, recs, 8);
  ASSERT_TRUE(d.has_value());
  EXPECT_TRUE(d->overrun);
  EXPECT_TRUE(d->resynced);
  ASSERT_EQ(d->delivered, 1u);
  EXPECT_EQ(recs[0].key, 7u);
  EXPECT_EQ(recs[0].value, 7u) << "resync must carry the map's latest (6+1)";
  EXPECT_TRUE(recs[0].version & feed::kResyncBit);
  run(Op::kUnsubscribe, s.value);
}

// ---------------------------------------------------------------------
// Controlled-schedule feed coherence. Two direct-ChangeFeed trials — a
// shard-filter one whose invariant is "delivered streams are torn-free
// subsequences of the commit order" and a key-filter one that adds
// resync convergence — explored exhaustively by DFS and smoked by PCT.
// The SkipValidation instantiation of the SAME shard trial is the
// negative control: both explorers must find the torn read it plants.
// ---------------------------------------------------------------------

template <bool SkipValidation>
struct ShardTrialShared {
  feed::ChangeFeed<2, SkipValidation> feed{1, 1};
  std::uint64_t token = 0;
  std::vector<feed::Record> log;

  // `quiet` suppresses ADD_FAILURE: the negative control EXPECTS
  // violating schedules and must not fail the test on each one.
  bool drain_and_check(bool quiet) {
    feed::Record buf[4];
    for (;;) {
      const auto pr = feed.poll(token, buf, 4, no_resync).value();
      for (unsigned i = 0; i < pr.delivered; ++i) log.push_back(buf[i]);
      if (pr.delivered == 0 && !pr.resynced) break;
    }
    FeedChecker ck;
    ck.commit(1, 11);
    ck.commit(2, 12);
    ck.commit(3, 13);
    std::string diag;
    const bool ok = ck.check_stream(log, &diag);
    if (!ok && !quiet) ADD_FAILURE() << "feed coherence: " << diag;
    return ok;
  }
};

// 3 commits of distinct keys through a 2-slot ring (so the writer laps a
// slow reader) against one concurrent poll: the adversarial 1-shard
// config from the issue, small enough for exhaustive DFS.
template <bool SkipValidation>
ScheduleExplorer::Trial make_shard_trial(bool quiet = false) {
  auto sh = std::make_shared<ShardTrialShared<SkipValidation>>();
  sh->token = *sh->feed.subscribe(feed::Filter::kShard, 0);
  ScheduleExplorer::Trial trial;
  trial.bodies.push_back([sh] {
    sh->feed.publish(0, 1, 11);
    sh->feed.publish(0, 2, 12);
    sh->feed.publish(0, 3, 13);
  });
  trial.bodies.push_back([sh] {
    feed::Record buf[3];
    const auto pr = sh->feed.poll(sh->token, buf, 3, no_resync).value();
    for (unsigned i = 0; i < pr.delivered; ++i) sh->log.push_back(buf[i]);
  });
  trial.check = [sh, quiet] { return sh->drain_and_check(quiet); };
  return trial;
}

ScheduleExplorer::Trial make_torn_trial() {
  return make_shard_trial<true>(/*quiet=*/true);
}

struct KeyTrialShared {
  feed::ChangeFeed<2> feed{1, 1};
  std::atomic<std::uint64_t> model{0};  // the "map": key 9's wire value
  std::uint64_t token = 0;
  std::vector<feed::Record> log;

  std::uint64_t read_model() {
    MOIR_YIELD_READ(&model);
    return model.load(std::memory_order_acquire);
  }
  void commit(std::uint64_t wire) {
    MOIR_YIELD_WRITE(&model);
    model.store(wire, std::memory_order_release);
    feed.publish(0, 9, wire);
  }
};

// Key-filter convergence: commits go to a model cell before the ring
// (standing in for the map), the reader's resync reads the model, and
// after the final drain the last delivered value must BE the model's.
// `ncommits` sizes the writer: 3 is the smallest lapping run, 4 is the
// smallest that can interleave a commit INSIDE the resync (between the
// reader's cursor sample and its model read) while the poll still has
// ring records left to mis-skip — the schedule that distinguishes
// sample-before-read from the lossy read-before-sample order.
ScheduleExplorer::Trial make_key_trial(unsigned ncommits) {
  auto sh = std::make_shared<KeyTrialShared>();
  sh->token = *sh->feed.subscribe(feed::Filter::kKey, 0, 9);
  ScheduleExplorer::Trial trial;
  trial.bodies.push_back([sh, ncommits] {
    for (unsigned c = 0; c < ncommits; ++c) sh->commit(11 + c);
  });
  trial.bodies.push_back([sh] {
    feed::Record buf[2];
    const auto pr =
        sh->feed.poll(sh->token, buf, 2, [sh](std::uint64_t) {
          return sh->read_model();
        }).value();
    for (unsigned i = 0; i < pr.delivered; ++i) sh->log.push_back(buf[i]);
  });
  trial.check = [sh, ncommits] {
    feed::Record buf[4];
    for (;;) {
      const auto pr = sh->feed.poll(sh->token, buf, 4, [sh](std::uint64_t) {
        return sh->read_model();
      }).value();
      for (unsigned i = 0; i < pr.delivered; ++i) sh->log.push_back(buf[i]);
      if (pr.delivered == 0 && !pr.resynced) break;
    }
    FeedChecker ck;
    for (unsigned c = 0; c < ncommits; ++c) ck.commit(9, 11 + c);
    ck.set_final(9, 10 + ncommits);
    std::string diag;
    const bool ok =
        ck.check_stream(sh->log, &diag) && ck.check_converged(sh->log, &diag);
    if (!ok) ADD_FAILURE() << "feed convergence: " << diag;
    return ok;
  };
  return trial;
}

TEST(FeedExplore, DfsShardCoherenceExhaustive) {
  const auto r = ScheduleExplorer::explore(
      [] { return make_shard_trial<false>(); },
      testing::ExploreOptions{.max_trials = 400000, .sleep_sets = true});
  EXPECT_TRUE(r.exhausted) << "trials=" << r.trials;
  EXPECT_FALSE(r.violation_found)
      << "incoherent feed stream under schedule " << r.schedule_string();
  EXPECT_GT(r.trials, 10u);
}

TEST(FeedExplore, DfsKeyConvergenceExhaustive) {
  const auto r = ScheduleExplorer::explore(
      [] { return make_key_trial(3); },
      testing::ExploreOptions{.max_trials = 400000, .sleep_sets = true});
  EXPECT_TRUE(r.exhausted) << "trials=" << r.trials;
  EXPECT_FALSE(r.violation_found)
      << "non-convergent key subscription under schedule "
      << r.schedule_string();
  EXPECT_GT(r.trials, 10u);
}

// Four commits through the 2-slot ring: with three, the overrun that
// triggers a resync already requires every publish to have completed, so
// the model is final before any resync runs and the resync's internal
// ordering is unobservable. The fourth commit opens the window — a
// commit can land between the resync's published() sample and its model
// read (or, in the buggy read-then-sample order, between the read and
// the sample, where it was skipped forever).
TEST(FeedExplore, DfsKeyConvergenceExhaustiveFourCommits) {
  const auto r = ScheduleExplorer::explore(
      [] { return make_key_trial(4); },
      testing::ExploreOptions{.max_trials = 2000000, .sleep_sets = true});
  EXPECT_TRUE(r.exhausted) << "trials=" << r.trials;
  EXPECT_FALSE(r.violation_found)
      << "non-convergent key subscription under schedule "
      << r.schedule_string();
  EXPECT_GT(r.trials, 10u);
}

TEST(PctSmoke, FeedCoherence) {
  const PctOptions opts{.runs = scaled_budget(60),
                        .depth = 3,
                        .change_range = 64,
                        .seed = base_seed() + 57};
  const auto r = ScheduleExplorer::pct_explore(
      [] { return make_shard_trial<false>(); }, opts);
  EXPECT_EQ(r.trials, opts.runs);
  EXPECT_FALSE(r.violation_found)
      << "incoherent feed stream under schedule " << r.schedule_string();
  const auto r2 = ScheduleExplorer::pct_explore(
      [] { return make_key_trial(4); }, opts);
  EXPECT_FALSE(r2.violation_found)
      << "non-convergent key subscription under schedule "
      << r2.schedule_string();
}

// The planted bug: SkipValidation compiles out the seqlock re-check, so
// a reader overlapped by a writer lap can hand out a torn record. Both
// explorers must find it — if either stops seeing it, the checker (or
// the yield-point instrumentation) has gone blind.
TEST(NegativeControl, FeedTornReadFoundByDfs) {
  const auto r = ScheduleExplorer::explore(
      make_torn_trial,
      testing::ExploreOptions{.max_trials = 400000, .sleep_sets = true});
  EXPECT_TRUE(r.violation_found)
      << "DFS lost the planted missing-validation bug (trials=" << r.trials
      << ", exhausted=" << r.exhausted << ")";
}

TEST(NegativeControl, FeedTornReadFoundByPct) {
  const PctOptions opts{.runs = scaled_budget(2000),
                        .depth = 3,
                        .change_range = 64,
                        .seed = base_seed() + 91};
  const auto r = ScheduleExplorer::pct_explore(make_torn_trial, opts);
  EXPECT_TRUE(r.violation_found)
      << "PCT lost the planted missing-validation bug (runs=" << r.trials
      << ")";
  // The violating schedule replays deterministically.
  EXPECT_FALSE(ScheduleExplorer::replay(make_torn_trial,
                                        r.violating_schedule));
}

// ---------------------------------------------------------------------
// Whole-pipeline PCT smoke: writer client and subscriber client run
// worker passes themselves (workers = 0), so the routing and lane claims,
// the executor-side feed verbs, and the ticket handshake all interleave
// under the controlled scheduler.
// ---------------------------------------------------------------------

struct PipelineShared {
  Sub sub;
  Svc svc;
  Svc::ClientCtx cw, cs;
  Svc::WorkerCtx w0, w1;
  std::uint64_t id = 0;
  std::vector<Svc::Ticket> writes;
  std::vector<Svc::Ticket> polls;
  std::vector<feed::Record> log;
  bool submit_failed = false;

  PipelineShared()
      : svc(sub, feed_config(2)),
        cw(svc.connect()),
        cs(svc.connect()),
        w0(svc.make_worker_ctx()),
        w1(svc.make_worker_ctx()) {
    // Subscribe before the scheduled bodies run (shard 0 carries all
    // traffic: feed_config uses one lane).
    const auto t = svc.submit(cs, Op::kSubscribe, 0, 1);
    MOIR_ASSERT(t.has_value());
    svc.serve(w1);
    const auto r = svc.poll(cs, *t);
    MOIR_ASSERT(r.has_value() && r->status == Status::kOk);
    id = r->value;
  }

  void write(Op op, std::uint64_t k, std::uint64_t v) {
    if (const auto t = svc.submit(cw, op, k, v)) {
      writes.push_back(*t);
    } else {
      submit_failed = true;
    }
  }

  void poll_once() {
    if (const auto t = svc.submit(cs, Op::kPoll, id, 8)) {
      polls.push_back(*t);
    } else {
      submit_failed = true;
    }
    svc.serve(w1);
    drain_ready_polls();
  }

  // Consume completed kPoll tickets in issue order; stop at the first
  // still-in-flight one (records must append in delivery order).
  void drain_ready_polls() {
    feed::Record buf[8];
    while (!polls.empty()) {
      const auto d = svc.poll_feed(cs, polls.front(), buf, 8);
      if (!d.has_value()) break;
      for (unsigned i = 0; i < d->delivered; ++i) log.push_back(buf[i]);
      polls.erase(polls.begin());
    }
  }

  // Worker passes until one moves nothing (see drain in test_service).
  void drain(Svc::WorkerCtx& w) {
    for (;;) {
      const auto p = svc.serve(w);
      if (p.routed + p.executed == 0) break;
    }
  }

  bool check() {
    drain(w0);
    for (const auto& t : writes) {
      if (!svc.poll(cw, t).has_value()) return false;
    }
    feed::Record buf[8];
    for (const auto& t : polls) {
      const auto d = svc.poll_feed(cs, t, buf, 8);
      if (!d.has_value()) return false;
      for (unsigned i = 0; i < d->delivered; ++i) log.push_back(buf[i]);
    }
    polls.clear();
    for (;;) {
      const auto t = svc.submit(cs, Op::kPoll, id, 8);
      if (!t.has_value()) return false;
      svc.serve(w1);
      const auto d = svc.poll_feed(cs, *t, buf, 8);
      if (!d.has_value()) return false;
      for (unsigned i = 0; i < d->delivered; ++i) log.push_back(buf[i]);
      if (d->delivered == 0 && !d->resynced) break;
    }
    if (submit_failed) return false;
    FeedChecker ck;  // upsert v -> wire v+1, in the writer's program order
    ck.commit(1, 6);
    ck.commit(2, 7);
    ck.commit(1, 8);
    std::string diag;
    const bool ok = ck.check_stream(log, &diag);
    if (!ok) ADD_FAILURE() << "pipeline feed coherence: " << diag;
    return ok;
  }
};

TEST(PctSmoke, FeedPipeline) {
  auto make_trial = [] {
    auto sh = std::make_shared<PipelineShared>();
    ScheduleExplorer::Trial trial;
    trial.bodies.push_back([sh] {
      sh->write(Op::kUpsert, 1, 5);
      sh->svc.serve(sh->w0);
      sh->write(Op::kUpsert, 2, 6);
      sh->write(Op::kUpsert, 1, 7);
      sh->drain(sh->w0);
    });
    trial.bodies.push_back([sh] {
      sh->poll_once();
      sh->poll_once();
    });
    trial.check = [sh] { return sh->check(); };
    return trial;
  };
  const PctOptions opts{.runs = scaled_budget(40),
                        .depth = 3,
                        .change_range = 128,
                        .seed = base_seed() + 23};
  const auto r = ScheduleExplorer::pct_explore(make_trial, opts);
  EXPECT_EQ(r.trials, opts.runs);
  EXPECT_FALSE(r.violation_found)
      << "feed pipeline violation under schedule " << r.schedule_string();
}

// ---------------------------------------------------------------------
// Real-thread torture: one writer streaming upserts over four keys
// through a live service (elastic worker pool), two key subscribers
// polling concurrently; every delivered stream must be coherent and
// converge on the final map state. Runs under the asan-reclaim preset.
// ---------------------------------------------------------------------

TEST(FeedTorture, ServiceFanoutCoherence) {
  constexpr std::uint64_t kOps = 4000;
  constexpr std::uint64_t kKeys = 4;
  Sub sub;
  Svc svc(sub, {.queues = 2,
                .workers = 2,
                .batch = 16,
                .max_sessions = 4,
                .tickets_per_session = 16,
                .feed = true,
                .feed_max_subscribers = 4,
                .map = {.shards = 2, .buckets_per_shard = 16,
                        .capacity_per_shard = 256}});

  std::atomic<bool> writer_done{false};
  std::vector<std::vector<std::uint64_t>> commits(kKeys);  // wire values
  for (auto& c : commits) c.reserve(kOps / kKeys + 1);

  std::thread writer([&] {
    auto c = svc.connect();
    for (std::uint64_t i = 1; i <= kOps; ++i) {
      const std::uint64_t key = 1 + (i % kKeys);
      for (;;) {
        if (const auto t = svc.submit(c, Op::kUpsert, key, i)) {
          svc.wait(c, *t);
          break;
        }
        std::this_thread::yield();  // ring backlog: retry the submit
      }
      commits[key - 1].push_back(i + 1);
    }
    writer_done.store(true, std::memory_order_release);
  });

  std::vector<std::vector<feed::Record>> logs(2);
  std::vector<std::thread> subs;
  for (unsigned s = 0; s < 2; ++s) {
    subs.emplace_back([&, s] {
      const std::uint64_t key = 1 + s;  // watch keys 1 and 2
      auto c = svc.connect();
      auto t = svc.submit(c, Op::kSubscribe, key, 0);
      ASSERT_TRUE(t.has_value());
      const auto r = svc.wait(c, *t);
      ASSERT_EQ(r.status, Status::kOk);
      const std::uint64_t id = r.value;
      feed::Record buf[8];
      for (;;) {
        const bool done_before = writer_done.load(std::memory_order_acquire);
        const auto tp = svc.submit(c, Op::kPoll, id, 8);
        if (!tp.has_value()) {
          std::this_thread::yield();
          continue;
        }
        const auto d = svc.wait_feed(c, *tp, buf, 8);
        ASSERT_EQ(d.status, Status::kOk);
        for (unsigned i = 0; i < d.delivered; ++i) logs[s].push_back(buf[i]);
        if (done_before && d.delivered == 0 && !d.resynced) break;
      }
      const auto tu = svc.submit(c, Op::kUnsubscribe, id, 0);
      ASSERT_TRUE(tu.has_value());
      svc.wait(c, *tu);
    });
  }

  writer.join();
  for (auto& th : subs) th.join();
  svc.stop();

  for (unsigned s = 0; s < 2; ++s) {
    const std::uint64_t key = 1 + s;
    FeedChecker ck;
    for (const std::uint64_t wire : commits[key - 1]) ck.commit(key, wire);
    ck.set_final(key, commits[key - 1].back());
    std::string diag;
    EXPECT_TRUE(ck.check_stream(logs[s], &diag))
        << "subscriber " << s << ": " << diag;
    EXPECT_TRUE(ck.check_converged(logs[s], &diag))
        << "subscriber " << s << ": " << diag;
    EXPECT_FALSE(logs[s].empty());
  }
}

}  // namespace
}  // namespace moir
