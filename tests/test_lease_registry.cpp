#include "core/lease_registry.hpp"

#include <gtest/gtest.h>

#include <set>

#include "util/thread_utils.hpp"

namespace moir {
namespace {

// The suite keeps the name of the process-id registry these cases were
// first written for; LeaseRegistry is its successor.
TEST(ProcessRegistry, DenseIds) {
  LeaseRegistry<> r(3);
  EXPECT_EQ(r.acquire(), 0u);
  EXPECT_EQ(r.acquire(), 1u);
  EXPECT_EQ(r.acquire(), 2u);
  EXPECT_EQ(r.high_water(), 3u);
  EXPECT_EQ(r.active(), 3u);
}

TEST(ProcessRegistry, ConcurrentRegistrationIsRaceFree) {
  LeaseRegistry<> r(16);
  std::set<unsigned> ids;
  std::mutex m;
  run_threads(16, [&](std::size_t) {
    const unsigned id = r.acquire();
    std::lock_guard<std::mutex> g(m);
    EXPECT_TRUE(ids.insert(id).second) << "duplicate pid " << id;
  });
  EXPECT_EQ(ids.size(), 16u);
}

TEST(ProcessRegistry, ReleaseRecyclesIds) {
  LeaseRegistry<> r(2);
  const unsigned a = r.acquire();
  const unsigned b = r.acquire();
  EXPECT_NE(a, b);
  // The pool is full; releasing makes the id available again, so the pool
  // bounds CONCURRENT registrations, not the lifetime count.
  r.release(a);
  EXPECT_EQ(r.acquire(), a);
  r.release(b);
  r.release(a);
  const unsigned c = r.acquire();
  const unsigned d = r.acquire();
  EXPECT_NE(c, d);
  EXPECT_TRUE((c == a || c == b) && (d == a || d == b));
}

TEST(ProcessRegistry, RecyclingSurvivesManyGenerations) {
  // Far more lifetime registrations than the pool size: every generation
  // must see a valid dense id. The versioned free-list head defeats ABA.
  LeaseRegistry<> r(4);
  for (int gen = 0; gen < 1000; ++gen) {
    unsigned ids[4];
    for (auto& id : ids) {
      id = r.acquire();
      EXPECT_LT(id, 4u);
    }
    EXPECT_NE(ids[0], ids[1]);
    for (const unsigned id : ids) r.release(id);
  }
}

TEST(ProcessRegistry, LeaseReuseAfterThreadExit) {
  // A short-lived thread that releases its lease on the way out leaves
  // the pool as it found it: a thread born after the join leases the SAME
  // dense id, so arrays sized for concurrent holders survive unbounded
  // thread churn (the explorer's fresh-threads-per-trial pattern, and the
  // service's session recycling).
  LeaseRegistry<> r(2);
  const unsigned keeper = r.acquire();  // pin one id for contrast
  unsigned first = 99, second = 99;
  std::thread t1([&] {
    first = r.acquire();
    r.release(first);  // released at thread exit
  });
  t1.join();
  std::thread t2([&] {
    second = r.acquire();
    r.release(second);
  });
  t2.join();
  EXPECT_EQ(first, second) << "the released lease was not reused";
  EXPECT_NE(first, keeper);
  EXPECT_EQ(r.high_water(), 2u)
      << "reuse must come from the free list, not a fresh mint";
}

TEST(ProcessRegistry, ConcurrentRegisterReleaseChurn) {
  LeaseRegistry<> r(8);
  run_threads(8, [&](std::size_t) {
    for (int i = 0; i < 500; ++i) {
      const unsigned id = r.acquire();
      EXPECT_LT(id, 8u);
      r.release(id);
    }
  });
  EXPECT_EQ(r.active(), 0u);
}

// A full registry refuses instead of minting past its capacity, so arrays
// indexed by id stay in bounds; a released id is handed out again.
TEST(ProcessRegistry, TryAcquireRefusesWhenFull) {
  LeaseRegistry<> r(2);
  const auto a = r.try_acquire();
  const auto b = r.try_acquire();
  ASSERT_TRUE(a.has_value() && b.has_value());
  EXPECT_FALSE(r.try_acquire().has_value());
  EXPECT_FALSE(r.try_acquire().has_value());
  EXPECT_EQ(r.high_water(), r.capacity());
  EXPECT_EQ(r.active(), 2u);
  r.release(*b);
  EXPECT_EQ(r.try_acquire(), b);
  EXPECT_FALSE(r.try_acquire().has_value());
  EXPECT_EQ(r.high_water(), 2u);
}

}  // namespace
}  // namespace moir
