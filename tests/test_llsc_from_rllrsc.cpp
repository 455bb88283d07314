// Unit and stress tests for Figure 5 (LL/VL/SC direct from RLL/RSC,
// Theorem 3).
#include "core/llsc_from_rllrsc.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "platform/fault.hpp"

namespace moir {
namespace {

using L = LlscFromRllRsc<16>;

TEST(LlscFromRllRsc, BasicSequence) {
  L::Var var(10);
  L::Keep keep;
  Processor p;
  EXPECT_EQ(L::ll(var, keep), 10u);
  EXPECT_TRUE(L::vl(var, keep));
  EXPECT_TRUE(L::sc(p, var, keep, 11));
  EXPECT_EQ(var.read(), 11u);
}

TEST(LlscFromRllRsc, ScFailsAfterInterveningSc) {
  L::Var var(1);
  Processor p, q;
  L::Keep kp, kq;
  L::ll(var, kp);
  L::ll(var, kq);
  EXPECT_TRUE(L::sc(q, var, kq, 2));
  EXPECT_FALSE(L::sc(p, var, kp, 3));
  EXPECT_EQ(var.read(), 2u);
}

TEST(LlscFromRllRsc, ScDetectsAba) {
  L::Var var(1);
  Processor p, q;
  L::Keep victim, k;
  L::ll(var, victim);
  L::ll(var, k);
  ASSERT_TRUE(L::sc(q, var, k, 2));
  L::ll(var, k);
  ASSERT_TRUE(L::sc(q, var, k, 1));  // restore original value
  EXPECT_FALSE(L::sc(p, var, victim, 9));
}

TEST(LlscFromRllRsc, VlSemantics) {
  L::Var var(5);
  Processor q;
  L::Keep victim, k;
  L::ll(var, victim);
  EXPECT_TRUE(L::vl(var, victim));
  L::ll(var, k);
  ASSERT_TRUE(L::sc(q, var, k, 6));
  EXPECT_FALSE(L::vl(var, victim));
}

TEST(LlscFromRllRsc, RetriesThroughSpuriousFailures) {
  FaultInjector faults;
  L::Var var(0);
  Processor p(&faults);
  L::Keep keep;
  L::ll(var, keep);
  faults.force_failures(3);
  EXPECT_TRUE(L::sc(p, var, keep, 1));
  EXPECT_EQ(p.stats().spurious_failures, 3u);
}

// Unlike RLL/RSC themselves, the implemented LL/VL/SC supports concurrent
// LL-SC sequences — the reservation is only held inside sc()'s retry loop.
TEST(LlscFromRllRsc, ConcurrentSequencesOneProcessor) {
  L::Var x(1), y(2);
  Processor p;
  L::Keep kx, ky;
  L::ll(x, kx);
  L::ll(y, ky);
  EXPECT_TRUE(L::vl(x, kx));
  EXPECT_TRUE(L::sc(p, y, ky, 20));
  EXPECT_TRUE(L::sc(p, x, kx, 10));
  EXPECT_EQ(x.read(), 10u);
  EXPECT_EQ(y.read(), 20u);
}

// gtest names each case after the param's raw bytes, so the struct must
// have no padding: a 4-byte `threads` left 4 uninitialised bytes that
// changed the test name from run to run.
struct StressParam {
  std::int64_t threads;
  double spurious;
};
static_assert(sizeof(StressParam) == 16);

class LlscFromRllRscStress
    : public ::testing::TestWithParam<StressParam> {};

TEST_P(LlscFromRllRscStress, SuccessfulScsMatchFinalValue) {
  const auto param = GetParam();
  FaultInjector faults;
  faults.set_spurious_probability(param.spurious);
  L::Var var(0);
  std::atomic<std::uint64_t> successes{0};
  constexpr int kAttemptsEach = 8000;
  std::vector<std::thread> pool;
  for (int t = 0; t < param.threads; ++t) {
    pool.emplace_back([&] {
      Processor p(&faults);
      std::uint64_t local = 0;
      for (int i = 0; i < kAttemptsEach; ++i) {
        L::Keep keep;
        const std::uint64_t v = L::ll(var, keep);
        local += L::sc(p, var, keep, (v + 1) & L::Word::kMaxValue);
      }
      successes.fetch_add(local);
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(var.read(), successes.load() & L::Word::kMaxValue);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LlscFromRllRscStress,
    ::testing::Values(StressParam{1, 0.0}, StressParam{4, 0.0},
                      StressParam{4, 0.1}, StressParam{8, 0.3}));

}  // namespace
}  // namespace moir
