// Static STM tests: sequential semantics, conflict handling, helping, and
// the bank-transfer conservation stress the STM literature uses.
#include "nonblocking/stm.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/rng.hpp"
#include "util/thread_utils.hpp"

namespace moir {
namespace {

void tx_increment_all(const std::uint64_t* olds, std::uint64_t* news,
                      unsigned n, std::uint64_t arg) {
  for (unsigned i = 0; i < n; ++i) news[i] = olds[i] + arg;
}

void tx_transfer(const std::uint64_t* olds, std::uint64_t* news, unsigned n,
                 std::uint64_t arg) {
  // Move `arg` units from cell 0 to cell 1 of the set (if funds allow).
  (void)n;
  const std::uint64_t amount = olds[0] >= arg ? arg : 0;
  news[0] = olds[0] - amount;
  news[1] = olds[1] + amount;
}

void tx_rotate(const std::uint64_t* olds, std::uint64_t* news, unsigned n,
               std::uint64_t) {
  for (unsigned i = 0; i < n; ++i) news[i] = olds[(i + 1) % n];
}

TEST(Stm, SingleCellTransaction) {
  Stm stm(2, 4);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 10);
  const std::uint32_t addrs[] = {0};
  const auto r = stm.transact(ctx, addrs, tx_increment_all, 5);
  EXPECT_TRUE(r.committed);
  EXPECT_EQ(r.olds[0], 10u);
  EXPECT_EQ(stm.read(ctx, 0), 15u);
}

TEST(Stm, MultiCellTransactionIsAtomic) {
  Stm stm(2, 4);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 100);
  stm.set_initial(1, 0);
  const std::uint32_t addrs[] = {0, 1};
  stm.transact(ctx, addrs, tx_transfer, 30);
  EXPECT_EQ(stm.read(ctx, 0), 70u);
  EXPECT_EQ(stm.read(ctx, 1), 30u);
}

TEST(Stm, TransferRespectsGuard) {
  Stm stm(2, 2);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 5);
  const std::uint32_t addrs[] = {0, 1};
  stm.transact(ctx, addrs, tx_transfer, 30);  // insufficient funds
  EXPECT_EQ(stm.read(ctx, 0), 5u);
  EXPECT_EQ(stm.read(ctx, 1), 0u);
}

TEST(Stm, SequentialTransactionsChain) {
  Stm stm(1, 3);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 1);
  stm.set_initial(1, 2);
  stm.set_initial(2, 3);
  const std::uint32_t addrs[] = {0, 1, 2};
  for (int i = 0; i < 9; ++i) stm.transact(ctx, addrs, tx_rotate, 0);
  // 9 rotations of a 3-cycle = identity.
  EXPECT_EQ(stm.read(ctx, 0), 1u);
  EXPECT_EQ(stm.read(ctx, 1), 2u);
  EXPECT_EQ(stm.read(ctx, 2), 3u);
}

TEST(Stm, NoLocksLeftBehind) {
  Stm stm(2, 8);
  auto ctx = stm.make_ctx();
  const std::uint32_t addrs[] = {1, 3, 5, 7};
  for (int i = 0; i < 100; ++i) stm.transact(ctx, addrs, tx_increment_all, 1);
  EXPECT_FALSE(stm.any_cell_locked());
}

TEST(Stm, ReadSeesCommittedStateOnly) {
  Stm stm(2, 2);
  auto ctx = stm.make_ctx();
  stm.set_initial(0, 7);
  EXPECT_EQ(stm.read(ctx, 0), 7u);
}

// Contexts are pid leases: an Stm sized for 2 pids serves any number of
// short-lived contexts, 2 at a time. A pid's next holder continues its
// descriptor's incarnations, so helpers still inside the previous
// holder's last transaction are drained like any other stale helper.
TEST(Stm, ContextChurnReusesPids) {
  constexpr unsigned kThreads = 2;
  constexpr std::size_t kAccounts = 4;
  constexpr std::uint64_t kInitial = 1000;
  Stm stm(kThreads, kAccounts);
  for (std::size_t a = 0; a < kAccounts; ++a) stm.set_initial(a, kInitial);

  run_threads(kThreads, [&](std::size_t tid) {
#ifdef MOIR_ENABLE_YIELD_POINTS
    testing::set_yield_probability(0.01, 700 + tid);
#endif
    Xoshiro256 rng(tid * 31 + 5);
    for (int c = 0; c < 500; ++c) {
      auto ctx = stm.make_ctx();
      for (int i = 0; i < 4; ++i) {
        std::uint32_t a =
            static_cast<std::uint32_t>(rng.next_below(kAccounts));
        std::uint32_t b =
            static_cast<std::uint32_t>(rng.next_below(kAccounts));
        if (a == b) continue;
        if (a > b) std::swap(a, b);
        const std::uint32_t addrs[] = {a, b};
        stm.transact(ctx, addrs, tx_transfer, 1 + rng.next_below(10));
      }
    }
#ifdef MOIR_ENABLE_YIELD_POINTS
    testing::set_yield_probability(0.0, 0);
#endif
  });

  auto ctx = stm.make_ctx();
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < kAccounts; ++a) total += stm.read(ctx, a);
  EXPECT_EQ(total, kAccounts * kInitial) << "money created or destroyed";
  EXPECT_FALSE(stm.any_cell_locked());
}

// The canonical STM stress: N threads move money between random account
// pairs; the grand total is invariant iff transactions are atomic.
class StmStress : public ::testing::TestWithParam<int> {};

TEST_P(StmStress, BankTransfersConserveTotal) {
  const int threads = GetParam();
  constexpr std::size_t kAccounts = 16;
  constexpr std::uint64_t kInitial = 1000;
  Stm stm(static_cast<unsigned>(threads) + 1, kAccounts);
  {
    for (std::size_t a = 0; a < kAccounts; ++a) stm.set_initial(a, kInitial);
  }

  std::atomic<std::uint64_t> total_aborts{0};
  run_threads(threads, [&](std::size_t tid) {
#ifdef MOIR_ENABLE_YIELD_POINTS
    testing::set_yield_probability(0.01, 500 + tid);
#endif
    auto ctx = stm.make_ctx();
    Xoshiro256 rng(tid * 97 + 3);
    std::uint64_t aborts = 0;
    for (int i = 0; i < 2500; ++i) {
      std::uint32_t a = static_cast<std::uint32_t>(rng.next_below(kAccounts));
      std::uint32_t b = static_cast<std::uint32_t>(rng.next_below(kAccounts));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      const std::uint32_t addrs[] = {a, b};
      const auto r = stm.transact(ctx, addrs, tx_transfer,
                                  1 + rng.next_below(10));
      aborts += r.aborts;
    }
    total_aborts.fetch_add(aborts);
#ifdef MOIR_ENABLE_YIELD_POINTS
    testing::set_yield_probability(0.0, 0);
#endif
  });

  auto ctx = stm.make_ctx();
  std::uint64_t total = 0;
  for (std::size_t a = 0; a < kAccounts; ++a) total += stm.read(ctx, a);
  EXPECT_EQ(total, kAccounts * kInitial) << "money created or destroyed";
  EXPECT_FALSE(stm.any_cell_locked());
}

INSTANTIATE_TEST_SUITE_P(Threads, StmStress, ::testing::Values(1, 2, 4, 8));

// Wide transactions overlapping heavily: rotate values through overlapping
// windows; the multiset of all cell values is invariant under rotation.
TEST(StmStress, OverlappingRotationsPreserveMultiset) {
  constexpr unsigned kThreads = 4;
  constexpr std::size_t kCells = 12;
  Stm stm(kThreads + 1, kCells);
  for (std::size_t i = 0; i < kCells; ++i) {
    stm.set_initial(i, 100 + i);
  }

  run_threads(kThreads, [&](std::size_t tid) {
    auto ctx = stm.make_ctx();
    Xoshiro256 rng(tid + 11);
    for (int i = 0; i < 2000; ++i) {
      const std::uint32_t base =
          static_cast<std::uint32_t>(rng.next_below(kCells - 3));
      const std::uint32_t addrs[] = {base, base + 1, base + 2, base + 3};
      stm.transact(ctx, addrs, tx_rotate, 0);
    }
  });

  auto ctx = stm.make_ctx();
  std::vector<std::uint64_t> values;
  for (std::size_t i = 0; i < kCells; ++i) values.push_back(stm.read(ctx, i));
  std::sort(values.begin(), values.end());
  std::vector<std::uint64_t> expect;
  for (std::size_t i = 0; i < kCells; ++i) expect.push_back(100 + i);
  EXPECT_EQ(values, expect);
}

}  // namespace
}  // namespace moir
