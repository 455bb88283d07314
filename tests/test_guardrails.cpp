// Death tests: the library's misuse guards must fail loudly, not corrupt.
// (C++ Core Guidelines I.5/I.6: state preconditions and check them —
// lock-free bugs that corrupt silently are unfindable later.)
#include <gtest/gtest.h>

#include "core/bounded_llsc.hpp"
#include "core/lease_registry.hpp"
#include "core/slot_stack.hpp"
#include "core/tagged_word.hpp"

namespace moir {
namespace {

class Guardrails : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(Guardrails, RegistryOverflowAborts) {
  LeaseRegistry<> r(1);
  r.acquire();
  EXPECT_DEATH(r.acquire(), "more threads registered");
}

TEST_F(Guardrails, SlotStackUnderflowAborts) {
  SlotStack s(1);
  s.pop();
  EXPECT_DEATH(s.pop(), "more concurrent LL-SC sequences");
}

// A slot pushed back twice would later be handed to two LL-SC sequences.
TEST_F(Guardrails, SlotStackDoublePushAborts) {
  SlotStack s(2);
  const unsigned slot = s.pop();
  s.push(slot);
  EXPECT_DEATH(s.push(slot), "slot pushed twice");
}

TEST_F(Guardrails, OversizedValueAborts) {
  EXPECT_DEATH((void)TaggedWord<16>::make(0, 0x10000), "value does not fit");
}

TEST_F(Guardrails, BoundedLlscFieldWidthChecked) {
  // pid field: 10 bits by default -> N = 1025 must be rejected.
  using B = BoundedLlsc<>;
  EXPECT_DEATH(B(1025, 1), "pid field too narrow");
  // tag field: 20 bits -> 2Nk must fit; N=1000, k=1000 overflows.
  EXPECT_DEATH(B(1000, 1000), "tag field too narrow");
}

TEST_F(Guardrails, BoundedLlscOverlongSequencesAbort) {
  BoundedLlsc<> s(1, 1);
  BoundedLlsc<>::Var var;
  s.init_var(var, 0);
  EXPECT_DEATH(
      ([&] {
        auto ctx = s.make_ctx();
        BoundedLlsc<>::Keep k1, k2;
        s.ll(ctx, var, k1);
        s.ll(ctx, var, k2);  // second concurrent sequence with k=1
      }()),
      "more concurrent LL-SC sequences");
}

}  // namespace
}  // namespace moir
