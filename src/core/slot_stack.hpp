// Figure 7's private stack S of announcement slots.
//
// Each process may run up to k concurrent LL-SC sequences; each active
// sequence occupies one of the k slots of the process's row of the shared
// announcement array A. The stack hands slots out (LL pops) and takes them
// back (SC/CL push). It is strictly private to one process, so it needs no
// synchronization — just bounds discipline, which we assert.
#pragma once

#include <cstdint>
#include <vector>

#include "util/assertion.hpp"

namespace moir {

class SlotStack {
 public:
  explicit SlotStack(unsigned k) : k_(k), slots_(k) {
    // initially {0, ..., k-1}; pop order is irrelevant to correctness.
    for (unsigned i = 0; i < k; ++i) slots_[i] = k - 1 - i;
  }

  unsigned pop() {
    MOIR_ASSERT_MSG(!slots_.empty(),
                    "more concurrent LL-SC sequences than the bound k; "
                    "increase k or CL abandoned sequences");
    const unsigned s = slots_.back();
    slots_.pop_back();
    return s;
  }

  void push(unsigned slot) {
    MOIR_ASSERT_MSG(slots_.size() < k_, "slot pushed twice");
    slots_.push_back(slot);
  }

  std::size_t available() const { return slots_.size(); }

 private:
  unsigned k_;
  std::vector<unsigned> slots_;
};

}  // namespace moir
