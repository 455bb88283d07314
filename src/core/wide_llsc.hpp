// Figure 6: Θ(W)-time, unbounded-tag implementation of W-word WLL/VL/SC
// (Theorem 4).
//
// A W-word variable is a header word {tag, pid} plus W segment words
// {tag, chunk}. A SC installs a new header (tag+1, p) with one CAS and then
// copies its announced value from the shared array A[p] into the segments,
// one CAS each. Any process can help finish an in-flight SC — WLL's Copy
// pass does — so a stalled writer never blocks readers: the construction is
// non-blocking even though a value spans many words.
//
// WLL is the paper's weakened LL (from Anderson–Moir [3]): when a competing
// SC succeeds mid-read, WLL may give up and return the winner's pid instead
// of a value, because the caller's own SC is then certain to fail anyway.
//
// Space overhead is Θ(NW) — one announcement row per process, shared by ALL
// variables of the domain — not Θ(NWT) as a per-variable generalization
// would need. That reuse is safe because a process's row is only live
// between its SC's announcement and that same SC's Copy completion, and a
// process runs one SC at a time; helpers that read a row late can only CAS
// against segments whose expected old tag has already been overtaken, so
// their stale values never land (the CAS expected-value includes the tag).
//
// The paper presents the algorithm over CAS "for simplicity" and notes the
// Figure-3 technique transfers it to RLL/RSC machines; the WordProvider
// parameter realizes both: NativeWordProvider (default) uses hardware CAS,
// RllRscWordProvider runs every header/segment CAS through the emulated
// restricted LL/SC.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>

#include "core/lease_registry.hpp"
#include "core/word_provider.hpp"
#include "platform/yield_point.hpp"
#include "stats/stats.hpp"
#include "util/assertion.hpp"
#include "util/bits.hpp"

namespace moir {

template <unsigned TagBits = 32, WordProvider Provider = NativeWordProvider>
class WideLlsc {
  static_assert(TagBits >= 8 && TagBits <= 56,
                "tag must leave room for a pid / data chunk");

 public:
  // Payload bits carried by each segment word alongside its tag.
  static constexpr unsigned kChunkBits = 64 - TagBits;
  static constexpr std::uint64_t kMaxChunk = low_mask(kChunkBits);
  static constexpr unsigned kTagBits = TagBits;

  using value_type = std::uint64_t;  // one chunk; full values are spans

  struct Keep {
    std::uint64_t tag = 0;
  };

  // Result of WLL: either success (a consistent value was stored in the
  // caller's buffer) or the pid of a process whose SC succeeded during the
  // WLL — in which case the caller's subsequent SC is certain to fail.
  struct WllResult {
    bool success = false;
    unsigned winner_pid = 0;
  };

  class Var {
   public:
    Var() = default;
    Var(const Var&) = delete;
    Var& operator=(const Var&) = delete;

   private:
    friend class WideLlsc;
    typename Provider::Word header_;
    std::unique_ptr<typename Provider::Word[]> data_;
  };

  struct ThreadCtx {
    unsigned pid;
    typename Provider::Ctx words;
  };

  WideLlsc(unsigned n_processes, unsigned width,
           Provider provider = Provider())
      : provider_(std::move(provider)),
        n_(n_processes),
        w_(width),
        registry_(n_processes),
        announce_(
            std::make_unique<std::atomic<std::uint64_t>[]>(std::size_t{n_} *
                                                           w_)) {
    MOIR_ASSERT(n_processes >= 1 && width >= 1);
    MOIR_ASSERT_MSG(n_processes - 1 <= low_mask(64 - TagBits),
                    "pid does not fit the header's pid field");
    for (std::size_t i = 0; i < std::size_t{n_} * w_; ++i) {
      announce_[i].store(0, std::memory_order_relaxed);
    }
  }

  ThreadCtx make_ctx() {
    return ThreadCtx{registry_.acquire(), provider_.make_ctx()};
  }

  unsigned width() const { return w_; }
  unsigned n_processes() const { return n_; }

  // Initializes a variable to hold `initial` (W chunks, each < 2^kChunkBits).
  void init_var(Var& var, std::span<const std::uint64_t> initial) {
    MOIR_ASSERT(initial.size() == w_);
    var.header_.init(pack_header(0, 0));
    var.data_ = std::make_unique<typename Provider::Word[]>(w_);
    for (unsigned i = 0; i < w_; ++i) {
      MOIR_ASSERT(initial[i] <= kMaxChunk);
      // Segment tags start equal to the header tag: "already copied".
      var.data_[i].init(pack_segment(0, initial[i]));
    }
  }

  // WLL (lines 10-12): read the header, remember its tag, and run Copy to
  // both finish any in-flight SC and collect a consistent value into `out`.
  // Yield points precede the accesses they announce; exploration
  // identities are the header word, the individual segment words, and the
  // individual announcement cells. Footprints over-approximate (a declared
  // access that a branch skips only costs reduction, never soundness).
  WllResult wll(ThreadCtx& ctx, const Var& var, Keep& keep,
                std::span<std::uint64_t> out) {
    MOIR_ASSERT(out.size() == w_);
    MOIR_YIELD_READ(&var.header_);
    const std::uint64_t x = var.header_.load();                     // line 10
    keep.tag = header_tag(x);                                       // line 11
    return copy(ctx, var, x, out.data());                           // line 12
  }

  // VL (line 13): has a successful SC been linearized since our WLL?
  bool vl(ThreadCtx&, const Var& var, const Keep& keep) {
    MOIR_YIELD_READ(&var.header_);
    return header_tag(var.header_.load()) == keep.tag;
  }

  // SC (lines 14-21).
  bool sc(ThreadCtx& ctx, Var& var, const Keep& keep,
          std::span<const std::uint64_t> newval) {
    MOIR_ASSERT(newval.size() == w_);
    MOIR_YIELD_READ(&var.header_);
    const std::uint64_t oldhdr = var.header_.load();                // line 14
    if (header_tag(oldhdr) != keep.tag) {                           // line 15
      stats::count(stats::Id::kScFail, 1, &var);
      return false;
    }
    MOIR_YIELD_STEP([&] {
      auto s = ::moir::testing::StepInfo::none();
      for (unsigned i = 0; i < w_; ++i) s.also_write(&announce(ctx.pid, i));
      return s;
    }());
    for (unsigned i = 0; i < w_; ++i) {                             // line 16
      MOIR_ASSERT(newval[i] <= kMaxChunk);
      announce(ctx.pid, i).store(newval[i],
                                 std::memory_order_seq_cst);        // line 17
    }
    const std::uint64_t newhdr = pack_header(
        add_mod_pow2(header_tag(oldhdr), 1, TagBits), ctx.pid);     // line 18
    MOIR_YIELD_UPDATE(&var.header_);
    std::uint64_t expected = oldhdr;
    if (!var.header_.cas(ctx.words, expected, newhdr)) {            // line 19
      stats::count(stats::Id::kScFail, 1, &var);
      return false;
    }
    stats::count(stats::Id::kScSuccess, 1, &var);
    copy(ctx, var, newhdr, nullptr);                                // line 20
    return true;                                                    // line 21
  }

  // Convenience read: WLL retried until success. Lock-free (each retry is
  // caused by a successful SC).
  void read(ThreadCtx& ctx, const Var& var, std::span<std::uint64_t> out) {
    Keep keep;
    SpinWait backoff;
    while (!wll(ctx, var, keep, out).success) {
      // Each retry means a competing SC landed mid-read; under a write
      // burst, backing off lets the burst finish instead of re-scanning
      // W segments against a moving tag (same policy as the Figure 3
      // retry loops, util/backoff.hpp).
      backoff.pause();
    }
  }

  // --- space accounting ----------------------------------------------------
  // Shared overhead: announcement array only — N*W words regardless of the
  // number of variables (Theorem 4). Per variable: the header word (the W
  // segment words hold the data itself and are "the words to be accessed").
  std::size_t shared_overhead_words() const { return std::size_t{n_} * w_; }
  std::size_t per_variable_overhead_words() const { return 1; }
  const char* name() const { return "wide-llsc(fig6)"; }
  const char* provider_name() const { return provider_.name(); }

 private:
  static constexpr std::uint64_t header_tag(std::uint64_t h) {
    return extract_bits(h, 64 - TagBits, TagBits);
  }
  static constexpr std::uint64_t header_pid(std::uint64_t h) {
    return extract_bits(h, 0, 64 - TagBits);
  }
  static constexpr std::uint64_t pack_header(std::uint64_t tag,
                                             std::uint64_t pid) {
    return deposit_bits(deposit_bits(0, 0, 64 - TagBits, pid), 64 - TagBits,
                        TagBits, tag);
  }
  static constexpr std::uint64_t segment_tag(std::uint64_t s) {
    return extract_bits(s, kChunkBits, TagBits);
  }
  static constexpr std::uint64_t segment_chunk(std::uint64_t s) {
    return extract_bits(s, 0, kChunkBits);
  }
  static constexpr std::uint64_t pack_segment(std::uint64_t tag,
                                              std::uint64_t chunk) {
    return deposit_bits(deposit_bits(0, 0, kChunkBits, chunk), kChunkBits,
                        TagBits, tag);
  }

  std::atomic<std::uint64_t>& announce(unsigned pid, unsigned i) const {
    return announce_[std::size_t{pid} * w_ + i];
  }

  // Copy (lines 1-9): ensure every segment carries the value of the SC that
  // installed header `hdr`; optionally save the collected chunks.
  WllResult copy(ThreadCtx& ctx, const Var& var, std::uint64_t hdr,
                 std::uint64_t* save) {
    const std::uint64_t want_tag = header_tag(hdr);
    const std::uint64_t prev_tag = sub_mod_pow2(want_tag, 1, TagBits);
    const unsigned src_pid = static_cast<unsigned>(header_pid(hdr));
    // A helping round is a Copy pass that does real work (>= 1 segment CAS
    // attempt) on behalf of ANOTHER process's in-flight SC. A pass over
    // fully-copied segments, or over our own SC's header, does not count.
    bool helped = false;
    for (unsigned i = 0; i < w_; ++i) {                             // line 1
      MOIR_YIELD_STEP(::moir::testing::StepInfo::read(&var.data_[i])
                          .also_read(&var.header_));
      std::uint64_t y = var.data_[i].load();                        // line 2
      if (segment_tag(y) == prev_tag) {                             // line 3
        MOIR_YIELD_STEP(::moir::testing::StepInfo::read(&announce(src_pid, i))
                            .also_update(&var.data_[i])
                            .also_read(&var.header_));
        const std::uint64_t z = pack_segment(
            want_tag,
            announce(src_pid, i).load(std::memory_order_seq_cst));  // line 4
        stats::count(stats::Id::kWordCopies, 1, &var);
        if (!helped && src_pid != ctx.pid) {
          helped = true;
          stats::count(stats::Id::kHelpRounds, 1, &var);
        }
        std::uint64_t expected = y;
        if (var.data_[i].cas(ctx.words, expected, z)) {             // line 5
          y = z;                                                    // line 6
        } else {
          // Deviation from the paper's pseudocode, which sets y := z even
          // when the CAS fails. z is only trustworthy when our CAS wins:
          // a successful CAS proves the segment was still at the previous
          // regime when we read A[hdr.pid][i], hence that row had not yet
          // been recycled by its owner's NEXT SC (possibly on a different
          // variable — the announcement row is shared across all variables;
          // that sharing is exactly footnote 2's Θ(NW) space optimization).
          // When the CAS fails, the segment already holds a value some
          // winning CAS installed — provably correct for its regime — so we
          // take the observed value; if it belongs to a later regime, the
          // header check below rejects the whole pass.
          y = expected;
        }
      }
      const std::uint64_t h = var.header_.load();                   // line 7
      if (h != hdr) {
        return WllResult{false, static_cast<unsigned>(header_pid(h))};
      }
      if (save != nullptr) save[i] = segment_chunk(y);              // line 8
    }
    return WllResult{true, 0};                                      // line 9
  }

  Provider provider_;
  const unsigned n_;
  const unsigned w_;
  LeaseRegistry<> registry_;
  // A: array[0..N-1][0..W-1] of valtype (chunk values), row-major.
  std::unique_ptr<std::atomic<std::uint64_t>[]> announce_;
};

}  // namespace moir
