// Log-linear latency recorder for the KvService benchmark.
//
// Values below 2^kSubBits are counted exactly; above that every power of
// two is split into 2^kSubBits equal buckets, so a bucket [lo, lo + w)
// has w <= lo / 2^kSubBits. A quantile is reported as the midpoint of the
// bucket holding the nearest-rank sample, hence within w/2 <= lo / 256 of
// it: a relative error below 0.4%, well inside the 1% the benchmark needs
// to resolve a 10% move (the repo's log2 Histogram has 100% buckets).
// Values at or above 2^kMaxBits ns (~69 s) land in the last bucket; counts
// are 32-bit, so one recorder holds up to 4G samples in 15 KiB.
// latency_selftest.cpp checks the bound against exact sorted samples.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

class LatencyRecorder {
 public:
  static constexpr unsigned kSubBits = 7;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr unsigned kMaxBits = 36;
  static constexpr unsigned kBuckets = kSub + (kMaxBits - kSubBits) * kSub;

  LatencyRecorder() : counts_(kBuckets, 0) {}

  void record(std::uint64_t v) {
    ++counts_[index(v)];
    ++n_;
  }

  void merge(const LatencyRecorder& o) {
    for (unsigned i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    n_ += o.n_;
  }

  std::uint64_t count() const { return n_; }

  // Nearest-rank quantile: the ceil(q*n)-th smallest sample, reported as
  // its bucket's midpoint. 0 when nothing was recorded.
  double quantile(double q) const {
    if (n_ == 0) return 0.0;
    auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_)));
    if (rank < 1) rank = 1;
    if (rank > n_) rank = n_;
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
      seen += counts_[i];
      if (seen >= rank) return midpoint(i);
    }
    return midpoint(kBuckets - 1);
  }

  static unsigned index(std::uint64_t v) {
    if (v < kSub) return static_cast<unsigned>(v);
    if (v >> kMaxBits != 0) return kBuckets - 1;
    const unsigned shift = 63 - std::countl_zero(v) - kSubBits;
    return static_cast<unsigned>(kSub + shift * kSub + ((v >> shift) - kSub));
  }

  static double midpoint(unsigned idx) {
    if (idx < kSub) return idx;
    const unsigned shift = (idx - kSub) / kSub;
    const std::uint64_t lo = (kSub + (idx - kSub) % kSub) << shift;
    const std::uint64_t width = std::uint64_t{1} << shift;
    return static_cast<double>(lo) + static_cast<double>(width - 1) / 2.0;
  }

 private:
  std::vector<std::uint32_t> counts_;
  std::uint64_t n_ = 0;
};

}  // namespace perfbench
