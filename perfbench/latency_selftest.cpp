// Self-check for LatencyRecorder: every reported quantile must lie within
// 1% of the exact nearest-rank quantile of the same samples, and a 10%
// shift of the whole distribution must show up as a 10% (+-1%) move of
// the p50 and p99. Exits 1 on the first failure.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "latency.hpp"
#include "util/rng.hpp"

namespace {

double exact_quantile(std::vector<std::uint64_t> v, double q) {
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return static_cast<double>(v[rank - 1]);
}

int g_failures = 0;

void expect_close(const char* what, double q, double got, double want,
                  double tol) {
  const double rel = want == 0 ? std::fabs(got) : std::fabs(got - want) / want;
  if (rel > tol) {
    std::printf("FAIL %s q=%.3f got %.1f want %.1f (rel %.4f > %.4f)\n",
                what, q, got, want, rel, tol);
    ++g_failures;
  }
}

void check_distribution(const char* what, const std::vector<std::uint64_t>& v) {
  perfbench::LatencyRecorder rec;
  for (const auto x : v) rec.record(x);
  for (const double q : {0.01, 0.25, 0.5, 0.9, 0.99, 0.999}) {
    expect_close(what, q, rec.quantile(q), exact_quantile(v, q), 0.01);
  }
}

}  // namespace

int main() {
  moir::Xoshiro256 rng(12345);
  constexpr std::size_t kN = 200000;
  std::vector<std::uint64_t> uniform, expo, lognorm, tiny;
  for (std::size_t i = 0; i < kN; ++i) {
    uniform.push_back(1 + rng.next_below(5'000'000));
    expo.push_back(static_cast<std::uint64_t>(
        1 + -std::log(1.0 - rng.next_double()) * 20'000.0));
    // Sum of uniforms ~ normal; exponentiate for a heavy right tail.
    double z = -6.0;
    for (int k = 0; k < 12; ++k) z += rng.next_double();
    lognorm.push_back(static_cast<std::uint64_t>(std::exp(10.0 + 1.5 * z)));
    tiny.push_back(rng.next_below(200));
  }
  check_distribution("uniform", uniform);
  check_distribution("exponential", expo);
  check_distribution("lognormal", lognorm);
  check_distribution("tiny", tiny);

  // A 10% slower copy of the exponential samples must read 10% slower.
  perfbench::LatencyRecorder base, slow;
  for (const auto x : expo) {
    base.record(x);
    slow.record(x + x / 10);
  }
  for (const double q : {0.5, 0.99}) {
    expect_close("shift10", q, slow.quantile(q) / base.quantile(q), 1.10,
                 0.01);
  }

  // Bucket geometry: every index maps back into its own bucket.
  for (std::uint64_t v : {0ull, 1ull, 127ull, 128ull, 129ull, 1000ull,
                          123456789ull, ~0ull}) {
    const unsigned i = perfbench::LatencyRecorder::index(v);
    if (i >= perfbench::LatencyRecorder::kBuckets) {
      std::printf("FAIL index(%llu) = %u out of range\n",
                  static_cast<unsigned long long>(v), i);
      ++g_failures;
    }
  }

  if (g_failures != 0) {
    std::printf("latency_selftest: %d failures\n", g_failures);
    return 1;
  }
  std::printf("latency_selftest: ok\n");
  return 0;
}
