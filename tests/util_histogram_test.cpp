// util::LatencyHistogram — the fixed-bucket percentile sketch backing the
// hub's per-app latency summaries.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace hb::util {
namespace {

TEST(LatencyHistogram, EmptyIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
}

TEST(LatencyHistogram, BucketIndexIsMonotone) {
  std::size_t prev = 0;
  for (std::uint64_t v : std::vector<std::uint64_t>{
           0, 1, 7, 8, 9, 15, 16, 100, 1000, 4095, 4096, 1u << 20,
           std::uint64_t{1} << 40, ~std::uint64_t{0}}) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(idx, prev) << "v=" << v;
    EXPECT_LT(idx, LatencyHistogram::kBucketCount);
    prev = idx;
  }
}

TEST(LatencyHistogram, BucketUpperBoundsContainTheirValues) {
  for (std::uint64_t v : std::vector<std::uint64_t>{
           0, 1, 7, 8, 12, 255, 256, 1000, 123456789,
           std::uint64_t{1} << 50, ~std::uint64_t{0}}) {
    const std::size_t idx = LatencyHistogram::bucket_index(v);
    EXPECT_GE(LatencyHistogram::bucket_upper(idx), v);
    if (idx > 0) {
      EXPECT_LT(LatencyHistogram::bucket_upper(idx - 1), v);
    }
  }
}

TEST(LatencyHistogram, SmallValuesAreExact) {
  LatencyHistogram h;
  for (std::uint64_t v = 0; v < 8; ++v) h.record(v);
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 7u);
  EXPECT_EQ(h.percentile(100), 7u);
  EXPECT_EQ(h.percentile(50), 3u);  // nearest rank 4 of 8 -> value 3
}

TEST(LatencyHistogram, MinMaxMeanAreExact) {
  LatencyHistogram h;
  h.record(10);
  h.record(1000);
  h.record(100000);
  EXPECT_EQ(h.min(), 10u);
  EXPECT_EQ(h.max(), 100000u);
  EXPECT_DOUBLE_EQ(h.mean(), (10.0 + 1000.0 + 100000.0) / 3.0);
}

TEST(LatencyHistogram, PercentileWithinRelativeError) {
  // 1..1000 recorded once each: p-th percentile is ~10*p, with <= 12.5%
  // bucket error on top.
  LatencyHistogram h;
  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v);
  for (double p : {10.0, 50.0, 95.0, 99.0}) {
    const double exact = 10.0 * p;
    const double got = static_cast<double>(h.percentile(p));
    EXPECT_GE(got, exact - 1.0) << "p=" << p;       // upper-bound convention
    EXPECT_LE(got, exact * 1.125 + 1.0) << "p=" << p;
  }
  EXPECT_EQ(h.percentile(0), 1u);
  EXPECT_EQ(h.percentile(100), 1000u);
}

TEST(LatencyHistogram, PercentileClampedToObservedRange) {
  LatencyHistogram h;
  h.record(1000);  // single value: every percentile is that value's bucket,
  h.record(1001);  // clamped into [min, max]
  EXPECT_GE(h.percentile(50), 1000u);
  EXPECT_LE(h.percentile(50), 1001u);
  EXPECT_EQ(h.percentile(99), 1001u);
}

TEST(LatencyHistogram, MergeMatchesCombinedRecording) {
  LatencyHistogram a, b, both;
  for (std::uint64_t v = 1; v <= 500; ++v) {
    a.record(v * 3);
    both.record(v * 3);
  }
  for (std::uint64_t v = 1; v <= 500; ++v) {
    b.record(v * 7);
    both.record(v * 7);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min(), both.min());
  EXPECT_EQ(a.max(), both.max());
  EXPECT_DOUBLE_EQ(a.mean(), both.mean());
  for (double p : {1.0, 25.0, 50.0, 95.0, 99.0}) {
    EXPECT_EQ(a.percentile(p), both.percentile(p)) << "p=" << p;
  }
}

TEST(LatencyHistogram, MergeEmptyIsIdentity) {
  LatencyHistogram a, empty;
  a.record(42);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.min(), 42u);
  EXPECT_EQ(a.max(), 42u);
  empty.merge(a);
  EXPECT_EQ(empty.min(), 42u);
}

TEST(LatencyHistogram, MergeDisjointRangesKeepsExtremes) {
  LatencyHistogram lo, hi;
  for (std::uint64_t v = 1; v <= 100; ++v) lo.record(v);
  for (std::uint64_t v = 1000000; v <= 1000100; ++v) hi.record(v);
  lo.merge(hi);
  EXPECT_EQ(lo.count(), 201u);
  EXPECT_EQ(lo.min(), 1u);
  EXPECT_EQ(lo.max(), 1000100u);
  EXPECT_LE(lo.percentile(25), 100u);       // low half stays low
  EXPECT_GE(lo.percentile(75), 1000000u);   // high half stays high
}

TEST(LatencyHistogram, SingleSampleEveryPercentileIsTheSample) {
  LatencyHistogram h;
  h.record(777);
  for (double p : {0.0, 0.001, 50.0, 99.999, 100.0}) {
    EXPECT_EQ(h.percentile(p), 777u) << "p=" << p;
  }
  EXPECT_EQ(h.min(), 777u);
  EXPECT_EQ(h.max(), 777u);
  EXPECT_DOUBLE_EQ(h.mean(), 777.0);
}

TEST(LatencyHistogram, PercentileOutOfRangeClampsAndNanIsDefined) {
  LatencyHistogram h;
  h.record(10);
  h.record(20);
  h.record(30);
  // Out-of-range p clamps to the observed extremes instead of indexing
  // a nonexistent rank.
  EXPECT_EQ(h.percentile(-5.0), 10u);
  EXPECT_EQ(h.percentile(150.0), 30u);
  // NaN must not reach the rank cast (casting NaN to an integer is UB and
  // returned garbage before the guard); it reads as p<=0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(h.percentile(nan), 10u);
  LatencyHistogram empty;
  EXPECT_EQ(empty.percentile(nan), 0u);
}

TEST(LatencyHistogram, ForgetToEmptyThenRecordAgain) {
  LatencyHistogram h;
  h.record(5);
  h.record(500);
  h.forget(5);
  h.forget(500);
  EXPECT_EQ(h.count(), 0u);
  // Empty-by-forgetting reports like empty-by-construction for count-driven
  // summaries (min/max track lifetime extremes only while non-empty).
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(50), 0u);
  h.record(7);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.percentile(50), 7u);
}

TEST(LatencyHistogram, ResetClears) {
  LatencyHistogram h;
  h.record(99);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.percentile(50), 0u);
}

TEST(LatencyHistogram, DeterministicAcrossRuns) {
  // Same sequence -> bit-identical summary (the hub's determinism contract).
  auto build = [] {
    LatencyHistogram h;
    std::uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 10000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      h.record(x % 1000000);
    }
    return h;
  };
  const LatencyHistogram h1 = build(), h2 = build();
  for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) {
    EXPECT_EQ(h1.percentile(p), h2.percentile(p));
  }
  EXPECT_EQ(h1.min(), h2.min());
  EXPECT_EQ(h1.max(), h2.max());
}


// ------------------------------------------- octave totals, multi-percentile

// The walk percentile() had before octave totals: bucket by bucket from the
// bottom, clamped to [min, max].
std::uint64_t linear_percentile(const LatencyHistogram& h, double p) {
  if (h.count() == 0) return 0;
  if (!(p > 0.0)) return h.min();
  if (p >= 100.0) return h.max();
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(p / 100.0 * static_cast<double>(h.count())));
  rank = std::clamp<std::uint64_t>(rank, 1, h.count());
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    seen += h.bucket_count(i);
    if (seen >= rank) {
      return std::clamp(LatencyHistogram::bucket_upper(i), h.min(), h.max());
    }
  }
  return h.max();
}

constexpr std::array<double, 12> kAscending{
    0.0, 0.001, 1.0, 12.5, 25.0, 50.0, 50.0, 90.0, 95.0, 99.0, 99.999, 100.0};

// Every structural and answer invariant, checked against `live` (the
// values recorded and not yet forgotten).
void expect_consistent(const LatencyHistogram& h,
                       const std::vector<std::uint64_t>& live) {
  ASSERT_EQ(h.count(), live.size());
  std::array<std::uint64_t, LatencyHistogram::kBucketCount> want{};
  for (std::uint64_t v : live) ++want[LatencyHistogram::bucket_index(v)];
  for (std::size_t i = 0; i < LatencyHistogram::kBucketCount; ++i) {
    ASSERT_EQ(h.bucket_count(i), want[i]) << "bucket " << i;
  }
  for (std::size_t o = 0; o < LatencyHistogram::kOctaveCount; ++o) {
    std::uint64_t sum = 0;
    for (std::size_t j = 0; j < LatencyHistogram::kSubBuckets; ++j) {
      sum += h.bucket_count(o * LatencyHistogram::kSubBuckets + j);
    }
    ASSERT_EQ(h.octave_count(o), sum) << "octave " << o;
  }
  std::array<std::uint64_t, kAscending.size()> got{};
  h.percentiles(kAscending, got);
  for (std::size_t k = 0; k < kAscending.size(); ++k) {
    ASSERT_EQ(got[k], h.percentile(kAscending[k])) << "p=" << kAscending[k];
    ASSERT_EQ(got[k], linear_percentile(h, kAscending[k]))
        << "p=" << kAscending[k];
  }
  // Out of order still answers each p (the walk restarts).
  std::array<double, 4> mixed{99.0, 50.0, 95.0, 1.0};
  std::array<std::uint64_t, mixed.size()> got_mixed{};
  h.percentiles(mixed, got_mixed);
  for (std::size_t k = 0; k < mixed.size(); ++k) {
    ASSERT_EQ(got_mixed[k], linear_percentile(h, mixed[k])) << "p=" << mixed[k];
  }
}

// A value from one of several ranges: the exact 0..7 buckets, the top of
// the range, and every octave in between.
std::uint64_t draw(Rng& rng) {
  switch (rng.next_u64() % 4) {
    case 0:
      return rng.next_u64() % 8;
    case 1:
      return ~std::uint64_t{0} - rng.next_u64() % 3;
    default:
      return rng.next_u64() >> (rng.next_u64() % 64);
  }
}

TEST(LatencyHistogram, EdgeCasesAgreeWithTheLinearWalk) {
  LatencyHistogram h;
  expect_consistent(h, {});  // empty
  h.record(123456);
  expect_consistent(h, {123456});  // one value
  LatencyHistogram small;
  std::vector<std::uint64_t> live;
  for (std::uint64_t v = 0; v < 8; ++v) {
    small.record(v);
    live.push_back(v);
  }
  expect_consistent(small, live);  // the exact buckets
  small.record(~std::uint64_t{0});
  live.push_back(~std::uint64_t{0});
  expect_consistent(small, live);  // the last bucket
  LatencyHistogram top;
  top.record(~std::uint64_t{0});
  top.record(~std::uint64_t{0});
  expect_consistent(top, {~std::uint64_t{0}, ~std::uint64_t{0}});
}

TEST(LatencyHistogram, RandomRecordForgetMergeKeepsEveryInvariant) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    LatencyHistogram h;
    std::vector<std::uint64_t> live;
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t op = rng.next_u64() % 10;
      if (op < 5) {
        const std::uint64_t v = draw(rng);
        h.record(v);
        live.push_back(v);
      } else if (op < 9) {
        if (live.empty()) continue;
        const std::size_t at = rng.next_u64() % live.size();
        h.forget(live[at]);
        live[at] = live.back();
        live.pop_back();
      } else {
        LatencyHistogram other;
        const std::uint64_t n = rng.next_u64() % 6;
        for (std::uint64_t i = 0; i < n; ++i) {
          const std::uint64_t v = draw(rng);
          other.record(v);
          live.push_back(v);
        }
        h.merge(other);
      }
      ASSERT_NO_FATAL_FAILURE(expect_consistent(h, live))
          << "seed " << seed << " step " << step;
    }
  }
}

}  // namespace
}  // namespace hb::util
