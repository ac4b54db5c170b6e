// Unit tests for hb::util — clocks, ring buffer, statistics, RNG, CSV,
// thread ids.
#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/clock.hpp"
#include "util/csv.hpp"
#include "util/flat_u64_map.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_id.hpp"
#include "util/time.hpp"
#include "util/window_stats.hpp"

namespace hb::util {
namespace {

// ---------------------------------------------------------------- time.hpp

TEST(Time, SecondsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_seconds(kNsPerSec), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(kNsPerMs), 1e-3);
  EXPECT_DOUBLE_EQ(to_seconds(kNsPerUs), 1e-6);
  EXPECT_EQ(from_seconds(2.5), 2'500'000'000);
  EXPECT_EQ(from_seconds(0.0), 0);
}

TEST(Time, NegativeIntervalsAreSigned) {
  EXPECT_DOUBLE_EQ(to_seconds(-kNsPerSec), -1.0);
}

// ----------------------------------------------------------------- clocks

TEST(MonotonicClock, NeverGoesBackwards) {
  MonotonicClock clock;
  TimeNs prev = clock.now();
  for (int i = 0; i < 1000; ++i) {
    TimeNs t = clock.now();
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(MonotonicClock, SharedInstanceIsSingleton) {
  EXPECT_EQ(MonotonicClock::instance().get(), MonotonicClock::instance().get());
}

TEST(ManualClock, StartsAtGivenTime) {
  ManualClock clock(42);
  EXPECT_EQ(clock.now(), 42);
}

TEST(ManualClock, AdvanceMovesAndReturnsNewTime) {
  ManualClock clock;
  EXPECT_EQ(clock.advance(10), 10);
  EXPECT_EQ(clock.advance(5), 15);
  EXPECT_EQ(clock.now(), 15);
}

TEST(ManualClock, SetJumpsAnywhere) {
  ManualClock clock(100);
  clock.set(7);
  EXPECT_EQ(clock.now(), 7);
}

TEST(ManualClock, ConcurrentAdvancesAllLand) {
  ManualClock clock;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&clock] {
      for (int i = 0; i < kPerThread; ++i) clock.advance(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(clock.now(), kThreads * kPerThread);
}

// ------------------------------------------------------------ ring buffer

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb(4);
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 4u);
  EXPECT_EQ(rb.total_pushed(), 0u);
}

TEST(RingBuffer, PushesUpToCapacity) {
  RingBuffer<int> rb(3);
  rb.push(1);
  rb.push(2);
  EXPECT_EQ(rb.size(), 2u);
  EXPECT_EQ(rb.back(0), 2);
  EXPECT_EQ(rb.back(1), 1);
}

TEST(RingBuffer, OverwritesOldestWhenFull) {
  RingBuffer<int> rb(3);
  for (int i = 1; i <= 5; ++i) rb.push(i);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb.total_pushed(), 5u);
  EXPECT_EQ(rb.back(0), 5);
  EXPECT_EQ(rb.back(1), 4);
  EXPECT_EQ(rb.back(2), 3);
}

TEST(RingBuffer, LastNOldestFirst) {
  RingBuffer<int> rb(4);
  for (int i = 1; i <= 6; ++i) rb.push(i);
  const auto v = rb.last_n(3);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 4);
  EXPECT_EQ(v[1], 5);
  EXPECT_EQ(v[2], 6);
}

TEST(RingBuffer, LastNClipsToSize) {
  RingBuffer<int> rb(8);
  rb.push(10);
  rb.push(20);
  const auto v = rb.last_n(100);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
}

TEST(RingBuffer, LastNSpanRespectsOutputSize) {
  RingBuffer<int> rb(8);
  for (int i = 0; i < 8; ++i) rb.push(i);
  std::vector<int> out(3);
  const std::size_t n = rb.last_n(5, std::span<int>(out));
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(out[0], 5);
  EXPECT_EQ(out[2], 7);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb(2);
  rb.push(1);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.total_pushed(), 0u);
}

// Property: for any capacity and push count, last_n returns the most recent
// min(n, size) values in order.
class RingBufferProperty
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(RingBufferProperty, RetainsNewestInOrder) {
  const auto [capacity, pushes] = GetParam();
  RingBuffer<std::size_t> rb(capacity);
  for (std::size_t i = 0; i < pushes; ++i) rb.push(i);
  const std::size_t expect_size = std::min(capacity, pushes);
  EXPECT_EQ(rb.size(), expect_size);
  const auto v = rb.last_n(expect_size);
  ASSERT_EQ(v.size(), expect_size);
  for (std::size_t i = 0; i < expect_size; ++i) {
    EXPECT_EQ(v[i], pushes - expect_size + i);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RingBufferProperty,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 7, 64, 1024),
                       ::testing::Values<std::size_t>(0, 1, 5, 63, 64, 65,
                                                      4096)));

// ------------------------------------------------------------ flat u64 map

TEST(FlatU64Map, InsertFindErase) {
  FlatU64Map<int> m;
  EXPECT_EQ(m.find(7), nullptr);
  m.erase(7);  // absent: no-op
  m[7] = 70;
  m[0] = 1;  // key 0 is an ordinary key
  ++m[7];
  ASSERT_NE(m.find(7), nullptr);
  EXPECT_EQ(*m.find(7), 71);
  EXPECT_EQ(*m.find(0), 1);
  EXPECT_EQ(m.size(), 2u);
  m.erase(7);
  EXPECT_EQ(m.find(7), nullptr);
  EXPECT_EQ(m.size(), 1u);
}

// Property: any mix of inserts and erases — a sliding counter window like
// the hub's tags, plus random keys from a small range so probe runs
// collide and wrap — leaves the same contents as std::unordered_map.
TEST(FlatU64Map, MatchesUnorderedMapUnderChurn) {
  FlatU64Map<std::uint64_t> m;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(42);
  for (std::uint64_t i = 0; i < 20000; ++i) {
    const std::uint64_t key = i % 3 == 0 ? i : rng.next_below(97) << 40;
    if (rng.next_below(3) == 0) {
      m.erase(key);
      ref.erase(key);
    } else {
      ++m[key];
      ++ref[key];
    }
    if (i >= 300) {
      m.erase(i - 300);
      ref.erase(i - 300);
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  std::size_t seen = 0;
  m.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++seen;
    ASSERT_EQ(ref.count(key), 1u);
    EXPECT_EQ(ref.at(key), value);
  });
  EXPECT_EQ(seen, ref.size());
  for (const auto& [key, value] : ref) {
    ASSERT_NE(m.find(key), nullptr);
    EXPECT_EQ(*m.find(key), value);
  }
}

// ------------------------------------------------------------ window stats

TEST(WindowStats, EmptyAndClearedReadZero) {
  WindowStats w(4);
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.min(), 0u);
  EXPECT_EQ(w.max(), 0u);
  EXPECT_EQ(w.mean(), 0.0);
  EXPECT_EQ(w.stddev(), 0.0);
  w.push(5);
  w.push(9);
  w.clear();
  EXPECT_EQ(w.size(), 0u);
  EXPECT_EQ(w.max(), 0u);
  EXPECT_EQ(w.stddev(), 0.0);
  w.push(3);
  EXPECT_EQ(w.min(), 3u);
  EXPECT_EQ(w.max(), 3u);
}

TEST(WindowStats, PushReturnsTheRetiredValue) {
  WindowStats w(3);
  EXPECT_FALSE(w.push(1).has_value());
  EXPECT_FALSE(w.push(2).has_value());
  EXPECT_FALSE(w.push(3).has_value());
  EXPECT_EQ(w.push(4), std::optional<std::uint64_t>(1));
  EXPECT_EQ(w.push(5), std::optional<std::uint64_t>(2));
  EXPECT_EQ(w.size(), 3u);
  EXPECT_EQ(w.back(0), 5u);
  EXPECT_EQ(w.back(2), 3u);
}

// Property: after every push the kept statistics equal a brute-force
// recompute over the newest `capacity` values. Small value ranges make the
// retired value often equal to the min or max (the lazy rescan path);
// values near 2^63 make n * max overflow 64 bits (the scan fallback).
TEST(WindowStats, MatchesBruteForceOverTheWindow) {
  struct Case {
    std::size_t capacity;
    std::uint64_t base;
    std::uint64_t spread;
  };
  for (const Case c : {Case{1, 0, 10}, Case{2, 0, 3}, Case{7, 0, 4},
                       Case{64, 1000, 1000000}, Case{255, 100000000, 5000000},
                       Case{16, std::uint64_t{1} << 62, std::uint64_t{1} << 62}}) {
    WindowStats w(c.capacity);
    std::vector<std::uint64_t> all;
    Rng rng(c.capacity);
    for (int i = 0; i < 3000; ++i) {
      const std::uint64_t v = c.base + rng.next_below(c.spread);
      const auto retired = w.push(v);
      if (all.size() >= c.capacity) {
        ASSERT_TRUE(retired.has_value());
        ASSERT_EQ(*retired, all[all.size() - c.capacity]);
      } else {
        ASSERT_FALSE(retired.has_value());
      }
      all.push_back(v);
      // Read only every few pushes, so several retirements can pile up
      // behind one stale bound.
      if (i % 3 != 0) continue;
      const std::size_t n = std::min(all.size(), c.capacity);
      const auto first = all.end() - static_cast<std::ptrdiff_t>(n);
      ASSERT_EQ(w.size(), n);
      ASSERT_EQ(w.min(), *std::min_element(first, all.end())) << "push " << i;
      ASSERT_EQ(w.max(), *std::max_element(first, all.end())) << "push " << i;
      long double sum = 0;
      for (auto it = first; it != all.end(); ++it) sum += *it;
      const long double mean = sum / n;
      long double dev = 0;
      for (auto it = first; it != all.end(); ++it) {
        dev += (*it - mean) * (*it - mean);
      }
      const double stddev = static_cast<double>(std::sqrt(dev / n));
      ASSERT_NEAR(w.mean(), static_cast<double>(mean),
                  1e-12 * static_cast<double>(mean));
      ASSERT_NEAR(w.stddev(), stddev, 1e-9 * stddev + 1e-9) << "push " << i;
    }
  }
}

// ------------------------------------------------------------- statistics

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStats, KnownMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Population variance is 4; sample variance = 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmptySides) {
  RunningStats a, b;
  a.add(1.0);
  a.merge(b);  // empty rhs: no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // empty lhs: copy
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 1.0);
}

TEST(Percentile, NearestRank) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 9.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(Ewma, FirstSampleSeeds) {
  Ewma e(0.5);
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.add(10.0), 10.0);
  EXPECT_TRUE(e.seeded());
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(0.3);
  for (int i = 0; i < 100; ++i) e.add(7.0);
  EXPECT_NEAR(e.value(), 7.0, 1e-9);
}

TEST(Ewma, BlendsByAlpha) {
  Ewma e(0.25);
  e.add(0.0);
  EXPECT_DOUBLE_EQ(e.add(8.0), 2.0);
}

// -------------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoublesInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = r.uniform(-3.0, 5.0);
    EXPECT_GE(x, -3.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(99);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.next_double());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(42);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ChanceProbability) {
  Rng r(5);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.chance(0.25);
  EXPECT_NEAR(hits / 100000.0, 0.25, 0.01);
}

TEST(Rng, NextBelowInRange) {
  Rng r(11);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.next_below(17), 17u);
}

// -------------------------------------------------------------------- csv

TEST(Csv, HeaderAndRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b", "c"});
  csv.row() << 1 << 2.5 << "x";
  EXPECT_EQ(out.str(), "a,b,c\n1,2.5,x\n");
}

TEST(Csv, EscapeQuotesAndCommas) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// -------------------------------------------------------------- thread id

TEST(ThreadId, StableWithinThread) {
  EXPECT_EQ(current_thread_id(), current_thread_id());
  EXPECT_EQ(current_thread_index(), current_thread_index());
}

TEST(ThreadId, DistinctAcrossThreads) {
  const std::uint32_t main_id = current_thread_id();
  std::set<std::uint32_t> ids{main_id};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] {
      const std::uint32_t id = current_thread_id();
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(id);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ids.size(), 9u);
}

}  // namespace
}  // namespace hb::util
