// Exact statistics over the newest N values of a stream, kept per push.
//
// The hub summarizes every app's window of inter-beat intervals (min, max,
// mean, stddev) at each publish. Rescanning the window there costs
// O(window) per app per publish; this type keeps the answers current as
// values enter and leave instead:
//
//   * sum and sum of squares are integers (unsigned __int128), so adding
//     the entering value and subtracting the retired one never drifts;
//   * min and max update on entry, and are rescanned from the ring only
//     when a retired value was one of them (lazily, at the next read, so a
//     burst of such retirements costs one rescan).
//
// Not internally synchronized; the owner holds its lock.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>

#include "util/ring_buffer.hpp"

namespace hb::util {

class WindowStats {
 public:
  explicit WindowStats(std::size_t capacity) : ring_(capacity) {}

  std::size_t size() const { return ring_.size(); }
  std::size_t capacity() const { return ring_.capacity(); }

  /// Append `v`. When the window was full, the oldest value leaves and is
  /// returned (callers mirror the retirement into their own sketches).
  std::optional<std::uint64_t> push(std::uint64_t v) {
    std::optional<std::uint64_t> retired;
    if (ring_.size() == ring_.capacity()) {
      const std::uint64_t old = ring_.back(ring_.size() - 1);
      sum_ -= old;
      sumsq_ -= square(old);
      if (old == min_ || old == max_) bounds_stale_ = true;
      retired = old;
    }
    ring_.push(v);
    sum_ += v;
    sumsq_ += square(v);
    if (ring_.size() == 1) {
      min_ = max_ = v;
      bounds_stale_ = false;
    } else {
      min_ = std::min(min_, v);
      max_ = std::max(max_, v);
    }
    return retired;
  }

  void clear() {
    ring_.clear();
    sum_ = sumsq_ = 0;
    min_ = max_ = 0;
    bounds_stale_ = false;
  }

  /// Element `i` steps back from the newest; back(0) is the newest.
  std::uint64_t back(std::size_t i) const { return ring_.back(i); }

  /// Exact window minimum/maximum; 0 when empty. Non-const: a retired
  /// extreme is replaced by rescanning the ring here.
  std::uint64_t min() {
    refresh_bounds();
    return min_;
  }
  std::uint64_t max() {
    refresh_bounds();
    return max_;
  }

  /// Mean of the window (0 when empty).
  double mean() const {
    return ring_.empty() ? 0.0
                         : static_cast<double>(sum_) /
                               static_cast<double>(ring_.size());
  }

  /// Population standard deviation of the window (0 when empty).
  double stddev() const {
    const std::size_t n = ring_.size();
    if (n == 0) return 0.0;
    // n*sumsq - sum^2 is exact while n * max < 2^64 (then n*sumsq <=
    // n^2 * max^2 < 2^128). Past that the running sum of squares may have
    // wrapped, so fall back to a floating-point scan. A stale max_ is a
    // retired value, never below the true maximum, so the test is safe.
    if (max_ <= std::numeric_limits<std::uint64_t>::max() / n) {
      const unsigned __int128 un = n;
      const unsigned __int128 num = un * sumsq_ - sum_ * sum_;
      const double nn = static_cast<double>(n);
      return std::sqrt(static_cast<double>(num) / (nn * nn));
    }
    double sum = 0.0, sumsq = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double d = static_cast<double>(ring_.back(i));
      sum += d;
      sumsq += d * d;
    }
    const double mean = sum / static_cast<double>(n);
    return std::sqrt(
        std::max(0.0, sumsq / static_cast<double>(n) - mean * mean));
  }

 private:
  static unsigned __int128 square(std::uint64_t v) {
    return static_cast<unsigned __int128>(v) * v;
  }

  void refresh_bounds() {
    if (!bounds_stale_) return;
    bounds_stale_ = false;
    min_ = max_ = ring_.back(0);
    for (std::size_t i = 1; i < ring_.size(); ++i) {
      min_ = std::min(min_, ring_.back(i));
      max_ = std::max(max_, ring_.back(i));
    }
  }

  RingBuffer<std::uint64_t> ring_;
  unsigned __int128 sum_ = 0;
  unsigned __int128 sumsq_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  /// A retired value was min_ or max_; both are rescanned at the next read.
  bool bounds_stale_ = false;
};

}  // namespace hb::util
