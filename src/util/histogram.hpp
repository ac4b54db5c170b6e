// Fixed-bucket log-scale histogram for latency-style values.
//
// The hub's per-app sliding-window summaries need cheap, mergeable
// percentiles (p50/p95/p99 of inter-beat intervals) over unbounded value
// ranges — nanoseconds to minutes — without storing samples. This is the
// standard fixed-bucket recipe (cf. HdrHistogram): log2 bucketing with 8
// linear sub-buckets per octave, giving <= 12.5% relative error per bucket
// at a fixed (496 + 62) * 8 bytes of state. record() is a couple of bit ops
// plus two increments, so it is safe inside a shard's ingest critical
// section. Per-octave totals let a percentile skip whole octaves: a read
// walks at most 62 totals plus 8 sub-buckets per requested rank.
//
// Deterministic: identical value sequences produce identical summaries on
// every host, which is what lets hub tests pin exact expectations under a
// ManualClock.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

namespace hb::util {

/// The percentiles every summary reports (p50, p95, p99), ascending so one
/// LatencyHistogram::percentiles() walk answers all three.
inline constexpr std::array<double, 3> kSummaryPercentiles{50.0, 95.0, 99.0};

class LatencyHistogram {
 public:
  /// 8 exact buckets for values 0..7, then 8 sub-buckets per octave up to
  /// 2^64-1: (60 + 1) * 8 + 8 = 496 buckets total.
  static constexpr std::size_t kBucketCount = 496;
  static constexpr std::uint64_t kSubBuckets = 8;  // per octave
  /// Groups of kSubBuckets buckets (the exact 0..7 group counts as one).
  static constexpr std::size_t kOctaveCount = kBucketCount / kSubBuckets;

  /// Index of the bucket containing `v`. Monotone in `v`.
  static constexpr std::size_t bucket_index(std::uint64_t v) {
    if (v < kSubBuckets) return static_cast<std::size_t>(v);
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - 3;  // keep the top 4 bits: 1xxx
    const std::uint64_t top = v >> shift;  // in [8, 15]
    return static_cast<std::size_t>(shift + 1) * 8 +
           static_cast<std::size_t>(top - 8);
  }

  /// Inclusive upper bound of bucket `idx` (the value percentile() reports).
  static constexpr std::uint64_t bucket_upper(std::size_t idx) {
    if (idx < kSubBuckets) return idx;
    const std::size_t shift = idx / 8 - 1;
    const std::uint64_t lower = (std::uint64_t{8} + idx % 8) << shift;
    return lower + ((std::uint64_t{1} << shift) - 1);
  }

  void record(std::uint64_t v) {
    const std::size_t idx = bucket_index(v);
    ++counts_[idx];
    ++octaves_[idx / kSubBuckets];
    ++count_;
    sum_ += static_cast<double>(v);
    if (v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  /// Remove one previously record()ed value (sliding-window eviction).
  /// min()/max() keep tracking the extremes seen since the last reset();
  /// callers that need window-exact bounds clamp externally (the hub keeps
  /// them per beat in util::WindowStats). Precondition: `v` was recorded
  /// and not yet forgotten.
  void forget(std::uint64_t v) {
    const std::size_t idx = bucket_index(v);
    --counts_[idx];
    --octaves_[idx / kSubBuckets];
    --count_;
    sum_ -= static_cast<double>(v);
  }

  /// Pointwise sum of two histograms (shard -> cluster rollups).
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBucketCount; ++i) counts_[i] += other.counts_[i];
    for (std::size_t o = 0; o < kOctaveCount; ++o) octaves_[o] += other.octaves_[o];
    count_ += other.count_;
    sum_ += other.sum_;
    if (other.count_ > 0) {
      if (other.min_ < min_) min_ = other.min_;
      if (other.max_ > max_) max_ = other.max_;
    }
  }

  void reset() { *this = LatencyHistogram{}; }

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }  ///< exact
  std::uint64_t max() const { return count_ ? max_ : 0; }  ///< exact
  double mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

  /// Values recorded (and not forgotten) in bucket `idx` / octave `o`.
  std::uint64_t bucket_count(std::size_t idx) const { return counts_[idx]; }
  std::uint64_t octave_count(std::size_t o) const { return octaves_[o]; }

  /// Nearest-rank percentile, p in [0, 100]: the upper bound of the bucket
  /// holding the ceil(p/100 * count)'th smallest value, clamped to the exact
  /// observed [min, max]. Returns 0 when empty. Out-of-range p clamps to
  /// [min, max]; a NaN p reads as 0 (casting NaN to an integer rank would
  /// be undefined behavior, so it must not reach the rank math).
  std::uint64_t percentile(double p) const {
    std::uint64_t v = 0;
    percentiles(std::span<const double>(&p, 1), std::span<std::uint64_t>(&v, 1));
    return v;
  }

  /// percentile(ps[k]) into out[k] for every k (out.size() >= ps.size()),
  /// in one pass when ps ascends: each rank resumes the walk where the
  /// previous one stopped, skipping whole octaves by their totals.
  void percentiles(std::span<const double> ps,
                   std::span<std::uint64_t> out) const {
    std::size_t i = 0;      // bucket the walk stands on
    std::uint64_t seen = 0;  // values in buckets [0, i)
    std::uint64_t last_rank = 0;
    for (std::size_t k = 0; k < ps.size(); ++k) {
      const double p = ps[k];
      if (count_ == 0) {
        out[k] = 0;
        continue;
      }
      if (!(p > 0.0)) {  // p <= 0, and NaN
        out[k] = min_;
        continue;
      }
      if (p >= 100.0) {
        out[k] = max_;
        continue;
      }
      std::uint64_t rank = static_cast<std::uint64_t>(
          std::ceil(p / 100.0 * static_cast<double>(count_)));
      if (rank == 0) rank = 1;
      if (rank > count_) rank = count_;
      if (rank < last_rank) {  // p descended: walk again from the start
        i = 0;
        seen = 0;
      }
      last_rank = rank;
      while (i < kBucketCount && seen + counts_[i] < rank) {
        if (i % kSubBuckets == 0 && seen + octaves_[i / kSubBuckets] < rank) {
          seen += octaves_[i / kSubBuckets];
          i += kSubBuckets;
        } else {
          seen += counts_[i];
          ++i;
        }
      }
      out[k] = i < kBucketCount ? std::clamp(bucket_upper(i), min_, max_) : max_;
    }
  }

 private:
  std::array<std::uint64_t, kBucketCount> counts_{};
  /// octaves_[o] = sum of counts_[o * kSubBuckets, (o + 1) * kSubBuckets).
  std::array<std::uint64_t, kOctaveCount> octaves_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

}  // namespace hb::util
