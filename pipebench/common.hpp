// Shared helpers for the pipeline benchmark: the clock, bounded sample
// stores with a smoothed quantile, and the in-memory span log.
//
// Every timestamp here is CLOCK_MONOTONIC nanoseconds (std::steady_clock
// on Linux), the epoch util::MonotonicClock stamps beats with, so
// generator due times, beat timestamps and consumer sweep times compare
// directly across the fork.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pipebench {

using Ns = std::int64_t;
inline constexpr Ns kUs = 1000;
inline constexpr Ns kMs = 1000 * kUs;
inline constexpr Ns kSec = 1000 * kMs;

inline Ns now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Bounded sample store. Keeps every sample until `cap`, then a uniform
/// reservoir (Algorithm R, fixed seed) of `cap` — so long runs cost fixed
/// memory, allocated once up front.
class Samples {
 public:
  explicit Samples(std::size_t cap = 0, std::uint64_t seed = 1)
      : cap_(cap), rng_(seed | 1) {
    data_.reserve(cap);
  }

  void add(double v) {
    ++seen_;
    sum_ += v;
    if (v > max_) max_ = v;
    if (data_.size() < cap_) {
      data_.push_back(static_cast<float>(v));
      return;
    }
    if (cap_ == 0) return;
    const std::uint64_t j = next() % seen_;
    if (j < cap_) data_[j] = static_cast<float>(v);
  }

  void merge(const Samples& other) {
    const double sum = sum_ + other.sum_;
    for (const float v : other.data_) add(v);
    seen_ += other.seen_ - other.data_.size();
    sum_ = sum;
    max_ = std::max(max_, other.max_);
  }

  std::uint64_t count() const { return seen_; }
  /// Mean of every sample seen, stored or not.
  double mean() const { return seen_ ? sum_ / static_cast<double>(seen_) : 0.0; }
  double max() const { return seen_ ? max_ : 0.0; }

  /// Sort once before quantile queries.
  void finish() { std::sort(data_.begin(), data_.end()); }

  /// Smoothed quantile of the finished samples: the mean of the order
  /// statistics whose rank lies within +/-0.1 percentage points of q
  /// (linear interpolation when that band holds no rank). On
  /// integer-valued timings this keeps the fractional digits a single
  /// order statistic would round away. 0 when empty.
  double quantile(double q) const {
    if (data_.empty()) return 0.0;
    const double last = static_cast<double>(data_.size() - 1);
    const double r = std::clamp(q, 0.0, 1.0) * last;
    const double w = 0.001 * last;
    const auto lo = static_cast<std::size_t>(std::ceil(std::max(0.0, r - w)));
    const auto hi = static_cast<std::size_t>(std::floor(std::min(last, r + w)));
    if (lo > hi) {
      const auto f = static_cast<std::size_t>(std::floor(r));
      const std::size_t c = std::min(f + 1, data_.size() - 1);
      return data_[f] + (r - static_cast<double>(f)) * (data_[c] - data_[f]);
    }
    double sum = 0.0;
    for (std::size_t i = lo; i <= hi; ++i) sum += data_[i];
    return sum / static_cast<double>(hi - lo + 1);
  }

 private:
  std::uint64_t next() {
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  std::size_t cap_;
  std::uint64_t rng_;
  std::uint64_t seen_ = 0;
  double max_ = 0.0;
  double sum_ = 0.0;
  std::vector<float> data_;
};

/// Span names recorded by the benchmark (never from inside the library).
enum SpanName : std::uint32_t {
  kGenBeat,
  kSinkAppend,
  kGenRate,
  kLoopPoll,
  kLoopPublish,
  kLoopSweep,
  kLoopRecord,
  kLoopObserve,
  kLoopWait,
  kSpanNames,
};

inline const char* span_name(std::uint32_t n) {
  static const char* const kNames[kSpanNames] = {
      "gen.beat",     "sink.append", "gen.rate",    "loop.poll",  "loop.publish",
      "loop.sweep",   "loop.record", "loop.observe", "loop.wait"};
  return n < kSpanNames ? kNames[n] : "?";
}

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// In-memory span log for one thread. Spans are kept up to a fixed
/// capacity and written out at exit; per-name totals (duration and self
/// time, i.e. duration minus child spans) cover every span, stored or not.
class SpanLog {
 public:
  struct Span {
    Ns start = 0;
    Ns end = 0;
    Ns child_ns = 0;
    std::uint64_t cycle = 0;
    std::uint32_t name = 0;
    std::uint32_t parent = kNoSpan;         ///< open-stack handle
    std::uint32_t parent_name = kSpanNames;  ///< kSpanNames: a root span
  };

  explicit SpanLog(std::size_t cap = 0) : cap_(cap) { spans_.reserve(cap); }

  /// Open a span; returns its handle for close() and child parenting.
  std::uint32_t open(std::uint32_t name, Ns start, std::uint32_t parent,
                     std::uint64_t cycle = 0) {
    const std::uint32_t parent_name =
        parent == kNoSpan ? kSpanNames : open_[parent].name;
    open_.push_back({start, 0, 0, cycle, name, parent, parent_name});
    return static_cast<std::uint32_t>(open_.size() - 1);
  }

  /// Close the innermost open span `h`; returns its self time.
  Ns close(std::uint32_t h, Ns end) {
    Span s = open_[h];
    open_.pop_back();
    s.end = end;
    const Ns dur = end - s.start;
    const Ns self = dur - s.child_ns;
    if (s.parent != kNoSpan) open_[s.parent].child_ns += dur;
    total_ns_[s.name] += dur;
    self_ns_[s.name] += self;
    if (spans_.size() < cap_) {
      spans_.push_back(s);
    } else {
      ++unstored_;
    }
    return self;
  }

  Ns self_ns(std::uint32_t name) const { return self_ns_[name]; }
  Ns total_ns(std::uint32_t name) const { return total_ns_[name]; }

  /// Write stored spans as CSV (name,cycle,parent,start_ns,end_ns,self_ns).
  /// `parent` is the parent span's name ("" for roots).
  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "name,cycle,parent,start_ns,end_ns,self_ns\n");
    for (const Span& s : spans_) {
      std::fprintf(f, "%s,%llu,%s,%lld,%lld,%lld\n", span_name(s.name),
                   static_cast<unsigned long long>(s.cycle),
                   s.parent_name == kSpanNames ? "" : span_name(s.parent_name),
                   static_cast<long long>(s.start),
                   static_cast<long long>(s.end),
                   static_cast<long long>(s.end - s.start - s.child_ns));
    }
    std::fprintf(f, "# unstored_spans,%llu\n",
                 static_cast<unsigned long long>(unstored_));
    return std::fclose(f) == 0;
  }

 private:
  std::size_t cap_;
  std::vector<Span> open_;
  std::vector<Span> spans_;
  std::uint64_t unstored_ = 0;
  Ns total_ns_[kSpanNames] = {};
  Ns self_ns_[kSpanNames] = {};
};

}  // namespace pipebench
