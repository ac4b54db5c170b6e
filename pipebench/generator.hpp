// The forked, open-loop load generator.
//
// One child process with kGenThreads beating threads beats every planned app
// through core::Heartbeat over ShmHubSink::wrap_factory, on absolute
// deadlines from the seeded plan, whatever the consumer is doing. It
// times what an app pays per beat (and per rate query), how late it ran,
// and — traced — the sink append inside each beat. Results come back
// through a shared anonymous mapping once the child has flushed its
// sinks and exited.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common.hpp"
#include "plan.hpp"
#include "transport/shm_ingest.hpp"

namespace pipebench {

inline constexpr std::size_t kMaxApps = 4096;
/// Lateness, in beat periods, that counts as a generator stall.
inline constexpr Ns kStallPeriods = 4;

/// Quantiles are over in-window beats (due inside the measurement window).
struct GenReport {
  std::uint64_t checksum = 0;       ///< the child's own plan checksum
  std::uint64_t window_beats = 0;
  double beat_ns_p50 = 0, beat_ns_p99 = 0, beat_ns_mean = 0;
  double rate_ns_p50 = 0, rate_ns_p99 = 0;
  std::uint64_t rate_calls = 0;
  double late_ms_p99 = 0, late_ms_max = 0;
  // Traced runs only.
  double append_ns_p50 = 0, append_ns_p99 = 0;
  double self_ns_p50 = 0, self_ns_p99 = 0;
};

// Words a beating thread writes on every beat sit on cache lines of their
// own, apart from the words every thread and the consumer read, so the
// harness's bookkeeping does not bounce lines between them mid-run.
struct alignas(64) PerThread {
  /// Running beat total (backlog sampling).
  std::atomic<std::uint64_t> produced{0};
  /// Absolute start time of the last beat that left more than
  /// kStallPeriods periods after its due time (0 = none yet).
  std::atomic<Ns> last_stall{0};
};

struct GenShared {
  std::atomic<int> stop{0};
  /// 0 starting, 1 beating, 2 finished (report valid), 3 failed.
  std::atomic<int> state{0};
  /// Absolute CLOCK_MONOTONIC start of the beat grid, chosen by the child
  /// once its apps are built; valid from state 1 on.
  std::atomic<Ns> t0{0};
  PerThread thread[kGenThreads];
  GenReport report;
  std::uint64_t produced_by_app[kMaxApps] = {};
  char error[256] = {};
};

struct GenArgs {
  std::string workload;
  std::uint64_t seed = 0;
  Ns seconds = 0;
  bool traced = false;
  std::string span_path;  ///< traced: CSV the child writes its spans to
};

/// Parent-side handle on the generator process.
class Generator {
 public:
  /// Fork the generator. The child inherits `queue`'s mapping and never
  /// returns from this call.
  Generator(const GenArgs& args,
            const std::shared_ptr<hb::transport::ShmIngestQueue>& queue);
  ~Generator();

  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  /// Ask the child to stop beating, then wait for it to exit (killing it
  /// after `timeout`). True when it finished cleanly.
  bool stop_and_wait(Ns timeout);

  /// Beats produced so far (both threads; relaxed read).
  std::uint64_t produced_now() const;

  const GenShared& shared() const { return *shared_; }

 private:
  GenShared* shared_ = nullptr;
  pid_t pid_ = -1;
};

}  // namespace pipebench
