// Fleet-wide heartbeat failure detection over the aggregation hub.
//
// Paper, Section 2.6: "A lack of heartbeats from a particular node would
// indicate that it has failed, and slow or erratic heartbeats could indicate
// that a machine is about to fail." fault::FailureDetector answers that for
// ONE producer by polling its HeartbeatReader; at fleet scale (thousands of
// VMs feeding one hub) per-producer polling is the wrong shape. FleetDetector
// instead sweeps every registered app in a single FleetSnapshot pass — one
// publish per shard, no per-app reader queries — and derives each verdict
// from the app's hub summary alone: staleness stamped on the hub clock,
// windowed rate against the registered target, and exact interval
// mean/stddev for jitter.
//
// The verdict vocabulary is shared with FailureDetector (fault::Health), so
// consumers that graduate from one-reader monitoring to fleet sweeps keep
// their switch statements.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/failure_detector.hpp"
#include "hub/snapshot.hpp"
#include "hub/summary.hpp"
#include "util/time.hpp"

namespace hb::fault {

struct FleetDetectorOptions {
  /// Dead when staleness exceeds this multiple of the windowed mean
  /// inter-beat interval.
  double staleness_factor = 8.0;
  /// Erratic when the interval coefficient of variation (stddev / mean)
  /// exceeds this (same rule as FailureDetectorOptions::jitter_factor).
  double jitter_factor = 0.8;
  /// Lifetime beats required before any verdict other than warming-up/dead.
  std::uint64_t min_beats = 4;
  /// Absolute staleness bound (ns) that marks death in any state — the only
  /// bound that can fire for apps that never beat, or whose beats all share
  /// one tick (zero mean interval). 0 disables.
  util::TimeNs absolute_staleness_ns = 0;
  /// Transport allowance (ns) subtracted from observed staleness before any
  /// staleness verdict. For hubs fed across a process boundary (the shm
  /// ingest pump) a beat is only as fresh as the last drain: observed
  /// staleness includes up to one pump poll interval plus the producer's
  /// batch hold, on top of the cross-process clock-sampling skew of the
  /// shared CLOCK_MONOTONIC epoch. Set to roughly poll_interval +
  /// ShmHubSinkOptions::max_hold_ns so transport lag is never read as
  /// death. 0 (the default) is correct for in-process ingestion.
  util::TimeNs staleness_slack_ns = 0;
};

/// Cap on FleetHealth::worst (the most severe, most stale unhealthy apps).
inline constexpr std::size_t kFleetMaxWorst = 5;

/// The same thresholds expressed for the per-reader FailureDetector, so
/// consumers that watch some apps through readers and some through the hub
/// (e.g. GlobalScheduler) apply one rule set. Caveat: thresholds, not
/// observations — the reader detector estimates mean/jitter over its own
/// `window` beats (default 16) while hub summaries cover the hub's
/// configured window, so a cadence shift can cross a threshold in one
/// source before the other. staleness_slack_ns has no reader-side
/// counterpart (readers observe the store directly, with no transport
/// lag to discount) and is not carried over.
inline FailureDetectorOptions to_failure_detector_options(
    const FleetDetectorOptions& opts) {
  FailureDetectorOptions out;
  out.staleness_factor = opts.staleness_factor;
  out.jitter_factor = opts.jitter_factor;
  out.min_beats = opts.min_beats;
  out.absolute_staleness_ns = opts.absolute_staleness_ns;
  return out;
}

/// One app's verdict plus the summary facts that produced it.
struct AppHealth {
  std::string name;                    ///< hub registration name
  hub::AppId id = 0;                   ///< hub routing handle
  Health health = Health::kWarmingUp;  ///< kWarmingUp: too little evidence yet
  util::TimeNs staleness_ns = 0;  ///< ns since last beat, NOT slack-discounted
  std::uint64_t total_beats = 0;  ///< lifetime beats (survives eviction)
  double rate_bps = 0.0;          ///< windowed rate, beats/second
  core::TargetRate target;        ///< registered goal band, beats/second
};

/// Cluster-wide health rollup from one sweep.
struct FleetHealth {
  std::uint64_t apps = 0;  ///< apps swept, hub-evicted ones included
  std::uint64_t warming_up = 0;
  std::uint64_t healthy = 0;
  std::uint64_t slow = 0;
  std::uint64_t erratic = 0;
  std::uint64_t dead = 0;      ///< includes evicted apps (confirmed deaths)
  std::uint64_t evicted = 0;   ///< the subset of dead the hub evicted
  util::TimeNs swept_at_ns = 0;  ///< hub-clock time of the sweep

  std::vector<std::string> dead_apps;  ///< names, sweep order
  /// Unhealthy apps (slow/erratic/dead — warming up is not an offense),
  /// most severe verdict first, then most stale (<= kFleetMaxWorst
  /// entries).
  std::vector<AppHealth> worst;

  bool all_healthy() const { return healthy == apps; }
};

/// Everything one sweep produced: per-app verdicts (hub shard order, the
/// FleetSnapshot::for_each_app order — deterministic for a fixed
/// registration order; sort by name yourself for display) and the fleet
/// rollup.
struct FleetReport {
  std::vector<AppHealth> apps;
  FleetHealth fleet;
  /// Epoch of the FleetSnapshot this report was derived from
  /// (FleetSnapshot::epoch). Every verdict in one report comes from this
  /// single epoch — no per-shard tearing. Monotone non-decreasing across
  /// successive sweeps of one hub; 0 for reports fabricated without a
  /// snapshot (hand-built tests).
  std::uint64_t snapshot_epoch = 0;
};

/// Render a sweep as the standard operator verdict table: one row per app
/// sorted by name, then the fleet rollup line and the dead list. The ONE
/// table format every fleet surface prints (hbmon fleet, hbmon fleet
/// --live, examples), so the modes stay comparable by eye. Returns 0 when
/// the fleet has no dead apps, 3 otherwise — the hbmon exit-code contract
/// (docs/OPERATIONS.md).
int print_fleet_report(std::FILE* out, const FleetReport& report);

/// Stateless verdict math over hub summaries. Thread-safe: sweep() and
/// classify() are const and share nothing mutable, so one detector may
/// serve concurrent sweepers.
class FleetDetector {
 public:
  explicit FleetDetector(FleetDetectorOptions opts = {}) : opts_(opts) {}

  /// Classify every registered app from one coherent FleetSnapshot: pure
  /// math over the snapshot's summaries, no hub locks held. Every verdict
  /// in the report observes the SAME epoch (report.snapshot_epoch) — a
  /// concurrent flush cannot tear the sweep across windows.
  FleetReport sweep(const std::shared_ptr<const hub::FleetSnapshot>& snap)
      const;

  /// Verdict for a single app from its hub summary alone (no hub access).
  Health classify(const hub::AppSummary& summary) const;

  const FleetDetectorOptions& options() const { return opts_; }

 private:
  FleetDetectorOptions opts_;
};

}  // namespace hb::fault
