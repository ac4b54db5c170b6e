// PolicyEngine: the decide layer that closes the observe-decide-act loop.
//
// The paper's premise (§2.6) is that heartbeats exist so an EXTERNAL agent
// can act on them: consolidate the light VMs, restart the dead ones, page
// someone about a rack. FleetDetector observes; this engine decides. Feed
// it successive FleetReports (from any sweep cadence — CloudSim::step,
// hbmon fleet --watch, your own loop) and it derives edge-triggered
// FleetEvents from the deltas:
//
//   - verdict TRANSITIONS per app (healthy->dead, dead->warming-up, ...)
//     emitted once per change, never re-asserted per sweep;
//   - FLAP detection: apps cycling dead<->alive faster than
//     flap_threshold edges per flap_window_ns are quarantined — still
//     reported, but acting sinks must leave them alone until they stay
//     stable for quarantine_cooldown_ns (a crash-looping VM must not eat
//     its restart budget, or anyone's attention, forever);
//   - CORRELATED failures: >= correlated_min_apps deaths in one sweep
//     sharing a failure-domain group (the name prefix before
//     kGroupDelimiter, e.g. "rack3/vm-7" -> "rack3") fold into ONE
//     kCorrelatedFailure event instead of N alerts.
//
// Events are dispatched to registered ActionSinks in emission order, then
// kept until the next observe() for the caller to inspect.
//
// Threading: observe() mutates engine state and must be externally
// serialized (one decide loop per engine — the CloudSim tick hook and
// hbmon --watch are both single-threaded). Query methods are safe between
// observes and from sinks during dispatch.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fleet_detector.hpp"
#include "policy/action_sink.hpp"
#include "policy/events.hpp"
#include "util/time.hpp"

namespace hb::policy {

/// An app's failure-domain group is its name up to the FIRST occurrence of
/// this delimiter ("rack3/vm-7" -> "rack3"); names without it are
/// ungrouped and never fold into a correlated failure.
inline constexpr char kGroupDelimiter = '/';

struct PolicyOptions {
  /// Sliding window for counting an app's dead<->alive edges (a kill and
  /// its revival are two edges).
  util::TimeNs flap_window_ns = 60 * util::kNsPerSec;
  /// Edges within flap_window_ns that mark an app as flapping and
  /// quarantine it. The default (4 = two full kill/revive cycles) never
  /// fires for an app that dies once and is healed once.
  std::uint32_t flap_threshold = 4;
  /// Edge-free time a quarantined app must survive — while alive — before
  /// kQuarantineLifted re-arms automatic remediation for it. An app that
  /// stays dead through the cooldown remains quarantined (its death edge
  /// is already consumed; "re-armed" would remediate nothing).
  util::TimeNs quarantine_cooldown_ns = 120 * util::kNsPerSec;
  /// Minimum apps of one failure-domain group dying in the SAME sweep to
  /// fold their deaths into one kCorrelatedFailure event.
  std::size_t correlated_min_apps = 3;
};

/// Cumulative engine counters (all monotonic since construction).
struct PolicyStats {
  std::uint64_t sweeps = 0;       ///< observe() calls
  std::uint64_t events = 0;       ///< events emitted, all kinds
  /// kTransition events actually emitted — deaths folded into a
  /// kCorrelatedFailure count in `deaths`, not here, so this number
  /// reconciles with the streamed event log.
  std::uint64_t transitions = 0;
  std::uint64_t deaths = 0;       ///< apps newly dead (folded ones included)
  std::uint64_t revivals = 0;     ///< apps newly back from dead
  std::uint64_t correlated_failures = 0;  ///< kCorrelatedFailure events
  std::uint64_t quarantines = 0;          ///< kQuarantine events
  std::uint64_t quarantines_lifted = 0;   ///< kQuarantineLifted events
};

class PolicyEngine {
 public:
  explicit PolicyEngine(PolicyOptions opts = {});

  PolicyEngine(const PolicyEngine&) = delete;
  PolicyEngine& operator=(const PolicyEngine&) = delete;

  /// Register a sink; every subsequent observe() dispatches each event to
  /// all sinks in registration order.
  void add_sink(std::shared_ptr<ActionSink> sink);

  /// Consume one sweep: diff it against the previous one, emit the edge
  /// events, dispatch them, and return them (valid until the next
  /// observe). An app's implicit prior state is kWarmingUp, so the very
  /// first report only fires transitions for apps already past warm-up —
  /// a steady healthy fleet's first observe is silent apart from
  /// warming-up -> healthy edges.
  ///
  /// Must be externally serialized (one decide loop per engine). That
  /// contract is now enforced: a concurrent or reentrant observe() throws
  /// std::logic_error instead of silently corrupting engine state.
  const std::vector<FleetEvent>& observe(const fault::FleetReport& report);

  /// True while the app is flap-quarantined (acting sinks consult this
  /// for correlated-failure members, whose event carries no per-app flag).
  bool quarantined(hub::AppId id) const;
  /// Name-keyed variant (linear scan — test/operator convenience).
  bool quarantined(std::string_view name) const;
  /// Names of all currently quarantined apps, unordered.
  std::vector<std::string> quarantined_apps() const;

  /// The verdict the engine last saw for an app (kWarmingUp if never seen).
  fault::Health last_health(hub::AppId id) const;

  const PolicyStats& stats() const { return stats_; }
  const PolicyOptions& options() const { return opts_; }

  /// The failure-domain group of an app name under kGroupDelimiter (""
  /// when ungrouped). Exposed so tests and sinks share the exact rule.
  static std::string_view group_of(std::string_view app);

 private:
  struct AppState {
    std::string name;
    fault::Health last = fault::Health::kWarmingUp;
    bool seen = false;  ///< slot holds a tracked app (vectors are dense)
    bool quarantined = false;
    util::TimeNs last_edge_ns = 0;
    std::vector<util::TimeNs> edges;  ///< dead<->alive edge times, pruned
  };

  /// Record a dead<->alive edge; returns true when it newly quarantines.
  bool record_edge(AppState& state, util::TimeNs now);

  /// Per-app state, directly indexed by the (shard, slot) an AppId packs —
  /// hub slots are dense, so this is two array indexes on the observe hot
  /// path where a hash map's lookup cost would rival the sweep itself
  /// (bench_policy_sweep gates the total under 10%). Grows on demand.
  AppState& state_for(hub::AppId id);
  const AppState* find_state(hub::AppId id) const;

  PolicyOptions opts_;
  PolicyStats stats_;
  /// Detects contract violations: set for the duration of observe() (and
  /// of add_sink); a second thread or a reentrant sink entering observe()
  /// trips it. Not a lock — the engine stays single-loop by design.
  std::atomic<bool> observing_{false};
  std::vector<std::shared_ptr<ActionSink>> sinks_;
  std::vector<std::vector<AppState>> states_;  ///< [shard][slot]
  std::size_t quarantined_count_ = 0;  ///< gates the parole walk
  std::vector<FleetEvent> events_;  ///< last observe's emissions
};

}  // namespace hb::policy
