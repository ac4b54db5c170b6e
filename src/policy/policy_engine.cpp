#include "policy/policy_engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace hb::policy {

namespace {

/// Trips when two threads (or a reentrant sink) enter a serialized-only
/// engine method at once. Cheaper and more honest than a mutex: the
/// contract says callers serialize, so overlap is a bug to surface, not
/// a race to absorb.
class SerializedGuard {
 public:
  SerializedGuard(std::atomic<bool>& flag, const char* what) : flag_(flag) {
    // relaxed: the guard detects overlap, it does not publish data; the
    // engine's state is only touched by the single thread that wins entry.
    if (flag_.exchange(true, std::memory_order_relaxed)) {
      throw std::logic_error(std::string(what) +
                             ": concurrent or reentrant call on a "
                             "PolicyEngine (observe() must be externally "
                             "serialized; see policy_engine.hpp)");
    }
  }
  SerializedGuard(const SerializedGuard&) = delete;
  SerializedGuard& operator=(const SerializedGuard&) = delete;
  ~SerializedGuard() {
    // relaxed: see constructor.
    flag_.store(false, std::memory_order_relaxed);
  }

 private:
  std::atomic<bool>& flag_;
};

struct PolicyMetrics {
  obs::Counter* observes;
  obs::Counter* events;
  obs::Counter* actions;
  obs::Histogram* observe_ns;

  static const PolicyMetrics& get() {
    static const PolicyMetrics m = [] {
      auto& r = obs::MetricsRegistry::global();
      return PolicyMetrics{&r.counter("hb.policy.observes"),
                           &r.counter("hb.policy.events"),
                           &r.counter("hb.policy.actions"),
                           &r.histogram("hb.policy.observe_ns")};
    }();
    return m;
  }
};

}  // namespace

PolicyEngine::PolicyEngine(PolicyOptions opts) : opts_(opts) {
  if (opts_.flap_threshold == 0) opts_.flap_threshold = 1;
  if (opts_.correlated_min_apps == 0) opts_.correlated_min_apps = 1;
}

void PolicyEngine::add_sink(std::shared_ptr<ActionSink> sink) {
  SerializedGuard guard(observing_, "PolicyEngine::add_sink");
  if (sink) sinks_.push_back(std::move(sink));
}

std::string_view PolicyEngine::group_of(std::string_view app) {
  const std::size_t pos = app.find(kGroupDelimiter);
  return pos == std::string_view::npos ? std::string_view{}
                                       : app.substr(0, pos);
}

PolicyEngine::AppState& PolicyEngine::state_for(hub::AppId id) {
  const std::size_t shard = hub::app_id_shard(id);
  const std::size_t slot = hub::app_id_slot(id);
  if (shard >= states_.size()) states_.resize(shard + 1);
  auto& slots = states_[shard];
  if (slot >= slots.size()) slots.resize(slot + 1);
  return slots[slot];
}

const PolicyEngine::AppState* PolicyEngine::find_state(hub::AppId id) const {
  const std::size_t shard = hub::app_id_shard(id);
  const std::size_t slot = hub::app_id_slot(id);
  if (shard >= states_.size() || slot >= states_[shard].size()) return nullptr;
  const AppState& state = states_[shard][slot];
  return state.seen ? &state : nullptr;
}

bool PolicyEngine::record_edge(AppState& state, util::TimeNs now) {
  // Prune edges that slid out of the flap window, then admit this one.
  const util::TimeNs horizon = now - opts_.flap_window_ns;
  state.edges.erase(state.edges.begin(),
                    std::find_if(state.edges.begin(), state.edges.end(),
                                 [horizon](util::TimeNs t) {
                                   return t > horizon;
                                 }));
  state.edges.push_back(now);
  state.last_edge_ns = now;
  if (state.quarantined ||
      state.edges.size() < static_cast<std::size_t>(opts_.flap_threshold)) {
    return false;
  }
  state.quarantined = true;
  return true;
}

const std::vector<FleetEvent>& PolicyEngine::observe(
    const fault::FleetReport& report) {
  SerializedGuard guard(observing_, "PolicyEngine::observe");
  const PolicyMetrics& metrics = PolicyMetrics::get();
  obs::ObsSpan span("policy.observe", report.apps.size(), metrics.observe_ns);
  metrics.observes->add(1);
  ++stats_.sweeps;
  events_.clear();
  const util::TimeNs now = report.fleet.swept_at_ns;

  // Deaths are buffered until the whole sweep is scanned, so simultaneous
  // deaths sharing a failure domain can fold into one correlated event.
  struct Death {
    const fault::AppHealth* app;
    fault::Health from;
    bool quarantined;
  };
  std::vector<Death> deaths;
  std::vector<hub::AppId> newly_quarantined;

  for (const fault::AppHealth& app : report.apps) {
    AppState& state = state_for(app.id);
    if (!state.seen) {  // implicit prior: kWarmingUp
      state.seen = true;
      state.name = app.name;
    }

    const fault::Health from = state.last;
    const fault::Health to = app.health;
    if (from == to) continue;
    state.last = to;

    const bool was_dead = from == fault::Health::kDead;
    const bool is_dead = to == fault::Health::kDead;
    if (was_dead != is_dead) {
      if (is_dead) ++stats_.deaths;
      else ++stats_.revivals;
      if (record_edge(state, now)) {
        ++stats_.quarantines;
        ++quarantined_count_;
        newly_quarantined.push_back(app.id);
      }
    }

    if (is_dead) {
      deaths.push_back({&app, from, state.quarantined});
      continue;  // emitted below, folded or individual
    }
    ++stats_.transitions;
    FleetEvent ev;
    ev.kind = EventKind::kTransition;
    ev.at_ns = now;
    ev.app = app.name;
    ev.id = app.id;
    ev.from_health = from;
    ev.to_health = to;
    ev.quarantined = state.quarantined;
    events_.push_back(std::move(ev));
  }

  // Group this sweep's deaths by failure domain. Groups at or above the
  // fold threshold emit one correlated event; everything else emits the
  // ordinary per-app transition. Group order follows first appearance in
  // the sweep, so emission stays deterministic.
  std::unordered_map<std::string_view, std::size_t> group_counts;
  for (const Death& d : deaths) {
    const auto group = group_of(d.app->name);
    if (!group.empty()) ++group_counts[group];
  }
  std::unordered_map<std::string_view, std::size_t> folded;  // group -> event
  for (const Death& d : deaths) {
    const auto group = group_of(d.app->name);
    const bool fold = !group.empty() &&
                      group_counts[group] >= opts_.correlated_min_apps;
    if (!fold) {
      ++stats_.transitions;
      FleetEvent ev;
      ev.kind = EventKind::kTransition;
      ev.at_ns = now;
      ev.app = d.app->name;
      ev.id = d.app->id;
      ev.from_health = d.from;
      ev.to_health = fault::Health::kDead;
      ev.quarantined = d.quarantined;
      events_.push_back(std::move(ev));
      continue;
    }
    auto [it, inserted] = folded.try_emplace(group, events_.size());
    if (inserted) {
      FleetEvent ev;
      ev.kind = EventKind::kCorrelatedFailure;
      ev.at_ns = now;
      ev.group = std::string(group);
      events_.push_back(std::move(ev));
      ++stats_.correlated_failures;
    }
    FleetEvent& ev = events_[it->second];
    ev.apps.push_back(d.app->name);
    ev.app_ids.push_back(d.app->id);
  }

  for (const hub::AppId id : newly_quarantined) {
    FleetEvent ev;
    ev.kind = EventKind::kQuarantine;
    ev.at_ns = now;
    ev.app = state_for(id).name;
    ev.id = id;
    ev.quarantined = true;
    events_.push_back(std::move(ev));
  }

  // Parole hearing: a quarantined app that has stayed edge-free for the
  // whole cooldown — and is actually ALIVE — is trusted again. An app
  // that sits dead through the cooldown is edge-free too, but "stable
  // again, remediation re-armed" would be a lie: its death edge was
  // already consumed, so nothing would ever remediate it. It stays
  // quarantined (down, awaiting a human) until a revival edge restarts
  // the cooldown clock.
  for (std::size_t shard = 0; quarantined_count_ > 0 && shard < states_.size();
       ++shard) {  // the count skips the whole walk on quarantine-free sweeps
    for (std::size_t slot = 0; slot < states_[shard].size(); ++slot) {
      AppState& state = states_[shard][slot];
      if (!state.seen || !state.quarantined ||
          state.last == fault::Health::kDead ||
          now - state.last_edge_ns < opts_.quarantine_cooldown_ns) {
        continue;
      }
      state.quarantined = false;
      state.edges.clear();
      --quarantined_count_;
      ++stats_.quarantines_lifted;
      FleetEvent ev;
      ev.kind = EventKind::kQuarantineLifted;
      ev.at_ns = now;
      ev.app = state.name;
      ev.id = hub::make_app_id(static_cast<std::uint32_t>(shard),
                               static_cast<std::uint32_t>(slot));
      events_.push_back(std::move(ev));
    }
  }

  stats_.events += events_.size();
  metrics.events->add(events_.size());
  for (const FleetEvent& ev : events_) {
    for (const auto& sink : sinks_) sink->on_event(*this, ev);
  }
  metrics.actions->add(events_.size() * sinks_.size());
  return events_;
}

bool PolicyEngine::quarantined(hub::AppId id) const {
  const AppState* state = find_state(id);
  return state && state->quarantined;
}

bool PolicyEngine::quarantined(std::string_view name) const {
  for (const auto& slots : states_) {
    for (const AppState& state : slots) {
      if (state.seen && state.name == name) return state.quarantined;
    }
  }
  return false;
}

std::vector<std::string> PolicyEngine::quarantined_apps() const {
  std::vector<std::string> out;
  for (const auto& slots : states_) {
    for (const AppState& state : slots) {
      if (state.seen && state.quarantined) out.push_back(state.name);
    }
  }
  return out;
}

fault::Health PolicyEngine::last_health(hub::AppId id) const {
  const AppState* state = find_state(id);
  return state ? state->last : fault::Health::kWarmingUp;
}

}  // namespace hb::policy
