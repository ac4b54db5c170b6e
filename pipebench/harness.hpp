#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/snapshot.hpp"
#include "plan.hpp"
#include "policy/events.hpp"

namespace pipebench {

// Per-sweep bookkeeping of the harness: beat-to-verdict lag against the
// seeded schedule, fault-plan outcomes and steady-state health. Everything
// is sized at set-up; each sweep costs O(apps + beats counted since the
// previous sweep).
//
// Lag attribution: an app's beats reach the hub in order, so each sweep's
// newly counted beats (AppHealth::total_beats) belong to the oldest
// pending due times no later than the newest counted beat's timestamp
// (AppSummary::last_beat_ns). A pending due time that a later counted
// beat has overtaken, by more than a lateness allowance, was lost: it is
// a miss, and does not shift the attribution of the beats after it.
class Harness {
 public:
  using Health = hb::fault::Health;

  /// `hub_window`: beats in the hub's sliding window (the span a verdict
  /// is computed over).
  Harness(const Plan& plan, Ns t0, std::size_t hub_window)
      : plan_(plan),
        t0_(t0),
        tol_(std::max(plan.spec.period_ns / 2, 2 * kMs)),
        verdict_span_(static_cast<Ns>(hub_window) * plan.spec.period_ns),
        lag_(window_dues(plan), 7) {
    const std::size_t n = plan.apps.size();
    lost_dues_.reserve(1 << 16);
    lost_open_.assign(n, 0);
    counted_.assign(n, 0);
    on_schedule_.assign(n, 0);
    judged_.assign(n, 0);
    next_due_.resize(n);
    quarantined_.assign(n, false);
    false_dead_.assign(n, false);
    track_begin_.resize(n + 1);
    for (std::size_t a = 0; a < n; ++a) {
      next_due_[a] = plan.due_at_or_after(a, 0);
      by_name_.emplace(plan.apps[a].name, a);
      track_begin_[a] = tracks_.size();
      for (const Silence& s : plan.apps[a].silences) {
        Track t;
        t.app = a;
        t.silence = s;
        t.last_due = last_due_before(a, s.kill);
        tracks_.push_back(t);
      }
    }
    track_begin_[n] = tracks_.size();
  }

  /// Map hub routing ids to plan indexes (once, when all apps are visible).
  void map_ids(const hb::hub::FleetSnapshot& snap) {
    snap.for_each_app(
        [&](const hb::hub::AppSummary& s) {
          const auto it = by_name_.find(s.name);
          if (it == by_name_.end()) return;
          const std::uint32_t shard = hb::hub::app_id_shard(s.id);
          const std::uint32_t slot = hb::hub::app_id_slot(s.id);
          if (ids_.size() <= shard) ids_.resize(shard + 1);
          if (ids_[shard].size() <= slot) ids_[shard].resize(slot + 1, -1);
          ids_[shard][slot] = static_cast<std::int64_t>(it->second);
        },
        /*include_evicted=*/true);
  }

  std::int64_t index(hb::hub::AppId id) const {
    const std::uint32_t shard = hb::hub::app_id_shard(id);
    const std::uint32_t slot = hb::hub::app_id_slot(id);
    if (shard >= ids_.size() || slot >= ids_[shard].size()) return -1;
    return ids_[shard][slot];
  }

  /// One sweep+observe finished at `end`. `in_window`: the sweep counts
  /// toward the steady-state health check. `last_stall`: per generator
  /// thread, the last time a beat left more than kStallPeriods periods
  /// late (absolute; 0 = never).
  void on_sweep(const hb::hub::FleetSnapshot& snap,
                const hb::fault::FleetReport& report,
                const std::vector<hb::policy::FleetEvent>& events, Ns end,
                bool in_window, const Ns* last_stall) {
    const Ns rel_end = end - t0_;
    const double want_bps = static_cast<double>(kSec) / plan_.spec.period_ns;
    for (const hb::fault::AppHealth& h : report.apps) {
      const std::int64_t i = index(h.id);
      if (i < 0) continue;
      const auto a = static_cast<std::size_t>(i);
      const hb::hub::AppSummary* sum = snap.find(h.id);
      const Ns newest = sum != nullptr ? sum->last_beat_ns - t0_ : rel_end;
      std::uint64_t fresh = h.total_beats - counted_[a];
      counted_[a] = h.total_beats;
      for (; fresh > 0 && next_due_[a] <= newest; --fresh) {
        sample(next_due_[a], rel_end);
        next_due_[a] = plan_.due_at_or_after(a, next_due_[a] + 1);
      }
      // Counted beats beyond `newest` can only be ones declared lost
      // earlier that arrived later than the allowance after all.
      for (; fresh > 0; --fresh) {
        if (lost_open_[a] > 0) {
          --lost_open_[a];
          ++refound_;
          lag_.add(static_cast<double>(rel_end - newest) / kMs);
        } else {
          sample(next_due_[a], rel_end);
          next_due_[a] = plan_.due_at_or_after(a, next_due_[a] + 1);
        }
      }
      for (Ns due = next_due_[a]; due + tol_ <= newest;
           due = plan_.due_at_or_after(a, due + 1)) {
        if (due >= plan_.measure_begin && due < plan_.measure_end) {
          lost_dues_.push_back(due);
        }
        ++lost_open_[a];
        next_due_[a] = plan_.due_at_or_after(a, due + 1);
      }
      // Judge an app only when its generator thread kept schedule over the
      // whole span this verdict was computed from: a late generator makes
      // the app truly erratic, and that is not the pipeline's doing.
      if (in_window && last_stall[plan_.apps[a].thread] + verdict_span_ < end) {
        ++judged_[a];
        if (h.health == Health::kHealthy &&
            std::fabs(h.rate_bps - want_bps) <= 0.15 * want_bps) {
          ++on_schedule_[a];
        }
      }
    }
    for (const hb::policy::FleetEvent& ev : events) {
      switch (ev.kind) {
        case hb::policy::EventKind::kTransition: {
          const std::int64_t i = index(ev.id);
          if (i < 0) break;
          if (ev.to_health == Health::kDead) {
            on_death(static_cast<std::size_t>(i), rel_end);
          } else if (ev.from_health == Health::kDead) {
            on_revival(static_cast<std::size_t>(i), rel_end);
          }
          break;
        }
        case hb::policy::EventKind::kCorrelatedFailure:
          for (const hb::hub::AppId id : ev.app_ids) {
            const std::int64_t i = index(id);
            if (i >= 0) on_death(static_cast<std::size_t>(i), rel_end);
          }
          break;
        case hb::policy::EventKind::kQuarantine: {
          const std::int64_t i = index(ev.id);
          if (i >= 0) quarantined_[static_cast<std::size_t>(i)] = true;
          break;
        }
        case hb::policy::EventKind::kQuarantineLifted:
          break;
      }
    }
  }

  /// In-window beats never counted by `end` are misses: their lag is the
  /// time they waited until the run ended.
  void close(Ns end) {
    const Ns rel_end = end - t0_;
    // Lost beats that turned up late after all were sampled when counted.
    const std::size_t keep =
        lost_dues_.size() > refound_ ? lost_dues_.size() - refound_ : 0;
    for (std::size_t k = 0; k < keep; ++k) {
      lag_.add(static_cast<double>(rel_end - lost_dues_[k]) / kMs);
      ++misses_;
    }
    for (std::size_t a = 0; a < plan_.apps.size(); ++a) {
      for (Ns due = next_due_[a]; due < plan_.measure_end;
           due = plan_.due_at_or_after(a, due + 1)) {
        if (due >= plan_.measure_begin) {
          lag_.add(static_cast<double>(rel_end - due) / kMs);
          ++misses_;
        }
      }
    }
    lag_.finish();
  }

  const Samples& lag() const { return lag_; }
  std::uint64_t misses() const { return misses_; }
  /// Planned silences, each an outcome check_faults judges.
  std::size_t silences() const { return tracks_.size(); }
  /// Apps healthy at a hub rate within 15% of schedule in fewer than 90%
  /// of the in-window sweeps that judged them.
  std::size_t off_schedule() const {
    std::size_t n = 0;
    for (std::size_t a = 0; a < judged_.size(); ++a) {
      if (10 * on_schedule_[a] < 9 * judged_[a]) ++n;
    }
    return n;
  }

  /// Share of in-window app-sweeps the health check could judge.
  double judged_share(std::uint64_t window_sweeps) const {
    std::uint64_t n = 0;
    for (const std::uint64_t j : judged_) n += j;
    const double all = static_cast<double>(window_sweeps) * judged_.size();
    return all > 0 ? static_cast<double>(n) / all : 0.0;
  }

  /// Fault-plan outcomes (fleet_churn); appends failures to `fails`.
  void check_faults(std::vector<std::string>& fails, Samples& detect_ms,
                    double& false_dead_pct) const {
    std::size_t kept_alive = 0;
    std::size_t false_dead = 0;
    for (std::size_t a = 0; a < plan_.apps.size(); ++a) {
      if (plan_.apps[a].role == FaultRole::kFlapper && !quarantined_[a]) {
        fails.push_back("flapper " + plan_.apps[a].name + " never quarantined");
      }
      if (!plan_.apps[a].silences.empty()) continue;
      ++kept_alive;
      if (false_dead_[a]) ++false_dead;
    }
    false_dead_pct =
        kept_alive ? 100.0 * static_cast<double>(false_dead) / kept_alive : 0.0;
    for (const Track& t : tracks_) {
      const std::string& name = plan_.apps[t.app].name;
      if (t.death == 0) {
        fails.push_back("silence of " + name + " never reported dead");
        continue;
      }
      detect_ms.add(static_cast<double>(t.death - t.last_due) / kMs);
      if (t.revival == 0) {
        fails.push_back("revival of " + name + " never seen as a dead->alive edge");
      } else if (t.revival <= t.death) {
        fails.push_back("death of " + name + " reported after its revival");
      }
    }
    detect_ms.finish();
  }

 private:
  struct Track {
    std::size_t app = 0;
    Silence silence;
    Ns last_due = 0;  ///< last grid point before the kill
    Ns death = 0;     ///< relative stamp of the first death report
    Ns revival = 0;   ///< relative stamp of the dead->alive edge
  };

  void sample(Ns due, Ns rel_end) {
    if (due >= plan_.measure_begin && due < plan_.measure_end) {
      lag_.add(static_cast<double>(rel_end - due) / kMs);
    }
  }

  Ns last_due_before(std::size_t a, Ns t) const {
    const Ns period = plan_.spec.period_ns;
    const Ns phase = plan_.apps[a].phase;
    return t <= phase ? phase : phase + (t - 1 - phase) / period * period;
  }

  void on_death(std::size_t a, Ns rel) {
    for (std::size_t k = track_begin_[a]; k < track_begin_[a + 1]; ++k) {
      Track& t = tracks_[k];
      if (rel >= t.silence.kill && rel < t.silence.revive + kDeathGraceNs) {
        if (t.death == 0) t.death = rel;
        return;
      }
    }
    false_dead_[a] = true;
  }

  void on_revival(std::size_t a, Ns rel) {
    for (std::size_t k = track_begin_[a + 1]; k-- > track_begin_[a];) {
      Track& t = tracks_[k];
      if (rel >= t.silence.revive && t.death != 0) {
        if (t.revival == 0) t.revival = rel;
        return;
      }
    }
  }

  // Room for one lag per in-window due, so the store never falls back to
  // its reservoir: random replacement writes would thrash the consumer's
  // caches late in a run.
  static std::size_t window_dues(const Plan& plan) {
    std::size_t n = 0;
    for (std::size_t a = 0; a < plan.apps.size(); ++a) {
      n += plan.grid_points(a, plan.measure_begin, plan.measure_end);
    }
    return n;
  }

  // A death reported just after the revive instant (before the first new
  // beat was counted) still belongs to that silence.
  static constexpr Ns kDeathGraceNs = 250 * kMs;

  const Plan& plan_;
  Ns t0_;
  Ns tol_;  ///< lateness allowance before an overtaken due counts as lost
  Ns verdict_span_;  ///< time the hub window covers at the planned rate
  Samples lag_;
  std::uint64_t misses_ = 0;
  std::vector<Ns> lost_dues_;           ///< in-window dues declared lost
  std::vector<std::uint64_t> lost_open_;  ///< per app, declared lost
  std::size_t refound_ = 0;
  std::vector<std::uint64_t> counted_;
  std::vector<Ns> next_due_;
  std::vector<bool> quarantined_;
  std::vector<bool> false_dead_;
  std::vector<std::size_t> track_begin_;
  std::vector<Track> tracks_;
  std::unordered_map<std::string, std::size_t> by_name_;
  std::vector<std::vector<std::int64_t>> ids_;
  std::vector<std::uint64_t> judged_;       ///< per app, judged sweeps
  std::vector<std::uint64_t> on_schedule_;  ///< per app, healthy on schedule
};

}  // namespace pipebench
