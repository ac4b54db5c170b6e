// Workloads and the seeded beat schedule.
//
// Every app beats on a fixed grid: beat k of app a is due at
//   t0 + phase[a] + k * period,
// except where the grid point falls inside one of the app's planned
// silences (fleet_churn's fault plan), where no beat is produced. The
// generator walks this grid to produce beats; the consumer walks the same
// grid to know each counted beat's due time. Both derive the plan from
// the seed alone, and compare checksums to prove they agree.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace pipebench {

struct WorkloadSpec {
  std::string name;
  std::size_t apps = 0;
  Ns period_ns = 0;         ///< every app's beat period
  Ns grid_ns = 0;           ///< phases are multiples of this
  std::size_t flush_every = 1;  ///< ShmHubSinkOptions::flush_every
  Ns sweep_ns = 0;          ///< consumer sweep cadence
  bool call_rate = false;   ///< global().rate(kRateWindow) after each beat
  std::size_t rack_size = 0;    ///< >0: apps named rackN/appM, racks of this
  bool faults = false;      ///< silences, rack kills and flappers
  Ns warmup_ns = 0;         ///< t0 -> measurement start (set-up must fit)
  std::size_t history_capacity = 0;  ///< producer-side channel history
};

inline constexpr std::uint32_t kRateWindow = 100;
inline constexpr std::uint32_t kGenThreads = 2;

/// The three workloads, or nullptr for an unknown name.
const WorkloadSpec* find_workload(const std::string& name);

/// [kill, revive) relative to t0: grid points inside produce no beat.
struct Silence {
  Ns kill = 0;
  Ns revive = 0;
};

enum class FaultRole : std::uint8_t { kNone, kRack, kSingle, kFlapper };

struct AppPlan {
  std::string name;
  Ns phase = 0;
  std::uint32_t thread = 0;
  FaultRole role = FaultRole::kNone;
  std::vector<Silence> silences;  ///< sorted, disjoint
};

struct Plan {
  WorkloadSpec spec;
  std::uint64_t seed = 0;
  Ns measure_begin = 0;  ///< relative to t0
  Ns measure_end = 0;    ///< relative to t0
  std::vector<AppPlan> apps;
  std::uint64_t checksum = 0;

  /// True when the grid point `rel` (relative to t0) is silenced for app a.
  bool silent(std::size_t a, Ns rel) const {
    for (const Silence& s : apps[a].silences) {
      if (rel >= s.kill && rel < s.revive) return true;
    }
    return false;
  }

  /// First grid point >= `rel` for app a, silences skipped.
  Ns due_at_or_after(std::size_t a, Ns rel) const;

  /// Grid points of app a in [begin, end), silences not skipped: an upper
  /// bound on the beats it is due there.
  std::uint64_t grid_points(std::size_t a, Ns begin, Ns end) const;
};

/// Build the plan for `spec` from `seed`, measuring `seconds` after the
/// workload's warm-up. Deterministic: same inputs, same plan and checksum.
Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed, Ns seconds);

}  // namespace pipebench
