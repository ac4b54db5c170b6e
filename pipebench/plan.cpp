#include "plan.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "util/rng.hpp"

namespace pipebench {
namespace {

// The shapes come from the pipeline's three load regimes: many apps on
// the shared ring (ingest-heavy), many mostly quiet apps with correlated
// faults (decide-heavy), and a few fast self-adapting apps on the fast
// lanes (producer-heavy). See README.md for what each one isolates.
// fleet_ingest runs 1500 apps, not 2000: at 2000 the consumer loop used
// ~68% of a core, and on a shared host stolen CPU then pushed sweeps past
// their period, so verdict lag swung by tens of percent between runs.
const WorkloadSpec kWorkloads[] = {
    {.name = "fleet_ingest",
     .apps = 1500,
     .period_ns = 10 * kMs,
     .grid_ns = 250 * kUs,
     .flush_every = 1,
     .sweep_ns = 100 * kMs,
     .call_rate = false,
     .rack_size = 0,
     .faults = false,
     .warmup_ns = 1 * kSec,
     .history_capacity = 64},
    {.name = "fleet_churn",
     .apps = 4000,
     .period_ns = 100 * kMs,
     .grid_ns = 1 * kMs,
     .flush_every = 1,
     .sweep_ns = 50 * kMs,
     .call_rate = false,
     .rack_size = 40,
     .faults = true,
     .warmup_ns = 2 * kSec,
     .history_capacity = 64},
    {.name = "app_adaptive",
     .apps = 8,
     .period_ns = 50 * kUs,
     .grid_ns = 50 * kUs,
     .flush_every = 6,
     .sweep_ns = 100 * kMs,
     .call_rate = true,
     .rack_size = 0,
     .faults = false,
     .warmup_ns = 500 * kMs,
     .history_capacity = 4096},
};

struct Fnv {
  std::uint64_t h = 14695981039346656037ULL;
  void bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= c[i];
      h *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) { bytes(s.data(), s.size() + 1); }
};

Ns uniform_ms(hb::util::Rng& rng, double lo_s, double hi_s) {
  return static_cast<Ns>(rng.uniform(lo_s, hi_s) * 1000.0) * kMs;
}

// Pick an app no other fault role has claimed, outside the killed racks.
std::size_t pick_free(hb::util::Rng& rng, const Plan& plan) {
  for (;;) {
    const std::size_t a = rng.next_below(plan.apps.size());
    if (plan.apps[a].role == FaultRole::kNone) return a;
  }
}

void plan_faults(Plan& plan, hb::util::Rng& rng) {
  const Ns m = plan.measure_begin;
  const double s = static_cast<double>(plan.measure_end - m) / kSec;
  // Every silence must be detected (~0.9 s at 10 Hz) and every revival
  // observed inside the window, so faults need room: 8 s or more.
  if (s < 8.0) return;
  const std::size_t racks = plan.apps.size() / plan.spec.rack_size;

  // Correlated failures: three whole racks go dark for 2-3 s.
  std::vector<std::size_t> killed;
  while (killed.size() < 3) {
    const std::size_t r = rng.next_below(racks);
    if (std::find(killed.begin(), killed.end(), r) != killed.end()) continue;
    killed.push_back(r);
    const Ns kill = m + uniform_ms(rng, 0.5, s - 4.5);
    const Ns revive = kill + uniform_ms(rng, 2.0, 3.0);
    for (std::size_t i = 0; i < plan.spec.rack_size; ++i) {
      AppPlan& app = plan.apps[r * plan.spec.rack_size + i];
      app.role = FaultRole::kRack;
      app.silences.push_back({kill, revive});
    }
  }
  // Single-app deaths, 1.5-2.5 s each.
  for (int i = 0; i < 12; ++i) {
    AppPlan& app = plan.apps[pick_free(rng, plan)];
    app.role = FaultRole::kSingle;
    const Ns kill = m + uniform_ms(rng, 0.5, s - 4.5);
    app.silences.push_back({kill, kill + uniform_ms(rng, 1.5, 2.5)});
  }
  // Flappers: two kill/revive cycles inside the flap window make the four
  // dead<->alive edges that trip PolicyOptions' default quarantine. The
  // second silence is longer because the first gap inflates the app's
  // mean interval, which stretches the staleness bound.
  for (int i = 0; i < 3; ++i) {
    AppPlan& app = plan.apps[pick_free(rng, plan)];
    app.role = FaultRole::kFlapper;
    const Ns k1 = m + uniform_ms(rng, 0.5, 1.0);
    app.silences.push_back({k1, k1 + 1800 * kMs});
    app.silences.push_back({k1 + 3000 * kMs, k1 + 5200 * kMs});
  }
}

}  // namespace

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Ns Plan::due_at_or_after(std::size_t a, Ns rel) const {
  const AppPlan& app = apps[a];
  const Ns period = spec.period_ns;
  auto grid_at_or_after = [&](Ns t) {
    if (t <= app.phase) return app.phase;
    return app.phase + (t - app.phase + period - 1) / period * period;
  };
  Ns due = grid_at_or_after(rel);
  for (bool moved = true; moved;) {
    moved = false;
    for (const Silence& s : app.silences) {
      if (due >= s.kill && due < s.revive) {
        due = grid_at_or_after(s.revive);
        moved = true;
      }
    }
  }
  return due;
}

std::uint64_t Plan::grid_points(std::size_t a, Ns begin, Ns end) const {
  const Ns phase = apps[a].phase;
  const Ns period = spec.period_ns;
  // Grid points before t: ceil((t - phase) / period), none before phase.
  auto before = [&](Ns t) { return t <= phase ? Ns{0} : (t - phase + period - 1) / period; };
  return end > begin ? static_cast<std::uint64_t>(before(end) - before(begin)) : 0;
}

Plan make_plan(const WorkloadSpec& spec, std::uint64_t seed, Ns seconds) {
  Plan plan;
  plan.spec = spec;
  plan.seed = seed;
  plan.measure_begin = spec.warmup_ns;
  plan.measure_end = spec.warmup_ns + seconds;

  hb::util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x5eed);
  const auto slots = static_cast<std::size_t>(spec.period_ns / spec.grid_ns);
  // One seeded offset for the whole fleet, then a grid slot per app. Each
  // thread's apps fill the slots evenly in a seeded order, so the seed
  // decides which app beats when, never how bursty the load is.
  const Ns offset = static_cast<Ns>(rng.next_below(
      static_cast<std::uint64_t>(spec.grid_ns)));
  std::vector<std::size_t> slot_of(spec.apps);
  for (std::uint32_t t = 0; t < kGenThreads; ++t) {
    std::vector<std::size_t> mine;
    for (std::size_t a = t; a < spec.apps; a += kGenThreads) mine.push_back(a);
    for (std::size_t i = mine.size(); i > 1; --i) {
      std::swap(mine[i - 1], mine[rng.next_below(i)]);
    }
    for (std::size_t i = 0; i < mine.size(); ++i) slot_of[mine[i]] = i % slots;
  }
  plan.apps.resize(spec.apps);
  char name[64];
  for (std::size_t a = 0; a < spec.apps; ++a) {
    AppPlan& app = plan.apps[a];
    if (spec.rack_size > 0) {
      std::snprintf(name, sizeof name, "rack%02zu/app%02zu", a / spec.rack_size,
                    a % spec.rack_size);
    } else {
      std::snprintf(name, sizeof name, "%s%04zu",
                    spec.call_rate ? "encoder" : "app", a);
    }
    app.name = name;
    app.phase = offset + static_cast<Ns>(slot_of[a]) * spec.grid_ns;
    app.thread = static_cast<std::uint32_t>(a % kGenThreads);
  }
  if (spec.faults) plan_faults(plan, rng);

  Fnv f;
  f.str(spec.name);
  f.u64(seed);
  f.u64(static_cast<std::uint64_t>(plan.measure_begin));
  f.u64(static_cast<std::uint64_t>(plan.measure_end));
  for (const AppPlan& app : plan.apps) {
    f.str(app.name);
    f.u64(static_cast<std::uint64_t>(app.phase));
    f.u64(app.thread);
    f.u64(static_cast<std::uint64_t>(app.role));
    for (const Silence& s : app.silences) {
      f.u64(static_cast<std::uint64_t>(s.kill));
      f.u64(static_cast<std::uint64_t>(s.revive));
    }
  }
  plan.checksum = f.h;
  return plan;
}

}  // namespace pipebench
