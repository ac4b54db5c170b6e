// Telemetry-plane overhead: the instrumented ingest hot path with the
// registry enabled vs runtime-disabled.
//
// The self-telemetry plane wires counters and spans through every pipeline
// stage, and its charter is to be invisible: Counter::add is one relaxed
// fetch_add on a thread-sharded slot, and the master switch reduces every
// instrument site to one relaxed load. This bench holds the plane to that
// charter on the hottest path it touches — multi-producer hub ingest at
// fleet scale (4k apps, 4 producer threads) — by running the SAME workload
// with obs::set_enabled(true) and (false) in back-to-back pairs. The
// headline is the median over pairs of each pair's relative difference:
// host drift slower than one pair cancels inside the pair, and one noisy
// pair cannot move the median the way it moves a best-of.
//
// What the two sides measure:
//   * enabled:  the real cost of live telemetry on ingest (counters fire
//               on every enqueue/apply/publish).
//   * disabled: the floor — every site pays only the enabled() check. In
//               an HB_OBS=0 build both sides collapse to identical code
//               and the delta reads ~0 by construction (the bench prints
//               the compile mode so CI artifacts stay interpretable).
//
// A correctness coda verifies the no-op claim directly: while disabled,
// every registry counter must FREEZE (ingest runs, totals stand still),
// and on re-enable the counters must resume from where they stopped —
// disabled means "not counted", never "counted late" or "corrupted".
//
//   ./bench_obs_overhead [apps] [beats_per_producer]   (default 4000 x 500000)
//   ./bench_obs_overhead --smoke        (small run; overhead informational)
//   ./bench_obs_overhead --json PATH    (write a BENCH json record)
//
// CSV on stdout; `# obs_overhead_pct=` is the headline (acceptance shape:
// < 5% on ingest at 4k apps), `# pair_diff_pct=` the spread of the paired
// differences and `# rep_spread_pct=` the spread of single passes. Exit: 0 ok, 2 on a correctness failure, 3 on
// a blown overhead gate (full mode only — smoke runs on shared CI cores
// report the number without gating on it).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "hub/hub.hpp"
#include "obs/metrics.hpp"

namespace {

constexpr int kProducers = 4;

double timed(const auto& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// One full multi-producer ingest pass: kProducers threads beat the fleet
// round-robin from staggered offsets, then a flush settles the batches.
double ingest_pass(hb::hub::HeartbeatHub& hub,
                   const std::vector<hb::hub::AppId>& ids,
                   std::uint64_t per_thread) {
  return timed([&] {
    std::vector<std::thread> threads;
    threads.reserve(kProducers);
    for (int t = 0; t < kProducers; ++t) {
      threads.emplace_back([&, t] {
        const std::size_t offset =
            static_cast<std::size_t>(t) * ids.size() / kProducers;
        for (std::uint64_t k = 0; k < per_thread; ++k) {
          hub.beat(ids[(offset + k) % ids.size()]);
        }
      });
    }
    for (auto& th : threads) th.join();
    hub.flush();
  });
}

// Linear-interpolated quantile of `v` (copied; q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// (max - min) / min, in percent.
double spread_pct(const std::vector<double>& v) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return *lo > 0.0 ? (*hi - *lo) / *lo * 100.0 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* json_path = nullptr;
  int apps = 4000;
  std::uint64_t per_thread = 500000;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (smoke) {
    per_thread = 150000;
  } else {
    if (positional.size() > 0) apps = std::atoi(positional[0]);
    if (positional.size() > 1) {
      per_thread = std::strtoull(positional[1], nullptr, 10);
    }
  }
  if (apps < 16 || per_thread < 1000) {
    std::fprintf(stderr,
                 "usage: %s [apps>=16] [beats_per_producer>=1000] | --smoke\n",
                 argv[0]);
    return 1;
  }

  hb::hub::HubOptions opts;
  opts.shard_count = 16;
  opts.window_capacity = 64;
  hb::hub::HeartbeatHub hub(opts);

  std::vector<hb::hub::AppId> ids;
  ids.reserve(static_cast<std::size_t>(apps));
  for (int i = 0; i < apps; ++i) {
    ids.push_back(hub.register_app("app-" + std::to_string(i), {4.0, 1e6}));
  }
  // Warm-up: every app's window filled, allocations done, so the first
  // measured pass slides windows like every later one.
  const std::uint64_t warmup =
      ids.size() * opts.window_capacity / kProducers;
  ingest_pass(hub, ids, warmup);

  // Paired reps: enabled and disabled run back to back within each rep,
  // and the order flips each time (on-off, off-on, ...) so neither a slow
  // host ramp (frequency scaling warming up across the whole run) nor a
  // neighbor waking mid-rep can masquerade as telemetry overhead. Each
  // rep yields one paired difference; the headline is their median.
  const int reps = smoke ? 10 : 12;
  std::vector<double> on_s, off_s, diff_pct;
  std::printf("mode,rep,apps,beats,seconds,beats_per_sec\n");
  for (int rep = 0; rep < reps; ++rep) {
    const bool on_first = (rep % 2) == 0;
    hb::obs::set_enabled(on_first);
    const double first = ingest_pass(hub, ids, per_thread);
    hb::obs::set_enabled(!on_first);
    const double second = ingest_pass(hub, ids, per_thread);
    hb::obs::set_enabled(true);
    const double on = on_first ? first : second;
    const double off = on_first ? second : first;
    on_s.push_back(on);
    off_s.push_back(off);
    diff_pct.push_back(off > 0.0 ? (on - off) / off * 100.0 : 0.0);
    const double total = static_cast<double>(per_thread) * kProducers;
    std::printf("obs_on,%d,%d,%.0f,%.4f,%.0f\n", rep, apps, total, on,
                on > 0 ? total / on : 0.0);
    std::printf("obs_off,%d,%d,%.0f,%.4f,%.0f\n", rep, apps, total, off,
                off > 0 ? total / off : 0.0);
    std::fflush(stdout);
  }
  const double overhead_pct = median(diff_pct);
  const double enabled_s = median(on_s);
  const double disabled_s = median(off_s);
  // Spread between reps: the paired differences' interquartile range, and
  // each side's (max - min) / min over single passes.
  const double diff_iqr = quantile(diff_pct, 0.75) - quantile(diff_pct, 0.25);
  const double on_spread = spread_pct(on_s);
  const double off_spread = spread_pct(off_s);

  // ---- correctness coda: disabled means frozen, not deferred ------------
  auto& reg = hb::obs::MetricsRegistry::global();
  bool ok = true;
  std::uint64_t frozen_delta = 0;
  if (hb::obs::kCompiledIn) {
    const std::uint64_t before = reg.counter("hb.hub.ingested").value();
    hb::obs::set_enabled(false);
    ingest_pass(hub, ids, 2000);
    const std::uint64_t frozen = reg.counter("hb.hub.ingested").value();
    hb::obs::set_enabled(true);
    ingest_pass(hub, ids, 2000);
    const std::uint64_t resumed = reg.counter("hb.hub.ingested").value();
    frozen_delta = frozen - before;
    // Frozen while disabled; resumed counting at least the re-enabled
    // pass's beats (other instrument sites may add more).
    ok = frozen == before &&
         resumed >= frozen + static_cast<std::uint64_t>(kProducers) * 2000;
  }
  // Ingest totals are tracked by the hub itself regardless of telemetry:
  // no beat may be lost in either mode.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(kProducers) *
      (warmup +
       static_cast<std::uint64_t>(reps) * 2 * per_thread +
       (hb::obs::kCompiledIn ? 2 * 2000 : 0));
  if (hub.snapshot()->cluster().total_beats != expected) ok = false;

  std::printf("\n# hb_obs_compiled_in=%s\n",
              hb::obs::kCompiledIn ? "yes" : "no");
  std::printf(
      "# obs_overhead_pct=%.2f (median of %d paired differences; median "
      "pass enabled %.4fs vs disabled %.4fs)\n",
      overhead_pct, reps, enabled_s, disabled_s);
  std::printf("# pair_diff_pct min=%.2f iqr=%.2f max=%.2f\n",
              *std::min_element(diff_pct.begin(), diff_pct.end()), diff_iqr,
              *std::max_element(diff_pct.begin(), diff_pct.end()));
  std::printf("# rep_spread_pct enabled=%.2f disabled=%.2f\n", on_spread,
              off_spread);
  std::printf("# disabled_counter_delta=%llu (must be 0)\n",
              static_cast<unsigned long long>(frozen_delta));
  std::printf("# correctness=%s\n", ok ? "ok" : "FAILED");

  if (json_path) {
    hb::bench::JsonRecord rec("obs_overhead");
    rec.config("apps", apps);
    rec.config("beats_per_producer", per_thread);
    rec.config("producers", kProducers);
    rec.config("reps", reps);
    rec.config("smoke", smoke);
    rec.config("hb_obs_compiled_in", hb::obs::kCompiledIn);
    rec.metric("enabled_median_s", enabled_s);
    rec.metric("disabled_median_s", disabled_s);
    rec.metric("obs_overhead_pct", overhead_pct);
    rec.metric("pair_diff_iqr_pct", diff_iqr);
    rec.metric("enabled_rep_spread_pct", on_spread);
    rec.metric("disabled_rep_spread_pct", off_spread);
    rec.metric("disabled_counter_delta", frozen_delta);
    rec.metric("correctness", ok);
    rec.write(json_path);
  }

  if (!ok) return 2;
  if (!smoke && overhead_pct >= 5.0) {
    std::printf("# overhead_ok=no\n");
    return 3;
  }
  std::printf("# overhead_ok=%s\n",
              overhead_pct < 5.0 ? "yes" : "n/a(smoke)");
  return 0;
}
