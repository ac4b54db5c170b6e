// pipebench: the heartbeat pipeline end to end, wired as `hbmon fleet
// --watch` wires it, fed by a forked open-loop generator.
//
//   producer (core::Heartbeat -> ShmHubSink) -> ShmIngestQueue ->
//   ShmIngestPump -> HeartbeatHub (8 shards, self-beating) -> snapshot ->
//   FleetDetector sweep -> FlightRecorder -> PolicyEngine (recorder and
//   postmortem sinks)
//
// Usage:
//   pipebench --workload NAME --seed N --seconds S --trace 0|1
//             [--workdir DIR] [--out FILE]
//
// Prints every metric by name with its unit, then, as the last line of
// stdout, one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics; --trace 1 times each layer
// from outside, around calls into its public functions, and reports the
// per-layer metrics. Exit 0 when every output check passes, 1 when one
// fails (the JSON still prints), 2 on a usage or run error (no JSON).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "fault/fleet_detector.hpp"
#include "generator.hpp"
#include "harness.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/postmortem.hpp"
#include "plan.hpp"
#include "policy/policy_engine.hpp"
#include "transport/registry.hpp"
#include "transport/shm_ingest.hpp"

namespace pipebench {
namespace {

namespace fs = std::filesystem;

// hbmon fleet --watch defaults: `-s 5000` is the absolute death bound and
// `-i 50` the poll interval that, with the sink's batch hold, makes up
// the detector's transport slack.
constexpr Ns kDeadNs = 5000 * kMs;
constexpr Ns kPollNs = 50 * kMs;
// Set-up is repeated and its median reported, so one slow fork or page
// fault burst does not decide the figure: at least kMinSetups times, and
// more until kSetupBudgetNs of set-up has been timed, so a set-up of a few
// milliseconds gets a median as steady as one of half a second.
constexpr int kMinSetups = 7;
constexpr int kMaxSetups = 64;
constexpr Ns kSetupBudgetNs = 1 * kSec;
constexpr Ns kReadyCheckNs = 2 * kMs;
constexpr Ns kSetupLimitNs = 30 * kSec;
// After the window the loop keeps sweeping so in-window beats still in
// flight get counted; beats never counted by the end are misses.
constexpr Ns kTailNs = 500 * kMs;
constexpr std::size_t kLayerCap = 1 << 20;
constexpr std::size_t kLoopSpanCap = 1 << 18;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string workdir = ".bench_build/run";
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload "
               "fleet_ingest|fleet_churn|app_adaptive --seed N --seconds S "
               "--trace 0|1 [--workdir DIR] [--out FILE]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atoi(v);
    } else if (a == "--trace") {
      o.trace = std::atoi(v);
    } else if (a == "--workdir") {
      o.workdir = v;
    } else if (a == "--out") {
      o.out = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (find_workload(o.workload) == nullptr) usage("unknown --workload");
  if (o.seconds < 1 || o.seconds > 600) usage("--seconds must be 1..600");
  if (o.trace != 0 && o.trace != 1) usage("--trace must be 0 or 1");
  return o;
}

Ns cpu_ns() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<Ns>(t.tv_sec) * kSec + static_cast<Ns>(t.tv_usec) * kUs;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// The consumer process's pipeline, as hbmon fleet --watch builds it, with
// production defaults for ring capacity, lanes, pump, hub shards and
// detector slack.
struct Pipeline {
  std::shared_ptr<hb::transport::ShmIngestQueue> queue;
  std::shared_ptr<hb::hub::HeartbeatHub> hub;
  std::unique_ptr<hb::hub::ShmIngestPump> pump;
  hb::fault::FleetDetector detector;
  std::shared_ptr<hb::obs::FlightRecorder> recorder;
  std::unique_ptr<hb::policy::PolicyEngine> engine;
  std::shared_ptr<hb::obs::PostmortemSink> postmortem;
};

std::unique_ptr<Pipeline> make_pipeline(const fs::path& ring,
                                        const fs::path& postmortems) {
  auto p = std::make_unique<Pipeline>();
  p->queue = hb::transport::ShmIngestQueue::create(
      ring, hb::transport::Registry::kDefaultIngestCapacity);
  hb::hub::HubOptions ho;
  ho.shard_count = 8;
  ho.evict_after_ns = 20 * kDeadNs;
  ho.self_beat = true;
  p->hub = std::make_shared<hb::hub::HeartbeatHub>(ho);
  p->pump = std::make_unique<hb::hub::ShmIngestPump>(p->queue, p->hub);
  p->detector = hb::fault::FleetDetector(
      {.absolute_staleness_ns = kDeadNs,
       .staleness_slack_ns =
           kPollNs + hb::transport::ShmHubSinkOptions{}.max_hold_ns});
  p->recorder = std::make_shared<hb::obs::FlightRecorder>();
  p->hub->set_flight_recorder(p->recorder);
  p->engine = std::make_unique<hb::policy::PolicyEngine>();
  p->engine->add_sink(p->recorder->event_sink());
  hb::obs::PostmortemOptions pm;
  pm.dir = postmortems.string();
  pm.source = "pipebench";
  pm.capture_spans = true;
  pm.capture_metrics = true;
  pm.stamp_wall_time = true;
  p->postmortem = std::make_shared<hb::obs::PostmortemSink>(p->recorder, pm);
  p->engine->add_sink(p->postmortem);
  return p;
}

// One set-up: ring, consumer pipeline, forked generator, then the warm-up
// until every app is visible in the hub and past the detector's min_beats.
struct Session {
  std::unique_ptr<Pipeline> p;
  std::unique_ptr<Generator> gen;
  Ns t0 = 0;
  Ns ready_at = 0;
  Ns setup_ns = 0;
};

std::unique_ptr<Session> set_up(const Options& o, const Plan& plan, int k,
                                const fs::path& workdir) {
  auto s = std::make_unique<Session>();
  const Ns started = now_ns();
  const std::string tag = std::to_string(getpid()) + "-" + std::to_string(k);
  const fs::path ring = workdir / ("ring-" + tag + ".hbq");
  fs::remove(ring);
  s->p = make_pipeline(ring, workdir / ("postmortems-" + tag));
  GenArgs ga;
  ga.workload = o.workload;
  ga.seed = o.seed;
  ga.seconds = static_cast<Ns>(o.seconds) * kSec;
  ga.traced = o.trace == 1;
  ga.span_path = (workdir / ("spans-" + o.workload + "-gen")).string();
  s->gen = std::make_unique<Generator>(ga, s->p->queue);
  // Both processes hold the mapping; the name is no longer needed.
  fs::remove(ring);

  Pipeline& p = *s->p;
  const GenShared& gs = s->gen->shared();
  const std::uint64_t min_beats = p.detector.options().min_beats;
  Ns deadline = started + kSetupLimitNs;
  Ns next_check = 0;
  for (;;) {
    p.pump->poll();
    Ns now = now_ns();
    const int state = gs.state.load(std::memory_order_acquire);
    if (state == 3) {
      throw std::runtime_error(std::string("generator failed: ") + gs.error);
    }
    if (s->t0 == 0 && state >= 1) {
      // relaxed: published before state (release), read after it (acquire).
      s->t0 = gs.t0.load(std::memory_order_relaxed);
      deadline = s->t0 + plan.measure_begin;
    }
    // Cheap gate first (every producer name seen), then the hub itself.
    if (now >= next_check && p.pump->stats().apps >= plan.apps.size()) {
      const auto snap = p.hub->snapshot();
      std::size_t ready = 0;
      snap->for_each_app([&](const hb::hub::AppSummary& a) {
        if (a.name != hb::hub::kSelfAppName && a.total_beats >= min_beats) {
          ++ready;
        }
      });
      if (ready == plan.apps.size()) break;
      now = now_ns();
      next_check = now + kReadyCheckNs;
    }
    if (now > deadline) {
      throw std::runtime_error("set-up did not finish within the warm-up");
    }
    p.pump->wait(kReadyCheckNs);
  }
  s->ready_at = now_ns();
  s->setup_ns = s->ready_at - started;
  return s;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    all_.push_back({std::move(name), value, std::move(unit)});
  }
  const Metric* find(const std::string& name) const {
    for (const Metric& m : all_) {
      if (m.name == name) return &m;
    }
    return nullptr;
  }
  const std::vector<Metric>& all() const { return all_; }

 private:
  std::vector<Metric> all_;
};

// Names the last-line JSON carries; they match BENCHMARK.json.
const char* const kEndToEnd[] = {
    "setup_s",          "verdict_lag_ms.p50", "verdict_lag_ms.p99",
    "monitor_cpu_pct",  "beat_call_ns.p50",
};
const char* const kPerLayer[] = {
    "beat_call_ns.p99",       "beat_call_ns.mean",
    "beat.self_ns.p50",       "beat.self_ns.p99",
    "sink.append_ns.p50",     "sink.append_ns.p99",
    "ring.torn_frames",       "ring.dropped_frames",
    "ring.lane_record_pct",   "ring.doorbell_rings",
    "ring.backlog_records.max",
    "pump.poll_us.p50",       "pump.poll_us.p99",
    "pump.busy_pct",          "pump.records_per_poll",
    "pump.park_pct",          "pump.spurious_wake_pct",
    "pump.wait_timeouts",
    "publish.ms.p50",         "publish.ms.p99",
    "publish.busy_pct",       "publish.hit_pct",
    "sweep.ms.p50",           "sweep.ms.p99",
    "observe.us.p50",         "observe.us.p99",
    "observe.events",         "record.us.p50",
    "loop.sweep_late_ms.p99", "gen.late_ms.p99",
    "gen.late_ms.max",        "loss_pct",
    "rate_call_ns.p50",       "rate_call_ns.p99",
    "death_detect_ms.p50",    "death_detect_ms.p90",
    "false_dead_pct",
    "loop.poll.self_pct",     "loop.publish.self_pct",
    "loop.sweep.self_pct",    "loop.record.self_pct",
    "loop.observe.self_pct",  "loop.wait.self_pct",
    "loop.accounted_pct",     "loop.harness_pct",
};

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <std::size_t N>
std::string json_metrics(const Metrics& m, const char* const (&names)[N]) {
  std::string s = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const Metric* x = m.find(names[i]);
    if (x == nullptr) throw std::logic_error(std::string("no metric ") + names[i]);
    if (i) s += ", ";
    s += "\"" + x->name + "\": {\"value\": " + json_number(x->value) +
         ", \"unit\": \"" + x->unit + "\"}";
  }
  return s + "}";
}

int run(const Options& o) {
  const WorkloadSpec& spec = *find_workload(o.workload);
  const Plan plan = make_plan(spec, o.seed, static_cast<Ns>(o.seconds) * kSec);
  const bool traced = o.trace == 1;
  const fs::path workdir = o.workdir;
  fs::create_directories(workdir);
  std::vector<std::string> fails;

  // The last session set up is the one measured.
  Samples setup_s(kMaxSetups, 3);
  std::unique_ptr<Session> s;
  int setups = 0;
  for (Ns timed = 0;
       setups < kMinSetups || (timed < kSetupBudgetNs && setups < kMaxSetups); ++setups) {
    if (s) {
      s->gen->stop_and_wait(10 * kSec);
      s.reset();
    }
    s = set_up(o, plan, setups, workdir);
    timed += s->setup_ns;
    setup_s.add(static_cast<double>(s->setup_ns) / kSec);
  }
  setup_s.finish();
  Pipeline& p = *s->p;
  Generator& gen = *s->gen;
  const Ns t0 = s->t0;
  const Ns win_begin = t0 + plan.measure_begin;
  const Ns win_end = t0 + plan.measure_end;
  const Ns run_end = win_end + kTailNs;

  Harness harness(plan, t0, p.hub->options().window_capacity);
  harness.map_ids(*p.hub->snapshot());

  // Traced-run instruments (allocated either way; cheap when unused).
  SpanLog spans(traced ? kLoopSpanCap : 0);
  Samples poll_us(traced ? kLayerCap : 0, 11), publish_ms(4096, 12),
      sweep_ms(4096, 13), observe_us(4096, 14), record_us(4096, 15),
      late_ms(4096, 16);
  std::uint64_t cycle = 0, waits = 0, observe_events = 0, backlog_max = 0;
  std::uint64_t window_sweeps = 0;
  Ns harness_ns = 0;
  bool in_window = false;
  Ns cpu0 = 0, wall0 = 0, cpu1 = 0, wall1 = 0;
  hb::hub::ShmIngestPumpStats ps0{}, ps1{};
  hb::hub::SnapshotStats ss0{}, ss1{};
  std::uint64_t waits0 = 0, waits1 = 0;

  // Times `fn` as span `name` when traced and in the window.
  auto timed = [&](std::uint32_t name, auto&& fn) -> Ns {
    if (!(traced && in_window)) {
      fn();
      return 0;
    }
    const Ns a = now_ns();
    const std::uint32_t h = spans.open(name, a, kNoSpan, cycle);
    fn();
    const Ns b = now_ns();
    spans.close(h, b);
    return b - a;
  };

  Ns next_sweep = s->ready_at + spec.sweep_ns;
  bool window_closed = false;
  Ns last_sweep_end = now_ns();
  for (;;) {
    Ns now = now_ns();
    if (!in_window && !window_closed && now >= win_begin) {
      in_window = true;
      cpu0 = cpu_ns();
      wall0 = now_ns();
      ps0 = p.pump->stats();
      ss0 = p.hub->snapshot_stats();
      waits0 = waits;
    }
    if (in_window && now >= win_end) {
      cpu1 = cpu_ns();
      wall1 = now_ns();
      ps1 = p.pump->stats();
      ss1 = p.hub->snapshot_stats();
      waits1 = waits;
      in_window = false;
      window_closed = true;
    }
    if (now >= run_end) break;

    const Ns poll_ns = timed(kLoopPoll, [&] { p.pump->poll(); });
    if (traced && in_window) poll_us.add(static_cast<double>(poll_ns) / kUs);

    now = now_ns();
    if (now >= next_sweep) {
      ++cycle;
      const bool measured = in_window;
      if (measured) late_ms.add(static_cast<double>(now - next_sweep) / kMs);
      std::shared_ptr<const hb::hub::FleetSnapshot> snap;
      hb::fault::FleetReport report;
      const std::vector<hb::policy::FleetEvent>* events = nullptr;
      const Ns t_pub = timed(kLoopPublish, [&] { snap = p.hub->snapshot(); });
      const Ns t_sw = timed(kLoopSweep, [&] { report = p.detector.sweep(snap); });
      const Ns t_rec = timed(kLoopRecord, [&] { p.recorder->record_report(report); });
      const Ns t_obs = timed(kLoopObserve, [&] { events = &p.engine->observe(report); });
      const Ns end = now_ns();
      last_sweep_end = end;
      if (traced && measured) {
        publish_ms.add(static_cast<double>(t_pub) / kMs);
        sweep_ms.add(static_cast<double>(t_sw) / kMs);
        record_us.add(static_cast<double>(t_rec) / kUs);
        observe_us.add(static_cast<double>(t_obs) / kUs);
      }
      Ns stalls[kGenThreads];
      for (std::uint32_t t = 0; t < kGenThreads; ++t) {
        // relaxed: a sampled timestamp.
        stalls[t] = gen.shared().thread[t].last_stall.load(std::memory_order_relaxed);
      }
      harness.on_sweep(*snap, report, *events, end, measured, stalls);
      if (measured) ++window_sweeps;
      if (measured) {
        observe_events += events->size();
        const std::uint64_t produced = gen.produced_now();
        const std::uint64_t consumed = p.pump->stats().consumed;
        if (produced > consumed) backlog_max = std::max(backlog_max, produced - consumed);
      }
      const Ns done = now_ns();
      if (measured) harness_ns += done - end;
      next_sweep += spec.sweep_ns;
      // hbmon's rule: skip missed sweeps rather than burst to catch up.
      if (next_sweep < done) next_sweep = done + spec.sweep_ns;
      now = done;
    }
    // Park on the doorbell until the next sweep or window boundary.
    Ns until = std::min(next_sweep, run_end);
    if (!window_closed) until = std::min(until, in_window ? win_end : win_begin);
    ++waits;
    timed(kLoopWait, [&] { p.pump->wait(std::max<Ns>(0, until - now)); });
  }
  // Stop the generator at once: nothing drains the ring from here on.
  // Its sinks flush their tails into the ring on the way out; then drain
  // everything and account for every record.
  if (!gen.stop_and_wait(20 * kSec)) {
    throw std::runtime_error(std::string("generator did not finish cleanly: ") +
                             gen.shared().error);
  }
  p.pump->poll();
  p.pump->poll();
  harness.close(last_sweep_end);
  const auto final_snap = p.hub->snapshot();
  const hb::hub::ShmIngestPumpStats pst = p.pump->stats();
  const GenShared& gs = gen.shared();
  const GenReport& gr = gs.report;

  // ---------------------------------------------------------------- checks
  // The operations a run attempts are the outcomes the monitor must get
  // right: each app's fate (it reaches the hub, delivers no more than it
  // produced, and stays healthy on schedule or, as a flapper, is
  // quarantined) and each planned silence (reported dead, then revived),
  // plus the two whole-run checks (schedule checksum, conservation).
  // Records lost in the ring are not failed operations: their count
  // varies from run to run with the race that tears them, and it is
  // reported as loss_pct and counted as verdict-lag misses.
  std::uint64_t failed = 0;
  auto fail = [&](std::string msg, std::uint64_t outcomes) {
    fails.push_back(std::move(msg));
    failed += outcomes;
  };
  if (gr.checksum != plan.checksum) {
    fail("generator and consumer disagree on the schedule checksum", 1);
  }
  std::uint64_t hub_beats = 0, produced = 0;
  std::size_t seen = 0;
  for (std::size_t a = 0; a < plan.apps.size(); ++a) produced += gs.produced_by_app[a];
  final_snap->for_each_app(
      [&](const hb::hub::AppSummary& a) {
        if (a.name == hb::hub::kSelfAppName) return;
        hub_beats += a.total_beats;
        const std::int64_t i = harness.index(a.id);
        if (i < 0) {
          fail("hub holds an unplanned app " + a.name, 1);
          return;
        }
        ++seen;
        if (a.total_beats > gs.produced_by_app[i]) {
          fail("app " + a.name + " delivered more beats than produced", 1);
        }
      },
      /*include_evicted=*/true);
  if (seen < plan.apps.size()) {
    fail("not every app reached the hub", plan.apps.size() - seen);
  }
  if (hub_beats != pst.consumed) {
    fail("hub total_beats (" + std::to_string(hub_beats) + ") != pump consumed (" +
             std::to_string(pst.consumed) + ")",
         1);
  }
  if (!spec.faults) {
    if (const std::size_t n = harness.off_schedule(); n > 0) {
      fail(std::to_string(n) +
               " apps healthy at their scheduled rate in under 90% of "
               "in-window sweeps",
           n);
    }
  }
  Samples detect_ms(4096, 17);
  double false_dead_pct = 0.0;
  if (spec.faults) {
    const std::size_t before = fails.size();
    harness.check_faults(fails, detect_ms, false_dead_pct);
    failed += fails.size() - before;
  }
  const std::uint64_t outcomes = plan.apps.size() + harness.silences() + 2;
  failed = std::min(failed, outcomes);

  // --------------------------------------------------------------- metrics
  for (Samples* x : {&poll_us, &publish_ms, &sweep_ms, &observe_us, &record_us, &late_ms}) {
    x->finish();
  }
  const double wall = static_cast<double>(wall1 - wall0);
  auto pct = [](double part, double whole) { return whole > 0 ? 100.0 * part / whole : 0.0; };
  const std::uint64_t lost = produced > pst.consumed ? produced - pst.consumed : 0;
  const std::uint64_t polls = ps1.polls - ps0.polls;
  const std::uint64_t window_consumed = ps1.consumed - ps0.consumed;
  const std::uint64_t hits = ss1.fleet_hits - ss0.fleet_hits;
  const std::uint64_t rebuilds = ss1.fleet_rebuilds - ss0.fleet_rebuilds;
  const std::uint64_t wakes = ps1.doorbell_wakes - ps0.doorbell_wakes;

  Metrics m;
  m.add("setup_s", setup_s.quantile(0.5), "s");
  m.add("verdict_lag_ms.p50", harness.lag().quantile(0.50), "ms");
  m.add("verdict_lag_ms.p99", harness.lag().quantile(0.99), "ms");
  m.add("monitor_cpu_pct", pct(static_cast<double>(cpu1 - cpu0), wall), "%");
  m.add("beat_call_ns.p50", gr.beat_ns_p50, "ns");
  m.add("beat_call_ns.mean", gr.beat_ns_mean, "ns");
  m.add("beat_call_ns.p99", gr.beat_ns_p99, "ns");
  m.add("loss_pct", pct(static_cast<double>(lost), static_cast<double>(produced)), "%");
  m.add("rate_call_ns.p50", gr.rate_ns_p50, "ns");
  m.add("rate_call_ns.p99", gr.rate_ns_p99, "ns");
  m.add("death_detect_ms.p50", detect_ms.quantile(0.50), "ms");
  m.add("death_detect_ms.p90", detect_ms.quantile(0.90), "ms");
  m.add("false_dead_pct", false_dead_pct, "%");

  m.add("beat.self_ns.p50", gr.self_ns_p50, "ns");
  m.add("beat.self_ns.p99", gr.self_ns_p99, "ns");
  m.add("sink.append_ns.p50", gr.append_ns_p50, "ns");
  m.add("sink.append_ns.p99", gr.append_ns_p99, "ns");
  m.add("ring.torn_frames", static_cast<double>(pst.torn), "count");
  m.add("ring.dropped_frames", static_cast<double>(pst.dropped), "count");
  m.add("ring.lane_record_pct",
        pct(static_cast<double>(pst.lane_records), static_cast<double>(pst.consumed)), "%");
  m.add("ring.doorbell_rings", static_cast<double>(p.queue->doorbell_rings()), "count");
  m.add("ring.backlog_records.max", static_cast<double>(backlog_max), "count");
  m.add("pump.poll_us.p50", poll_us.quantile(0.50), "us");
  m.add("pump.poll_us.p99", poll_us.quantile(0.99), "us");
  m.add("pump.busy_pct", pct(static_cast<double>(spans.total_ns(kLoopPoll)), wall), "%");
  m.add("pump.records_per_poll",
        polls ? static_cast<double>(window_consumed) / polls : 0.0, "count");
  m.add("pump.park_pct",
        pct(static_cast<double>(ps1.parks - ps0.parks), static_cast<double>(waits1 - waits0)), "%");
  m.add("pump.spurious_wake_pct",
        pct(static_cast<double>(ps1.spurious_wakes - ps0.spurious_wakes), static_cast<double>(wakes)), "%");
  m.add("pump.wait_timeouts", static_cast<double>(ps1.wait_timeouts - ps0.wait_timeouts), "count");
  m.add("publish.ms.p50", publish_ms.quantile(0.50), "ms");
  m.add("publish.ms.p99", publish_ms.quantile(0.99), "ms");
  m.add("publish.busy_pct", pct(static_cast<double>(spans.total_ns(kLoopPublish)), wall), "%");
  m.add("publish.hit_pct", pct(static_cast<double>(hits), static_cast<double>(hits + rebuilds)), "%");
  m.add("sweep.ms.p50", sweep_ms.quantile(0.50), "ms");
  m.add("sweep.ms.p99", sweep_ms.quantile(0.99), "ms");
  m.add("observe.us.p50", observe_us.quantile(0.50), "us");
  m.add("observe.us.p99", observe_us.quantile(0.99), "us");
  m.add("observe.events", static_cast<double>(observe_events), "count");
  m.add("record.us.p50", record_us.quantile(0.50), "us");
  m.add("loop.sweep_late_ms.p99", late_ms.quantile(0.99), "ms");
  m.add("gen.late_ms.p99", gr.late_ms_p99, "ms");
  m.add("gen.late_ms.max", gr.late_ms_max, "ms");
  Ns accounted = 0;
  for (std::uint32_t n = kLoopPoll; n <= kLoopWait; ++n) {
    accounted += spans.self_ns(n);
    m.add(std::string(span_name(n)) + ".self_pct",
          pct(static_cast<double>(spans.self_ns(n)), wall), "%");
  }
  m.add("loop.accounted_pct", pct(static_cast<double>(accounted), wall), "%");
  m.add("loop.harness_pct", pct(static_cast<double>(harness_ns), wall), "%");

  // ---------------------------------------------------------------- report
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf("pipebench %s seed=%llu seconds=%d trace=%d apps=%zu\n",
              spec.name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace, plan.apps.size());
  std::printf("host: nproc=%ld loadavg=%.2f %.2f %.2f\n", nproc, load[0], load[1],
              load[2]);
  std::printf("samples: %llu verdict lags (%llu misses), %llu beats timed, "
              "%llu rate calls, %llu deaths timed, %d setups\n",
              static_cast<unsigned long long>(harness.lag().count()),
              static_cast<unsigned long long>(harness.misses()),
              static_cast<unsigned long long>(gr.window_beats),
              static_cast<unsigned long long>(gr.rate_calls),
              static_cast<unsigned long long>(detect_ms.count()),
              setups);
  std::printf("records: %llu produced, %llu delivered, %llu lost "
              "(%llu frames torn, %llu dropped)\n",
              static_cast<unsigned long long>(produced),
              static_cast<unsigned long long>(pst.consumed),
              static_cast<unsigned long long>(lost),
              static_cast<unsigned long long>(pst.torn),
              static_cast<unsigned long long>(pst.dropped));
  if (!spec.faults) {
    std::printf("health: judged %.1f%% of in-window app-sweeps (the rest "
                "followed a generator stall)\n",
                100.0 * harness.judged_share(window_sweeps));
  }
  if (spec.faults && plan.measure_end - plan.measure_begin < 8 * kSec) {
    std::printf("note: fewer than 8 s measured, so no faults were planned\n");
  }
  for (const Metric& x : m.all()) {
    std::printf("  %-26s %16.4f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  if (traced) {
    spans.write_csv((workdir / ("spans-" + o.workload + "-loop.csv")).string());
  }
  for (const std::string& f : fails) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

  if (!o.out.empty()) {
    if (std::FILE* f = std::fopen(o.out.c_str(), "w")) {
      std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
                   "\"nproc\": %ld, \"loadavg\": [%.2f, %.2f, %.2f], \"metrics\": {",
                   spec.name.c_str(), static_cast<unsigned long long>(o.seed), o.trace,
                   nproc, load[0], load[1], load[2]);
      bool first = true;
      for (const Metric& x : m.all()) {
        std::fprintf(f, "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}", first ? "" : ", ",
                     x.name.c_str(), json_number(x.value).c_str(), x.unit.c_str());
        first = false;
      }
      std::fprintf(f, "}}\n");
      std::fclose(f);
    }
  }
  std::error_code ec;
  for (int k = 0; k < setups; ++k) {
    fs::remove_all(workdir / ("postmortems-" + std::to_string(getpid()) + "-" +
                              std::to_string(k)), ec);
  }

  const bool correct = fails.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(outcomes),
              static_cast<unsigned long long>(failed),
              traced ? json_metrics(m, kPerLayer).c_str()
                     : json_metrics(m, kEndToEnd).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pipebench

int main(int argc, char** argv) {
  const pipebench::Options o = pipebench::parse(argc, argv);
  try {
    return pipebench::run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 2;
  }
}
