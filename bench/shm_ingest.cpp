// Ingest fast path A/B: packed slots + SPSC fast lanes vs plain MPSC appends.
//
// Two ways a fleet of producers can push beats into one ShmIngestQueue:
//
//   * mpsc      — the v1 shape: every beat is one append() call, one
//                 fetch_add claim on the shared ring head, one 128-byte
//                 frame holding one record.
//   * fastpath  — the v2 shape: producers buffer a small batch, the batch
//                 packs up to kIngestFrameRecords records per frame, and
//                 the first kIngestLanes producers publish through private
//                 SPSC lanes that skip the shared head entirely (the rest
//                 fall back to packed batches on the shared ring).
//
// A concurrent consumer drains the whole time (shared ring + lanes in one
// pass), so the number reported is SUSTAINED delivery — what a live hbmon
// actually ingests per second — not an unconsumed producer-side burst rate.
//
// The bench also measures the doorbell's reason to exist: a consumer
// parked on an idle ring should cost ~zero CPU. The idle section runs the
// canonical pump loop (poll + wait) over a quiet second and reads
// CLOCK_THREAD_CPUTIME_ID around it; the consumer thread parked on the
// futex doorbell must stay under 1% CPU, and the bench FAILS otherwise.
//
// Every run ends with a conservation coda: frames consumed + frames
// dropped + frames torn must equal frames produced (shared head plus every
// lane head), exactly, in every configuration. Loss is legal under lap
// pressure; miscounted loss is not.
//
//   ./bench_shm_ingest [beats_per_producer] [repeat] [--smoke] [--json PATH]
//
// CSV on stdout; verdict line prints fastpath_beats_mpsc_at_64=yes|no.
// Exit 0 unless conservation or the idle-CPU gate fails (exit 2).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench_json.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "transport/shm_ingest.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace {

namespace fs = std::filesystem;

using SteadyClock = std::chrono::steady_clock;
using hb::transport::ShmIngestQueue;

constexpr std::uint32_t kRingFrames = 4096;
constexpr std::uint32_t kLaneFrames = 1024;
/// Producer-side buffer per flush in fastpath mode: a multiple of
/// kIngestFrameRecords so every flush packs into full frames.
constexpr std::size_t kBatch = 3 * hb::transport::kIngestFrameRecords;

hb::core::HeartbeatRecord make_record(std::uint32_t thread_id,
                                      std::uint64_t seq) {
  hb::core::HeartbeatRecord rec;
  rec.timestamp_ns = hb::util::MonotonicClock::instance()->now();
  rec.seq = seq;
  rec.tag = seq;
  rec.thread_id = thread_id;
  return rec;
}

double thread_cpu_seconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct RunResult {
  double elapsed_s = 0.0;       ///< producers started -> ring fully drained
  std::uint64_t delivered = 0;  ///< records the consumer handed to its sink
  std::uint64_t dropped = 0;    ///< frames lapped past the consumer
  std::uint64_t torn = 0;       ///< frames skipped uncommitted
  bool conserved = false;       ///< consumed+dropped+torn == produced frames
};

/// One A/B run: `producers` threads each push `beats` records while one
/// consumer drains. fastpath=false is the v1 shape (append() per record);
/// fastpath=true batches kBatch records per flush through a claimed lane
/// (or packed shared-ring batches once the lanes run out).
RunResult run_config(const fs::path& dir, int producers, int beats,
                     bool fastpath) {
  const auto path = dir / "ring.hbq";
  fs::remove(path);
  auto queue = ShmIngestQueue::create(path, kRingFrames, kLaneFrames);
  const hb::core::TargetRate target{1.0, 1e9};

  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    names.push_back("prod-" + std::to_string(p));
  }

  std::atomic<int> done{0};
  std::atomic<bool> go{false};
  // Lanes are claimed up front and held until AFTER the conservation check:
  // a released lane can be re-claimed and legally lap the consumer, which
  // is valid transport behavior but makes "frames produced" unattributable.
  std::vector<int> lanes(static_cast<std::size_t>(producers), -1);
  if (fastpath) {
    for (int p = 0; p < producers; ++p) {
      lanes[static_cast<std::size_t>(p)] = queue->claim_lane();
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto tid = static_cast<std::uint32_t>(p + 1);
      const std::string_view name = names[static_cast<std::size_t>(p)];
      if (!fastpath) {
        for (int i = 0; i < beats; ++i) {
          queue->append(name, make_record(tid, static_cast<std::uint64_t>(i)),
                        target);
        }
      } else {
        const int lane = lanes[static_cast<std::size_t>(p)];
        hb::core::HeartbeatRecord batch[kBatch];
        int i = 0;
        while (i < beats) {
          std::size_t n = 0;
          for (; n < kBatch && i < beats; ++n, ++i) {
            batch[n] = make_record(tid, static_cast<std::uint64_t>(i));
          }
          const std::span<const hb::core::HeartbeatRecord> recs(batch, n);
          queue->append_batch_lane(lane, name, recs, target);
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  ShmIngestQueue::Cursor cur;
  std::uint64_t delivered = 0;
  const auto sink = [&delivered](std::string_view,
                                 const hb::core::HeartbeatRecord&,
                                 hb::core::TargetRate) { ++delivered; };

  const auto t0 = SteadyClock::now();
  go.store(true, std::memory_order_release);
  for (;;) {
    queue->drain(cur, sink);
    if (done.load(std::memory_order_acquire) == producers &&
        !queue->has_frames(cur)) {
      break;
    }
    queue->wait_for_frames(cur, hb::util::kNsPerMs);
  }
  const auto t1 = SteadyClock::now();
  for (auto& t : threads) t.join();

  std::uint64_t frames_produced = queue->produced();
  for (std::uint32_t l = 0; l < queue->lane_count(); ++l) {
    frames_produced += queue->lane_produced(l);
  }

  RunResult result;
  result.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  result.delivered = delivered;
  result.dropped = cur.dropped;
  result.torn = cur.torn;
  result.conserved =
      cur.consumed_frames + cur.dropped + cur.torn == frames_produced;
  if (!result.conserved) {
    std::fprintf(stderr,
                 "CONSERVATION VIOLATION: consumed_frames=%llu dropped=%llu "
                 "torn=%llu produced=%llu\n",
                 static_cast<unsigned long long>(cur.consumed_frames),
                 static_cast<unsigned long long>(cur.dropped),
                 static_cast<unsigned long long>(cur.torn),
                 static_cast<unsigned long long>(frames_produced));
  }
  return result;
}

/// The doorbell's idle bill: the canonical pump loop over a quiet ring for
/// `window_s` of wall time. Returns consumer-thread CPU seconds spent.
double run_idle(const fs::path& dir, double window_s, double* wall_out) {
  const auto path = dir / "idle.hbq";
  fs::remove(path);
  auto queue = ShmIngestQueue::create(path, 256, 64);
  auto hub = std::make_shared<hb::hub::HeartbeatHub>();
  hb::hub::ShmIngestPumpOptions opts;
  opts.doorbell_timeout_ns = 50 * hb::util::kNsPerMs;
  hb::hub::ShmIngestPump pump(queue, hub, opts);

  const auto deadline =
      SteadyClock::now() + std::chrono::duration<double>(window_s);
  const auto w0 = SteadyClock::now();
  const double cpu0 = thread_cpu_seconds();
  while (SteadyClock::now() < deadline) {
    pump.poll();
    const auto left = std::chrono::duration_cast<std::chrono::nanoseconds>(
        deadline - SteadyClock::now());
    pump.wait(left.count());
  }
  const double cpu = thread_cpu_seconds() - cpu0;
  if (wall_out) {
    *wall_out = std::chrono::duration<double>(SteadyClock::now() - w0).count();
  }
  return cpu;
}

template <typename Fn>
RunResult best_of(int repeat, Fn&& fn) {
  RunResult best;
  for (int r = 0; r < repeat; ++r) {
    RunResult run = fn();
    if (r == 0 || run.elapsed_s < best.elapsed_s) {
      // Keep the fastest CONSERVED run, but never hide a violation.
      run.conserved = run.conserved && (r == 0 || best.conserved);
      best = run;
    } else {
      best.conserved = best.conserved && run.conserved;
    }
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  int beats = 20000;
  int repeat = 3;
  bool smoke = false;
  const char* json_path = nullptr;
  std::vector<const char*> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (smoke) {
    beats = 2000;
    repeat = 1;
  }
  if (positional.size() > 0) beats = std::atoi(positional[0]);
  if (positional.size() > 1) repeat = std::atoi(positional[1]);
  if (beats < 100 || repeat < 1) {
    std::fprintf(stderr,
                 "usage: %s [beats_per_producer>=100] [repeat>=1] [--smoke] "
                 "[--json PATH]\n",
                 argv[0]);
    return 1;
  }

  const fs::path dir = fs::temp_directory_path() /
                       ("hb_bench_shm_ingest_" + std::to_string(::getpid()));
  fs::create_directories(dir);

  std::printf(
      "config,producers,beats_per_producer,elapsed_s,beats_per_sec,"
      "delivered,dropped_frames,torn_frames\n");
  const int kProducerCounts[] = {8, 64};
  bool conserved = true;
  double mpsc_at_64 = 0.0;
  double fast_at_64 = 0.0;
  struct Row {
    int producers;
    double mpsc_rate, fast_rate;
  };
  std::vector<Row> rows;
  for (const int producers : kProducerCounts) {
    RunResult ab[2];
    for (const bool fastpath : {false, true}) {
      const RunResult run = best_of(
          repeat, [&] { return run_config(dir, producers, beats, fastpath); });
      const double rate =
          static_cast<double>(run.delivered) / run.elapsed_s;
      std::printf("%s,%d,%d,%.4f,%.0f,%llu,%llu,%llu\n",
                  fastpath ? "fastpath" : "mpsc", producers, beats,
                  run.elapsed_s, rate,
                  static_cast<unsigned long long>(run.delivered),
                  static_cast<unsigned long long>(run.dropped),
                  static_cast<unsigned long long>(run.torn));
      std::fflush(stdout);
      conserved = conserved && run.conserved;
      ab[fastpath ? 1 : 0] = run;
    }
    const double mpsc_rate =
        static_cast<double>(ab[0].delivered) / ab[0].elapsed_s;
    const double fast_rate =
        static_cast<double>(ab[1].delivered) / ab[1].elapsed_s;
    rows.push_back({producers, mpsc_rate, fast_rate});
    if (producers == 64) {
      mpsc_at_64 = mpsc_rate;
      fast_at_64 = fast_rate;
    }
  }

  // Idle-CPU section: a parked consumer over a quiet second.
  double idle_wall = 0.0;
  const double idle_window_s = 1.0;
  const double idle_cpu = run_idle(dir, idle_window_s, &idle_wall);
  const double idle_pct = idle_wall > 0 ? 100.0 * idle_cpu / idle_wall : 0.0;
  // A consumer parked on the futex doorbell must cost under 1% of the window.
  const bool idle_ok = idle_cpu < 0.01 * idle_window_s;

  fs::remove_all(dir);
  const bool fast_wins = fast_at_64 > mpsc_at_64;
  std::printf(
      "\n# fastpath_beats_mpsc_at_64=%s (sustained: fastpath %.0f/s vs "
      "mpsc %.0f/s)\n",
      fast_wins ? "yes" : "no", fast_at_64, mpsc_at_64);
  std::printf("# idle_consumer_cpu_pct=%.3f (gate=%s)\n", idle_pct,
              idle_ok ? "ok" : "FAIL");
  std::printf("# frames_conserved=%s\n", conserved ? "yes" : "NO");

  if (json_path) {
    hb::bench::JsonRecord rec("shm_ingest");
    rec.config("beats_per_producer", beats);
    rec.config("repeat", repeat);
    rec.config("smoke", smoke);
    rec.config("doorbell", "futex");
    for (const Row& row : rows) {
      const std::string p = std::to_string(row.producers);
      rec.metric(("mpsc_beats_per_sec_p" + p).c_str(), row.mpsc_rate);
      rec.metric(("fastpath_beats_per_sec_p" + p).c_str(), row.fast_rate);
    }
    rec.metric("fastpath_speedup_p64",
               mpsc_at_64 > 0 ? fast_at_64 / mpsc_at_64 : 0.0);
    rec.metric("fastpath_beats_mpsc_at_64", fast_wins);
    rec.metric("idle_consumer_cpu_pct", idle_pct);
    rec.metric("frames_conserved", conserved);
    rec.write(json_path);
  }

  // Exit gates on the invariants only (conservation + idle-CPU); the
  // throughput verdict is a noisy-runner-unsafe claim and stays
  // informational (same policy as bench_fleet_sweep's mismatch gate).
  if (!conserved) return 2;
  if (!idle_ok) return 2;
  return 0;
}
