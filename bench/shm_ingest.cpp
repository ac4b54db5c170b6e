// Ingest packing A/B on the one shared ring: per-record vs packed batches.
//
// Two ways a fleet of producers can push beats into one ShmIngestQueue:
//
//   * per_record — every beat is one append_batch() of one record: one
//                  fetch_add claim on the ring head, one 128-byte frame
//                  holding one record (a flush_every = 1 ShmHubSink).
//   * packed     — producers buffer kBatch beats per append_batch(): one
//                  claim per batch, up to kIngestFrameRecords records per
//                  frame (a flush_every = kBatch ShmHubSink).
//
// A concurrent consumer drains the whole time, so the rate reported is
// SUSTAINED delivery — what a live hbmon actually ingests per second — not
// an unconsumed producer-side burst rate. The ring has the production
// default capacity (Registry::kDefaultIngestCapacity); when producers
// outrun the consumer they lap it, and every row says so: `produced`,
// `delivered` and `loss_pct` are records, and a rate is only comparable
// between rows with their loss next to it.
//
// The bench also measures the doorbell's reason to exist: a consumer
// parked on an idle ring should cost ~zero CPU. The idle section runs the
// canonical pump loop (poll + wait) over a quiet second and reads
// CLOCK_THREAD_CPUTIME_ID around it; the consumer thread parked on the
// futex doorbell must stay under 1% CPU, and the bench FAILS otherwise.
//
// Every run ends with a conservation coda: frames consumed + frames
// dropped + frames torn must equal frames produced (the ring head),
// exactly, in every configuration. Loss is legal under lap pressure;
// miscounted loss is not.
//
//   ./bench_shm_ingest [beats_per_producer] [repeat] [--smoke] [--json PATH]
//
// CSV on stdout; verdict line prints packed_beats_per_record_at_64=yes|no.
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
#include "transport/registry.hpp"
#include "transport/shm_ingest.hpp"
#include "util/clock.hpp"
#include "util/time.hpp"

namespace {

namespace fs = std::filesystem;

using SteadyClock = std::chrono::steady_clock;
using hb::transport::ShmIngestQueue;

constexpr std::uint32_t kRingFrames =
    hb::transport::Registry::kDefaultIngestCapacity;
/// Producer-side buffer per flush in packed mode: a multiple of
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
  std::uint64_t produced = 0;   ///< records the producers appended
  std::uint64_t delivered = 0;  ///< records the consumer handed to its sink
  std::uint64_t dropped = 0;    ///< frames lapped past the consumer
  std::uint64_t torn = 0;       ///< frames whose producer died mid-publish
  bool conserved = false;       ///< consumed+dropped+torn == produced frames

  double rate() const { return static_cast<double>(delivered) / elapsed_s; }
  double loss_pct() const {
    return produced == 0 ? 0.0
                         : 100.0 * static_cast<double>(produced - delivered) /
                               static_cast<double>(produced);
  }
};

/// One A/B run: `producers` threads each push `beats` records while one
/// consumer drains. packed=false appends one record per call; packed=true
/// appends kBatch records per call.
RunResult run_config(const fs::path& dir, int producers, int beats,
                     bool packed) {
  const auto path = dir / "ring.hbq";
  fs::remove(path);
  auto queue = ShmIngestQueue::create(path, kRingFrames);
  const hb::core::TargetRate target{1.0, 1e9};

  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    names.push_back("prod-" + std::to_string(p));
  }

  std::atomic<int> done{0};
  std::atomic<bool> go{false};

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(producers));
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const auto tid = static_cast<std::uint32_t>(p + 1);
      const std::string_view name = names[static_cast<std::size_t>(p)];
      const std::size_t per_call = packed ? kBatch : 1;
      hb::core::HeartbeatRecord batch[kBatch];
      int i = 0;
      while (i < beats) {
        std::size_t n = 0;
        for (; n < per_call && i < beats; ++n, ++i) {
          batch[n] = make_record(tid, static_cast<std::uint64_t>(i));
        }
        queue->append_batch(name, {batch, n}, target);
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

  const std::uint64_t frames_produced = queue->produced();

  RunResult result;
  result.elapsed_s = std::chrono::duration<double>(t1 - t0).count();
  result.produced = static_cast<std::uint64_t>(producers) *
                    static_cast<std::uint64_t>(beats);
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
  auto queue = ShmIngestQueue::create(path, 256);
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
      "produced,delivered,loss_pct,dropped_frames,torn_frames\n");
  const int kProducerCounts[] = {8, 64};
  bool conserved = true;
  struct Row {
    int producers;
    RunResult per_record, packed;
  };
  std::vector<Row> rows;
  for (const int producers : kProducerCounts) {
    Row row{producers, {}, {}};
    for (const bool packed : {false, true}) {
      const RunResult run = best_of(
          repeat, [&] { return run_config(dir, producers, beats, packed); });
      std::printf("%s,%d,%d,%.4f,%.0f,%llu,%llu,%.2f,%llu,%llu\n",
                  packed ? "packed" : "per_record", producers, beats,
                  run.elapsed_s, run.rate(),
                  static_cast<unsigned long long>(run.produced),
                  static_cast<unsigned long long>(run.delivered),
                  run.loss_pct(),
                  static_cast<unsigned long long>(run.dropped),
                  static_cast<unsigned long long>(run.torn));
      std::fflush(stdout);
      conserved = conserved && run.conserved;
      (packed ? row.packed : row.per_record) = run;
    }
    rows.push_back(row);
  }
  const Row& at_64 = rows.back();

  // Idle-CPU section: a parked consumer over a quiet second.
  double idle_wall = 0.0;
  const double idle_window_s = 1.0;
  const double idle_cpu = run_idle(dir, idle_window_s, &idle_wall);
  const double idle_pct = idle_wall > 0 ? 100.0 * idle_cpu / idle_wall : 0.0;
  // A consumer parked on the futex doorbell must cost under 1% of the window.
  const bool idle_ok = idle_cpu < 0.01 * idle_window_s;

  fs::remove_all(dir);
  const bool packed_wins = at_64.packed.rate() > at_64.per_record.rate();
  std::printf(
      "\n# packed_beats_per_record_at_64=%s (sustained: packed %.0f/s at "
      "%.2f%% loss vs per_record %.0f/s at %.2f%% loss)\n",
      packed_wins ? "yes" : "no", at_64.packed.rate(),
      at_64.packed.loss_pct(), at_64.per_record.rate(),
      at_64.per_record.loss_pct());
  std::printf("# idle_consumer_cpu_pct=%.3f (gate=%s)\n", idle_pct,
              idle_ok ? "ok" : "FAIL");
  std::printf("# frames_conserved=%s\n", conserved ? "yes" : "NO");

  if (json_path) {
    hb::bench::JsonRecord rec("shm_ingest");
    rec.config("beats_per_producer", beats);
    rec.config("repeat", repeat);
    rec.config("smoke", smoke);
    rec.config("doorbell", "futex");
    rec.config("ring_frames", static_cast<std::uint64_t>(kRingFrames));
    rec.config("packed_batch", static_cast<std::uint64_t>(kBatch));
    rec.config("host_cores",
               static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    for (const Row& row : rows) {
      const std::string p = "_p" + std::to_string(row.producers);
      for (const bool packed : {false, true}) {
        const RunResult& run = packed ? row.packed : row.per_record;
        const std::string mode = packed ? "packed" : "per_record";
        rec.metric((mode + "_beats_per_sec" + p).c_str(), run.rate());
        rec.metric((mode + "_produced" + p).c_str(), run.produced);
        rec.metric((mode + "_delivered" + p).c_str(), run.delivered);
        rec.metric((mode + "_loss_pct" + p).c_str(), run.loss_pct());
      }
    }
    rec.metric("packed_speedup_p64",
               at_64.per_record.rate() > 0
                   ? at_64.packed.rate() / at_64.per_record.rate()
                   : 0.0);
    rec.metric("packed_beats_per_record_at_64", packed_wins);
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
