#include "generator.hpp"

#include <signal.h>
#include <sys/mman.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/heartbeat.hpp"
#include "util/rng.hpp"

namespace pipebench {
namespace {

// Per thread, per quantity. A thread times a random 1/k of its in-window
// beats, k chosen from the plan so the timings fit: a full store falls back
// to random reservoir replacement, whose scattered writes evicted the beat's
// working set and raised the measured beat cost by ~40% for the rest of the
// run. Every k-th beat would alias with the apps' round-robin and the sink's
// flush cycle, timing some flush phases and never others.
constexpr std::size_t kSampleCap = 1 << 19;
constexpr std::size_t kSpanCap = 1 << 17;    // stored spans per thread

// Traced runs time the sink from a BeatStore wrapped around it; the span
// context of the beat in progress reaches it through these thread-locals
// (Heartbeat::beat calls the store synchronously on the beating thread).
thread_local SpanLog* tl_log = nullptr;
thread_local std::uint32_t tl_parent = kNoSpan;
thread_local Samples* tl_append = nullptr;

class TimingStore final : public hb::core::BeatStore {
 public:
  explicit TimingStore(std::shared_ptr<hb::core::BeatStore> inner)
      : inner_(std::move(inner)) {}

  std::uint64_t append(const hb::core::HeartbeatRecord& rec) override {
    if (tl_log == nullptr) return inner_->append(rec);
    const Ns start = now_ns();
    const std::uint32_t h = tl_log->open(kSinkAppend, start, tl_parent);
    const std::uint64_t seq = inner_->append(rec);
    const Ns end = now_ns();
    tl_log->close(h, end);
    tl_append->add(static_cast<double>(end - start));
    return seq;
  }
  std::uint64_t count() const override { return inner_->count(); }
  std::size_t capacity() const override { return inner_->capacity(); }
  std::vector<hb::core::HeartbeatRecord> history(std::size_t n) const override {
    return inner_->history(n);
  }
  void set_target(hb::core::TargetRate t) override { inner_->set_target(t); }
  hb::core::TargetRate target() const override { return inner_->target(); }
  void set_default_window(std::uint32_t w) override {
    inner_->set_default_window(w);
  }
  std::uint32_t default_window() const override {
    return inner_->default_window();
  }

 private:
  std::shared_ptr<hb::core::BeatStore> inner_;
};

struct ThreadStats {
  ThreadStats(std::uint64_t seed, bool rate_calls, bool traced)
      : beat(kSampleCap, seed),
        rate(rate_calls ? kSampleCap : 0, seed + 1),
        late(kSampleCap, seed + 2),
        append(traced ? kSampleCap : 0, seed + 3),
        self(traced ? kSampleCap : 0, seed + 4),
        log(traced ? kSpanCap : 0) {}
  Samples beat, rate, late, append, self;
  SpanLog log;
};

void sleep_until(Ns t) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(t / kSec);
  ts.tv_nsec = static_cast<long>(t % kSec);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

// Everything the beating threads share inside the child.
struct GenContext {
  const Plan& plan;
  const GenArgs& args;
  GenShared& shared;
  hb::core::StoreFactory factory;
  std::vector<std::unique_ptr<hb::core::Heartbeat>> hbs;
  std::atomic<std::size_t> turn{0};   ///< next app to construct
  std::atomic<std::uint32_t> built{0};  ///< threads done constructing
  std::atomic<Ns> t0{0};
};

bool stopping(const GenShared& shared) {
  // relaxed: a stop request only has to be noticed eventually.
  return shared.stop.load(std::memory_order_relaxed) != 0;
}

// Each thread builds its own apps, so their stores and sink buffers come
// from the thread's own malloc arena and never share a cache line with
// the other thread's apps. Construction still runs in global app order
// (apps take turns), so apps 0..7 are the ones that claim fast lanes.
void build_apps(GenContext& ctx, std::uint32_t t) {
  const Plan& plan = ctx.plan;
  for (std::size_t a = 0; a < plan.apps.size(); ++a) {
    if (plan.apps[a].thread != t) continue;
    while (ctx.turn.load(std::memory_order_acquire) != a) {
      if (stopping(ctx.shared)) return;
      std::this_thread::yield();
    }
    hb::core::HeartbeatOptions o;
    o.name = plan.apps[a].name;
    o.history_capacity = plan.spec.history_capacity;
    o.store_factory = ctx.factory;
    ctx.hbs[a] = std::make_unique<hb::core::Heartbeat>(std::move(o));
    ctx.turn.store(a + 1, std::memory_order_release);
  }
  ctx.built.fetch_add(1, std::memory_order_acq_rel);
  while (ctx.built.load(std::memory_order_acquire) < kGenThreads) {
    if (stopping(ctx.shared)) return;
    std::this_thread::yield();
  }
  if (t == 0) {
    const Ns t0 = now_ns();
    ctx.shared.t0.store(t0, std::memory_order_relaxed);
    ctx.t0.store(t0, std::memory_order_release);
    ctx.shared.state.store(1, std::memory_order_release);
  }
}

// Walk this thread's apps round-robin in phase order: cycle c visits each
// app's grid point phase + c * period, so beats leave in due order.
void beat_loop(GenContext& ctx, std::uint32_t t, ThreadStats& st,
               std::vector<std::uint64_t>& produced) {
  // Wake at the deadline, not up to 50 us after it (the default slack).
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);
  build_apps(ctx, t);
  Ns t0 = 0;
  while ((t0 = ctx.t0.load(std::memory_order_acquire)) == 0) {
    if (stopping(ctx.shared)) return;
    std::this_thread::yield();
  }
  const Plan& plan = ctx.plan;
  std::vector<std::size_t> mine;
  for (std::size_t a = 0; a < plan.apps.size(); ++a) {
    if (plan.apps[a].thread == t) mine.push_back(a);
  }
  std::stable_sort(mine.begin(), mine.end(), [&](std::size_t x, std::size_t y) {
    return plan.apps[x].phase < plan.apps[y].phase;
  });
  if (mine.empty()) return;

  std::uint64_t window_beats = 0;
  for (const std::size_t a : mine) {
    window_beats += plan.grid_points(a, plan.measure_begin, plan.measure_end);
  }
  const std::uint64_t stride = window_beats / kSampleCap + 1;
  hb::util::Rng pick(ctx.args.seed * 2 + t + 1);

  const bool traced = ctx.args.traced;
  const Ns period = plan.spec.period_ns;
  std::uint64_t total = 0;
  std::uint64_t cycle = 0;
  std::size_t i = 0;
  while (!stopping(ctx.shared)) {
    const std::size_t a = mine[i];
    const Ns rel = plan.apps[a].phase + static_cast<Ns>(cycle) * period;
    if (++i == mine.size()) {
      i = 0;
      ++cycle;
    }
    if (!plan.apps[a].silences.empty() && plan.silent(a, rel)) continue;

    const Ns due = t0 + rel;
    Ns start = now_ns();
    if (start < due) {
      // Sleep, never spin: spinning threads made beat costs swing run to
      // run on a shared host.
      sleep_until(due);
      start = now_ns();
    }
    if (start - due > kStallPeriods * period) {
      // relaxed: a timestamp the consumer samples; no data rides on it.
      ctx.shared.thread[t].last_stall.store(start, std::memory_order_relaxed);
    }
    const bool in_window = rel >= plan.measure_begin && rel < plan.measure_end;
    const bool timed = in_window && (stride == 1 || pick.next_below(stride) == 0);
    hb::core::Heartbeat& hb = *ctx.hbs[a];

    std::uint32_t span = kNoSpan;
    if (traced && timed) {
      span = st.log.open(kGenBeat, start, kNoSpan);
      tl_log = &st.log;
      tl_parent = span;
      tl_append = &st.append;
    }
    hb.beat(cycle);
    const Ns beat_end = now_ns();
    if (span != kNoSpan) {
      tl_log = nullptr;
      st.self.add(static_cast<double>(st.log.close(span, beat_end)));
    }
    ++produced[a];
    // relaxed: a progress counter for backlog sampling; no data rides on it.
    ctx.shared.thread[t].produced.store(++total, std::memory_order_relaxed);

    Ns rate_end = beat_end;
    if (plan.spec.call_rate) {
      const std::uint32_t rs =
          span != kNoSpan ? st.log.open(kGenRate, beat_end, kNoSpan) : kNoSpan;
      volatile double r = hb.global().rate(kRateWindow);
      (void)r;
      rate_end = now_ns();
      if (rs != kNoSpan) st.log.close(rs, rate_end);
    }
    if (timed) {
      st.beat.add(static_cast<double>(beat_end - start));
      st.late.add(static_cast<double>(start - due) / kMs);
      if (plan.spec.call_rate) st.rate.add(static_cast<double>(rate_end - beat_end));
    }
  }
}

[[noreturn]] void child_main(const GenArgs& args,
                             std::shared_ptr<hb::transport::ShmIngestQueue> queue,
                             GenShared& shared) {
  int code = 0;
  try {
    const WorkloadSpec* spec = find_workload(args.workload);
    if (spec == nullptr) throw std::runtime_error("unknown workload");
    const Plan plan = make_plan(*spec, args.seed, args.seconds);
    if (plan.apps.size() > kMaxApps) throw std::runtime_error("too many apps");
    shared.report.checksum = plan.checksum;

    GenContext ctx{plan, args, shared, {}, {}};
    hb::transport::ShmHubSinkOptions sink_opts;
    sink_opts.flush_every = spec->flush_every;
    ctx.factory = hb::transport::ShmHubSink::wrap_factory(queue, {}, sink_opts);
    if (args.traced) {
      ctx.factory = [inner = std::move(ctx.factory)](const hb::core::StoreSpec& s)
          -> std::shared_ptr<hb::core::BeatStore> {
        auto store = inner(s);
        if (!s.shared) return store;
        return std::make_shared<TimingStore>(std::move(store));
      };
    }
    ctx.hbs.resize(plan.apps.size());

    std::vector<std::unique_ptr<ThreadStats>> stats(kGenThreads);
    std::vector<std::vector<std::uint64_t>> produced(kGenThreads);
    // A failing thread stops the others and fails the run; every thread
    // is joined before anything it uses goes away.
    std::atomic<bool> failed{false};
    auto run = [&](std::uint32_t t) {
      try {
        // Each thread allocates the counters it writes on every beat, like
        // its apps, from its own malloc arena: allocated side by side, the
        // two threads' counters shared cache lines.
        stats[t] = std::make_unique<ThreadStats>(args.seed * 16 + t * 8 + 1,
                                                 spec->call_rate, args.traced);
        produced[t].assign(plan.apps.size(), 0);
        beat_loop(ctx, t, *stats[t], produced[t]);
      } catch (const std::exception& e) {
        if (!failed.exchange(true)) {
          std::snprintf(shared.error, sizeof shared.error, "%s", e.what());
        }
        shared.stop.store(1, std::memory_order_relaxed);
      }
    };
    // Every beating thread is spawned, and the process's own thread only
    // waits. Its apps would come from the main malloc arena, which the fork
    // leaves full of the parent's heap at a layout that changes from run to
    // run; in some runs one of its apps then beat ~45% slower throughout.
    std::vector<std::thread> threads;
    try {
      for (std::uint32_t t = 0; t < kGenThreads; ++t) threads.emplace_back(run, t);
    } catch (...) {
      shared.stop.store(1, std::memory_order_relaxed);
      for (auto& th : threads) th.join();
      throw;
    }
    for (auto& th : threads) th.join();
    if (failed.load()) throw std::runtime_error(shared.error);
    ctx.hbs.clear();  // ~ShmHubSink flushes buffered tails into the ring

    for (std::uint32_t t = 0; t < kGenThreads; ++t) {
      for (std::size_t a = 0; a < plan.apps.size(); ++a) {
        shared.produced_by_app[a] += produced[t][a];
      }
    }
    ThreadStats& all = *stats[0];
    for (std::uint32_t t = 1; t < kGenThreads; ++t) {
      all.beat.merge(stats[t]->beat);
      all.rate.merge(stats[t]->rate);
      all.late.merge(stats[t]->late);
      all.append.merge(stats[t]->append);
      all.self.merge(stats[t]->self);
    }
    for (Samples* x : {&all.beat, &all.rate, &all.late, &all.append, &all.self}) {
      x->finish();
    }
    GenReport& r = shared.report;
    r.window_beats = all.beat.count();
    r.beat_ns_p50 = all.beat.quantile(0.50);
    r.beat_ns_p99 = all.beat.quantile(0.99);
    r.beat_ns_mean = all.beat.mean();
    r.rate_calls = all.rate.count();
    r.rate_ns_p50 = all.rate.quantile(0.50);
    r.rate_ns_p99 = all.rate.quantile(0.99);
    r.late_ms_p99 = all.late.quantile(0.99);
    r.late_ms_max = all.late.max();
    r.append_ns_p50 = all.append.quantile(0.50);
    r.append_ns_p99 = all.append.quantile(0.99);
    r.self_ns_p50 = all.self.quantile(0.50);
    r.self_ns_p99 = all.self.quantile(0.99);
    if (args.traced) {
      for (std::uint32_t t = 0; t < kGenThreads; ++t) {
        stats[t]->log.write_csv(args.span_path + ".t" + std::to_string(t) +
                                ".csv");
      }
    }
    shared.state.store(2, std::memory_order_release);
  } catch (const std::exception& e) {
    std::snprintf(shared.error, sizeof shared.error, "%s", e.what());
    shared.state.store(3, std::memory_order_release);
    code = 2;
  }
  std::fflush(nullptr);
  _exit(code);
}

}  // namespace

Generator::Generator(const GenArgs& args,
                     const std::shared_ptr<hb::transport::ShmIngestQueue>& queue) {
  void* mem = mmap(nullptr, sizeof(GenShared), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) throw std::runtime_error("generator: mmap failed");
  shared_ = new (mem) GenShared();
  const pid_t parent = getpid();
  std::fflush(nullptr);
  pid_ = fork();
  if (pid_ < 0) {
    munmap(mem, sizeof(GenShared));
    throw std::runtime_error("generator: fork failed");
  }
  if (pid_ == 0) {
    // Never outlive the benchmark, even if it is killed.
    prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
    if (getppid() != parent) _exit(3);
    child_main(args, queue, *shared_);
  }
}

Generator::~Generator() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  shared_->~GenShared();
  munmap(shared_, sizeof(GenShared));
}

bool Generator::stop_and_wait(Ns timeout) {
  shared_->stop.store(1, std::memory_order_relaxed);
  const Ns deadline = now_ns() + timeout;
  int status = 0;
  for (;;) {
    const pid_t r = waitpid(pid_, &status, WNOHANG);
    if (r == pid_) break;
    if (r < 0 || now_ns() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  pid_ = -1;
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
         shared_->state.load(std::memory_order_acquire) == 2;
}

std::uint64_t Generator::produced_now() const {
  std::uint64_t n = 0;
  // relaxed: a sampled progress counter.
  for (const PerThread& p : shared_->thread) n += p.produced.load(std::memory_order_relaxed);
  return n;
}

}  // namespace pipebench
