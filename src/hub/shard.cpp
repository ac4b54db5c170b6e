#include "hub/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/time.hpp"

namespace hb::hub {

namespace {

/// Telemetry cells for every shard in the process (resolved once; the hot
/// paths below only ever touch the cached pointers). Process-wide on
/// purpose: fleet dashboards want "beats ingested by this process", not
/// per-shard shrapnel — per-shard detail stays on ShardStats.
struct ShardMetrics {
  obs::Counter* ingested;       ///< beats enqueued (hb.hub.ingested)
  obs::Counter* applied;        ///< beats applied to app state
  obs::Counter* publishes;      ///< shard snapshot rebuilds
  obs::Counter* publish_skips;  ///< publish() calls that reused the snapshot
  obs::Histogram* publish_ns;   ///< rebuild_snapshot_locked duration

  static const ShardMetrics& get() {
    static const ShardMetrics m = [] {
      auto& r = obs::MetricsRegistry::global();
      return ShardMetrics{&r.counter("hb.hub.ingested"),
                          &r.counter("hb.hub.applied"),
                          &r.counter("hb.hub.publishes"),
                          &r.counter("hb.hub.publish_skips"),
                          &r.histogram("hb.hub.publish_ns")};
    }();
    return m;
  }
};

/// Clamp a histogram percentile into the window-exact [min, max] range
/// (the histogram's own bounds cover everything since reset, which may be
/// wider than the current sliding window after evictions).
std::uint64_t clamped_percentile(const util::LatencyHistogram& hist, double p,
                                 std::uint64_t lo, std::uint64_t hi) {
  return std::clamp(hist.percentile(p), lo, hi);
}

}  // namespace

HubShard::HubShard(std::uint32_t index, ShardConfig config)
    : index_(index), config_(config) {
  batch_.reserve(kShardBatchCapacity);
}

std::uint32_t HubShard::add_app(std::string name, core::TargetRate target) {
  util::MutexLock lock(state_mu_);
  AppState app(config_);
  app.name = std::move(name);
  app.target = target;
  if (config_.clock) app.born_ns = config_.clock->now();
  const auto slot = static_cast<std::uint32_t>(apps_.size());
  app.cached.name = app.name;
  app.cached.id = make_app_id(index_, slot);
  app.cached.shard = index_;
  app.cached.target = target;
  apps_.push_back(std::move(app));
  state_dirty_ = true;  // the next publish must include the newcomer
  app_count_.store(apps_.size(), std::memory_order_release);
  return slot;
}

void HubShard::check_slot(std::uint32_t slot) const {
  if (slot >= app_count_.load(std::memory_order_acquire)) {
    // An AppId minted by a different hub: reject before it reaches the
    // batch, where apply_locked indexes unchecked. Slots are append-only,
    // so the lock-free bound can only ever under-approximate — a false
    // reject is impossible for ids this hub handed out before the call.
    throw std::out_of_range("HubShard: AppId slot not registered here");
  }
}

void HubShard::enqueue(std::uint32_t slot, const core::HeartbeatRecord& rec) {
  enqueue(slot, std::span<const core::HeartbeatRecord>(&rec, 1));
}

void HubShard::enqueue(std::uint32_t slot,
                       std::span<const core::HeartbeatRecord> recs) {
  check_slot(slot);
  std::size_t handed_off = 0;
  bool overflowed = false;
  {
    util::MutexLock lock(ingest_mu_);
    for (const auto& rec : recs) {
      batch_.emplace_back(slot, rec);
      ++ingested_;
      if (batch_.size() >= kShardBatchCapacity) {
        // O(1) handoff: the full batch joins the apply FIFO and producers
        // keep filling a fresh one. The drain below runs off this lock.
        handed_off += batch_.size();
        overflow_.push_back(std::move(batch_));
        batch_ = Batch();
        batch_.reserve(kShardBatchCapacity);
        overflowed = true;
      }
    }
  }
  // hb.hub.ingested counts at batch-handoff granularity, not per beat: one
  // sharded fetch_add per kShardBatchCapacity beats keeps the telemetry plane
  // inside its <5% ingest budget (bench/obs_overhead). The partial batch a
  // flush drains is counted by apply_pending_locked when it leaves, so
  // after any flush the counter equals the beats actually taken in.
  if (handed_off > 0) ShardMetrics::get().ingested->add(handed_off);
  if (overflowed) drain_overflow();
}

void HubShard::drain_overflow() {
  // Apply-only: no maintenance, no refresh, no snapshot build — nobody
  // observes summaries until a publish, and every publish rebuilds them.
  // Contends with readers on state_mu_, never with other producers.
  // The dirty mark is what makes the next publish rebuild even when it
  // finds nothing left to apply itself and the clock has not moved (a beat
  // count that is an exact multiple of kShardBatchCapacity drains entirely
  // here): applied data must always reach the next snapshot.
  util::MutexLock lock(state_mu_);
  if (apply_pending_locked(/*include_partial=*/false)) state_dirty_ = true;
}

bool HubShard::apply_pending_locked(bool include_partial) {
  // Bound the drain to what was pending at ENTRY: under sustained ingest
  // an until-empty loop would never exit (producers refill faster than we
  // apply) and this function runs with state_mu_ held — every reader and
  // overflowing producer would block behind it unboundedly. Batches that
  // arrive during the drain belong to the next drain (their producers
  // trigger one). overflow_ only shrinks under state_mu_, so the first
  // `pending_batches` pops below are exactly the batches seen at entry.
  std::size_t pending_batches;
  {
    util::MutexLock lock(ingest_mu_);
    pending_batches = overflow_.size();
  }
  bool any = false;
  for (std::size_t n = 0; n <= pending_batches; ++n) {
    Batch batch;
    bool partial = false;
    {
      util::MutexLock lock(ingest_mu_);
      if (n < pending_batches) {
        batch = std::move(overflow_.front());
        overflow_.pop_front();
      } else if (include_partial && !batch_.empty()) {
        batch = std::move(batch_);
        batch_ = Batch();
        batch_.reserve(kShardBatchCapacity);
        partial = true;
      } else {
        break;
      }
    }
    // Partial batches never passed the handoff point in enqueue(), so the
    // ingested counter picks them up here (full batches were counted at
    // handoff; counting them again would double-book).
    if (partial) ShardMetrics::get().ingested->add(batch.size());
    // FIFO is global: handoffs preserve arrival order and every apply pops
    // under state_mu_, so batches land in the order their beats arrived.
    for (const auto& [slot, rec] : batch) apply_locked(slot, rec);
    ShardMetrics::get().applied->add(batch.size());
    ++flushes_;
    any = true;
  }
  return any;
}

void HubShard::set_target(std::uint32_t slot, core::TargetRate target) {
  util::MutexLock lock(state_mu_);
  AppState& app = apps_.at(slot);
  app.target = target;
  app.dirty = true;
  state_dirty_ = true;
}

void HubShard::evict(std::uint32_t slot) {
  util::MutexLock lock(state_mu_);
  // Apply pending beats first: they were ingested before the eviction was
  // requested, so they still count toward total_beats — and whatever got
  // applied (any app's beats) must reach the next snapshot even when the
  // eviction itself is an idempotent no-op below.
  if (apply_pending_locked(/*include_partial=*/true)) state_dirty_ = true;
  AppState& app = apps_.at(slot);
  if (!app.evicted) {
    evict_locked(app);
    state_dirty_ = true;
  }
}

std::shared_ptr<const ShardSnapshot> HubShard::publish() {
  util::MutexLock lock(state_mu_);
  const bool applied = apply_pending_locked(/*include_partial=*/true);
  const util::TimeNs now = config_.clock ? config_.clock->now() : 0;

  // Freshness: rebuild when new beats landed, when state changed without
  // beats (targets, evictions, registrations), or when the clock moved
  // (staleness stamps and auto-eviction must catch up). Otherwise the
  // published snapshot is still the truth — hand it back and leave the
  // epoch alone, so fleet caches keep hitting.
  {
    util::MutexLock snap_lock(snap_mu_);
    const bool stale = !snap_ || now > snap_->published_at_ns;
    if (!applied && !state_dirty_ && !stale) {
      ShardMetrics::get().publish_skips->add(1);
      return snap_;
    }
  }

  rebuild_snapshot_locked(now);
  return published();
}

std::shared_ptr<const ShardSnapshot> HubShard::published() const {
  util::MutexLock lock(snap_mu_);
  return snap_;
}

void HubShard::rebuild_snapshot_locked(util::TimeNs now) {
  const ShardMetrics& metrics = ShardMetrics::get();
  obs::ObsSpan span("shard.publish", apps_.size(), metrics.publish_ns);
  metrics.publishes->add(1);
  auto next = std::make_shared<ShardSnapshot>();
  next->shard = index_;
  next->epoch = ++epoch_;
  next->published_at_ns = now;
  next->apps.reserve(apps_.size());

  ClusterSummary& sum = next->cluster_part;
  for (AppState& app : apps_) {
    // One walk does everything the old per-query collect paths did:
    // time maintenance, dirty refresh, summary copy, rollup accumulation.
    if (config_.clock) maintain_locked(app, now);
    if (app.dirty) refresh_locked(app);
    next->apps.push_back(app.cached);

    if (app.evicted) {
      ++sum.evicted;
      continue;
    }
    const AppSummary& s = app.cached;
    ++sum.apps;
    sum.total_beats += s.total_beats;
    sum.window_beats += s.window_beats;
    if (std::isfinite(s.rate_bps)) sum.aggregate_rate_bps += s.rate_bps;
    if (s.window_beats < 2) {
      // Fewer than 2 windowed beats has no measurable rate (rate_bps is a
      // placeholder 0): the app is warming up, neither meeting its band nor
      // deficient against its minimum.
      ++sum.warming_up;
    } else {
      // A zero-span window reports an infinite rate; that is "unmeasurably
      // fast", not evidence the target band is met (same isfinite rule as
      // the aggregate-rate line above).
      if (std::isfinite(s.rate_bps) && s.target.contains(s.rate_bps)) {
        ++sum.meeting_target;
      }
      if (std::isfinite(s.rate_bps) && s.target.min_bps > 0.0 &&
          s.rate_bps < s.target.min_bps) {
        ++sum.deficient;
      }
    }
    sum.last_beat_ns = std::max(sum.last_beat_ns, s.last_beat_ns);
    if (app.intervals.size() > 0) {
      next->intervals.merge(app.hist);
      if (!next->any_interval) {
        sum.interval_min_ns = s.interval_min_ns;
        sum.interval_max_ns = s.interval_max_ns;
        next->any_interval = true;
      } else {
        sum.interval_min_ns = std::min(sum.interval_min_ns, s.interval_min_ns);
        sum.interval_max_ns = std::max(sum.interval_max_ns, s.interval_max_ns);
      }
    }
  }
  next->tags.reserve(tag_rollup_.size());
  tag_rollup_.for_each(
      [&](std::uint64_t, const TagSummary& t) { next->tags.push_back(t); });
  std::sort(next->tags.begin(), next->tags.end(),
            [](const TagSummary& a, const TagSummary& b) {
              return a.tag < b.tag;
            });
  state_dirty_ = false;

  util::MutexLock snap_lock(snap_mu_);
  snap_ = std::move(next);
}

ShardStats HubShard::stats() const {
  ShardStats s;
  s.shard = index_;
  {
    util::MutexLock lock(state_mu_);
    s.apps = apps_.size();
    s.flushes = flushes_;
    s.epoch = epoch_;
  }
  {
    util::MutexLock lock(ingest_mu_);
    s.ingested = ingested_;
    s.pending = batch_.size();
    for (const Batch& b : overflow_) s.pending += b.size();
  }
  return s;
}

void HubShard::maintain_locked(AppState& app, util::TimeNs now) {
  // Staleness since the last beat, or since registration for an app that
  // has not beaten yet ("registered and silent since it appeared").
  const util::TimeNs since =
      app.last_beat_ns > 0 ? app.last_beat_ns : app.born_ns;
  const util::TimeNs staleness = now > since ? now - since : 0;
  if (config_.evict_after_ns > 0 && !app.evicted &&
      staleness > config_.evict_after_ns) {
    evict_locked(app);
  }
  app.cached.staleness_ns = staleness;
}

void HubShard::count_tag_locked(AppState& app, std::uint64_t tag) {
  TagSummary& t = tag_rollup_[tag];
  t.tag = tag;
  ++t.beats;
  if (++app.tag_counts[tag] == 1) ++t.apps;
}

void HubShard::uncount_tag_locked(std::uint64_t tag, std::uint64_t beats,
                                  bool app_gone) {
  TagSummary* t = tag_rollup_.find(tag);
  t->beats -= beats;
  if (app_gone && --t->apps == 0) tag_rollup_.erase(tag);
}

void HubShard::retire_oldest_tag_locked(AppState& app) {
  const core::HeartbeatRecord& oldest = app.window.back(app.window.size() - 1);
  auto it = app.tag_counts.find(oldest.tag);
  if (it == app.tag_counts.end()) return;
  const bool gone = --it->second == 0;
  if (gone) app.tag_counts.erase(it);
  uncount_tag_locked(oldest.tag, 1, gone);
}

void HubShard::evict_locked(AppState& app) {
  app.window.clear();
  app.intervals.clear();
  app.hist.reset();
  for (const auto& [tag, count] : app.tag_counts) {
    uncount_tag_locked(tag, count, /*app_gone=*/true);
  }
  app.tag_counts.clear();
  app.evicted = true;
  app.dirty = true;
}

void HubShard::apply_locked(std::uint32_t slot, const core::HeartbeatRecord& rec) {
  AppState& app = apps_[slot];
  ++app.total_beats;
  app.evicted = false;  // any beat revives an evicted app

  if (app.window.size() > 0) {
    // Interval since the newest record still inside the window. Out-of-order
    // or same-tick beats clamp to a zero interval rather than wrapping; the
    // rate math keeps its own zero-span convention. After eviction the
    // window is empty and the first new beat starts fresh — the silent gap
    // is staleness, not an interval.
    const util::TimeNs prev_ns = app.window.back(0).timestamp_ns;
    const std::uint64_t interval =
        rec.timestamp_ns > prev_ns
            ? static_cast<std::uint64_t>(rec.timestamp_ns - prev_ns)
            : 0;
    if (app.intervals.size() == app.intervals.capacity()) {
      app.hist.forget(app.intervals.back(app.intervals.size() - 1));
    }
    app.intervals.push(interval);
    app.hist.record(interval);
  }
  app.last_beat_ns = rec.timestamp_ns;

  if (app.window.size() == app.window.capacity()) {
    // The push below overwrites the oldest record: retire its tag count.
    retire_oldest_tag_locked(app);
  }
  app.window.push(rec);
  count_tag_locked(app, rec.tag);
  app.dirty = true;
}

void HubShard::refresh_locked(AppState& app) {
  AppSummary& s = app.cached;
  s.target = app.target;
  s.total_beats = app.total_beats;
  s.window_beats = app.window.size();
  s.last_beat_ns = app.last_beat_ns;
  s.evicted = app.evicted;

  // Rate over the whole window, same (n-1)/span semantics as
  // core::window_rate, computed straight off the ring ends (no copy).
  const std::size_t w = app.window.size();
  if (w < 2) {
    s.rate_bps = 0.0;
  } else {
    const util::TimeNs span =
        app.window.back(0).timestamp_ns - app.window.back(w - 1).timestamp_ns;
    s.rate_bps = span > 0
                     ? static_cast<double>(w - 1) / util::to_seconds(span)
                     : std::numeric_limits<double>::infinity();
  }

  const std::size_t n_intervals = app.intervals.size();
  if (n_intervals == 0) {
    s.interval_min_ns = s.interval_max_ns = 0;
    s.interval_mean_ns = 0.0;
    s.interval_stddev_ns = 0.0;
    s.interval_p50_ns = s.interval_p95_ns = s.interval_p99_ns = 0;
  } else {
    std::uint64_t lo = app.intervals.back(0), hi = lo;
    double sum = static_cast<double>(lo);
    double sumsq = sum * sum;
    for (std::size_t i = 1; i < n_intervals; ++i) {
      const std::uint64_t v = app.intervals.back(i);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
      const double d = static_cast<double>(v);
      sum += d;
      sumsq += d * d;
    }
    s.interval_min_ns = lo;
    s.interval_max_ns = hi;
    s.interval_mean_ns = app.hist.mean();
    // Exact population stddev over the windowed intervals — the jitter
    // signal ("slow or erratic heartbeats", paper Section 2.6).
    const double n = static_cast<double>(n_intervals);
    const double mean = sum / n;
    s.interval_stddev_ns = std::sqrt(std::max(0.0, sumsq / n - mean * mean));
    s.interval_p50_ns = clamped_percentile(app.hist, 50.0, lo, hi);
    s.interval_p95_ns = clamped_percentile(app.hist, 95.0, lo, hi);
    s.interval_p99_ns = clamped_percentile(app.hist, 99.0, lo, hi);
  }
  app.dirty = false;
}

}  // namespace hb::hub
