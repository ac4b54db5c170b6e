// HubShard: one lock stripe of the heartbeat aggregation hub.
//
// A shard owns a subset of the registered apps (assigned by name hash) and
// is split into two stages with separate locks:
//
//   INGEST stage (ingest_mu_): producers pay a mutex acquire plus a vector
//   push per beat. When the batch fills it is moved wholesale onto a FIFO
//   of full batches — still under ingest_mu_, still O(1) — and the
//   producer then drains the FIFO into app state under state_mu_, where it
//   contends with readers but NOT with other producers, who keep appending
//   to the fresh batch. The ingest critical section never contains window
//   maintenance, summary refresh, or snapshot construction.
//
//   PUBLISH stage (state_mu_): the expensive work — applying batches,
//   sliding-window maintenance, interval histograms, summary refresh —
//   runs at publish time and ends by swapping in an immutable, epoch-
//   stamped ShardSnapshot (shared_ptr). Readers grab the pointer under a
//   third, trivially short lock (snap_mu_) and never hold any shard lock
//   across summary copies.
//
// A publish that finds nothing new (no pending beats, no dirty targets or
// evictions, a clock that has not moved) republishes nothing: the epoch
// stands still and fleet-level caches keep serving pointer reads. This is
// what makes repeated cluster queries between flushes nearly free
// (bench/snapshot_query).
//
// A record leaves an app's window only when a newer one overwrites it or
// the app is evicted; the window is a count of beats, as in the paper's
// HB_initialize(window).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/record.hpp"
#include "hub/snapshot.hpp"
#include "hub/summary.hpp"
#include "util/clock.hpp"
#include "util/flat_u64_map.hpp"
#include "util/histogram.hpp"
#include "util/mutex.hpp"
#include "util/ring_buffer.hpp"
#include "util/thread_annotations.hpp"

namespace hb::hub {

/// Raw beats a shard buffers before handing the batch to the apply stage.
/// Producers on one shard then contend on the state lock once per batch,
/// not once per beat.
inline constexpr std::size_t kShardBatchCapacity = 64;

/// Sizing knobs a shard needs (subset of HubOptions, kept separately so the
/// shard does not depend on the hub header).
struct ShardConfig {
  std::size_t window_capacity = 256;  ///< sliding-window beats per app
  /// Auto-evict an app whose staleness exceeds this bound (checked at
  /// publish). 0 = never auto-evict.
  util::TimeNs evict_after_ns = 0;
  /// Clock for staleness stamping. HeartbeatHub always installs one
  /// (normalize() defaults to the monotonic clock); null is only reachable
  /// when a shard is constructed standalone, and then disables time-based
  /// maintenance entirely.
  std::shared_ptr<util::Clock> clock;
};

class HubShard {
 public:
  HubShard(std::uint32_t index, ShardConfig config);

  HubShard(const HubShard&) = delete;
  HubShard& operator=(const HubShard&) = delete;

  /// Add an app to this shard; returns its slot. Thread-safe.
  std::uint32_t add_app(std::string name, core::TargetRate target)
      HB_EXCLUDES(state_mu_);

  std::uint32_t index() const { return index_; }
  std::size_t app_count() const {
    return app_count_.load(std::memory_order_acquire);
  }

  /// Append one raw beat to the batch. When the batch fills, the full
  /// batch moves to the apply FIFO and is drained into app state — off the
  /// ingest lock, so concurrent producers keep appending meanwhile.
  void enqueue(std::uint32_t slot, const core::HeartbeatRecord& rec)
      HB_EXCLUDES(ingest_mu_, state_mu_);

  /// Append many raw beats for one app (amortizes the lock acquire).
  void enqueue(std::uint32_t slot, std::span<const core::HeartbeatRecord> recs)
      HB_EXCLUDES(ingest_mu_, state_mu_);

  void set_target(std::uint32_t slot, core::TargetRate target)
      HB_EXCLUDES(state_mu_);

  /// Drop an app's window state and exclude it from rollups until it beats
  /// again (total_beats survives). Idempotent.
  void evict(std::uint32_t slot) HB_EXCLUDES(state_mu_);

  /// Apply all pending beats, run time maintenance, and (re)publish the
  /// shard snapshot if anything changed or the clock moved. Returns the
  /// current snapshot — the one true read entry point. Never null.
  std::shared_ptr<const ShardSnapshot> publish()
      HB_EXCLUDES(state_mu_, ingest_mu_, snap_mu_);

  /// The last published snapshot without forcing a publish (may be null
  /// before the first publish). Lock held only for the pointer grab.
  std::shared_ptr<const ShardSnapshot> published() const HB_EXCLUDES(snap_mu_);

  ShardStats stats() const HB_EXCLUDES(state_mu_, ingest_mu_);

 private:
  struct AppState {
    std::string name;
    core::TargetRate target;
    std::uint64_t total_beats = 0;
    util::TimeNs last_beat_ns = 0;  ///< survives eviction (staleness basis)
    /// Registration time on the hub clock: the staleness baseline until the
    /// first beat. Without it a freshly registered app under the monotonic
    /// clock (epoch = boot) would read as stale for the whole uptime and be
    /// instantly auto-evicted / classified dead.
    util::TimeNs born_ns = 0;
    bool evicted = false;
    util::RingBuffer<core::HeartbeatRecord> window;
    util::RingBuffer<std::uint64_t> intervals;  ///< windowed, drives `hist`
    util::LatencyHistogram hist;                ///< exactly the ring's values
    std::unordered_map<std::uint64_t, std::uint64_t> tag_counts;  ///< windowed
    AppSummary cached;
    bool dirty = false;

    // A window of N records spans N-1 intervals; sizing the interval ring
    // any larger would leak one interval older than the sliding window
    // into min/max/percentiles.
    explicit AppState(const ShardConfig& config)
        : window(config.window_capacity),
          intervals(config.window_capacity > 1 ? config.window_capacity - 1
                                               : 1) {}
  };

  using Batch = std::vector<std::pair<std::uint32_t, core::HeartbeatRecord>>;

  /// Drain the apply FIFO (and, when `include_partial`, the current batch)
  /// into app state, FIFO order. Caller holds state_mu_; ingest_mu_ is
  /// taken only for each O(1) batch handoff. Returns true if any record
  /// was applied.
  bool apply_pending_locked(bool include_partial)
      HB_REQUIRES(state_mu_) HB_EXCLUDES(ingest_mu_);
  /// The producer-side overflow drain: full batches only, no maintenance,
  /// no refresh, no snapshot — the cheapest correct apply.
  void drain_overflow() HB_EXCLUDES(state_mu_, ingest_mu_);
  void apply_locked(std::uint32_t slot, const core::HeartbeatRecord& rec)
      HB_REQUIRES(state_mu_);
  void refresh_locked(AppState& app) HB_REQUIRES(state_mu_);
  void check_slot(std::uint32_t slot) const;  ///< throws out_of_range
  /// Per-app time maintenance: stamp staleness, auto-evict past
  /// evict_after_ns.
  void maintain_locked(AppState& app, util::TimeNs now) HB_REQUIRES(state_mu_);
  /// Tag count bookkeeping: every change to an app's tag_counts goes
  /// through these, so tag_rollup_ stays the sum of them all.
  void count_tag_locked(AppState& app, std::uint64_t tag)
      HB_REQUIRES(state_mu_);
  void uncount_tag_locked(std::uint64_t tag, std::uint64_t beats, bool app_gone)
      HB_REQUIRES(state_mu_);
  void retire_oldest_tag_locked(AppState& app) HB_REQUIRES(state_mu_);
  void evict_locked(AppState& app) HB_REQUIRES(state_mu_);
  /// Build the next ShardSnapshot from current app state (one walk:
  /// maintenance + refresh + copy + rollups) and swap it in. Caller holds
  /// state_mu_; the swap itself takes snap_mu_ only.
  void rebuild_snapshot_locked(util::TimeNs now)
      HB_REQUIRES(state_mu_) HB_EXCLUDES(snap_mu_);

  const std::uint32_t index_;
  const ShardConfig config_;

  /// PUBLISH stage. Guards apps_, flushes_, epoch_, state_dirty_.
  /// Lock order: state_mu_ before ingest_mu_ and before snap_mu_ (never
  /// the reverse) — declared below so -Wthread-safety-beta enforces it.
  /// Each stage starts its own cache line: producers hammer ingest_mu_
  /// and batch_ while the apply stage holds state_mu_, and without the
  /// alignment whether the two stages shared a line depended on where the
  /// allocator put the shard (bench_hub_throughput at 16 producers moved
  /// by 10-15% with the shard's size).
  alignas(64) mutable util::Mutex state_mu_;
  std::vector<AppState> apps_ HB_GUARDED_BY(state_mu_);
  std::uint64_t flushes_ HB_GUARDED_BY(state_mu_) = 0;
  std::uint64_t epoch_ HB_GUARDED_BY(state_mu_) = 0;
  /// Set by add_app/set_target/evict: state changed without any beat, so
  /// the next publish must rebuild even if no records arrive.
  bool state_dirty_ HB_GUARDED_BY(state_mu_) = false;
  /// Windowed per-tag rollup over every app's tag_counts (evicted apps
  /// hold none), kept up to date per beat so a publish copies it instead
  /// of walking each app's tags: that walk cost O(apps x window) and grew
  /// with every beat until the windows filled.
  util::FlatU64Map<TagSummary> tag_rollup_ HB_GUARDED_BY(state_mu_);

  /// INGEST stage. Guards batch_, overflow_, ingested_. Producers touch
  /// nothing else on the hot path.
  alignas(64) mutable util::Mutex ingest_mu_ HB_ACQUIRED_AFTER(state_mu_);
  Batch batch_ HB_GUARDED_BY(ingest_mu_);
  /// Full batches awaiting apply, FIFO.
  std::deque<Batch> overflow_ HB_GUARDED_BY(ingest_mu_);
  std::uint64_t ingested_ HB_GUARDED_BY(ingest_mu_) = 0;

  /// Slot-validity bound for the lock-free enqueue check (slots are
  /// append-only, so a stale read only ever under-approximates).
  std::atomic<std::size_t> app_count_{0};

  /// Published-pointer swap/read only; never held across any copy.
  mutable util::Mutex snap_mu_ HB_ACQUIRED_AFTER(state_mu_);
  std::shared_ptr<const ShardSnapshot> snap_ HB_GUARDED_BY(snap_mu_);
};

}  // namespace hb::hub
