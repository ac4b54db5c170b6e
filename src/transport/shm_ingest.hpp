// ShmIngestQueue: the cross-process front door of the heartbeat hub.
//
// ShmStore gives every producer its own observer-walkable segment; that is
// the paper's §3/§4 story for ONE application. At fleet scale the consumer
// side inverts: one aggregator wants beats from N producer *processes*
// without attaching (and polling) N segments. This header provides the
// missing transport: a single fixed-capacity multi-producer/single-consumer
// ring in shared memory that any process can append BeatRecord batches
// into, and that one pump (hub/ShmIngestPump) drains into a HeartbeatHub.
//
// Format v3 is one shared ring with two levers on top of the v1 shape:
//
//   * PACKED FRAMES — a slot no longer carries one beat. Each 128-byte
//     slot is a *frame* holding up to kIngestFrameRecords compact records
//     from one producer thread (base timestamp + u32 deltas, base seq +
//     implicit increments, shared app/target). Producers that batch (via
//     ShmHubSink's flush_every/max_hold_ns) move several beats per claim.
//   * FUTEX DOORBELL — two words in the header (doorbell generation +
//     parked count) let the consumer block in the kernel instead of
//     polling. Producers ring only when a consumer is parked
//     (one fence + one relaxed load on the hot path). See wait_for_frames().
//
// There are no per-producer rings: fleet traffic needs the shared ring's
// pooled depth (one generator process can back up thousands of records
// while the consumer is busy publishing), and thousands of sinks would
// compete for any fixed set of private rings. See ARCHITECTURE.md "The
// ingest fast path".
//
// Segment layout (all fixed-width, standard-layout, address-free atomics —
// the same ABI discipline as transport/shm_layout.hpp):
//
//   offset 0 : ShmIngestHeader          (128 bytes, magic last)
//   then     : ShmIngestSlot[capacity]  (128 bytes each)
//
// Concurrency protocol:
//   * A producer claims n consecutive frame sequence numbers with ONE
//     fetch_add on header.head, then stamps each claimed slot's commit
//     word with an in-flight marker naming its pid and the frame seq
//     (ingest_claim_marker()), then a release fence.
//   * Each claimed slot s is then written seqlock-style: payload, then
//     commit <- s + 1 (publish, release). The marker is the invalidation.
//   * Stamp and commit are both CASes that only move a slot forward in
//     seq, so a producer lapped mid-publish leaves the newer lap's value
//     alone (its own frame counts as dropped).
//   * The consumer keeps a private Cursor (next expected frame) and walks
//     [cursor, head). commit == s + 1 before AND after the copy accepts a
//     frame; a commit or marker from a later lap means the frame was
//     overwritten (counted as dropped). Anything else means the claiming
//     producer is in flight, and the consumer waits for it. It tears the
//     slot (counted as torn) in exactly two cases: the slot's own marker
//     names a dead pid, or the slot has blocked the cursor for
//     kIngestTornAfterNs (a producer that died between its fetch_add and
//     its marker store, or a dead pid reused by a live process). A live,
//     merely slow producer's frame is never torn.
//
// Accounting units: `dropped` and `torn` count FRAMES (a lost slot is a
// lost slot); `consumed` counts RECORDS delivered. In any no-loss
// configuration the record count is exact; under loss, consumed_frames +
// dropped + torn always equals the frames produced, so nothing is ever
// silently unaccounted.
//
// Because slots are read non-destructively, any number of independent
// consumers (each with its own Cursor) may drain the same ring — e.g. the
// owning aggregator plus a transient `hbmon fleet --live` session.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/heartbeat.hpp"
#include "core/record.hpp"
#include "core/store.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"
#include "util/time.hpp"

namespace hb::transport {

inline constexpr std::uint64_t kShmIngestMagic = 0x3151494248ULL;  // "HBIQ1"
/// v3: one shared ring of packed frames, doorbell words, in-flight claim
/// markers. attach() rejects any other version — a stale v1/v2 ring file
/// must be removed (see OPERATIONS.md), never reinterpreted.
inline constexpr std::uint32_t kShmIngestVersion = 3;

/// Maximum application-name length carried per frame (including NUL).
/// Longer names are truncated to a 30-byte prefix plus '~' and 8 hex
/// digits of a hash of the full name, so producers whose long names share
/// a prefix remain distinct apps on the consumer side.
inline constexpr std::size_t kIngestNameCap = 40;

/// Records one 128-byte frame can pack (compact encoding below).
inline constexpr std::size_t kIngestFrameRecords = 3;

/// How long an uncommitted head-of-line slot may block a consumer before
/// it is torn even though no dead claimer is named: covers a producer that
/// died between its head fetch_add and its marker store, and a dead pid
/// reused by a live process.
inline constexpr util::TimeNs kIngestTornAfterNs = util::kNsPerSec;

/// In-flight marker a producer stamps into a claimed slot's commit word:
/// bit 63 set, the low 41 bits of the frame seq, and the claimer's pid
/// (< 2^22 = the largest pid_max on 64-bit Linux). Committed values are
/// seq + 1 and never have bit 63 set.
inline constexpr std::uint64_t kIngestMarkerBit = 1ULL << 63;
inline constexpr int kIngestMarkerPidBits = 22;
inline constexpr std::uint64_t kIngestMarkerSeqMask = (1ULL << 41) - 1;

constexpr std::uint64_t ingest_claim_marker(std::uint64_t seq,
                                            std::uint32_t pid) {
  return kIngestMarkerBit |
         ((seq & kIngestMarkerSeqMask) << kIngestMarkerPidBits) |
         (pid & ((1U << kIngestMarkerPidBits) - 1));
}

struct ShmIngestHeader {
  /// Stored LAST during create() (release), checked first by attach()
  /// (acquire): a racing attacher never sees a half-initialized header.
  std::atomic<std::uint64_t> magic{0};
  std::uint32_t version = kShmIngestVersion;
  std::uint32_t slot_size = 0;      ///< sizeof(ShmIngestSlot); ABI self-check
  std::uint32_t capacity = 0;       ///< frames in the shared MPSC ring
  std::uint32_t creator_pid = 0;    ///< pid of the creating process
  /// Total frames ever claimed from the shared ring; the next frame
  /// sequence handed to a producer. Monotonic; may run arbitrarily far
  /// ahead of any consumer.
  std::atomic<std::uint64_t> head{0};
  /// Doorbell generation word (the futex word). Producers bump it (and
  /// FUTEX_WAKE it) after committing frames — but only when `parked` is
  /// nonzero. Consumers FUTEX_WAIT on the generation they sampled before
  /// re-checking for work, so a ring between sample and sleep turns the
  /// wait into an immediate EAGAIN wake instead of a missed signal.
  std::atomic<std::uint32_t> doorbell{0};
  /// Number of consumers currently parked (or deciding to park) in
  /// wait_for_frames(). Producers skip the doorbell entirely while zero.
  std::atomic<std::uint32_t> parked{0};
  /// Total doorbell rings ever performed (diagnostic).
  std::atomic<std::uint64_t> rings{0};
  std::uint8_t pad[80] = {};
};

static_assert(std::is_standard_layout_v<ShmIngestHeader>);
static_assert(sizeof(ShmIngestHeader) == 128, "header layout is part of the ABI");
static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "cross-process atomics must be address-free");

struct ShmIngestSlot {
  /// Everything the seqlock word protects, as one trivially copyable
  /// value: writers build a Body locally and move it in with a single
  /// util::tsan_relaxed_copy; readers copy it out the same way before the
  /// commit re-check. Keeping the payload a distinct struct (rather than
  /// loose slot members) is what lets the TSan build swap the copy for
  /// word-wise relaxed atomics without touching the protocol.
  ///
  /// v2 packs up to kIngestFrameRecords records from ONE producer thread:
  /// record i reconstructs as { timestamp = base_ts_ns + ts_delta_ns[i],
  /// seq = base_seq + i, tag = tags[i], thread_id }. Producers start a new
  /// frame whenever a record breaks the encoding (different thread,
  /// non-consecutive seq, or a timestamp delta that overflows u32).
  struct Body {
    char app[kIngestNameCap] = {};  ///< NUL-terminated app name (truncated)
    std::uint32_t thread_id = 0;    ///< producer thread for every record
    std::uint16_t count = 0;        ///< records in this frame (1..3)
    std::uint16_t flags = 0;        ///< reserved (0)
    /// Producer's registered target range, as IEEE-754 bit patterns (the
    /// consumer registers/updates hub targets from these).
    std::uint64_t target_min_bits = 0;
    std::uint64_t target_max_bits = 0;
    std::int64_t base_ts_ns = 0;   ///< timestamp of record 0
    std::uint64_t base_seq = 0;    ///< store seq of record 0
    std::uint64_t tags[kIngestFrameRecords] = {};
    std::uint32_t ts_delta_ns[kIngestFrameRecords] = {};
    std::uint32_t reserved = 0;
  };

  /// Seqlock word: 0 = never written, s+1 = frame with ring seq s,
  /// ingest_claim_marker(s, pid) = claimed for seq s, being written.
  std::atomic<std::uint64_t> commit{0};
  Body body{};
};

static_assert(std::is_standard_layout_v<ShmIngestSlot>);
static_assert(std::is_trivially_copyable_v<ShmIngestSlot::Body>);
static_assert(sizeof(ShmIngestSlot::Body) == 120, "payload layout is ABI");
static_assert(sizeof(ShmIngestSlot) == 128, "two cache lines per frame");

/// Total segment size for a given ring capacity.
constexpr std::size_t shm_ingest_segment_size(std::uint32_t capacity) {
  return sizeof(ShmIngestHeader) +
         static_cast<std::size_t>(capacity) * sizeof(ShmIngestSlot);
}

class ShmIngestQueue {
 public:
  /// Create a fresh ring file (O_EXCL: fails with std::system_error
  /// (EEXIST) if the path already exists). `capacity` is clamped to >= 2.
  static std::shared_ptr<ShmIngestQueue> create(
      const std::filesystem::path& file, std::uint32_t capacity);

  /// Attach to an existing ring. Retries briefly while a concurrent
  /// create() is still initializing the header; throws std::runtime_error
  /// on missing file or bad magic/version/layout (a v1/v2 ring file is a
  /// version mismatch — remove it and let a producer recreate v3).
  static std::shared_ptr<ShmIngestQueue> attach(const std::filesystem::path& file);

  /// Create-or-attach, safe against concurrent openers: first successful
  /// O_EXCL creator wins, everyone else attaches. The rendezvous pattern
  /// for rings at a well-known path (Registry::ingest_queue_path()).
  static std::shared_ptr<ShmIngestQueue> open(const std::filesystem::path& file,
                                              std::uint32_t capacity);

  ~ShmIngestQueue();
  ShmIngestQueue(const ShmIngestQueue&) = delete;
  ShmIngestQueue& operator=(const ShmIngestQueue&) = delete;

  // ------------------------------------------------------------- producers

  /// Append a batch for one app with a single head claim, packing up to
  /// kIngestFrameRecords records per frame. Thread- and process-safe;
  /// lock-free. Returns the first frame sequence number.
  std::uint64_t append_batch(std::string_view app,
                             std::span<const core::HeartbeatRecord> recs,
                             core::TargetRate target);

  /// Claim n consecutive frames and stamp each slot with this process's
  /// in-flight marker; append_batch() is claim + publish. Public because
  /// claim() alone models a producer that dies mid-publish: consumers wait
  /// on the claimed slots while the pid lives (up to kIngestTornAfterNs)
  /// and tear them at once after it exits.
  std::uint64_t claim(std::uint64_t n);

  // -------------------------------------------------------------- consumers

  /// Per-consumer drain state. Plain value; each independent consumer owns
  /// one. All counters are cumulative across drain() calls.
  struct Cursor {
    std::uint64_t next = 0;  ///< next frame seq to read
    /// Monotonic time the head-of-line slot first blocked this cursor
    /// uncommitted (0 = not blocked).
    util::TimeNs blocked_since_ns = 0;
    std::uint64_t consumed = 0;         ///< RECORDS delivered to the sink
    std::uint64_t consumed_frames = 0;  ///< frames those records arrived in
    std::uint64_t dropped = 0;  ///< FRAMES overwritten before this consumer read them
    std::uint64_t torn = 0;     ///< FRAMES whose producer died mid-publish (or stalled > 1 s)
  };

  /// Sink for drained records. `app` points into a stack copy — valid only
  /// for the duration of the call.
  using DrainFn = std::function<void(
      std::string_view app, const core::HeartbeatRecord& rec,
      core::TargetRate target)>;

  /// Drain every committed frame in [cursor, head), in ring order. Stops
  /// at an in-flight slot and waits for its producer; the slot is skipped
  /// and counted in Cursor::torn only when its marker names a dead pid or
  /// it has blocked the cursor for kIngestTornAfterNs. Frames lapped by
  /// producers are counted in Cursor::dropped, never delivered torn.
  /// Returns records delivered.
  std::size_t drain(Cursor& cur, const DrainFn& fn);

  /// A cursor positioned at the current head (the "ignore the retained
  /// backlog, watch from now" starting point).
  Cursor tail_cursor() const;

  /// True when drain() can make progress without waiting: the head-of-line
  /// slot is committed or lapped. An in-flight head-of-line slot reads as
  /// "nothing yet", so wait_for_frames() parks until its producer commits.
  bool has_frames(const Cursor& cur) const;

  // -------------------------------------------------------------- doorbell

  enum class WaitResult {
    kReady,    ///< frames were already pending; did not block
    kWoken,    ///< a producer rang the doorbell (or a signal arrived)
    kTimeout,  ///< timeout_ns elapsed with no ring
  };

  /// Block until a producer publishes frames, for at most `timeout_ns`.
  /// Park/ring protocol: the consumer samples the doorbell generation,
  /// advertises itself in `parked`, fences (seq_cst), RE-CHECKS for
  /// frames, then FUTEX_WAITs on the sampled generation. A producer
  /// commits frames, fences (seq_cst), and only then checks `parked`, so
  /// one side always sees the other. The bounded timeout covers what no
  /// producer signals: a claimer that died without committing, whose slot
  /// the next drain() tears. See ARCHITECTURE.md "The ingest fast path".
  WaitResult wait_for_frames(const Cursor& cur, util::TimeNs timeout_ns);

  /// Total doorbell rings producers have performed (diagnostic).
  std::uint64_t doorbell_rings() const;

  /// Total frames ever claimed in the ring (ring head).
  std::uint64_t produced() const;
  std::uint32_t capacity() const;
  std::uint32_t creator_pid() const;
  const std::filesystem::path& file() const { return file_; }

 private:
  ShmIngestQueue(std::filesystem::path file, void* base, std::size_t bytes);

  ShmIngestHeader* header() { return static_cast<ShmIngestHeader*>(base_); }
  const ShmIngestHeader* header() const {
    return static_cast<const ShmIngestHeader*>(base_);
  }
  ShmIngestSlot* slots();
  const ShmIngestSlot* slots() const;

  /// Seqlock-write one packed frame (recs.size() <= kIngestFrameRecords,
  /// all packable together) into `slot`, claimed by claim() as frame `seq`.
  static void publish_frame(ShmIngestSlot& slot, std::uint64_t seq,
                            std::string_view app,
                            std::span<const core::HeartbeatRecord> recs,
                            core::TargetRate target);

  /// Longest packable prefix of recs[i..] (same thread, consecutive seqs,
  /// timestamp deltas that fit u32), capped at kIngestFrameRecords.
  static std::size_t count_packable(std::span<const core::HeartbeatRecord> recs,
                                    std::size_t i);

  /// Ring the doorbell if (and only if) a consumer is parked.
  void ring_doorbell();

  std::filesystem::path file_;
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
  /// Geometry is immutable after create(); cached at map time so the hot
  /// append path never re-reads the header cache line that producers keep
  /// invalidating with head fetch_adds.
  std::uint32_t capacity_ = 0;
};

/// Producer-side batching knobs for ShmHubSink.
struct ShmHubSinkOptions {
  /// Beats buffered locally before one append_batch into the ring. 1 (the
  /// default) forwards every beat immediately — lowest staleness as seen
  /// by the aggregator. High-rate producers can raise it to amortize the
  /// ring's contended fetch_add AND let frame packing put several records
  /// in one 128-byte slot (up to kIngestFrameRecords per frame).
  std::size_t flush_every = 1;
  /// Flush regardless of fill once the oldest buffered beat is this much
  /// older than the newest (producer-clock ns), so a producer that slows
  /// down cannot sit on a partial batch and read as stale hub-side.
  /// Checked at append time; only meaningful with flush_every > 1.
  util::TimeNs max_hold_ns = 50 * util::kNsPerMs;
};

/// ShmHubSink: mirror a producer's beats into a cross-process ingest ring.
///
/// The out-of-process twin of hub::HubSink — a BeatStore decorator, so any
/// producer path that takes a StoreFactory (Heartbeat, the C API) feeds a
/// remote aggregator with zero code changes. Appends pass through to the
/// wrapped store (which keeps serving in-process rate queries and, if it
/// is a registry ShmStore, stays observer-walkable) and are batched into
/// the ring with the store-assigned sequence number and current target.
/// Every flush is one append_batch() on the shared ring.
class ShmHubSink final : public core::BeatStore {
 public:
  /// Mirrors appends on `inner` into `queue` under name `app`.
  ShmHubSink(std::shared_ptr<core::BeatStore> inner,
             std::shared_ptr<ShmIngestQueue> queue, std::string app,
             ShmHubSinkOptions opts = {});

  /// Flushes any buffered tail batch.
  ~ShmHubSink() override;

  std::uint64_t append(const core::HeartbeatRecord& rec) override;
  std::uint64_t count() const override { return inner_->count(); }
  std::size_t capacity() const override { return inner_->capacity(); }
  std::vector<core::HeartbeatRecord> history(std::size_t n) const override {
    return inner_->history(n);
  }
  void set_target(core::TargetRate t) override;
  core::TargetRate target() const override { return inner_->target(); }
  void set_default_window(std::uint32_t w) override {
    inner_->set_default_window(w);
  }
  std::uint32_t default_window() const override {
    return inner_->default_window();
  }

  /// Push any buffered beats into the ring now. Thread-safe.
  void flush() HB_EXCLUDES(mu_);

  const std::shared_ptr<core::BeatStore>& inner() const { return inner_; }
  const std::string& app() const { return app_; }

  /// StoreFactory adapter: builds the inner store with `inner_factory`
  /// (default: the in-process MemoryStore factory Heartbeat uses), then
  /// wraps shared channels in a ShmHubSink publishing under the channel's
  /// application name ("<app>.global" prefix). Local ("<app>.t<tid>")
  /// channels pass through unwrapped — mirroring both levels would
  /// double-count the app, same rule as hub::HubSink::wrap_factory.
  static core::StoreFactory wrap_factory(std::shared_ptr<ShmIngestQueue> queue,
                                         core::StoreFactory inner_factory = {},
                                         ShmHubSinkOptions opts = {});

 private:
  void flush_locked() HB_REQUIRES(mu_);

  std::shared_ptr<core::BeatStore> inner_;
  std::shared_ptr<ShmIngestQueue> queue_;
  std::string app_;
  ShmHubSinkOptions opts_;

  util::Mutex mu_;
  std::vector<core::HeartbeatRecord> buf_ HB_GUARDED_BY(mu_);
};

}  // namespace hb::transport
