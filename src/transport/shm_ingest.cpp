#include "transport/shm_ingest.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <sys/file.h>

#include <linux/futex.h>
#include <sys/syscall.h>

#include <bit>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "core/memory_store.hpp"
#include "obs/metrics.hpp"
#include "transport/posix_util.hpp"
#include "util/clock.hpp"
#include "util/tsan.hpp"

namespace hb::transport {

using detail::Fd;
using detail::throw_errno;

namespace {

/// Registry cells for the shm ring, resolved once per process. Claims,
/// records, and rings are producer-side (every process mapping the ring
/// has its own registry); drained/dropped/torn are consumer-side deltas
/// mirrored off the Cursor.
struct ShmMetrics {
  obs::Counter* claimed;  ///< frames claimed
  obs::Counter* records;  ///< records appended
  obs::Counter* rings;    ///< doorbell rings performed
  obs::Counter* drained;  ///< records delivered to consumers
  obs::Counter* dropped;  ///< frames lapped before a consumer read them
  obs::Counter* torn;     ///< frames whose producer died mid-publish

  static const ShmMetrics& get() {
    static const ShmMetrics m = [] {
      auto& r = obs::MetricsRegistry::global();
      return ShmMetrics{&r.counter("hb.shm.claimed"),
                        &r.counter("hb.shm.records"),
                        &r.counter("hb.shm.rings"),
                        &r.counter("hb.shm.drained"),
                        &r.counter("hb.shm.dropped"),
                        &r.counter("hb.shm.torn")};
    }();
    return m;
  }
};

void* map_existing(const std::filesystem::path& file, std::size_t& bytes_out,
                   bool& retryable);

// Fit an app name into a frame's 40-byte field. Names that fit are copied
// verbatim; longer ones keep their first 30 bytes plus '~' and 8 hex
// digits of an FNV-1a hash of the FULL name, so two producers whose names
// share a long prefix are still distinct apps hub-side (silent merging
// would make one of them vanish from every fleet report).
std::size_t fit_name(std::string_view app, char out[kIngestNameCap]) {
  if (app.size() < kIngestNameCap) {
    std::memcpy(out, app.data(), app.size());
    out[app.size()] = '\0';
    return app.size();
  }
  std::uint64_t h = 14695981039346656037ULL;
  for (const char c : app) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  constexpr std::size_t kPrefix = kIngestNameCap - 10;  // 30 + '~' + 8 hex
  std::memcpy(out, app.data(), kPrefix);
  std::snprintf(out + kPrefix, kIngestNameCap - kPrefix, "~%08x",
                static_cast<std::uint32_t>(h));
  return kIngestNameCap - 1;
}

// ------------------------------------------------------------ futex shims
//
// The doorbell word lives in shared memory, so the futex must NOT be
// FUTEX_PRIVATE — producers and the consumer are different processes.
// std::atomic<u32> is address-free (static_assert in the header), so its
// storage can be handed to the kernel directly.

long futex_call(std::atomic<std::uint32_t>* word, int op, std::uint32_t val,
                const timespec* ts) {
  return ::syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), op, val,
                   ts, nullptr, 0);
}

/// Returns true when woken (or the generation already moved / a signal
/// arrived — callers re-check for work either way), false on timeout.
bool futex_wait(std::atomic<std::uint32_t>* word, std::uint32_t expected,
                util::TimeNs timeout_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(timeout_ns / util::kNsPerSec);
  ts.tv_nsec = static_cast<long>(timeout_ns % util::kNsPerSec);
  const long rc = futex_call(word, FUTEX_WAIT, expected, &ts);
  if (rc == 0) return true;
  // EAGAIN: a producer bumped the generation between our sample and the
  // syscall — that IS the wake. EINTR: signal; surface as a (possibly
  // spurious) wake so the caller re-checks instead of oversleeping.
  return errno == EAGAIN || errno == EINTR;
}

void futex_wake_all(std::atomic<std::uint32_t>* word) {
  futex_call(word, FUTEX_WAKE, INT_MAX, nullptr);
}

// ------------------------------------------------------- claim markers
//
// getpid() is a syscall on current glibc and every claim stamps the pid,
// so it is cached per process; a fork child refreshes the cache before it
// runs (producers may inherit a queue handle across fork).

std::atomic<std::uint32_t> g_self_pid{0};

void refresh_self_pid() {
  // relaxed: the value is the only payload; the fork child runs this
  // single-threaded, and first use runs it under the magic-static guard.
  g_self_pid.store(static_cast<std::uint32_t>(::getpid()),
                   std::memory_order_relaxed);
}

std::uint32_t self_pid() {
  static const bool registered = [] {
    refresh_self_pid();
    ::pthread_atfork(nullptr, nullptr, refresh_self_pid);
    return true;
  }();
  (void)registered;
  // relaxed: see refresh_self_pid().
  return g_self_pid.load(std::memory_order_relaxed);
}

/// What the head-of-line commit word says about frame `seq`.
enum class SlotState {
  kReady,     ///< committed as frame seq
  kLapped,    ///< committed or claimed for a later lap: frame seq is gone
  kClaimed,   ///< carries seq's own in-flight marker
  kUnmarked,  ///< an older lap's value: seq's claimer has not stamped yet
};

SlotState slot_state(std::uint64_t commit, std::uint64_t seq) {
  if (commit & kIngestMarkerBit) {
    const std::uint64_t mseq =
        (commit >> kIngestMarkerPidBits) & kIngestMarkerSeqMask;
    const std::uint64_t ahead = (mseq - seq) & kIngestMarkerSeqMask;
    if (ahead == 0) return SlotState::kClaimed;
    // A claim for a later lap is "ahead" by less than half the seq space.
    return ahead < (kIngestMarkerSeqMask >> 1) ? SlotState::kLapped
                                               : SlotState::kUnmarked;
  }
  if (commit == seq + 1) return SlotState::kReady;
  return commit > seq + 1 ? SlotState::kLapped : SlotState::kUnmarked;
}

/// True when the claimer a marker names no longer exists (ESRCH). EPERM
/// means "alive but not ours" — NOT dead.
bool marker_pid_dead(std::uint64_t marker) {
  const auto pid = static_cast<pid_t>(
      marker & ((1ULL << kIngestMarkerPidBits) - 1));
  if (pid <= 0) return true;  // malformed marker: no claimer to wait for
  if (static_cast<std::uint32_t>(pid) == self_pid()) return false;
  return ::kill(pid, 0) != 0 && errno == ESRCH;
}

}  // namespace

std::shared_ptr<ShmIngestQueue> ShmIngestQueue::create(
    const std::filesystem::path& file, std::uint32_t capacity) {
  if (capacity < 2) capacity = 2;

  if (file.has_parent_path()) std::filesystem::create_directories(file.parent_path());
  Fd fd;
  fd.fd = ::open(file.c_str(), O_RDWR | O_CREAT | O_EXCL, 0644);
  if (fd.fd < 0) throw_errno("ShmIngestQueue::create open " + file.string());
  const std::size_t bytes = shm_ingest_segment_size(capacity);
  if (::ftruncate(fd.fd, static_cast<off_t>(bytes)) != 0) {
    throw_errno("ShmIngestQueue::create ftruncate " + file.string());
  }
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd.fd, 0);
  if (base == MAP_FAILED) {
    throw_errno("ShmIngestQueue::create mmap " + file.string());
  }

  // The mapping is zero-filled; all-zero slots are already valid
  // (commit == 0 means never written). Fill the header, then publish the
  // magic LAST so a concurrent attach() never observes a half-built header.
  auto* hdr = new (base) ShmIngestHeader();
  hdr->slot_size = sizeof(ShmIngestSlot);
  hdr->capacity = capacity;
  hdr->creator_pid = self_pid();
  hdr->magic.store(kShmIngestMagic, std::memory_order_release);

  // A creator stalled long enough here looks abandoned: open()'s reclaim
  // may have unlinked our file and recreated the path. Producing into an
  // orphaned inode would be silently invisible to every consumer, so
  // verify the path still names our file and report the lost race as
  // EEXIST (open() then attaches the replacement ring).
  struct stat st_fd{};
  struct stat st_path{};
  if (::fstat(fd.fd, &st_fd) != 0 || ::stat(file.c_str(), &st_path) != 0 ||
      st_fd.st_ino != st_path.st_ino || st_fd.st_dev != st_path.st_dev) {
    ::munmap(base, bytes);
    throw std::system_error(
        std::make_error_code(std::errc::file_exists),
        "ShmIngestQueue::create: lost the path to a reclaimer: " +
            file.string());
  }

  return std::shared_ptr<ShmIngestQueue>(new ShmIngestQueue(file, base, bytes));
}

namespace {

// One attach attempt: map and validate the segment. Sets `retryable` when
// the failure could be a racing creator that has not finished initializing
// (file too small / magic still zero), so attach() can retry briefly.
void* map_existing(const std::filesystem::path& file, std::size_t& bytes_out,
                   bool& retryable) {
  retryable = false;
  Fd fd;
  fd.fd = ::open(file.c_str(), O_RDWR, 0);
  if (fd.fd < 0) {
    throw std::runtime_error("ShmIngestQueue::attach: cannot open " +
                             file.string());
  }
  struct stat st{};
  if (::fstat(fd.fd, &st) != 0) throw_errno("ShmIngestQueue::attach fstat");
  if (static_cast<std::size_t>(st.st_size) < sizeof(ShmIngestHeader)) {
    retryable = true;
    throw std::runtime_error("ShmIngestQueue::attach: segment too small: " +
                             file.string());
  }
  const std::size_t bytes = static_cast<std::size_t>(st.st_size);
  void* base =
      ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd.fd, 0);
  if (base == MAP_FAILED) {
    throw_errno("ShmIngestQueue::attach mmap " + file.string());
  }

  const auto* hdr = static_cast<const ShmIngestHeader*>(base);
  const std::uint64_t magic = hdr->magic.load(std::memory_order_acquire);
  if (magic == 0) {
    ::munmap(base, bytes);
    retryable = true;  // creator mid-initialization
    throw std::runtime_error("ShmIngestQueue::attach: uninitialized segment: " +
                             file.string());
  }
  if (magic != kShmIngestMagic || hdr->version != kShmIngestVersion ||
      hdr->slot_size != sizeof(ShmIngestSlot) || hdr->capacity < 2 ||
      bytes < shm_ingest_segment_size(hdr->capacity)) {
    ::munmap(base, bytes);
    throw std::runtime_error("ShmIngestQueue::attach: bad segment format: " +
                             file.string());
  }
  bytes_out = bytes;
  return base;
}

}  // namespace

std::shared_ptr<ShmIngestQueue> ShmIngestQueue::attach(
    const std::filesystem::path& file) {
  // ~200 ms of patience for a creator caught between open() and the magic
  // store; anything else fails fast.
  for (int attempt = 0;; ++attempt) {
    bool retryable = false;
    try {
      std::size_t bytes = 0;
      void* base = map_existing(file, bytes, retryable);
      return std::shared_ptr<ShmIngestQueue>(
          new ShmIngestQueue(file, base, bytes));
    } catch (const std::runtime_error&) {
      if (!retryable || attempt >= 100) throw;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

namespace {

// True when `file` exists but its magic never got published — a creator
// died between open() and header initialization. Safe to reclaim: a LIVE
// creator publishes the magic microseconds after creating the file, and
// attach() already waited ~200 ms for that before we are asked.
bool is_abandoned_creation(const std::filesystem::path& file) {
  Fd fd;
  fd.fd = ::open(file.c_str(), O_RDONLY, 0);
  if (fd.fd < 0) return false;
  std::uint64_t magic = 0;
  const ssize_t n = ::pread(fd.fd, &magic, sizeof(magic), 0);
  return n < static_cast<ssize_t>(sizeof(magic)) || magic == 0;
}

}  // namespace

std::shared_ptr<ShmIngestQueue> ShmIngestQueue::open(
    const std::filesystem::path& file, std::uint32_t capacity) {
  for (int round = 0;; ++round) {
    try {
      return create(file, capacity);
    } catch (const std::system_error& e) {
      if (e.code() != std::errc::file_exists) throw;
    }
    try {
      return attach(file);
    } catch (const std::runtime_error&) {
      // A half-created ring (creator died before publishing the magic)
      // would wedge the rendezvous path forever: reclaim it. The whole
      // check-remove-recreate runs under an flock on a sibling lock file
      // so concurrent reclaimers serialize — the loser re-checks after
      // the winner's fully initialized ring exists and attaches it,
      // instead of unlinking it mid-create.
      if (round > 0 || !is_abandoned_creation(file)) throw;
      Fd lock;
      lock.fd = ::open((file.string() + ".lock").c_str(),
                       O_RDWR | O_CREAT, 0644);
      if (lock.fd >= 0) ::flock(lock.fd, LOCK_EX);
      if (is_abandoned_creation(file)) {
        std::filesystem::remove(file);
        try {
          return create(file, capacity);
        } catch (const std::system_error& e) {
          if (e.code() != std::errc::file_exists) throw;
        }
      }
      // flock released when `lock` closes; loop and attach the ring the
      // winning reclaimer (or a racing creator) produced.
    }
  }
}

ShmIngestQueue::ShmIngestQueue(std::filesystem::path file, void* base,
                               std::size_t bytes)
    : file_(std::move(file)),
      base_(base),
      bytes_(bytes),
      capacity_(static_cast<const ShmIngestHeader*>(base)->capacity) {}

ShmIngestQueue::~ShmIngestQueue() {
  if (base_ != nullptr) ::munmap(base_, bytes_);
}

ShmIngestSlot* ShmIngestQueue::slots() {
  return reinterpret_cast<ShmIngestSlot*>(static_cast<char*>(base_) +
                                          sizeof(ShmIngestHeader));
}

const ShmIngestSlot* ShmIngestQueue::slots() const {
  return reinterpret_cast<const ShmIngestSlot*>(
      static_cast<const char*>(base_) + sizeof(ShmIngestHeader));
}

// ---------------------------------------------------------------- doorbell

void ShmIngestQueue::ring_doorbell() {
  ShmIngestHeader* hdr = header();
  // Store-buffer (Dekker) pairing with wait_for_frames(): our commit
  // stores, then this fence, then the parked load; the consumer's parked
  // increment, then its fence, then its commit loads. With both fences at
  // least one side sees the other, so a consumer parked on our in-flight
  // slot is never left sleeping through the commit that unblocks it.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  // relaxed: ordered by the fence above.
  if (hdr->parked.load(std::memory_order_relaxed) == 0) return;
  hdr->doorbell.fetch_add(1, std::memory_order_release);
  // relaxed: diagnostic counter; no ordering with the generation bump.
  hdr->rings.fetch_add(1, std::memory_order_relaxed);
  futex_wake_all(&hdr->doorbell);
  ShmMetrics::get().rings->add(1);
}

ShmIngestQueue::WaitResult ShmIngestQueue::wait_for_frames(
    const Cursor& cur, util::TimeNs timeout_ns) {
  if (timeout_ns <= 0) timeout_ns = 1;
  ShmIngestHeader* hdr = header();
  // Sample the generation BEFORE the work check: a ring that lands after
  // the check but before the wait bumps the generation, so FUTEX_WAIT
  // returns EAGAIN instead of sleeping through the signal.
  const std::uint32_t gen = hdr->doorbell.load(std::memory_order_acquire);
  if (has_frames(cur)) return WaitResult::kReady;
  // Park/ring ordering: advertise parked, fence, THEN re-check for frames
  // — the consumer half of the pairing in ring_doorbell(). timeout_ns
  // bounds what the doorbell cannot signal: a claimer that died without
  // committing, whose slot drain() tears on the next poll.
  hdr->parked.fetch_add(1, std::memory_order_seq_cst);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  WaitResult r;
  if (has_frames(cur)) {
    r = WaitResult::kReady;
  } else if (futex_wait(&hdr->doorbell, gen, timeout_ns)) {
    r = WaitResult::kWoken;
  } else {
    r = WaitResult::kTimeout;
  }
  hdr->parked.fetch_sub(1, std::memory_order_acq_rel);
  return r;
}

std::uint64_t ShmIngestQueue::doorbell_rings() const {
  return header()->rings.load(std::memory_order_acquire);
}

// --------------------------------------------------------------- producers

std::uint64_t ShmIngestQueue::claim(std::uint64_t n) {
  ShmMetrics::get().claimed->add(n);
  const std::uint64_t first =
      header()->head.fetch_add(n, std::memory_order_acq_rel);
  // Stamp every claimed slot before writing any payload: the marker is the
  // seqlock invalidation (a reader mid-copy of an older lap rejects its
  // copy) AND tells consumers who to wait for. A slot's value only ever
  // moves forward in seq: the stamp replaces an older lap's value, never a
  // newer one. A producer preempted between its fetch_add and here may
  // find a later lap already holding the slot; its frame is lapped, and
  // publish_frame() leaves the slot alone.
  const std::uint32_t pid = self_pid();
  ShmIngestSlot* arr = slots();
  for (std::uint64_t seq = first; seq < first + n; ++seq) {
    std::atomic<std::uint64_t>& commit = arr[seq % capacity_].commit;
    std::uint64_t c = commit.load(std::memory_order_acquire);
    // relaxed: the failure order; a failed CAS re-reads and re-decides.
    while (slot_state(c, seq) == SlotState::kUnmarked &&
           !commit.compare_exchange_weak(c, ingest_claim_marker(seq, pid),
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
    }
  }
  // Keeps the payload stores that follow from landing ahead of the
  // markers (a release store orders only what comes BEFORE it). Mirrors
  // the acquire fence on the reader side.
  std::atomic_thread_fence(std::memory_order_release);
  return first;
}

std::size_t ShmIngestQueue::count_packable(
    std::span<const core::HeartbeatRecord> recs, std::size_t i) {
  const core::HeartbeatRecord& base = recs[i];
  std::size_t n = 1;
  while (n < kIngestFrameRecords && i + n < recs.size()) {
    const core::HeartbeatRecord& r = recs[i + n];
    if (r.thread_id != base.thread_id) break;
    if (r.seq != base.seq + n) break;
    const std::int64_t delta = r.timestamp_ns - base.timestamp_ns;
    if (delta < 0 ||
        delta > std::numeric_limits<std::uint32_t>::max()) {
      break;
    }
    ++n;
  }
  return n;
}

void ShmIngestQueue::publish_frame(ShmIngestSlot& slot, std::uint64_t seq,
                                   std::string_view app,
                                   std::span<const core::HeartbeatRecord> recs,
                                   core::TargetRate target) {
  // Seqlock write: claim() already stamped the invalidating marker and
  // fenced; payload, then publish. No marker of ours means a later lap
  // took the slot first: the frame is lapped, and writing its payload
  // would only corrupt the newer frame.
  std::uint64_t mine = ingest_claim_marker(seq, self_pid());
  if (slot.commit.load(std::memory_order_acquire) != mine) return;
  ShmIngestSlot::Body body;
  fit_name(app, body.app);
  body.thread_id = recs[0].thread_id;
  body.count = static_cast<std::uint16_t>(recs.size());
  body.target_min_bits = std::bit_cast<std::uint64_t>(target.min_bps);
  body.target_max_bits = std::bit_cast<std::uint64_t>(target.max_bps);
  body.base_ts_ns = recs[0].timestamp_ns;
  body.base_seq = recs[0].seq;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    body.tags[i] = recs[i].tag;
    body.ts_delta_ns[i] =
        static_cast<std::uint32_t>(recs[i].timestamp_ns - recs[0].timestamp_ns);
  }
  util::tsan_relaxed_copy(slot.body, body);
  // Publish only over our own marker. If a later lap re-claimed the slot
  // meanwhile, consumers already count this frame as dropped, and a plain
  // store would overwrite the newer claim with a stale commit that reads
  // as "claimer not yet stamped" until the torn limit fires.
  // relaxed: the failure order; a lost slot publishes nothing to order.
  slot.commit.compare_exchange_strong(mine, seq + 1, std::memory_order_release,
                                      std::memory_order_relaxed);
}

std::uint64_t ShmIngestQueue::append_batch(
    std::string_view app, std::span<const core::HeartbeatRecord> recs,
    core::TargetRate target) {
  if (recs.empty()) return header()->head.load(std::memory_order_acquire);
  // Pass 1: how many frames does this batch pack into? Pass 2: publish.
  // ONE claim covers every frame — the contended fetch_add is paid once
  // per batch, not once per record.
  std::uint64_t frames = 0;
  for (std::size_t i = 0; i < recs.size(); i += count_packable(recs, i)) {
    ++frames;
  }
  const std::uint64_t first = claim(frames);
  std::uint64_t seq = first;
  for (std::size_t i = 0; i < recs.size();) {
    const std::size_t n = count_packable(recs, i);
    publish_frame(slots()[seq % capacity_], seq, app, recs.subspan(i, n),
                  target);
    ++seq;
    i += n;
  }
  ShmMetrics::get().records->add(recs.size());
  ring_doorbell();
  return first;
}

// -------------------------------------------------------------- consumers

bool ShmIngestQueue::has_frames(const Cursor& cur) const {
  const std::uint64_t head = header()->head.load(std::memory_order_acquire);
  if (head <= cur.next) return false;
  if (head > cur.next + capacity_) return true;  // lapped: drain skips ahead
  const std::uint64_t c =
      slots()[cur.next % capacity_].commit.load(std::memory_order_acquire);
  const SlotState state = slot_state(c, cur.next);
  return state == SlotState::kReady || state == SlotState::kLapped;
}

ShmIngestQueue::Cursor ShmIngestQueue::tail_cursor() const {
  Cursor cur;
  cur.next = header()->head.load(std::memory_order_acquire);
  return cur;
}

std::size_t ShmIngestQueue::drain(Cursor& cur, const DrainFn& fn) {
  // Mirror the cursor's per-drain deltas into the process-wide registry on
  // exit (one add per counter per drain, not per record).
  const std::uint64_t dropped_before = cur.dropped;
  const std::uint64_t torn_before = cur.torn;
  const ShmIngestSlot* arr = slots();
  const std::uint64_t cap = capacity_;
  const std::uint64_t head = header()->head.load(std::memory_order_acquire);

  // Producers lapped this consumer before it even looked: everything below
  // head - capacity is gone (its slots now belong to newer seqs).
  if (head > cur.next + cap) {
    cur.dropped += head - cap - cur.next;
    cur.next = head - cap;
    cur.blocked_since_ns = 0;
  }

  std::size_t delivered = 0;
  while (cur.next < head) {
    const ShmIngestSlot& slot = arr[cur.next % cap];
    const std::uint64_t c1 = slot.commit.load(std::memory_order_acquire);
    const SlotState state = slot_state(c1, cur.next);
    if (state == SlotState::kReady) {
      // Copy out, then re-check the seqlock word.
      ShmIngestSlot::Body body;
      util::tsan_relaxed_copy(body, slot.body);
      std::atomic_thread_fence(std::memory_order_acquire);
      // relaxed: the fence above orders the copy before this re-check.
      if (slot.commit.load(std::memory_order_relaxed) == c1) {
        body.app[kIngestNameCap - 1] = '\0';
        core::TargetRate target;
        target.min_bps = std::bit_cast<double>(body.target_min_bits);
        target.max_bps = std::bit_cast<double>(body.target_max_bits);
        // Unpack the frame: record i is base + per-record tag/delta. A
        // frame accepted by the seqlock always carries 1..3 records; the
        // clamp is pure defense against a corrupted segment.
        std::uint32_t n = body.count;
        if (n - 1 >= kIngestFrameRecords) n = 1;
        for (std::uint32_t i = 0; i < n; ++i) {
          core::HeartbeatRecord rec{};
          rec.timestamp_ns = body.base_ts_ns + body.ts_delta_ns[i];
          rec.seq = body.base_seq + i;
          rec.tag = body.tags[i];
          rec.thread_id = body.thread_id;
          fn(std::string_view(body.app), rec, target);
        }
        delivered += n;
        cur.consumed += n;
        ++cur.consumed_frames;
      } else {
        // Overwritten mid-copy: a producer lapped us; this frame is
        // unrecoverable but the copy was never delivered, so nothing torn
        // ever reaches the hub.
        ++cur.dropped;
      }
    } else if (state == SlotState::kLapped) {
      ++cur.dropped;
    } else {
      // In flight: wait for the claimer unless it is provably gone (its
      // own marker names a dead pid) or the slot has blocked us too long.
      const util::TimeNs now = util::MonotonicClock{}.now();
      if (cur.blocked_since_ns == 0) cur.blocked_since_ns = now;
      const bool dead = state == SlotState::kClaimed && marker_pid_dead(c1);
      if (!dead && now - cur.blocked_since_ns < kIngestTornAfterNs) break;
      ++cur.torn;
    }
    ++cur.next;
    cur.blocked_since_ns = 0;
  }

  const ShmMetrics& metrics = ShmMetrics::get();
  if (delivered > 0) metrics.drained->add(delivered);
  if (cur.dropped > dropped_before) {
    metrics.dropped->add(cur.dropped - dropped_before);
  }
  if (cur.torn > torn_before) metrics.torn->add(cur.torn - torn_before);
  return delivered;
}

std::uint64_t ShmIngestQueue::produced() const {
  return header()->head.load(std::memory_order_acquire);
}

std::uint32_t ShmIngestQueue::capacity() const { return capacity_; }

std::uint32_t ShmIngestQueue::creator_pid() const {
  return header()->creator_pid;
}

// --------------------------------------------------------------- ShmHubSink

ShmHubSink::ShmHubSink(std::shared_ptr<core::BeatStore> inner,
                       std::shared_ptr<ShmIngestQueue> queue, std::string app,
                       ShmHubSinkOptions opts)
    : inner_(std::move(inner)),
      queue_(std::move(queue)),
      app_(std::move(app)),
      opts_(opts) {
  if (opts_.flush_every == 0) opts_.flush_every = 1;
  buf_.reserve(opts_.flush_every);
}

ShmHubSink::~ShmHubSink() { flush(); }

std::uint64_t ShmHubSink::append(const core::HeartbeatRecord& rec) {
  const std::uint64_t seq = inner_->append(rec);
  core::HeartbeatRecord stamped = rec;
  stamped.seq = seq;
  util::MutexLock lock(mu_);
  buf_.push_back(stamped);
  if (buf_.size() >= opts_.flush_every ||
      stamped.timestamp_ns - buf_.front().timestamp_ns >= opts_.max_hold_ns) {
    flush_locked();
  }
  return seq;
}

void ShmHubSink::set_target(core::TargetRate t) {
  inner_->set_target(t);
  // The next flushed batch carries the new target to the consumer.
}

void ShmHubSink::flush() {
  util::MutexLock lock(mu_);
  flush_locked();
}

void ShmHubSink::flush_locked() {
  if (buf_.empty()) return;
  queue_->append_batch(app_, buf_, inner_->target());
  buf_.clear();
}

core::StoreFactory ShmHubSink::wrap_factory(
    std::shared_ptr<ShmIngestQueue> queue, core::StoreFactory inner_factory,
    ShmHubSinkOptions opts) {
  if (!inner_factory) {
    inner_factory = [](const core::StoreSpec& spec) {
      return std::make_shared<core::MemoryStore>(
          spec.capacity, /*synchronized=*/true, spec.default_window);
    };
  }
  return [queue = std::move(queue), inner_factory = std::move(inner_factory),
          opts](const core::StoreSpec& spec) -> std::shared_ptr<core::BeatStore> {
    auto inner = inner_factory(spec);
    if (!spec.shared) return inner;  // local channels: no ring mirroring
    // "<app>.global" -> "<app>"; odd names publish verbatim.
    std::string app = spec.channel_name;
    if (const auto dot = app.rfind(".global");
        dot != std::string::npos && dot + 7 == app.size()) {
      app.resize(dot);
    }
    return std::make_shared<ShmHubSink>(std::move(inner), queue,
                                        std::move(app), opts);
  };
}

}  // namespace hb::transport
