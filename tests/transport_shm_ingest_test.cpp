// Cross-process ingest ring: layout guarantees, batch append/drain,
// wraparound overflow accounting, exact torn-slot rules (a live claimer is
// waited for, a dead one is torn at once), ShmHubSink mirroring, and the fork-based multi-process pump smoke (hub
// verdicts via the ring must match in-process ingestion exactly).
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "core/heartbeat.hpp"
#include "core/memory_store.hpp"
#include "fault/fleet_detector.hpp"
#include "hub/hub.hpp"
#include "hub/shm_pump.hpp"
#include "transport/registry.hpp"
#include "transport/shm_ingest.hpp"
#include "util/clock.hpp"

namespace hb::transport {
namespace {

namespace fs = std::filesystem;
using util::kNsPerMs;

core::HeartbeatRecord rec_at(util::TimeNs ts, std::uint64_t tag = 0) {
  core::HeartbeatRecord r;
  r.timestamp_ns = ts;
  r.tag = tag;
  return r;
}

// One single-record frame, the shape of a flush_every = 1 sink.
std::uint64_t append_one(ShmIngestQueue& q, std::string_view app,
                         const core::HeartbeatRecord& rec,
                         core::TargetRate target) {
  return q.append_batch(app, {&rec, 1}, target);
}

struct Drained {
  std::string app;
  core::HeartbeatRecord rec;
  core::TargetRate target;
};

std::vector<Drained> drain_all(ShmIngestQueue& q, ShmIngestQueue::Cursor& cur) {
  std::vector<Drained> out;
  q.drain(cur, [&out](std::string_view app, const core::HeartbeatRecord& rec,
                      core::TargetRate target) {
    out.push_back({std::string(app), rec, target});
  });
  return out;
}

class ShmIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("hb_shm_ingest_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path file(const std::string& name = "ring") const {
    return dir_ / (name + ".hbq");
  }

  fs::path dir_;
};

TEST(ShmIngestLayout, SegmentSizes) {
  EXPECT_EQ(sizeof(ShmIngestHeader), 128u);
  EXPECT_EQ(sizeof(ShmIngestSlot), 128u);
  EXPECT_EQ(sizeof(ShmIngestSlot::Body), 120u);
  // header + ring
  EXPECT_EQ(shm_ingest_segment_size(0), 128u);
  EXPECT_EQ(shm_ingest_segment_size(64), 128u + 64u * 128u);
}

TEST(ShmIngestLayout, ClaimMarkerNeverReadsAsACommit) {
  // Committed values are seq + 1; a marker always has bit 63 set and keeps
  // the pid in its low 22 bits and the low 41 seq bits above them.
  const std::uint64_t m = ingest_claim_marker(5, 4194303);  // max pid
  EXPECT_NE(m & kIngestMarkerBit, 0u);
  EXPECT_EQ(m & ((1u << kIngestMarkerPidBits) - 1), 4194303u);
  EXPECT_EQ((m >> kIngestMarkerPidBits) & kIngestMarkerSeqMask, 5u);
  EXPECT_EQ(ingest_claim_marker(kIngestMarkerSeqMask + 6, 7),
            ingest_claim_marker(5, 7));  // seq wraps inside its field
}

TEST_F(ShmIngestTest, CreateAttachRoundTrip) {
  auto q = ShmIngestQueue::create(file(), 64);
  EXPECT_EQ(q->capacity(), 64u);
  EXPECT_EQ(q->produced(), 0u);
  EXPECT_EQ(q->creator_pid(), static_cast<std::uint32_t>(::getpid()));

  append_one(*q, "app", rec_at(1 * kNsPerMs), {2.0, 9.0});
  auto observer = ShmIngestQueue::attach(file());
  EXPECT_EQ(observer->produced(), 1u);
  EXPECT_EQ(observer->capacity(), 64u);

  // create() is exclusive; open() attaches instead.
  EXPECT_THROW(ShmIngestQueue::create(file(), 64), std::system_error);
  auto opened = ShmIngestQueue::open(file(), 8);
  EXPECT_EQ(opened->capacity(), 64u);  // attached, not recreated
}

TEST_F(ShmIngestTest, AttachMissingOrCorruptThrows) {
  EXPECT_THROW(ShmIngestQueue::attach(file("nope")), std::runtime_error);

  auto q = ShmIngestQueue::create(file(), 8);
  q.reset();
  std::FILE* f = std::fopen(file().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint64_t junk = 0xdeadbeef;
  std::fwrite(&junk, sizeof(junk), 1, f);
  std::fclose(f);
  EXPECT_THROW(ShmIngestQueue::attach(file()), std::runtime_error);
}

TEST_F(ShmIngestTest, BatchAppendDrainsInOrderWithAppAndTarget) {
  auto q = ShmIngestQueue::create(file(), 32);
  std::vector<core::HeartbeatRecord> recs;
  for (int i = 0; i < 10; ++i) {
    recs.push_back(rec_at((i + 1) * kNsPerMs, static_cast<std::uint64_t>(i)));
  }
  EXPECT_EQ(q->append_batch("encoder", recs, {30.0, 60.0}), 0u);

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 10u);
  EXPECT_EQ(cur.consumed, 10u);
  EXPECT_EQ(cur.dropped, 0u);
  EXPECT_EQ(cur.torn, 0u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(out[static_cast<std::size_t>(i)].app, "encoder");
    EXPECT_EQ(out[static_cast<std::size_t>(i)].rec.tag,
              static_cast<std::uint64_t>(i));
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].target.min_bps, 30.0);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(i)].target.max_bps, 60.0);
  }
}

TEST_F(ShmIngestTest, SustainedOverflowCountsDropsNeverCorrupts) {
  auto q = ShmIngestQueue::create(file(), 8);
  // 100 beats into an 8-slot ring with no consumer keeping up: the oldest
  // 92 are overwritten. tag mirrors the ring seq so a corrupt (torn or
  // misattributed) delivery is detectable.
  for (std::uint64_t i = 0; i < 100; ++i) {
    append_one(*q, "a", rec_at(static_cast<util::TimeNs>(i), i), {});
  }
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_EQ(cur.dropped, 92u);
  EXPECT_EQ(cur.consumed, 8u);
  EXPECT_EQ(cur.torn, 0u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].rec.tag, 92u + i);  // exactly the retained suffix
  }

  // The cursor has caught up; later appends drain without further drops.
  append_one(*q, "a", rec_at(200, 100), {});
  const auto tail = drain_all(*q, cur);
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].rec.tag, 100u);
  EXPECT_EQ(cur.dropped, 92u);
}

TEST_F(ShmIngestTest, LiveClaimerIsWaitedForUntilTheTimeLimit) {
  auto q = ShmIngestQueue::create(file(), 32);
  // This (live) process claims a frame and sits on it; a healthy producer
  // appends behind it.
  q->claim(1);
  append_one(*q, "live", rec_at(3, 7), {});

  // The consumer waits: however often it drains, a live claimer's slot is
  // never torn, and has_frames() tells wait_for_frames() to park.
  ShmIngestQueue::Cursor cur;
  for (int d = 0; d < 100; ++d) {
    EXPECT_TRUE(drain_all(*q, cur).empty());
    EXPECT_FALSE(q->has_frames(cur));
  }
  EXPECT_EQ(cur.torn, 0u);

  // A claim held past kIngestTornAfterNs is torn (the claimer may be a
  // recycled pid), and the record behind it is delivered.
  std::this_thread::sleep_for(
      std::chrono::nanoseconds(kIngestTornAfterNs + 50 * kNsPerMs));
  const auto out = drain_all(*q, cur);
  EXPECT_EQ(cur.torn, 1u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].app, "live");
  EXPECT_EQ(out[0].rec.tag, 7u);
}

// A child inherits the ring handle across fork, appends one record, claims
// two frames, and dies before publishing them.
pid_t fork_producer_dying_mid_publish(ShmIngestQueue& q) {
  const pid_t pid = ::fork();
  if (pid == 0) {
    append_one(q, "victim", rec_at(1, 1), {});
    q.claim(2);
    ::_exit(0);
  }
  return pid;
}

TEST_F(ShmIngestTest, DeadClaimersFramesAreTornOnTheFirstDrain) {
  auto q = ShmIngestQueue::create(file(), 32);
  const pid_t pid = fork_producer_dying_mid_publish(*q);
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  append_one(*q, "heir", rec_at(2, 9), {});

  // The markers name a pid that no longer exists: no waiting, exactly the
  // two claimed frames are torn, and everything committed arrives.
  ShmIngestQueue::Cursor cur;
  auto out = drain_all(*q, cur);
  EXPECT_EQ(cur.torn, 2u);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].app, "victim");
  EXPECT_EQ(out[1].app, "heir");

  append_one(*q, "heir", rec_at(3, 10), {});
  out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rec.tag, 10u);
  EXPECT_EQ(cur.torn, 2u);
  EXPECT_EQ(cur.consumed_frames + cur.dropped + cur.torn, q->produced());
}

TEST_F(ShmIngestTest, OpenReclaimsAbandonedCreation) {
  // A creator died between open() and publishing the magic: the file
  // exists but is all zeros. open() must reclaim the rendezvous path
  // instead of wedging every producer forever.
  {
    std::ofstream stale(file(), std::ios::binary);
    const std::vector<char> zeros(sizeof(ShmIngestHeader), '\0');
    stale.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
  }
  auto q = ShmIngestQueue::open(file(), 16);
  EXPECT_EQ(q->capacity(), 16u);
  append_one(*q, "a", rec_at(1), {});
  EXPECT_EQ(q->produced(), 1u);
}

TEST_F(ShmIngestTest, RegistryFactoryRendezvousesAtWellKnownPath) {
  Registry registry(dir_);
  core::HeartbeatOptions opts;
  opts.name = "worker";
  opts.store_factory = registry.shm_ingest_factory();
  core::Heartbeat hb(opts);
  for (int i = 0; i < 3; ++i) hb.beat(static_cast<std::uint64_t>(i));

  auto q = ShmIngestQueue::attach(registry.ingest_queue_path());
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].app, "worker");
}

TEST_F(ShmIngestTest, LongNamesStayDistinctAfterTruncation) {
  auto q = ShmIngestQueue::create(file(), 16);
  const std::string prefix(60, 'x');  // both names exceed the 48-byte slot
  append_one(*q, prefix + "-worker-A", rec_at(1, 0), {});
  append_one(*q, prefix + "-worker-B", rec_at(2, 1), {});
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_LT(out[0].app.size(), kIngestNameCap);
  EXPECT_NE(out[0].app, out[1].app);  // hash suffix keeps them apart
  EXPECT_EQ(out[0].app.substr(0, 10), prefix.substr(0, 10));
}

TEST_F(ShmIngestTest, IndependentConsumersSeeTheFullStream) {
  auto q = ShmIngestQueue::create(file(), 16);
  for (std::uint64_t i = 0; i < 5; ++i) append_one(*q, "a", rec_at(1, i), {});
  ShmIngestQueue::Cursor c1;
  ShmIngestQueue::Cursor c2;
  EXPECT_EQ(drain_all(*q, c1).size(), 5u);
  EXPECT_EQ(drain_all(*q, c2).size(), 5u);  // non-destructive reads
}

TEST_F(ShmIngestTest, PumpTearsDeadClaimersFramesAtOnce) {
  // The pump-level twin: a producer process dies mid-publish with live
  // records before and after its claim. One poll tears exactly its two
  // claimed frames and ingests both records.
  auto q = ShmIngestQueue::create(file(), 32);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub);

  const pid_t pid = fork_producer_dying_mid_publish(*q);
  ASSERT_GT(pid, 0);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  append_one(*q, "victim", rec_at(kNsPerMs, 2), {});

  EXPECT_EQ(pump.poll(), 2u);
  EXPECT_EQ(pump.stats().torn, 2u);
  EXPECT_EQ(pump.stats().dropped, 0u);
  EXPECT_EQ(hub.snapshot()->find(hub.id_of("victim"))->total_beats, 2u);
}

TEST_F(ShmIngestTest, HubSinkMirrorsSharedChannelOnly) {
  auto q = ShmIngestQueue::create(file(), 64);
  auto clock = std::make_shared<util::ManualClock>();
  core::HeartbeatOptions opts;
  opts.name = "worker";
  opts.clock = clock;
  opts.target_min_bps = 5.0;
  opts.store_factory = ShmHubSink::wrap_factory(q);
  core::Heartbeat hb(opts);

  for (int i = 0; i < 5; ++i) {
    clock->advance(10 * kNsPerMs);
    hb.beat(static_cast<std::uint64_t>(i));
  }
  hb.beat_local(99);  // thread-local channel: must NOT reach the ring

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 5u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].app, "worker");  // ".global" suffix stripped
    EXPECT_EQ(out[i].rec.seq, i);     // store-assigned seq carried over
    EXPECT_EQ(out[i].rec.tag, i);
    EXPECT_DOUBLE_EQ(out[i].target.min_bps, 5.0);
  }
}

TEST_F(ShmIngestTest, SinkBatchesAndHonorsMaxHold) {
  auto q = ShmIngestQueue::create(file(), 64);
  auto inner = std::make_shared<core::MemoryStore>(64, true, 10);
  ShmHubSink sink(inner, q, "batchy",
                  {.flush_every = 8, .max_hold_ns = 10 * kNsPerMs});

  sink.append(rec_at(0));
  sink.append(rec_at(1 * kNsPerMs));
  EXPECT_EQ(q->produced(), 0u);  // buffered below flush_every
  // 20ms after the oldest buffered beat: the hold bound flushes the batch.
  // The three records share a thread and consecutive store seqs, so the
  // whole flush packs into ONE frame.
  sink.append(rec_at(20 * kNsPerMs));
  EXPECT_EQ(q->produced(), 1u);

  sink.append(rec_at(21 * kNsPerMs));
  EXPECT_EQ(q->produced(), 1u);
  sink.flush();  // manual flush pushes the partial batch
  EXPECT_EQ(q->produced(), 2u);

  // All four records come through intact despite occupying two frames.
  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(cur.consumed_frames, 2u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].rec.seq, i);  // store-assigned seqs survive packing
  }
}

TEST_F(ShmIngestTest, EverySinkPacksItsFlushesIntoTheOneRing) {
  // Many sinks, one ring: every sink publishes on the shared ring, each
  // 3-record flush packed into one frame.
  auto q = ShmIngestQueue::create(file(), 64);
  constexpr int kSinks = 12;
  std::vector<std::unique_ptr<ShmHubSink>> sinks;
  for (int s = 0; s < kSinks; ++s) {
    sinks.push_back(std::make_unique<ShmHubSink>(
        std::make_shared<core::MemoryStore>(64, true, 10), q,
        "sink" + std::to_string(s), ShmHubSinkOptions{.flush_every = 3}));
  }
  for (int i = 0; i < 6; ++i) {
    for (auto& sink : sinks) sink->append(rec_at(i * kNsPerMs));
  }
  EXPECT_EQ(q->produced(), 2u * kSinks);

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 6u * kSinks);
  EXPECT_EQ(cur.consumed_frames, 2u * kSinks);
  std::vector<std::uint64_t> next_seq(kSinks, 0);
  for (const Drained& d : out) {
    const int s = std::stoi(d.app.substr(4));
    ASSERT_LT(s, kSinks);
    EXPECT_EQ(d.rec.seq, next_seq[static_cast<std::size_t>(s)]++);
  }
}

TEST_F(ShmIngestTest, PackedFramesRoundTripExactly) {
  auto q = ShmIngestQueue::create(file(), 32);
  // Seven packable records (one thread, consecutive seqs, sub-u32 ts
  // deltas): 3+3+1 across three frames, one claim.
  std::vector<core::HeartbeatRecord> recs;
  for (std::uint64_t i = 0; i < 7; ++i) {
    core::HeartbeatRecord r;
    r.timestamp_ns = static_cast<util::TimeNs>(100 * kNsPerMs + i * 3333);
    r.seq = 40 + i;
    r.tag = 0x1000 + i;
    r.thread_id = 77;
    recs.push_back(r);
  }
  EXPECT_EQ(q->append_batch("packer", recs, {3.0, 8.0}), 0u);
  EXPECT_EQ(q->produced(), 3u);  // ceil(7 / 3) frames, not 7 slots

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 7u);
  EXPECT_EQ(cur.consumed, 7u);
  EXPECT_EQ(cur.consumed_frames, 3u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i].app, "packer");
    EXPECT_EQ(out[i].rec.timestamp_ns, recs[i].timestamp_ns);
    EXPECT_EQ(out[i].rec.seq, recs[i].seq);
    EXPECT_EQ(out[i].rec.tag, recs[i].tag);
    EXPECT_EQ(out[i].rec.thread_id, 77u);
    EXPECT_DOUBLE_EQ(out[i].target.min_bps, 3.0);
    EXPECT_DOUBLE_EQ(out[i].target.max_bps, 8.0);
  }
}

TEST_F(ShmIngestTest, UnpackableRecordsStartFreshFrames) {
  auto q = ShmIngestQueue::create(file(), 32);
  // Every packing constraint broken in turn: a thread switch, a seq gap,
  // and a timestamp delta that overflows u32 each force a frame break.
  std::vector<core::HeartbeatRecord> recs(4);
  recs[0].timestamp_ns = 1;
  recs[0].seq = 10;
  recs[0].thread_id = 1;
  recs[1] = recs[0];
  recs[1].thread_id = 2;  // thread switch
  recs[1].seq = 11;
  recs[2] = recs[1];
  recs[2].seq = 20;  // seq gap
  recs[3] = recs[2];
  recs[3].seq = 21;
  recs[3].timestamp_ns = recs[2].timestamp_ns + (1LL << 40);  // delta > u32
  q->append_batch("a", recs, {});
  EXPECT_EQ(q->produced(), 4u);  // nothing packed

  ShmIngestQueue::Cursor cur;
  const auto out = drain_all(*q, cur);
  ASSERT_EQ(out.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(out[i].rec.seq, recs[i].seq);
    EXPECT_EQ(out[i].rec.timestamp_ns, recs[i].timestamp_ns);
    EXPECT_EQ(out[i].rec.thread_id, recs[i].thread_id);
  }
}

TEST_F(ShmIngestTest, VersionMismatchRejectedOnAttach) {
  // Rewrite the header's version field (offset 8, after the u64 magic) to
  // a retired version — exactly what a stale pre-upgrade ring file looks
  // like (v2 carried fast lanes this build cannot see).
  for (const std::uint32_t old_version : {1u, 2u}) {
    const fs::path path = file("v" + std::to_string(old_version));
    ShmIngestQueue::create(path, 8).reset();
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, 8, SEEK_SET), 0);
    std::fwrite(&old_version, sizeof(old_version), 1, f);
    std::fclose(f);
    EXPECT_THROW(ShmIngestQueue::attach(path), std::runtime_error);
  }
}

TEST_F(ShmIngestTest, DoorbellWakesParkedConsumer) {
  auto q = ShmIngestQueue::create(file(), 32);
  ShmIngestQueue::Cursor cur;

  // Quiet ring, short timeout: the wait must end in kTimeout, not hang.
  EXPECT_EQ(q->wait_for_frames(cur, 2 * kNsPerMs),
            ShmIngestQueue::WaitResult::kTimeout);

  // Pending frames: never parks at all.
  append_one(*q, "a", rec_at(1), {});
  EXPECT_EQ(q->wait_for_frames(cur, 2 * kNsPerMs),
            ShmIngestQueue::WaitResult::kReady);
  drain_all(*q, cur);

  // A producer publishing while we are parked rings the doorbell; the
  // generous timeout only bounds a lost wake, not the expected path.
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    append_one(*q, "a", rec_at(2), {});
  });
  const auto r = q->wait_for_frames(cur, 5000 * kNsPerMs);
  producer.join();
  EXPECT_TRUE(r == ShmIngestQueue::WaitResult::kWoken ||
              r == ShmIngestQueue::WaitResult::kReady);
  EXPECT_GE(q->doorbell_rings(), 1u);
  EXPECT_EQ(drain_all(*q, cur).size(), 1u);
}

TEST_F(ShmIngestTest, PumpWaitBlocksOnDoorbell) {
  auto q = ShmIngestQueue::create(file(), 32);
  hub::HeartbeatHub hub;
  hub::ShmIngestPump pump(q, hub, {.doorbell_timeout_ns = 5 * kNsPerMs});

  // Idle: the wait ends in a timeout.
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_FALSE(pump.wait(2 * kNsPerMs));
  EXPECT_EQ(pump.poll(), 0u);
  EXPECT_EQ(pump.stats().wait_timeouts, 1u);

  // A producer ringing the doorbell mid-wait: wait() reports work.
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    append_one(*q, "a", rec_at(1), {});
  });
  bool woke = false;
  for (int i = 0; i < 2000 && !woke; ++i) woke = pump.wait(5000 * kNsPerMs);
  producer.join();
  EXPECT_TRUE(woke);
  EXPECT_EQ(pump.poll(), 1u);
  const auto stats = pump.stats();
  EXPECT_GE(stats.parks, 2u);
  EXPECT_GE(stats.doorbell_wakes, 1u);
}

// The acceptance-shaping smoke: P forked producer processes feed the ring;
// the pump-fed hub must reach exactly the verdicts an in-process hub
// reaches on identical records. Timestamps are synthetic (deterministic) on
// a ManualClock timeline, so verdicts depend on the data alone.
TEST_F(ShmIngestTest, ForkedProducersMatchInProcessVerdicts) {
  constexpr int kProducers = 4;
  constexpr util::TimeNs kEnd = 1000 * kNsPerMs;

  // Per-producer deterministic beat plans:
  //   proc0 healthy: 10ms cadence for the full second
  //   proc1 dead:    10ms cadence, stops at 300ms
  //   proc2 slow:    100ms cadence against a 50 b/s minimum target
  //   proc3 erratic: alternating 5ms/95ms intervals
  auto plan = [](int p) {
    std::vector<core::HeartbeatRecord> recs;
    util::TimeNs t = 0;
    std::uint64_t i = 0;
    while (true) {
      util::TimeNs step = 0;
      switch (p) {
        case 0: step = 10 * kNsPerMs; break;
        case 1: step = 10 * kNsPerMs; break;
        case 2: step = 100 * kNsPerMs; break;
        default: step = (i % 2 == 0) ? 5 * kNsPerMs : 95 * kNsPerMs; break;
      }
      t += step;
      if (t > kEnd || (p == 1 && t > 300 * kNsPerMs)) break;
      recs.push_back(rec_at(t, i++));
    }
    return recs;
  };
  auto target_of = [](int p) {
    return p == 2 ? core::TargetRate{50.0, 1e9} : core::TargetRate{1.0, 1e9};
  };

  auto queue = ShmIngestQueue::create(file(), 4096);
  std::vector<pid_t> pids;
  for (int p = 0; p < kProducers; ++p) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: attach independently, push the plan in small batches.
      auto child_q = ShmIngestQueue::attach(file());
      const auto recs = plan(p);
      const std::string app = "proc" + std::to_string(p);
      for (std::size_t i = 0; i < recs.size(); i += 7) {
        const std::size_t n = std::min<std::size_t>(7, recs.size() - i);
        child_q->append_batch(app, std::span(recs).subspan(i, n),
                              target_of(p));
      }
      ::_exit(0);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }

  // Both hubs live on the same ManualClock, frozen at the timeline's end.
  auto clock = std::make_shared<util::ManualClock>(kEnd);
  hub::HubOptions hub_opts;
  hub_opts.shard_count = 4;
  hub_opts.clock = clock;

  hub::HeartbeatHub via_ring(hub_opts);
  hub::ShmIngestPump pump(queue, via_ring, {.from_start = true});
  std::size_t total = 0;
  for (int i = 0; i < 4; ++i) total += pump.poll();
  const auto pump_stats = pump.stats();
  EXPECT_EQ(pump_stats.consumed, total);
  EXPECT_EQ(pump_stats.dropped, 0u);
  EXPECT_EQ(pump_stats.torn, 0u);
  EXPECT_EQ(pump_stats.apps, static_cast<std::uint64_t>(kProducers));

  hub::HeartbeatHub in_process(hub_opts);
  std::size_t direct_total = 0;
  for (int p = 0; p < kProducers; ++p) {
    const auto recs = plan(p);
    direct_total += recs.size();
    in_process.ingest_batch(
        in_process.register_app("proc" + std::to_string(p), target_of(p)),
        recs);
  }
  EXPECT_EQ(total, direct_total);

  const fault::FleetDetector detector(
      {.absolute_staleness_ns = 500 * kNsPerMs});
  const auto ring_report = detector.sweep(via_ring.snapshot());
  const auto direct_report = detector.sweep(in_process.snapshot());

  ASSERT_EQ(ring_report.apps.size(), static_cast<std::size_t>(kProducers));
  ASSERT_EQ(direct_report.apps.size(), ring_report.apps.size());
  for (const auto& app : ring_report.apps) {
    const auto match = std::find_if(
        direct_report.apps.begin(), direct_report.apps.end(),
        [&app](const fault::AppHealth& d) { return d.name == app.name; });
    ASSERT_NE(match, direct_report.apps.end()) << app.name;
    EXPECT_EQ(app.health, match->health) << app.name;
    EXPECT_EQ(app.total_beats, match->total_beats) << app.name;
    EXPECT_DOUBLE_EQ(app.rate_bps, match->rate_bps) << app.name;
  }

  // The seeded fleet shape came through the process boundary intact.
  const auto& fleet = ring_report.fleet;
  EXPECT_EQ(fleet.healthy, 1u);
  EXPECT_EQ(fleet.dead, 1u);
  EXPECT_EQ(fleet.slow, 1u);
  EXPECT_EQ(fleet.erratic, 1u);
  EXPECT_EQ(fleet.dead_apps, std::vector<std::string>{"proc1"});
}

}  // namespace
}  // namespace hb::transport
