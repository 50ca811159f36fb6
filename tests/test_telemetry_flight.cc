// Flight recorder tests: ring retention, cause truncation, JSON
// shape, and the ring's lock -- concurrent snapshots observe only
// whole digests, in seq order.

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "telemetry/flight_recorder.h"

using namespace uov::telemetry;

namespace {

FlightDigest
digestWithIndex(uint64_t index)
{
    FlightDigest d;
    d.trace_id = 0x1000 + index;
    d.key_hash = 0x2000 + index;
    d.request_index = index;
    d.nodes = index * 10;
    d.wall_us = index;
    d.verb = FlightDigest::Verb::Shortest;
    d.outcome = FlightDigest::Outcome::Optimal;
    return d;
}

} // namespace

TEST(FlightDigest, CauseTruncatesAndRoundTrips)
{
    FlightDigest d;
    d.setCause("deadline");
    EXPECT_EQ(d.causeStr(), "deadline");

    std::string longcause(100, 'x');
    d.setCause(longcause);
    EXPECT_EQ(d.causeStr().size(), FlightDigest::kCauseBytes - 1);
    EXPECT_EQ(d.causeStr(),
              std::string(FlightDigest::kCauseBytes - 1, 'x'));

    d.setCause("");
    EXPECT_EQ(d.causeStr(), "");
}

TEST(FlightDigest, NamesAreStable)
{
    EXPECT_STREQ(FlightDigest::verbName(FlightDigest::Verb::Shortest),
                 "shortest");
    EXPECT_STREQ(FlightDigest::verbName(FlightDigest::Verb::Storage),
                 "storage");
    EXPECT_STREQ(
        FlightDigest::outcomeName(FlightDigest::Outcome::Shed),
        "shed");
    EXPECT_STREQ(
        FlightDigest::outcomeName(FlightDigest::Outcome::Error),
        "error");
}

TEST(FlightRecorder, RetainsLastKInOrder)
{
    FlightRecorder rec(8);
    EXPECT_EQ(rec.capacity(), 8u);
    for (uint64_t i = 1; i <= 20; ++i)
        rec.record(digestWithIndex(i));

    std::vector<FlightDigest> snap = rec.snapshot();
    ASSERT_EQ(snap.size(), 8u);
    // Oldest first, and exactly the last 8 recorded (seq 13..20): the
    // newest seq counts all 20 records.
    for (size_t i = 0; i < snap.size(); ++i) {
        EXPECT_EQ(snap[i].seq, 13 + i);
        EXPECT_EQ(snap[i].request_index, 13 + i);
        EXPECT_EQ(snap[i].trace_id, 0x1000 + 13 + i);
    }
}

TEST(FlightRecorder, CapacityFloorsAtEight)
{
    FlightRecorder rec(1);
    EXPECT_GE(rec.capacity(), 8u);
}

TEST(FlightRecorder, JsonCarriesHexIdsAndOutcomes)
{
    FlightRecorder rec(8);
    FlightDigest d = digestWithIndex(1);
    d.trace_id = 0xdeadbeef;
    d.outcome = FlightDigest::Outcome::Degraded;
    d.setCause("deadline");
    rec.record(d);

    std::string json = rec.json();
    EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
    EXPECT_NE(json.find("00000000deadbeef"), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"degraded\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cause\":\"deadline\""), std::string::npos);
}

// The ring's lock: concurrent readers racing writers see only whole
// digests.  Writers stamp correlated fields (trace_id, key_hash
// and nodes all derived from the same index); any torn read breaks
// the correlation.  The writers hold off until the reader is inside
// its loop, so even on a loaded host the write phase cannot finish
// before the first snapshot starts.
TEST(FlightRecorder, ConcurrentSnapshotsSeeWholeDigests)
{
    FlightRecorder rec(16);
    constexpr int kWriters = 4;
    constexpr uint64_t kPerWriter = 10'000;
    std::atomic<bool> stop{false};
    std::atomic<bool> reading{false};

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&rec, &reading, w] {
            while (!reading.load(std::memory_order_acquire))
                std::this_thread::yield();
            for (uint64_t i = 0; i < kPerWriter; ++i) {
                uint64_t idx = w * kPerWriter + i;
                rec.record(digestWithIndex(idx));
            }
        });

    std::thread reader([&] {
        uint64_t snapshots = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            reading.store(true, std::memory_order_release);
            std::vector<FlightDigest> snap = rec.snapshot();
            uint64_t prev_seq = 0;
            for (const FlightDigest &d : snap) {
                // Whole-digest invariants (field correlation).
                ASSERT_EQ(d.trace_id, 0x1000 + d.request_index);
                ASSERT_EQ(d.key_hash, 0x2000 + d.request_index);
                ASSERT_EQ(d.nodes, d.request_index * 10);
                // Snapshot ordering invariant.
                ASSERT_GT(d.seq, prev_seq);
                prev_seq = d.seq;
            }
            ++snapshots;
        }
        EXPECT_GT(snapshots, 0u);
    });

    for (auto &t : writers)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    std::vector<FlightDigest> final_snap = rec.snapshot();
    ASSERT_EQ(final_snap.size(), rec.capacity());
    EXPECT_EQ(final_snap.back().seq, kWriters * kPerWriter);
}
