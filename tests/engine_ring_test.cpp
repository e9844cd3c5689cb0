// Tests for the engine's lock-free-ish data-path building blocks:
// SpscRing, MpscChannel (the one hand-off channel: every engine shard
// inbox and every fabric node inbox), PacketArena (buffer recycling) and
// ReorderBuffer (streaming deterministic merge). The multi-thread hand-off
// tests are the ones CI runs under ThreadSanitizer (tsan job).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "engine/arena.h"
#include "engine/metrics.h"
#include "engine/reorder.h"
#include "engine/ring.h"

namespace hyper4 {
namespace {

using engine::Counter;
using engine::MergedResult;
using engine::MpscChannel;
using engine::PacketArena;
using engine::ReorderBuffer;
using engine::SpscRing;

// ---------------------------------------------------------------------------
// SpscRing

TEST(EngineRingTest, Pow2CapacityRounding) {
  EXPECT_EQ(engine::ring_pow2_capacity(1), 1u);
  EXPECT_EQ(engine::ring_pow2_capacity(2), 2u);
  EXPECT_EQ(engine::ring_pow2_capacity(3), 4u);
  EXPECT_EQ(engine::ring_pow2_capacity(1000), 1024u);
  EXPECT_EQ(engine::ring_pow2_capacity(1024), 1024u);
  SpscRing<int> r(0);  // zero clamps to a usable ring
  EXPECT_EQ(r.capacity(), 1u);
}

TEST(EngineRingTest, FifoThroughWraparound) {
  SpscRing<int> r(4);  // tiny: forces many wraparounds
  std::vector<int> out;
  int next_in = 0, next_out = 0;
  for (int round = 0; round < 100; ++round) {
    int batch[3];
    for (int& v : batch) v = next_in++;
    ASSERT_TRUE(r.push(batch, 3));
    ASSERT_TRUE(r.pop_batch(out, 8));
    for (int v : out) EXPECT_EQ(v, next_out++);
  }
  EXPECT_EQ(next_out, next_in);
  EXPECT_EQ(r.size(), 0u);
}

TEST(EngineRingTest, TryPushRespectsCapacity) {
  SpscRing<int> r(4);
  int vals[8] = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(r.try_push(vals, 8), 4u);  // partial push: ring full after 4
  EXPECT_EQ(r.try_push(vals + 4, 4), 0u);
  std::vector<int> out;
  ASSERT_TRUE(r.pop_batch(out, 8));
  ASSERT_EQ(out.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], i);
}

TEST(EngineRingTest, CloseDrainsThenReportsClosure) {
  SpscRing<int> r(8);
  int vals[3] = {7, 8, 9};
  ASSERT_TRUE(r.push(vals, 3));
  r.close();
  int extra = 10;
  EXPECT_FALSE(r.push(&extra, 1));  // pushes fail after close
  std::vector<int> out;
  ASSERT_TRUE(r.pop_batch(out, 2));  // drains what remains, batched
  EXPECT_EQ(out.size(), 2u);
  ASSERT_TRUE(r.pop_batch(out, 2));
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 9);
  EXPECT_FALSE(r.pop_batch(out, 2));  // closed and drained
}

TEST(EngineRingTest, CloseUnblocksWaitingConsumer) {
  SpscRing<int> r(4);
  std::atomic<bool> exited{false};
  std::thread consumer([&] {
    std::vector<int> out;
    while (r.pop_batch(out, 4)) {
    }
    exited.store(true);
  });
  // Consumer is (eventually) parked on the empty ring; close must wake it.
  r.close();
  consumer.join();
  EXPECT_TRUE(exited.load());
}

TEST(EngineRingTest, CloseUnblocksWaitingProducer) {
  SpscRing<int> r(2);
  int vals[2] = {1, 2};
  ASSERT_TRUE(r.push(vals, 2));  // ring now full
  std::atomic<bool> push_result{true};
  std::thread producer([&] {
    int more[2] = {3, 4};
    push_result.store(r.push(more, 2));  // blocks on full ring
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  r.close();
  producer.join();
  EXPECT_FALSE(push_result.load());
}

// The TSan target: sustained two-thread hand-off with batched push/pop,
// wraparound, and both slow paths (tiny ring forces producer waits; bursty
// producer forces consumer waits). Values must come out in FIFO order with
// nothing lost or duplicated.
TEST(EngineRingTest, TwoThreadHandOffIsFifoAndLossless) {
  engine::Counter prod_waits, cons_waits;
  SpscRing<std::uint64_t> r(8, &prod_waits, &cons_waits);
  constexpr std::uint64_t kCount = 200000;
  std::thread producer([&] {
    std::uint64_t batch[5];
    std::uint64_t next = 0;
    while (next < kCount) {
      std::size_t n = 0;
      while (n < 5 && next < kCount) batch[n++] = next++;
      ASSERT_TRUE(r.push(batch, n));
    }
    r.close();
  });
  std::uint64_t expect = 0, sum = 0;
  std::vector<std::uint64_t> out;
  while (r.pop_batch(out, 7)) {
    for (std::uint64_t v : out) {
      ASSERT_EQ(v, expect) << "FIFO violated";
      ++expect;
      sum += v;
    }
  }
  producer.join();
  EXPECT_EQ(expect, kCount);
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

// ---------------------------------------------------------------------------
// PacketArena

TEST(EngineArenaTest, RecycledBufferCapacityIsReused) {
  engine::Counter fresh;
  PacketArena arena(4, &fresh);
  std::vector<std::uint8_t> payload(256, 0xAB);
  net::Packet p = arena.acquire(payload);
  EXPECT_EQ(p.size(), 256u);
  const std::size_t grown_capacity = p.capacity();
  arena.recycle(std::move(p));
  // The next acquire of a same-or-smaller packet reuses the grown buffer:
  // capacity is at least what the recycled buffer had grown to.
  net::Packet q = arena.acquire(std::span<const std::uint8_t>(payload.data(), 64));
  EXPECT_EQ(q.size(), 64u);
  EXPECT_GE(q.capacity(), grown_capacity);
  EXPECT_EQ(fresh.value(), 0u);
}

TEST(EngineArenaTest, FreshAllocCountedOnlyWhenStockExhausted) {
  engine::Counter fresh;
  PacketArena arena(2, &fresh);
  std::vector<std::uint8_t> payload(16, 0x01);
  net::Packet a = arena.acquire(payload);
  net::Packet b = arena.acquire(payload);
  EXPECT_EQ(fresh.value(), 0u);  // both served from stock
  net::Packet c = arena.acquire(payload);
  EXPECT_EQ(fresh.value(), 1u);  // stock empty, nothing recycled yet
  arena.recycle(std::move(a));
  net::Packet d = arena.acquire(payload);
  EXPECT_EQ(fresh.value(), 1u);  // served from the return ring
  (void)b;
  (void)c;
  (void)d;
}

TEST(EngineArenaTest, ContentIsCallersBytes) {
  PacketArena arena(1);
  std::vector<std::uint8_t> first = {1, 2, 3, 4};
  std::vector<std::uint8_t> second = {9, 8};
  net::Packet p = arena.acquire(first);
  EXPECT_EQ(p.bytes().size(), 4u);
  EXPECT_EQ(p.at(0), 1);
  arena.recycle(std::move(p));
  net::Packet q = arena.acquire(second);
  ASSERT_EQ(q.size(), 2u);  // stale tail bytes must not leak through
  EXPECT_EQ(q.at(0), 9);
  EXPECT_EQ(q.at(1), 8);
}

// ---------------------------------------------------------------------------
// ReorderBuffer

bm::ProcessResult marked(std::uint32_t drops) {
  bm::ProcessResult r;
  r.drops = drops;  // use drops as a payload marker
  return r;
}

TEST(EngineReorderTest, InOrderDeliveryEmitsImmediately) {
  ReorderBuffer rb;
  std::vector<std::pair<std::uint64_t, bm::ProcessResult>> batch;
  batch.emplace_back(0, marked(10));
  batch.emplace_back(1, marked(11));
  rb.deliver(batch);
  EXPECT_TRUE(batch.empty());  // moved in
  EXPECT_EQ(rb.next_seq(), 2u);
  EXPECT_EQ(rb.pending(), 0u);
  MergedResult m = rb.take_ready();
  ASSERT_EQ(m.per_packet.size(), 2u);
  EXPECT_EQ(m.per_packet[0].drops, 10u);
  EXPECT_EQ(m.per_packet[1].drops, 11u);
  EXPECT_EQ(m.totals.drops, 21u);
  EXPECT_EQ(m.packets, 2u);
}

TEST(EngineReorderTest, OutOfOrderBuffersUntilGapFills) {
  ReorderBuffer rb;
  std::vector<std::pair<std::uint64_t, bm::ProcessResult>> batch;
  batch.emplace_back(2, marked(2));
  batch.emplace_back(1, marked(1));
  rb.deliver(batch);
  EXPECT_EQ(rb.next_seq(), 0u);  // nothing emitted: 0 is missing
  EXPECT_EQ(rb.pending(), 2u);
  batch.emplace_back(0, marked(0));
  rb.deliver(batch);
  EXPECT_EQ(rb.next_seq(), 3u);  // gap filled, everything cascades out
  EXPECT_EQ(rb.pending(), 0u);
  MergedResult m = rb.take_ready();
  ASSERT_EQ(m.per_packet.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i)
    EXPECT_EQ(m.per_packet[i].drops, i) << "emission order broke";
}

TEST(EngineReorderTest, TakeReadyStreamsIncrementalPrefixes) {
  ReorderBuffer rb;
  std::vector<std::pair<std::uint64_t, bm::ProcessResult>> batch;
  batch.emplace_back(0, marked(0));
  rb.deliver(batch);
  MergedResult first = rb.take_ready();
  EXPECT_EQ(first.packets, 1u);
  batch.emplace_back(1, marked(1));
  rb.deliver(batch);
  MergedResult second = rb.take_ready();
  ASSERT_EQ(second.per_packet.size(), 1u);
  EXPECT_EQ(second.per_packet[0].drops, 1u);  // only the new suffix
  EXPECT_EQ(rb.next_seq(), 2u);               // sequence survives takes
  MergedResult third = rb.take_ready();
  EXPECT_EQ(third.packets, 0u);  // caught up: empty take
}

TEST(EngineReorderTest, WaitEmittedBlocksUntilStragglerLands) {
  ReorderBuffer rb;
  std::thread straggler([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::vector<std::pair<std::uint64_t, bm::ProcessResult>> batch;
    batch.emplace_back(1, marked(1));
    batch.emplace_back(0, marked(0));
    rb.deliver(batch);
  });
  rb.wait_emitted(2);
  EXPECT_EQ(rb.next_seq(), 2u);
  straggler.join();
}

TEST(EngineReorderTest, StallCounterAdvancesOnDeliver) {
  engine::Counter stall;
  ReorderBuffer rb(&stall);
  std::vector<std::pair<std::uint64_t, bm::ProcessResult>> batch;
  batch.emplace_back(0, marked(0));
  rb.deliver(batch);
  // Wall-clock delta may round to 0ns, but deliver must have touched it;
  // deliver an out-of-order + cascade round too for coverage.
  batch.emplace_back(2, marked(2));
  rb.deliver(batch);
  batch.emplace_back(1, marked(1));
  rb.deliver(batch);
  EXPECT_EQ(rb.next_seq(), 3u);
}

// ---------------------------------------------------------------------------
// MpscChannel: many producers serialized onto one ring.

// Capacity 1 with 8 producers: every producer but one is parked at any time
// (on the full ring or behind the producer lock), and each freed slot must
// still admit exactly one more until all values are through.
TEST(EngineQueueTest, ManyBlockedProducersAllEventuallyAdmitted) {
  engine::Counter prod_waits;
  MpscChannel<int> q(1, &prod_waits);
  ASSERT_TRUE(q.push(0));
  constexpr int kProducers = 8;
  std::vector<std::thread> producers;
  std::atomic<int> pushed{0};
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&q, &pushed, i] {
      ASSERT_TRUE(q.push(i + 1));
      pushed.fetch_add(1);
    });
  }
  // The ring already holds a value, so the first producer through the lock
  // must park on it; the ring's wait counter passes through the channel.
  while (prod_waits.value() == 0) std::this_thread::yield();
  std::vector<int> out, got;
  while (got.size() < kProducers + 1u) {
    ASSERT_TRUE(q.pop_batch(out, 2));
    got.insert(got.end(), out.begin(), out.end());
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(pushed.load(), kProducers);
  std::sort(got.begin(), got.end());
  for (int i = 0; i <= kProducers; ++i) EXPECT_EQ(got[i], i);
  q.close();
  EXPECT_FALSE(q.pop_batch(out, 2));  // closed and drained
}

}  // namespace
}  // namespace hyper4
