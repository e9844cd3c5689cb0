// The one bounded hand-off channel: an SPSC ring plus MpscChannel, the
// same ring with its producer side serialized by a mutex. Every engine
// worker's shard inbox and every fabric node's inbox is an MpscChannel;
// the bare SpscRing also carries the packet arena's buffer returns.
//
// Layout and protocol:
//   * The ring itself only ever sees one producer and one consumer. In an
//     MpscChannel the producer mutex is taken outside the ring (uncontended
//     in the dominant single-injector pattern; a batch push holds it once).
//   * head_ (consumer cursor) and tail_ (producer cursor) live on separate
//     cache lines; each side keeps a cached copy of the other's cursor and
//     re-reads the shared atomic only when the cached value says the ring
//     is full/empty — the common batched push/pop touches one atomic store.
//   * Capacity is rounded up to a power of two (mask indexing); slots are
//     preallocated, so steady-state hand-off performs no heap allocation.
//   * Blocking is the slow path only: when the ring is full (producer) or
//     empty (consumer) the blocked side sets a waiting flag and sleeps on a
//     condvar; the other side checks the flag after publishing its cursor
//     and notifies under the mutex. All cursor/flag accesses that order the
//     sleep/notify race are seq_cst, so a publish and a waiting-flag store
//     cannot reorder past each other and no wakeup is lost.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "engine/metrics.h"

namespace hyper4::engine {

inline std::size_t ring_pow2_capacity(std::size_t want) {
  std::size_t c = 1;
  while (c < want) c <<= 1;
  return c;
}

template <typename T>
class SpscRing {
 public:
  // `producer_waits` / `consumer_waits` (optional) count slow-path sleep
  // events — the serial-fraction evidence BENCH_engine.json reports.
  explicit SpscRing(std::size_t capacity, Counter* producer_waits = nullptr,
                    Counter* consumer_waits = nullptr)
      : capacity_(ring_pow2_capacity(capacity == 0 ? 1 : capacity)),
        mask_(capacity_ - 1),
        slots_(capacity_),
        producer_waits_(producer_waits),
        consumer_waits_(consumer_waits) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    return static_cast<std::size_t>(tail_.load(std::memory_order_acquire) -
                                    head_.load(std::memory_order_acquire));
  }
  bool closed() const { return closed_.load(std::memory_order_acquire); }

  // --- producer side -------------------------------------------------------
  // Move up to `n` items from `src` into the ring without blocking; returns
  // the number actually pushed (0 when full).
  std::size_t try_push(T* src, std::size_t n) {
    const std::uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t + n > cached_head_ + capacity_)
      cached_head_ = head_.load(std::memory_order_acquire);
    const std::size_t can = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, cached_head_ + capacity_ - t));
    for (std::size_t i = 0; i < can; ++i)
      slots_[(t + i) & mask_] = std::move(src[i]);
    if (can == 0) return 0;
    tail_.store(t + can, std::memory_order_seq_cst);
    if (consumer_waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(mu_);
      not_empty_.notify_one();
    }
    return can;
  }

  bool try_push_one(T&& v) { return try_push(&v, 1) == 1; }

  // Blocking push of all `n` items. Returns false when the ring was closed
  // before everything was enqueued (the remainder is dropped; whatever was
  // already pushed will still be drained by the consumer).
  bool push(T* src, std::size_t n) {
    std::size_t done = 0;
    while (done < n) {
      if (closed_.load(std::memory_order_acquire)) return false;
      done += try_push(src + done, n - done);
      if (done < n) wait_not_full();
    }
    return true;
  }

  // --- consumer side -------------------------------------------------------
  // Pop up to `max` items into `out` (cleared first; capacity is reused),
  // blocking while the ring is empty. Returns false only when the ring is
  // closed *and* drained — the consumer's signal to exit.
  bool pop_batch(std::vector<T>& out, std::size_t max) {
    out.clear();
    if (max == 0) max = 1;
    for (;;) {
      const std::uint64_t h = head_.load(std::memory_order_relaxed);
      if (cached_tail_ == h)
        cached_tail_ = tail_.load(std::memory_order_acquire);
      if (cached_tail_ != h) {
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(max, cached_tail_ - h));
        for (std::size_t i = 0; i < n; ++i)
          out.push_back(std::move(slots_[(h + i) & mask_]));
        head_.store(h + n, std::memory_order_seq_cst);
        if (producer_waiting_.load(std::memory_order_seq_cst)) {
          std::lock_guard<std::mutex> lk(mu_);
          not_full_.notify_one();
        }
        return true;
      }
      if (closed_.load(std::memory_order_acquire)) {
        // Re-read once after observing closure: a final publish may have
        // raced the close.
        if (tail_.load(std::memory_order_acquire) == h) return false;
        cached_tail_ = tail_.load(std::memory_order_acquire);
        continue;
      }
      wait_not_empty();
    }
  }

  bool try_pop_one(T& out) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    if (cached_tail_ == h) cached_tail_ = tail_.load(std::memory_order_acquire);
    if (cached_tail_ == h) return false;
    out = std::move(slots_[h & mask_]);
    head_.store(h + 1, std::memory_order_seq_cst);
    if (producer_waiting_.load(std::memory_order_seq_cst)) {
      std::lock_guard<std::mutex> lk(mu_);
      not_full_.notify_one();
    }
    return true;
  }

  // Wakes both sides; subsequent pushes fail, pop_batch drains what remains
  // then reports closure.
  void close() {
    closed_.store(true, std::memory_order_seq_cst);
    std::lock_guard<std::mutex> lk(mu_);
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  void wait_not_full() {
    if (producer_waits_) producer_waits_->inc();
    std::unique_lock<std::mutex> lk(mu_);
    producer_waiting_.store(true, std::memory_order_seq_cst);
    not_full_.wait(lk, [&] {
      return closed_.load(std::memory_order_relaxed) ||
             tail_.load(std::memory_order_relaxed) -
                     head_.load(std::memory_order_relaxed) <
                 capacity_;
    });
    producer_waiting_.store(false, std::memory_order_seq_cst);
  }

  void wait_not_empty() {
    if (consumer_waits_) consumer_waits_->inc();
    std::unique_lock<std::mutex> lk(mu_);
    consumer_waiting_.store(true, std::memory_order_seq_cst);
    not_empty_.wait(lk, [&] {
      return closed_.load(std::memory_order_relaxed) ||
             tail_.load(std::memory_order_relaxed) !=
                 head_.load(std::memory_order_relaxed);
    });
    consumer_waiting_.store(false, std::memory_order_seq_cst);
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<T> slots_;
  Counter* producer_waits_;
  Counter* consumer_waits_;

  // Consumer cache line: cursor + producer-cursor cache.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;  // consumer-private
  // Producer cache line.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;  // producer-private
  // Slow path (shared, cold).
  alignas(64) std::atomic<bool> closed_{false};
  std::atomic<bool> producer_waiting_{false};
  std::atomic<bool> consumer_waiting_{false};
  std::mutex mu_;
  std::condition_variable not_empty_, not_full_;
};

// SpscRing with the producer side serialized by one mutex: many producers
// (injector threads, fabric peers), one consumer. A producer blocked on a
// full ring holds the mutex, so the others wait on the mutex; close()
// wakes the blocked one and every later push fails.
template <typename T>
class MpscChannel {
 public:
  explicit MpscChannel(std::size_t capacity, Counter* producer_waits = nullptr,
                       Counter* consumer_waits = nullptr)
      : ring_(capacity, producer_waits, consumer_waits) {}

  // Blocking push of all `n` items under one producer-lock hold; false once
  // closed (the unpushed remainder is dropped).
  bool push(T* src, std::size_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    return ring_.push(src, n);
  }
  bool push(T&& v) { return push(&v, 1); }

  // False only when closed AND drained.
  bool pop_batch(std::vector<T>& out, std::size_t max) {
    return ring_.pop_batch(out, max);
  }
  void close() { ring_.close(); }

 private:
  std::mutex mu_;
  SpscRing<T> ring_;
};

}  // namespace hyper4::engine
