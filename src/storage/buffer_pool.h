#ifndef ARIADNE_STORAGE_BUFFER_POOL_H_
#define ARIADNE_STORAGE_BUFFER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/retry.h"
#include "common/status.h"
#include "recovery/fault_injector.h"

namespace ariadne::storage {

/// Counters of one BufferPool; all monotonic except `resident_bytes`.
struct BufferPoolStats {
  uint64_t hits = 0;    ///< Gets served by a resident frame
  uint64_t misses = 0;  ///< Gets that had to load the frame themselves
  uint64_t loads = 0;   ///< successful demand loads
  uint64_t prefetch_requests = 0;  ///< keys queued for the prefetch thread
  uint64_t prefetch_loads = 0;     ///< successful prefetch-thread loads
  uint64_t evictions = 0;
  uint64_t writebacks = 0;  ///< dirty frames written back on eviction
  /// Attempts beyond the first of loads / write-backs (RetryTransient).
  uint64_t read_retries = 0;
  uint64_t write_retries = 0;
  uint64_t reopens = 0;  ///< reopen steps that succeeded
  /// Loads and write-backs abandoned after the ladder and the reopen.
  uint64_t gave_up = 0;
  uint64_t resident_bytes = 0;  ///< current charge of resident frames
};

/// The one buffer manager of the repo (DESIGN.md §2.2): residency of
/// frames of type `Frame`, keyed by `Key`, under a byte budget. Its
/// clients are the provenance page cache (LayerStore), the paged graph
/// backend's fragment cache and the paged vertex state; each owns one
/// instance and supplies only its format through `Client`.
///
/// Policy, all of it here:
///  - frames are shared_ptrs, so eviction only drops the pool's
///    reference and never invalidates a reader;
///  - unpinned resident frames sit in an LRU list; eviction takes the
///    coldest while resident bytes (each frame charged `Client::charge`)
///    exceed the budget. Pinned frames are never evicted, so pins can
///    hold residency above the budget;
///  - an admission never evicts the frame it admits unless the budget is
///    zero. So a frame larger than a nonzero budget still stays resident
///    until the next admission or unpin pushes it out ("jumbo" frames),
///    while a zero budget caches nothing that is not pinned;
///  - a miss on a key whose load is in flight waits for that load instead
///    of reading the frame a second time;
///  - dirty frames are written back (under the pool lock) before they are
///    evicted; a failed write-back keeps the frame resident;
///  - every read and write-back runs the RetryTransient ladder; a
///    transient failure then gets the client's reopen step once and, if
///    that succeeds, the ladder again;
///  - Prefetch queues keys for one background thread per pool, started on
///    the first request.
///
/// Errors: each Get reports its own failure; the first failure that gave
/// up is also kept as error() for clients whose accessors cannot return
/// a Status (the sticky-error rule itself stays with the client).
template <typename Key, typename Frame, typename Hash = std::hash<Key>>
class BufferPool {
 public:
  using FramePtr = std::shared_ptr<Frame>;

  /// What a client supplies: its format and recovery step.
  struct Client {
    /// One read attempt of `key`'s frame, fault points included; the pool
    /// retries. Called without the pool lock.
    std::function<Result<FramePtr>(const Key&)> load;
    /// Bytes a resident frame is charged against the budget.
    std::function<size_t(const Key&, const Frame&)> charge;
    /// One write attempt of a dirty frame, called on eviction with the
    /// pool lock held. Empty for clients that never dirty a frame.
    std::function<Status(const Key&, const Frame&)> write_back;
    /// Recovery step run once after a transient error exhausted the
    /// ladder (reopen the spill file). Empty: no such step.
    std::function<Status()> reopen;
    RetryPolicy retry;
    /// Fault point that makes a Get behave as if its frame had just been
    /// evicted; null for none.
    const char* drop_fault = nullptr;
  };

  /// What one Get did, for per-caller attribution.
  struct Access {
    bool hit = false;
    bool loaded = false;
    uint64_t evictions = 0;
  };

  BufferPool(size_t budget_bytes, Client client)
      : budget_(budget_bytes), client_(std::move(client)) {}

  ~BufferPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    prefetch_cv_.notify_all();
    if (prefetcher_.joinable()) prefetcher_.join();
  }

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// The frame of `key`, loaded on a miss.
  Result<FramePtr> Get(const Key& key, Access* access = nullptr) {
    return Fetch(key, /*pin=*/false, /*dirty=*/false, access);
  }

  /// Like Get, but the frame stays resident until the matching Unpin;
  /// `dirty` marks it for write-back on eviction. A failed Pin holds no
  /// pin.
  Result<FramePtr> Pin(const Key& key, bool dirty) {
    return Fetch(key, /*pin=*/true, dirty, nullptr);
  }

  /// Drops one pin; evicts if the pool is over budget. Unpinning a key
  /// that is not resident or not pinned is a no-op.
  void Unpin(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = frames_.find(key);
    if (it == frames_.end() || it->second.pins == 0) return;
    if (--it->second.pins == 0) {
      it->second.lru = lru_.insert(lru_.end(), key);
    }
    if (stats_.resident_bytes > budget_) EvictOverBudgetLocked(nullptr);
  }

  /// Queues an asynchronous load of `key` (no-op when it is resident or
  /// already being loaded). Failures are counted and kept as error().
  void Prefetch(const Key& key) {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_ || frames_.count(key) != 0 || loading_.count(key) != 0) return;
    ++stats_.prefetch_requests;
    queue_.push_back(key);
    if (!prefetcher_.joinable()) {
      prefetcher_ = std::thread([this] { PrefetcherMain(); });
    }
    prefetch_cv_.notify_one();
  }

  /// Stat-neutral residency probe.
  bool Contains(const Key& key) const {
    std::lock_guard<std::mutex> lock(mu_);
    return frames_.count(key) != 0;
  }

  /// True once a load or write-back gave up (lock-free).
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// The first failure that gave up; OK while none has.
  Status error() const {
    std::lock_guard<std::mutex> lock(mu_);
    return first_error_;
  }

  /// An internally consistent copy of the counters.
  BufferPoolStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  size_t budget() const { return budget_; }

 private:
  struct Slot {
    FramePtr frame;
    size_t charge = 0;
    uint32_t pins = 0;
    bool dirty = false;
    /// Position in lru_; valid iff pins == 0.
    typename std::list<Key>::iterator lru;
  };

  Result<FramePtr> Fetch(const Key& key, bool pin, bool dirty,
                         Access* access) {
    if (client_.drop_fault != nullptr && recovery::InjectionArmed() &&
        !recovery::FaultInjector::Global().Hit(client_.drop_fault).ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = frames_.find(key);
      if (it != frames_.end() && it->second.pins == 0 &&
          EvictLocked(it->second.lru) && access != nullptr) {
        ++access->evictions;
      }
    }
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      auto it = frames_.find(key);
      if (it != frames_.end()) {
        Slot& slot = it->second;
        ++stats_.hits;
        if (access != nullptr) access->hit = true;
        if (slot.pins == 0) {
          if (pin) {
            lru_.erase(slot.lru);
          } else {
            lru_.splice(lru_.end(), lru_, slot.lru);
          }
        }
        if (pin) ++slot.pins;
        slot.dirty = slot.dirty || dirty;
        return slot.frame;
      }
      if (loading_.count(key) == 0) break;
      load_done_.wait(lock);
    }
    ++stats_.misses;
    return LoadLocked(lock, key, pin, dirty, /*prefetch=*/false, access);
  }

  /// Loads `key` (not resident, not in flight) with `lock` released
  /// around the IO, then admits it. Wakes every waiter either way.
  Result<FramePtr> LoadLocked(std::unique_lock<std::mutex>& lock,
                              const Key& key, bool pin, bool dirty,
                              bool prefetch, Access* access) {
    loading_.insert(key);
    lock.unlock();
    FramePtr frame;
    uint64_t retries = 0, reopens = 0;
    const Status read = Ladder(
        key,
        [&] {
          auto loaded = client_.load(key);
          if (!loaded.ok()) return loaded.status();
          frame = std::move(loaded).value();
          return Status::OK();
        },
        &retries, &reopens);
    lock.lock();
    loading_.erase(key);
    stats_.read_retries += retries;
    stats_.reopens += reopens;
    load_done_.notify_all();
    if (!read.ok()) {
      GiveUpLocked(read);
      return read;
    }
    ++(prefetch ? stats_.prefetch_loads : stats_.loads);
    Slot& slot = frames_[key];
    slot.frame = frame;
    slot.charge = client_.charge(key, *frame);
    slot.dirty = dirty;
    slot.pins = pin ? 1 : 0;
    if (!pin) slot.lru = lru_.insert(lru_.end(), key);
    stats_.resident_bytes += slot.charge;
    const uint64_t evicted =
        EvictOverBudgetLocked(budget_ == 0 ? nullptr : &key);
    if (access != nullptr) {
      access->loaded = true;
      access->evictions += evicted;
    }
    return frame;
  }

  /// Runs `op` through the retry ladder, the reopen step, and the ladder
  /// again; accumulates attempts beyond the first into `*retries`.
  template <typename Op>
  Status Ladder(const Key& key, Op&& op, uint64_t* retries,
                uint64_t* reopens) {
    auto climb = [&] {
      const RetryOutcome out = RetryTransient(client_.retry, Hash{}(key), op);
      *retries += static_cast<uint64_t>(out.retries());
      return out.status;
    };
    Status status = climb();
    if (!status.ok() && IsTransientError(status) && client_.reopen &&
        client_.reopen().ok()) {
      ++*reopens;
      status = climb();
    }
    return status;
  }

  /// Evicts coldest unpinned frames while over budget, skipping `keep`.
  /// Stops at a failed write-back. Returns the number evicted.
  uint64_t EvictOverBudgetLocked(const Key* keep) {
    uint64_t evicted = 0;
    auto it = lru_.begin();
    while (stats_.resident_bytes > budget_ && it != lru_.end()) {
      if (keep != nullptr && *it == *keep) {
        ++it;
        continue;
      }
      auto next = std::next(it);
      if (!EvictLocked(it)) break;
      ++evicted;
      it = next;
    }
    return evicted;
  }

  /// Writes back (if dirty) and drops the unpinned frame at `pos`.
  /// Returns false, keeping the frame, when the write-back gave up.
  bool EvictLocked(typename std::list<Key>::iterator pos) {
    auto it = frames_.find(*pos);
    Slot& slot = it->second;
    if (slot.dirty) {
      uint64_t retries = 0, reopens = 0;
      const Status wrote = Ladder(
          *pos, [&] { return client_.write_back(*pos, *slot.frame); },
          &retries, &reopens);
      stats_.write_retries += retries;
      stats_.reopens += reopens;
      if (!wrote.ok()) {
        GiveUpLocked(wrote);
        return false;
      }
      ++stats_.writebacks;
    }
    stats_.resident_bytes -= slot.charge;
    ++stats_.evictions;
    frames_.erase(it);
    lru_.erase(pos);
    return true;
  }

  void GiveUpLocked(const Status& status) {
    ++stats_.gave_up;
    if (first_error_.ok()) {
      first_error_ = status;
      failed_.store(true, std::memory_order_release);
    }
  }

  void PrefetcherMain() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      prefetch_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      const Key key = queue_.front();
      queue_.pop_front();
      if (frames_.count(key) != 0 || loading_.count(key) != 0) continue;
      (void)LoadLocked(lock, key, /*pin=*/false, /*dirty=*/false,
                       /*prefetch=*/true, nullptr);
    }
  }

  const size_t budget_;
  const Client client_;
  mutable std::mutex mu_;
  std::condition_variable load_done_;
  std::unordered_map<Key, Slot, Hash> frames_;
  std::list<Key> lru_;  ///< unpinned resident keys, front = coldest
  std::unordered_set<Key, Hash> loading_;
  BufferPoolStats stats_;
  Status first_error_;
  std::atomic<bool> failed_{false};
  std::condition_variable prefetch_cv_;
  std::deque<Key> queue_;
  bool stop_ = false;
  std::thread prefetcher_;
};

}  // namespace ariadne::storage

#endif  // ARIADNE_STORAGE_BUFFER_POOL_H_
