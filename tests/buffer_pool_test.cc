// storage::BufferPool, the one buffer manager behind the provenance page
// cache, the paged graph backend and the paged vertex state: LRU order
// with pin exemption, the zero-budget rule, in-flight load dedup, dirty
// write-back on eviction, and the retry -> reopen -> give-up ladder.

#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "recovery/fault_injector.h"

namespace ariadne {
namespace {

using Pool = storage::BufferPool<int, std::string>;

/// A pool of 100-byte frames whose contents are "frame <key>" padded.
Pool::Client FrameClient(std::atomic<int>* loads) {
  Pool::Client client;
  client.load = [loads](const int& key) -> Result<Pool::FramePtr> {
    loads->fetch_add(1);
    auto frame = std::make_shared<std::string>("frame " + std::to_string(key));
    frame->resize(100, '.');
    return frame;
  };
  client.charge = [](const int&, const std::string& frame) {
    return frame.size();
  };
  return client;
}

TEST(BufferPoolTest, LruEvictionUnderBudgetAndPinning) {
  std::atomic<int> loads{0};
  Pool pool(350, FrameClient(&loads));  // room for 3 frames
  ASSERT_TRUE(pool.Get(0).ok());
  ASSERT_TRUE(pool.Get(1).ok());
  ASSERT_TRUE(pool.Get(2).ok());
  ASSERT_TRUE(pool.Get(0).ok());  // hit: 0 is now the warmest
  ASSERT_TRUE(pool.Get(3).ok());  // evicts the coldest, 1
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(0));
  EXPECT_TRUE(pool.Contains(3));
  EXPECT_EQ(loads.load(), 4);

  // A pinned frame survives budget pressure; unpinning re-exposes it.
  ASSERT_TRUE(pool.Pin(0, /*dirty=*/false).ok());
  ASSERT_TRUE(pool.Get(1).ok());
  ASSERT_TRUE(pool.Get(4).ok());
  ASSERT_TRUE(pool.Get(5).ok());
  EXPECT_TRUE(pool.Contains(0));
  pool.Unpin(0);  // 0 rejoins the LRU as its warmest frame
  ASSERT_TRUE(pool.Get(6).ok());
  ASSERT_TRUE(pool.Get(7).ok());
  EXPECT_TRUE(pool.Contains(0));
  ASSERT_TRUE(pool.Get(8).ok());
  EXPECT_FALSE(pool.Contains(0));

  const storage::BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.hits, 2u);  // Get(0) and Pin(0)
  EXPECT_EQ(stats.misses, 10u);
  EXPECT_EQ(stats.loads, 10u);
  EXPECT_EQ(stats.evictions, 7u);
  EXPECT_EQ(stats.resident_bytes, 300u);
  EXPECT_TRUE(pool.error().ok());
}

TEST(BufferPoolTest, JumboFrameStaysUntilTheNextAdmission) {
  std::atomic<int> loads{0};
  Pool pool(50, FrameClient(&loads));  // smaller than one frame
  ASSERT_TRUE(pool.Get(0).ok());
  EXPECT_TRUE(pool.Contains(0));
  ASSERT_TRUE(pool.Get(1).ok());
  EXPECT_FALSE(pool.Contains(0));
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_EQ(pool.stats().resident_bytes, 100u);
}

TEST(BufferPoolTest, ZeroBudgetCachesNothing) {
  std::atomic<int> loads{0};
  Pool pool(0, FrameClient(&loads));
  auto frame = pool.Get(0);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ((*frame)->substr(0, 7), "frame 0");  // the caller still gets it
  EXPECT_FALSE(pool.Contains(0));
  EXPECT_EQ(pool.stats().resident_bytes, 0u);
  // Pinned frames stay resident even at zero budget, until unpinned.
  ASSERT_TRUE(pool.Pin(1, /*dirty=*/false).ok());
  EXPECT_TRUE(pool.Contains(1));
  pool.Unpin(1);
  EXPECT_FALSE(pool.Contains(1));
  EXPECT_EQ(pool.stats().resident_bytes, 0u);
}

TEST(BufferPoolTest, ConcurrentMissesOnOneKeyLoadOnce) {
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::atomic<int> loads{0};
  Pool::Client client = FrameClient(&loads);
  auto plain_load = client.load;
  client.load = [&](const int& key) {
    {
      // Hold the first load in flight until the test releases it.
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return release; });
    }
    return plain_load(key);
  };
  Pool pool(1000, std::move(client));

  Pool::FramePtr a, b;
  std::thread first([&] { a = *pool.Get(7); });
  // Give the first reader time to enter the load, then start a second
  // reader of the same key: it must wait for that load, not issue its own.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread second([&] { b = *pool.Get(7); });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  first.join();
  second.join();

  EXPECT_EQ(loads.load(), 1);
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a, b);  // the very same frame
  const storage::BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.loads, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(BufferPoolTest, DirtyFrameIsWrittenBackOnEvictionAndReadsBackEqual) {
  std::map<int, std::string> disk;  // the backing store, under disk_mu
  std::mutex disk_mu;
  Pool::Client client;
  client.load = [&](const int& key) -> Result<Pool::FramePtr> {
    std::lock_guard<std::mutex> lock(disk_mu);
    auto it = disk.find(key);
    return std::make_shared<std::string>(it == disk.end() ? std::string(64, 0)
                                                          : it->second);
  };
  client.charge = [](const int&, const std::string& frame) {
    return frame.size();
  };
  client.write_back = [&](const int& key, const std::string& frame) {
    std::lock_guard<std::mutex> lock(disk_mu);
    disk[key] = frame;
    return Status::OK();
  };
  Pool pool(64, std::move(client));  // exactly one frame

  auto page = pool.Pin(3, /*dirty=*/true);
  ASSERT_TRUE(page.ok());
  for (size_t i = 0; i < (*page)->size(); ++i) {
    (**page)[i] = static_cast<char>('a' + i % 26);
  }
  const std::string written = **page;
  pool.Unpin(3);
  EXPECT_TRUE(pool.Contains(3));  // within budget: still resident

  ASSERT_TRUE(pool.Get(4).ok());  // pushes 3 out, writing it back
  EXPECT_FALSE(pool.Contains(3));
  ASSERT_EQ(disk.count(3), 1u);
  EXPECT_EQ(disk[3], written);
  EXPECT_EQ(disk.count(4), 0u);  // clean frames are never written

  auto reread = pool.Get(3);
  ASSERT_TRUE(reread.ok());
  EXPECT_EQ(**reread, written);
  EXPECT_EQ(pool.stats().writebacks, 1u);
}

TEST(BufferPoolTest, PermanentFaultExhaustsLadderReopensOnceThenGivesUp) {
  recovery::FaultInjector& injector = recovery::FaultInjector::Global();
  ASSERT_TRUE(injector.Arm("buffer-pool-test-read:1+").ok());
  std::atomic<int> loads{0};
  std::atomic<int> reopens{0};
  Pool::Client client = FrameClient(&loads);
  auto plain_load = client.load;
  client.load = [plain_load](const int& key) -> Result<Pool::FramePtr> {
    ARIADNE_RETURN_NOT_OK(
        recovery::CheckFaultPoint("buffer-pool-test-read"));
    return plain_load(key);
  };
  client.reopen = [&] {
    reopens.fetch_add(1);
    return Status::OK();
  };
  client.retry.max_attempts = 3;
  client.retry.backoff_base_ms = 0.01;
  Pool pool(1000, std::move(client));

  auto got = pool.Get(1);
  injector.Disarm();
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(loads.load(), 0);
  EXPECT_EQ(reopens.load(), 1);
  const storage::BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.read_retries, 4u);  // 2 per ladder, before + after reopen
  EXPECT_EQ(stats.reopens, 1u);
  EXPECT_EQ(stats.gave_up, 1u);
  EXPECT_TRUE(pool.failed());
  EXPECT_FALSE(pool.error().ok());
  EXPECT_FALSE(pool.Contains(1));
}

TEST(BufferPoolTest, PrefetchLoadsInTheBackground) {
  std::atomic<int> loads{0};
  Pool pool(1000, FrameClient(&loads));
  pool.Prefetch(2);
  pool.Prefetch(2);  // queued twice, loaded once
  for (int i = 0; i < 2000 && !pool.Contains(2); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(pool.Contains(2));
  ASSERT_TRUE(pool.Get(2).ok());
  const storage::BufferPoolStats stats = pool.stats();
  EXPECT_EQ(stats.prefetch_loads, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.loads, 0u);
  EXPECT_EQ(loads.load(), 1);
}

}  // namespace
}  // namespace ariadne
