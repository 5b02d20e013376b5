#ifndef ARIADNE_ENGINE_VERTEX_STATE_H_
#define ARIADNE_ENGINE_VERTEX_STATE_H_

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "engine/types.h"
#include "recovery/fault_injector.h"
#include "storage/buffer_pool.h"
#include "storage/page.h"

namespace ariadne {

/// Vertex-value store of the engine (DESIGN.md §2.7). Flat mode (the
/// default) is a plain std::vector<V> with zero overhead. Paged mode cuts
/// the value array into fixed, power-of-two-sized pages kept under a byte
/// budget by a storage::BufferPool: cold pages spill to a checksummed
/// scratch file (record = [page bytes][Checksum64]) with dirty write-back,
/// and fault back in on access. Requires a trivially-copyable V (records
/// are raw memcpy); ConfigurePaged refuses otherwise and the store stays
/// flat.
///
/// Access goes through `Window`s: a window pins the pages covering a
/// contiguous vertex range, hands out V& into them, and unpins on
/// destruction. The engine acquires one window per compute chunk — chunk
/// vertex ranges are contiguous (ascending active list), so a window is
/// a handful of pages. Pinned pages are never evicted; concurrent windows
/// over boundary pages share them via the pin count. Residency never
/// affects stored values, so paged runs are byte-identical to flat ones
/// for any budget or thread count (graph_backend_test.cc).
///
/// PrefetchRange hints go to the pool's prefetch thread, so chunk windows
/// almost never block on the spill file. IO failures are sticky
/// (error()); windows then serve a zeroed scratch page and the engine
/// fails the run at the next superstep barrier.
template <typename V>
class VertexState {
 public:
  VertexState() = default;
  ~VertexState() { Close(); }
  VertexState(const VertexState&) = delete;
  VertexState& operator=(const VertexState&) = delete;

  /// Switches to paged mode before the next Reset. The spill file lives
  /// at `spill_path` (scratch; created on Reset, removed on Close).
  Status ConfigurePaged(std::string spill_path, size_t budget_bytes) {
    if constexpr (!std::is_trivially_copyable_v<V>) {
      return Status::Unsupported(
          "paged vertex state requires a trivially-copyable vertex value "
          "type");
    }
    if (spill_path.empty()) {
      return Status::InvalidArgument("paged vertex state needs a spill path");
    }
    paged_ = true;
    spill_path_ = std::move(spill_path);
    budget_bytes_ = budget_bytes;
    return Status::OK();
  }

  bool paged() const { return paged_; }
  size_t size() const { return n_; }

  /// (Re)initializes to `n` value-initialized slots.
  Status Reset(size_t n) {
    n_ = n;
    if (!paged_) {
      flat_.assign(n, V{});
      return Status::OK();
    }
    Close();
    paged_ = true;  // Close() resets the flag for the flat fallback
    values_per_page_ = PickValuesPerPage();
    page_shift_ = 0;
    while ((size_t{1} << page_shift_) < values_per_page_) ++page_shift_;
    num_pages_ = n == 0 ? 0 : (n + values_per_page_ - 1) / values_per_page_;
    on_disk_.assign(num_pages_, 0);
    scratch_.assign(values_per_page_, V{});
    page_faults_.store(0, std::memory_order_relaxed);
    pool_ = std::make_unique<PagePool>(budget_bytes_, MakeClient());
    fd_ = ::open(spill_path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    if (fd_ < 0) {
      return Status::IOError("cannot create vertex-state spill file " +
                             spill_path_ + ": " + std::strerror(errno));
    }
    return Status::OK();
  }

  /// Sticky IO/corruption error of the paged read/write path; the engine
  /// checks this at every superstep barrier.
  Status error() const {
    return pool_ == nullptr ? Status::OK() : pool_->error();
  }

  VertexStateStats stats() const {
    VertexStateStats s;
    s.footprint_bytes = static_cast<uint64_t>(n_) * sizeof(V);
    if (pool_ == nullptr) {
      s.resident_bytes = s.footprint_bytes;
      return s;
    }
    const storage::BufferPoolStats pool = pool_->stats();
    s.paged = true;
    s.budget_bytes = budget_bytes_;
    s.resident_bytes = pool.resident_bytes;
    s.page_faults = page_faults_.load(std::memory_order_relaxed);
    s.prefetch_loads = pool.prefetch_loads;
    s.evictions = pool.evictions;
    s.writebacks = pool.writebacks;
    s.pages = static_cast<int32_t>(num_pages_);
    s.read_retries = pool.read_retries;
    s.write_retries = pool.write_retries;
    s.fd_reopens = pool.reopens;
    s.gave_up = pool.gave_up;
    return s;
  }

  /// A pinned view over vertices [first, last]. Windows are cheap in flat
  /// mode (a bare pointer); in paged mode acquisition faults + pins the
  /// covering pages and destruction unpins them.
  class Window {
   public:
    Window() = default;
    Window(Window&& other) noexcept { *this = std::move(other); }
    Window& operator=(Window&& other) noexcept {
      Release();
      owner_ = other.owner_;
      flat_base_ = other.flat_base_;
      first_page_ = other.first_page_;
      page_ptrs_ = std::move(other.page_ptrs_);
      other.owner_ = nullptr;
      other.flat_base_ = nullptr;
      other.page_ptrs_.clear();
      return *this;
    }
    Window(const Window&) = delete;
    Window& operator=(const Window&) = delete;
    ~Window() { Release(); }

    V& at(VertexId v) {
      if (flat_base_ != nullptr) return flat_base_[static_cast<size_t>(v)];
      return page_ptrs_[(static_cast<size_t>(v) >> owner_->page_shift_) -
                        first_page_]
                       [static_cast<size_t>(v) &
                        (owner_->values_per_page_ - 1)];
    }
    const V& at(VertexId v) const {
      return const_cast<Window*>(this)->at(v);
    }

   private:
    friend class VertexState;
    void Release() {
      for (size_t i = 0; i < page_ptrs_.size(); ++i) {
        // Pages that failed to load were never pinned (scratch stand-in).
        if (page_ptrs_[i] != owner_->scratch_.data()) {
          owner_->pool_->Unpin(first_page_ + i);
        }
      }
      owner_ = nullptr;
      flat_base_ = nullptr;
      page_ptrs_.clear();
    }
    VertexState* owner_ = nullptr;
    V* flat_base_ = nullptr;      // flat fast path; null in paged mode
    size_t first_page_ = 0;
    std::vector<V*> page_ptrs_;  // pinned pages covering the range
  };

  /// Pins [first, last] (inclusive; clamped to the vertex count).
  /// Mutable-window acquisition marks the pages dirty — cheaper than
  /// tracking per-write dirtiness, and chunk windows write anyway.
  Window AcquireWindow(VertexId first, VertexId last) {
    Window w;
    w.owner_ = this;
    if (!paged_) {
      w.flat_base_ = flat_.data();
      return w;
    }
    if (first < 0) first = 0;
    if (last >= static_cast<VertexId>(n_)) {
      last = static_cast<VertexId>(n_) - 1;
    }
    if (first > last) return w;
    const size_t p0 = static_cast<size_t>(first) >> page_shift_;
    const size_t p1 = static_cast<size_t>(last) >> page_shift_;
    w.first_page_ = p0;
    w.page_ptrs_.resize(p1 - p0 + 1);
    for (size_t p = p0; p <= p1; ++p) {
      // Sticky error: once a page op gave up, windows get the scratch page.
      auto page = pool_->failed() ? Result<PagePtr>(pool_->error())
                                  : pool_->Pin(p, /*dirty=*/true);
      w.page_ptrs_[p - p0] = page.ok() ? (*page)->data() : scratch_.data();
    }
    return w;
  }

  /// Async hint that vertices [first, last] are about to be accessed.
  void PrefetchRange(VertexId first, VertexId last) {
    if (!paged_ || first > last || pool_->failed()) return;
    if (first < 0) first = 0;
    if (last >= static_cast<VertexId>(n_)) {
      last = static_cast<VertexId>(n_) - 1;
    }
    const size_t p0 = static_cast<size_t>(first) >> page_shift_;
    const size_t p1 = static_cast<size_t>(last) >> page_shift_;
    for (size_t p = p0; p <= p1 && p < num_pages_; ++p) pool_->Prefetch(p);
  }

  /// Copies every value into `out` (the session/tool result path, which
  /// works in both modes — Engine::values() only works flat).
  Status CopyTo(std::vector<V>* out) {
    out->resize(n_);
    if (!paged_) {
      std::copy(flat_.begin(), flat_.end(), out->begin());
      return Status::OK();
    }
    constexpr VertexId kBlock = 1 << 16;
    for (VertexId b = 0; b < static_cast<VertexId>(n_); b += kBlock) {
      const VertexId e =
          std::min<VertexId>(b + kBlock, static_cast<VertexId>(n_)) - 1;
      Window w = AcquireWindow(b, e);
      for (VertexId v = b; v <= e; ++v) {
        (*out)[static_cast<size_t>(v)] = w.at(v);
      }
    }
    return error();
  }

  /// Flat-mode-only direct span (Engine::values()).
  std::span<const V> flat_span() const {
    if (paged_) return {};
    return {flat_.data(), flat_.size()};
  }

 private:
  using PagePool = storage::BufferPool<size_t, std::vector<V>>;
  using PagePtr = typename PagePool::FramePtr;

  static size_t PickValuesPerPage() {
    // ~64 KiB pages, power-of-two values per page (so v>>shift / v&mask
    // replace div/mod on the window hot path).
    size_t vp = 1;
    while (vp * sizeof(V) < size_t{64} * 1024) vp <<= 1;
    return vp;
  }

  size_t PageBytes() const { return values_per_page_ * sizeof(V); }
  uint64_t RecordOffset(size_t p) const {
    return static_cast<uint64_t>(p) * (PageBytes() + 8);
  }

  /// The pool's view of this store: a page loads from its spill record
  /// (or starts value-initialized if it was never written back), dirty
  /// pages write their record back, and a failing fd gets reopened.
  typename PagePool::Client MakeClient() {
    typename PagePool::Client client;
    client.load = [this](const size_t& p) -> Result<PagePtr> {
      auto page = std::make_shared<std::vector<V>>(values_per_page_);
      if (on_disk_[p]) {
        ARIADNE_RETURN_NOT_OK(recovery::CheckFaultPoint("vstate-page-read"));
        ARIADNE_RETURN_NOT_OK(ReadRecordOnce(p, page->data()));
        page_faults_.fetch_add(1, std::memory_order_relaxed);
      }
      return page;
    };
    client.charge = [this](const size_t&, const std::vector<V>&) {
      return PageBytes();
    };
    client.write_back = [this](const size_t& p, const std::vector<V>& page) {
      ARIADNE_RETURN_NOT_OK(recovery::CheckFaultPoint("vstate-page-write"));
      ARIADNE_RETURN_NOT_OK(WriteRecordOnce(p, page.data()));
      on_disk_[p] = 1;  // under the pool lock; loads of p follow it
      return Status::OK();
    };
    client.reopen = [this] { return ReopenSpill(); };
    return client;  // default RetryPolicy: the ladder of DESIGN.md §2.8
  }

  /// One pread+checksum attempt of page `p`'s spill record.
  Status ReadRecordOnce(size_t p, V* data) {
    if constexpr (!std::is_trivially_copyable_v<V>) {
      return Status::Unsupported("vertex value type cannot be paged");
    } else {
      const size_t rec = PageBytes() + 8;
      std::string raw(rec, '\0');
      size_t got = 0;
      while (got < rec) {
        const ssize_t r =
            ::pread(fd_, raw.data() + got, rec - got, RecordOffset(p) + got);
        if (r < 0) {
          if (errno == EINTR) continue;
          return Status::IOError("pread failed on vertex-state spill " +
                                 spill_path_ + ": " + std::strerror(errno));
        }
        if (r == 0) {
          return Status::IOError("vertex-state spill truncated at page " +
                                 std::to_string(p) + " in " + spill_path_);
        }
        got += static_cast<size_t>(r);
      }
      uint64_t want;
      std::memcpy(&want, raw.data() + PageBytes(), 8);
      if (storage::Checksum64({raw.data(), PageBytes()}) != want) {
        return Status::ParseError("vertex-state page " + std::to_string(p) +
                                  " checksum mismatch in " + spill_path_);
      }
      std::memcpy(data, raw.data(), PageBytes());
      return Status::OK();
    }
  }

  /// One pwrite attempt of page `p`'s spill record.
  Status WriteRecordOnce(size_t p, const V* data) {
    if constexpr (!std::is_trivially_copyable_v<V>) {
      return Status::Unsupported("vertex value type cannot be paged");
    } else {
      std::string raw(PageBytes() + 8, '\0');
      std::memcpy(raw.data(), data, PageBytes());
      const uint64_t sum = storage::Checksum64({raw.data(), PageBytes()});
      std::memcpy(raw.data() + PageBytes(), &sum, 8);
      size_t put = 0;
      while (put < raw.size()) {
        const ssize_t w = ::pwrite(fd_, raw.data() + put, raw.size() - put,
                                   RecordOffset(p) + put);
        if (w < 0) {
          if (errno == EINTR) continue;
          return Status::IOError("pwrite failed on vertex-state spill " +
                                 spill_path_ + ": " + std::strerror(errno));
        }
        put += static_cast<size_t>(w);
      }
      return Status::OK();
    }
  }

  /// The pool's recovery step before an error goes sticky: reopens the
  /// spill file and retargets fd_ via dup2 (atomic for concurrent
  /// preads). Validates the new descriptor with fstat — the scratch file
  /// has no magic; its records are individually checksummed anyway.
  Status ReopenSpill() {
    std::lock_guard<std::mutex> lock(reopen_mu_);
    const int fd = ::open(spill_path_.c_str(), O_RDWR);
    if (fd < 0) {
      return Status::IOError("reopen failed for vertex-state spill " +
                             spill_path_ + ": " + std::strerror(errno));
    }
    struct stat st;
    if (::fstat(fd, &st) != 0 || ::dup2(fd, fd_) < 0) {
      const Status failed =
          Status::IOError("revalidating reopened vertex-state spill " +
                          spill_path_ + ": " + std::strerror(errno));
      ::close(fd);
      return failed;
    }
    ::close(fd);
    return Status::OK();
  }

  void Close() {
    if (!paged_) return;
    pool_.reset();  // joins the prefetch thread before fd_ goes
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
      std::remove(spill_path_.c_str());
    }
    on_disk_.clear();
    paged_ = false;
  }

  size_t n_ = 0;
  std::vector<V> flat_;

  // Paged-mode state.
  bool paged_ = false;
  std::string spill_path_;
  size_t budget_bytes_ = 0;
  size_t values_per_page_ = 0;  // power of two; set by Reset
  size_t page_shift_ = 0;
  size_t num_pages_ = 0;
  int fd_ = -1;
  /// Serializes ReopenSpill so concurrently failing pages don't race
  /// dup2 swaps of fd_.
  std::mutex reopen_mu_;
  /// Per page: a spill record exists. Written by write-backs (under the
  /// pool lock), read by loads of the same page, which the pool orders
  /// after them.
  std::vector<uint8_t> on_disk_;
  /// Spill records read back (demand or prefetch).
  std::atomic<uint64_t> page_faults_{0};
  /// Served to windows after a sticky error (values are garbage by then;
  /// the run fails at the barrier before anything is reported).
  std::vector<V> scratch_;
  std::unique_ptr<PagePool> pool_;
};

}  // namespace ariadne

#endif  // ARIADNE_ENGINE_VERTEX_STATE_H_
