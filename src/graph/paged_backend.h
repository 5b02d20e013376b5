#ifndef ARIADNE_GRAPH_PAGED_BACKEND_H_
#define ARIADNE_GRAPH_PAGED_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/retry.h"
#include "common/status.h"
#include "graph/graph.h"
#include "storage/buffer_pool.h"

namespace ariadne {

/// Options of an opened paged backend.
struct PagedBackendOptions {
  /// Byte budget for decoded partition fragments (the topology share of
  /// the unified memory budget, storage/memory_budget.h). The budget is
  /// soft at the single-fragment level: one fragment is always allowed to
  /// be resident even if it alone exceeds the budget (the buffer pool's
  /// jumbo rule, storage/buffer_pool.h).
  size_t budget_bytes = 64ull << 20;
  /// Transient-read retry ladder (DESIGN.md §2.8). A partition read that
  /// exhausts it gets one reopen-and-revalidate of the spill fd before
  /// the error goes sticky.
  RetryPolicy io_retry;
};

/// Out-of-core graph backend (DESIGN.md §2.7): CSR topology cut into
/// contiguous vertex partitions, each serialized as one checksummed
/// "checked frame" (storage/page.h) in an AGP1 spill file, faulted into a
/// decoded-fragment cache under a byte budget. The cache is a
/// storage::BufferPool (LRU eviction, in-flight dedup, the prefetch
/// thread, the retry ladder); this class keeps the AGP1 format and the
/// lease fast path.
///
/// Topology is immutable, so there is no dirty state and eviction is
/// always safe: the pool holds shared_ptr fragments, eviction drops only
/// the pool's reference, and readers keep their fragment alive through a
/// per-thread two-slot lease (slot = partition parity), so the spans
/// returned by the adjacency accessors stay valid until the calling
/// thread touches a third distinct partition. Every engine/eval access
/// pattern is (at worst) two adjacent partitions per thread at a time.
///
/// Determinism: paging changes only *where* topology bytes live, never
/// their content or iteration order — adjacency per vertex is the same
/// (neighbor, weight)-sorted sequence Graph::FromEdges produces, so
/// vertex values and captured provenance are byte-identical to the
/// in-memory backend for any thread count or budget
/// (graph_backend_test.cc).
class PagedBackend final : public Graph {
 public:
  /// Writes `graph` to an AGP1 spill file at `path`, `vertices_per_partition`
  /// vertices per partition frame (0 picks a default targeting ~4 MiB
  /// decoded fragments).
  static Status CreateFrom(const Graph& graph, const std::string& path,
                           VertexId vertices_per_partition = 0);

  /// Streams a whitespace `src dst [weight]` edge-list text file into an
  /// AGP1 spill file at `path` WITHOUT materializing the graph: pass 1
  /// finds the vertex/edge counts, pass 2 scatters edges into per-partition
  /// bucket temp files (`path` + ".bucket.*", removed on success), pass 3
  /// builds one partition fragment at a time. Peak memory is O(one
  /// partition), so graphs larger than RAM can be prepared for paged runs.
  static Status BuildFromEdgeList(const std::string& edge_list_path,
                                  const std::string& path,
                                  VertexId vertices_per_partition = 0,
                                  VertexId num_vertices_hint = 0);

  /// Opens an AGP1 spill file. The returned backend is self-contained
  /// (owns its fd and fragment pool) and is used wherever a `const
  /// Graph&` is expected. Frames are checksummed on first load; call
  /// VerifyAllPartitions to check the whole file up front.
  static Result<std::unique_ptr<PagedBackend>> Open(
      const std::string& path, PagedBackendOptions options = {});

  ~PagedBackend() override;
  PagedBackend(const PagedBackend&) = delete;
  PagedBackend& operator=(const PagedBackend&) = delete;

  // ---- Graph backend surface ----

  int64_t OutDegree(VertexId v) const override;
  int64_t InDegree(VertexId v) const override;
  std::span<const VertexId> OutNeighbors(VertexId v) const override;
  std::span<const double> OutWeights(VertexId v) const override;
  std::span<const VertexId> InNeighbors(VertexId v) const override;
  std::span<const double> InWeights(VertexId v) const override;

  const char* backend_name() const override { return "paged"; }
  bool paged() const override { return true; }
  int num_partitions() const override {
    return static_cast<int>(directory_.size());
  }
  VertexId PartitionSpan() const override { return vertices_per_partition_; }
  void PrefetchVertexRange(VertexId first, VertexId last) const override;
  void AdviseSequentialScan(VertexId v) const override;
  Status backend_error() const override;
  GraphBackendStats backend_stats() const override;

  // ---- Paged-only surface ----

  /// Re-reads and checksum-verifies every frame of the spill file (the
  /// corruption test's probe; also --verify in tools).
  Status VerifyAllPartitions() const;

  /// Largest decoded fragment — the minimum budget that avoids rereading
  /// a partition within one sequential sweep (tools warn below this).
  size_t max_partition_bytes() const { return max_partition_bytes_; }

  const std::string& path() const { return path_; }

  /// Releases the calling thread's fragment leases (test hook; leases
  /// otherwise persist per thread so resident_bytes in tests would count
  /// fragments the cache already evicted).
  static void ReleaseThreadLeases();

 private:
  /// One resident partition: a zero-copy CSR view over the raw frame
  /// payload (one uninitialized 8-aligned buffer filled by a single
  /// pread), offsets rebased to the partition (out_offsets[0] == 0).
  /// Every array element is 8 bytes (VertexId = int64_t, double), so the
  /// six arrays stay naturally aligned at fixed offsets in the payload —
  /// faulting a partition is one read plus (first touch only) one
  /// checksum scan, with no per-array copies. Immutable once built.
  struct Fragment {
    VertexId first = 0;   ///< first vertex id of the partition
    VertexId count = 0;   ///< vertices in the partition
    size_t payload_bytes = 0;
    std::unique_ptr<char[]> payload;
    const int64_t* out_offsets = nullptr;  // count + 1
    const VertexId* out_dst = nullptr;
    const double* out_weight = nullptr;
    const int64_t* in_offsets = nullptr;  // count + 1
    const VertexId* in_src = nullptr;
    const double* in_weight = nullptr;
  };

  /// Write-side fragment being assembled by CreateFrom/BuildFromEdgeList
  /// before encoding; the read side never materializes these vectors.
  struct FragmentBuilder {
    VertexId first = 0;
    VertexId count = 0;
    std::vector<int64_t> out_offsets;  // count + 1
    std::vector<VertexId> out_dst;
    std::vector<double> out_weight;
    std::vector<int64_t> in_offsets;  // count + 1
    std::vector<VertexId> in_src;
    std::vector<double> in_weight;
  };

  /// Directory entry of one partition frame in the spill file.
  struct PartitionEntry {
    uint64_t offset = 0;         ///< frame start (byte offset in file)
    uint64_t frame_bytes = 0;    ///< checked-frame length incl. overhead
    uint64_t decoded_bytes = 0;  ///< payload bytes; the residency charge
  };

  PagedBackend() = default;

  static std::string EncodeFragment(const FragmentBuilder& frag);
  /// Validates the payload header/sizes and builds the pointer view;
  /// takes ownership of the buffer.
  static Result<Fragment> DecodeFragment(std::unique_ptr<char[]> payload,
                                         size_t payload_bytes,
                                         VertexId expect_first,
                                         VertexId expect_count);
  static VertexId DefaultPartitionSpan(VertexId num_vertices,
                                       int64_t num_edges);

  int PartitionOf(VertexId v) const {
    return static_cast<int>(v / vertices_per_partition_);
  }

  /// The lease fast path: returns the fragment holding `v`, faulting it
  /// in through the pool on a lease miss (a lease hit never touches the
  /// pool). Returns nullptr only after a read error (sticky).
  const Fragment* Lease(VertexId v) const;

  /// One read + decode attempt of partition `p` (the pool's load step;
  /// it retries). The frame's checksum is verified only when
  /// `verify_checksum` is set: the spill file is opened read-only and
  /// immutable for the backend's lifetime, so each partition's first load
  /// verifies and reloads after eviction skip the digest.
  Result<std::shared_ptr<const Fragment>> ReadFragmentOnce(
      int p, bool verify_checksum) const;

  /// The pool's recovery step before a read error goes sticky: reopens the
  /// spill file, revalidates its footer magic, and atomically swaps the
  /// new descriptor onto fd_ (dup2), so concurrent preads never see a
  /// closed fd. Serialized by reopen_mu_.
  Status ReopenAndRevalidate() const;

  /// Queues partition `p` for the pool's prefetch thread.
  void PrefetchPartition(int p) const;

  std::string path_;
  int fd_ = -1;
  PagedBackendOptions options_;
  VertexId vertices_per_partition_ = 0;
  std::vector<PartitionEntry> directory_;
  size_t max_partition_bytes_ = 0;
  uint64_t instance_id_ = 0;  ///< tags thread-local lease slots

  /// Per-partition flag: frame checksum has been verified this session
  /// (first load, or VerifyAllPartitions).
  std::unique_ptr<std::atomic<uint8_t>[]> frame_verified_;
  /// Serializes reopen-and-revalidate so concurrently failing readers
  /// don't race dup2 swaps of fd_.
  mutable std::mutex reopen_mu_;
  std::unique_ptr<storage::BufferPool<int, const Fragment>> pool_;
  /// Last partition AdviseSequentialScan saw (cheap dedup of per-vertex
  /// hints down to one enqueue per partition crossing).
  mutable std::atomic<int64_t> last_advised_{-1};
};

}  // namespace ariadne

#endif  // ARIADNE_GRAPH_PAGED_BACKEND_H_
