#include "graph/paged_backend.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/serialize.h"
#include "common/string_util.h"
#include "recovery/fault_injector.h"
#include "storage/page.h"

namespace ariadne {

namespace {

// AGP1 spill file layout (all frames are storage::AppendCheckedFrame
// checked frames, so every region is length- and checksum-guarded):
//
//   [header frame][partition frame 0]...[partition frame P-1]
//   [directory frame][dir_offset u64][kFooterMagic u64]
//
// The 16-byte raw footer locates the directory; header and directory are
// read through ParseCheckedFrame, partition frames through ReadFragmentOnce
// (length prefix cross-checked against the checksummed directory, digest
// verified on each partition's first load).
constexpr uint32_t kAgpMagic = 0x31504741;  // "AGP1"
constexpr uint32_t kAgpVersion = 1;
constexpr uint64_t kFooterMagic = 0x31504741454e4441ull;  // "ADNEAGP1"

// Fragment payload: [count u64][out_edges u64][in_edges u64] then the six
// CSR arrays as raw little-endian 8-byte words (offsets rebased to the
// partition). Every element is 8 bytes, so after a size check the decoded
// fragment is a pointer view straight into the pread buffer — faulting a
// partition is one read (plus a first-touch checksum scan), never an
// array copy.
template <typename T>
void AppendArray(const std::vector<T>& v, std::string* out) {
  out->append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(T));
}

Status StatusFromErrno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

// pread exactly `n` bytes at `offset` (retrying short reads).
Status PreadAll(int fd, void* buf, size_t n, uint64_t offset,
                const std::string& path) {
  char* p = static_cast<char*>(buf);
  while (n > 0) {
    const ssize_t got = ::pread(fd, p, n, static_cast<off_t>(offset));
    if (got < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("pread failed on", path);
    }
    if (got == 0) {
      return Status::IOError("unexpected EOF at byte " +
                             std::to_string(offset) + " in " + path);
    }
    p += got;
    offset += static_cast<uint64_t>(got);
    n -= static_cast<size_t>(got);
  }
  return Status::OK();
}

/// Per-thread fragment lease: two direct-mapped slots (slot = partition
/// parity), so the current and next partition of a sequential sweep never
/// evict each other's lease. Slots are tagged with the backend's global
/// instance id — address reuse after a backend is destroyed can never
/// resurface a stale fragment. The hit path compares `v` against the
/// slot's cached vertex range, so repeat accesses cost two compares and
/// no division.
struct LeaseSlot {
  uint64_t instance = 0;
  int partition = -1;
  VertexId first = 0;  ///< vertex range [first, end) of the leased fragment
  VertexId end = 0;
  std::shared_ptr<const void> frag;  // type-erased Fragment keep-alive
  const void* raw = nullptr;
};
thread_local LeaseSlot g_lease_slots[2];

std::atomic<uint64_t> g_next_instance_id{1};

}  // namespace

std::string PagedBackend::EncodeFragment(const FragmentBuilder& frag) {
  std::string payload;
  const uint64_t count = static_cast<uint64_t>(frag.count);
  const uint64_t out_edges = frag.out_dst.size();
  const uint64_t in_edges = frag.in_src.size();
  payload.reserve(24 + (frag.out_offsets.size() + frag.in_offsets.size() +
                        out_edges + in_edges) *
                           8 +
                  (out_edges + in_edges) * 8);
  payload.append(reinterpret_cast<const char*>(&count), 8);
  payload.append(reinterpret_cast<const char*>(&out_edges), 8);
  payload.append(reinterpret_cast<const char*>(&in_edges), 8);
  AppendArray(frag.out_offsets, &payload);
  AppendArray(frag.out_dst, &payload);
  AppendArray(frag.out_weight, &payload);
  AppendArray(frag.in_offsets, &payload);
  AppendArray(frag.in_src, &payload);
  AppendArray(frag.in_weight, &payload);
  return payload;
}

Result<PagedBackend::Fragment> PagedBackend::DecodeFragment(
    std::unique_ptr<char[]> payload, size_t payload_bytes,
    VertexId expect_first, VertexId expect_count) {
  if (payload_bytes < 24) {
    return Status::ParseError("fragment payload shorter than its header");
  }
  uint64_t count, out_edges, in_edges;
  std::memcpy(&count, payload.get(), 8);
  std::memcpy(&out_edges, payload.get() + 8, 8);
  std::memcpy(&in_edges, payload.get() + 16, 8);
  if (count != static_cast<uint64_t>(expect_count)) {
    return Status::ParseError("fragment vertex count " +
                              std::to_string(count) + " != directory count " +
                              std::to_string(expect_count));
  }
  // Every array element is 8 bytes, so the payload size is fully
  // determined by the header: any truncation or trailing garbage shows up
  // as a size mismatch before a single pointer is formed.
  const uint64_t max_words = payload_bytes / 8;
  if (out_edges > max_words || in_edges > max_words ||
      24 + (count + 1) * 16 + (out_edges + in_edges) * 16 != payload_bytes) {
    return Status::ParseError("fragment payload size does not match its "
                              "header counts");
  }
  Fragment frag;
  frag.first = expect_first;
  frag.count = expect_count;
  frag.payload_bytes = payload_bytes;
  frag.payload = std::move(payload);
  const char* base = frag.payload.get();
  // operator new[] storage is aligned for max_align_t and every section
  // offset below is a multiple of 8, so the reinterpret_casts are aligned.
  frag.out_offsets = reinterpret_cast<const int64_t*>(base + 24);
  frag.out_dst = reinterpret_cast<const VertexId*>(
      reinterpret_cast<const char*>(frag.out_offsets + count + 1));
  frag.out_weight = reinterpret_cast<const double*>(
      reinterpret_cast<const char*>(frag.out_dst + out_edges));
  frag.in_offsets = reinterpret_cast<const int64_t*>(
      reinterpret_cast<const char*>(frag.out_weight + out_edges));
  frag.in_src = reinterpret_cast<const VertexId*>(
      reinterpret_cast<const char*>(frag.in_offsets + count + 1));
  frag.in_weight = reinterpret_cast<const double*>(
      reinterpret_cast<const char*>(frag.in_src + in_edges));
  if (frag.out_offsets[0] != 0 ||
      frag.out_offsets[count] != static_cast<int64_t>(out_edges) ||
      frag.in_offsets[0] != 0 ||
      frag.in_offsets[count] != static_cast<int64_t>(in_edges)) {
    return Status::ParseError("fragment offsets do not cover edge arrays");
  }
  return frag;
}

VertexId PagedBackend::DefaultPartitionSpan(VertexId num_vertices,
                                            int64_t num_edges) {
  // Target ~4 MiB decoded fragments: per vertex 16 bytes of offsets plus
  // ~32 bytes per incident edge half (id + weight, both directions).
  const double per_vertex =
      16.0 + 32.0 * (num_vertices > 0
                         ? static_cast<double>(num_edges) /
                               static_cast<double>(num_vertices)
                         : 0.0);
  VertexId span = static_cast<VertexId>((4.0 * (1 << 20)) / per_vertex);
  span = std::max<VertexId>(span, 1024);
  return std::min(span, std::max<VertexId>(num_vertices, 1));
}

// ---- Creation ----

namespace {

/// Shared tail of CreateFrom/BuildFromEdgeList: streams header +
/// per-partition frames + directory + footer to `path`. `emit` is called
/// once per partition and must return the encoded fragment payload.
Status WriteAgpFile(
    const std::string& path, VertexId num_vertices, int64_t num_edges,
    VertexId span,
    const std::function<Result<std::string>(VertexId first, VertexId count)>&
        emit) {
  const int num_parts =
      num_vertices == 0
          ? 0
          : static_cast<int>((num_vertices + span - 1) / span);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for write: " + path);

  BinaryWriter header;
  header.WriteU32(kAgpMagic);
  header.WriteU32(kAgpVersion);
  header.WriteI64(num_vertices);
  header.WriteI64(num_edges);
  header.WriteI64(span);
  header.WriteI64(num_parts);
  std::string frame;
  storage::AppendCheckedFrame(header.data(), &frame);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  uint64_t offset = frame.size();

  BinaryWriter directory;
  directory.WriteU64(static_cast<uint64_t>(num_parts));
  for (int p = 0; p < num_parts; ++p) {
    const VertexId first = static_cast<VertexId>(p) * span;
    const VertexId count = std::min<VertexId>(span, num_vertices - first);
    ARIADNE_ASSIGN_OR_RETURN(std::string payload, emit(first, count));
    frame.clear();
    storage::AppendCheckedFrame(payload, &frame);
    out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
    directory.WriteU64(offset);
    directory.WriteU64(frame.size());
    directory.WriteU64(payload.size());
    offset += frame.size();
  }

  frame.clear();
  storage::AppendCheckedFrame(directory.data(), &frame);
  out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
  out.write(reinterpret_cast<const char*>(&offset), 8);
  out.write(reinterpret_cast<const char*>(&kFooterMagic), 8);
  out.flush();
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace

Status PagedBackend::CreateFrom(const Graph& graph, const std::string& path,
                                VertexId vertices_per_partition) {
  const VertexId n = graph.num_vertices();
  const VertexId span = vertices_per_partition > 0
                            ? vertices_per_partition
                            : DefaultPartitionSpan(n, graph.num_edges());
  return WriteAgpFile(
      path, n, graph.num_edges(), span,
      [&](VertexId first, VertexId count) -> Result<std::string> {
        FragmentBuilder frag;
        frag.first = first;
        frag.count = count;
        frag.out_offsets.assign(static_cast<size_t>(count) + 1, 0);
        frag.in_offsets.assign(static_cast<size_t>(count) + 1, 0);
        for (VertexId v = first; v < first + count; ++v) {
          const size_t local = static_cast<size_t>(v - first);
          auto od = graph.OutNeighbors(v);
          auto ow = graph.OutWeights(v);
          auto id = graph.InNeighbors(v);
          auto iw = graph.InWeights(v);
          frag.out_dst.insert(frag.out_dst.end(), od.begin(), od.end());
          frag.out_weight.insert(frag.out_weight.end(), ow.begin(), ow.end());
          frag.in_src.insert(frag.in_src.end(), id.begin(), id.end());
          frag.in_weight.insert(frag.in_weight.end(), iw.begin(), iw.end());
          frag.out_offsets[local + 1] =
              static_cast<int64_t>(frag.out_dst.size());
          frag.in_offsets[local + 1] = static_cast<int64_t>(frag.in_src.size());
        }
        return EncodeFragment(frag);
      });
}

Status PagedBackend::BuildFromEdgeList(const std::string& edge_list_path,
                                       const std::string& path,
                                       VertexId vertices_per_partition,
                                       VertexId num_vertices_hint) {
  // Pass 1: dimensions only (no per-edge state).
  VertexId max_vertex = num_vertices_hint - 1;
  int64_t num_edges = 0;
  {
    std::ifstream in(edge_list_path);
    if (!in) {
      return Status::IOError("cannot open edge list: " + edge_list_path);
    }
    std::string line;
    int64_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == '%') continue;
      std::istringstream ls{std::string(trimmed)};
      VertexId src, dst;
      if (!(ls >> src >> dst)) {
        return Status::ParseError(edge_list_path + ":" +
                                  std::to_string(lineno) +
                                  ": expected 'src dst [weight]'");
      }
      if (src < 0 || dst < 0) {
        return Status::ParseError(edge_list_path + ":" +
                                  std::to_string(lineno) +
                                  ": negative vertex id");
      }
      max_vertex = std::max(max_vertex, std::max(src, dst));
      ++num_edges;
    }
  }
  const VertexId n = max_vertex + 1;
  if (n <= 0) return Status::InvalidArgument("empty edge list");
  const VertexId span = vertices_per_partition > 0
                            ? vertices_per_partition
                            : DefaultPartitionSpan(n, num_edges);
  const int num_parts = static_cast<int>((n + span - 1) / span);

  // Pass 2: scatter each edge into the bucket files of the partitions
  // owning its endpoints (record: src, dst, weight, direction byte).
  // Memory stays O(1); disk holds ~2x the edge list transiently.
  struct BucketRecord {
    VertexId src;
    VertexId dst;
    double weight;
    uint8_t direction;  // 0 = out (owner = src), 1 = in (owner = dst)
  };
  std::vector<std::string> bucket_paths(static_cast<size_t>(num_parts));
  std::vector<std::unique_ptr<std::ofstream>> buckets;
  buckets.reserve(bucket_paths.size());
  auto cleanup_buckets = [&]() {
    buckets.clear();
    for (const std::string& bp : bucket_paths) {
      if (!bp.empty()) std::remove(bp.c_str());
    }
  };
  for (int p = 0; p < num_parts; ++p) {
    bucket_paths[static_cast<size_t>(p)] =
        path + ".bucket." + std::to_string(p);
    buckets.push_back(std::make_unique<std::ofstream>(
        bucket_paths[static_cast<size_t>(p)],
        std::ios::binary | std::ios::trunc));
    if (!*buckets.back()) {
      Status s = Status::IOError("cannot open bucket file: " +
                                 bucket_paths[static_cast<size_t>(p)]);
      cleanup_buckets();
      return s;
    }
  }
  {
    std::ifstream in(edge_list_path);
    if (!in) {
      cleanup_buckets();
      return Status::IOError("cannot reopen edge list: " + edge_list_path);
    }
    std::string line;
    while (std::getline(in, line)) {
      std::string_view trimmed = Trim(line);
      if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == '%') continue;
      std::istringstream ls{std::string(trimmed)};
      VertexId src, dst;
      double weight = 1.0;
      ls >> src >> dst >> weight;
      BucketRecord rec{src, dst, weight, 0};
      auto& ob = *buckets[static_cast<size_t>(src / span)];
      ob.write(reinterpret_cast<const char*>(&rec), sizeof(rec));
      rec.direction = 1;
      auto& ib = *buckets[static_cast<size_t>(dst / span)];
      ib.write(reinterpret_cast<const char*>(&rec), sizeof(rec));
    }
    for (auto& b : buckets) {
      b->flush();
      if (!*b) {
        cleanup_buckets();
        return Status::IOError("bucket write failed under " + path);
      }
    }
    buckets.clear();
  }

  // Pass 3: one partition at a time — sort its bucket, build the local
  // CSR with the same (neighbor, weight) order FromEdges guarantees.
  Status written = WriteAgpFile(
      path, n, num_edges, span,
      [&](VertexId first, VertexId count) -> Result<std::string> {
        const int p = static_cast<int>(first / span);
        ARIADNE_ASSIGN_OR_RETURN(
            std::string raw, ReadFile(bucket_paths[static_cast<size_t>(p)]));
        if (raw.size() % sizeof(BucketRecord) != 0) {
          return Status::ParseError("bucket file size not a record multiple");
        }
        const size_t num_recs = raw.size() / sizeof(BucketRecord);
        const BucketRecord* recs =
            reinterpret_cast<const BucketRecord*>(raw.data());
        FragmentBuilder frag;
        frag.first = first;
        frag.count = count;
        frag.out_offsets.assign(static_cast<size_t>(count) + 1, 0);
        frag.in_offsets.assign(static_cast<size_t>(count) + 1, 0);
        for (size_t i = 0; i < num_recs; ++i) {
          const BucketRecord& r = recs[i];
          if (r.direction == 0) {
            ++frag.out_offsets[r.src - first + 1];
          } else {
            ++frag.in_offsets[r.dst - first + 1];
          }
        }
        for (VertexId v = 0; v < count; ++v) {
          frag.out_offsets[v + 1] += frag.out_offsets[v];
          frag.in_offsets[v + 1] += frag.in_offsets[v];
        }
        frag.out_dst.resize(static_cast<size_t>(frag.out_offsets[count]));
        frag.out_weight.resize(frag.out_dst.size());
        frag.in_src.resize(static_cast<size_t>(frag.in_offsets[count]));
        frag.in_weight.resize(frag.in_src.size());
        std::vector<int64_t> out_cursor(frag.out_offsets.begin(),
                                        frag.out_offsets.end() - 1);
        std::vector<int64_t> in_cursor(frag.in_offsets.begin(),
                                       frag.in_offsets.end() - 1);
        for (size_t i = 0; i < num_recs; ++i) {
          const BucketRecord& r = recs[i];
          if (r.direction == 0) {
            const int64_t pos = out_cursor[r.src - first]++;
            frag.out_dst[static_cast<size_t>(pos)] = r.dst;
            frag.out_weight[static_cast<size_t>(pos)] = r.weight;
          } else {
            const int64_t pos = in_cursor[r.dst - first]++;
            frag.in_src[static_cast<size_t>(pos)] = r.src;
            frag.in_weight[static_cast<size_t>(pos)] = r.weight;
          }
        }
        std::vector<std::pair<VertexId, double>> tmp;
        for (VertexId v = 0; v < count; ++v) {
          for (int pass = 0; pass < 2; ++pass) {
            auto& offs = pass == 0 ? frag.out_offsets : frag.in_offsets;
            auto& ids = pass == 0 ? frag.out_dst : frag.in_src;
            auto& ws = pass == 0 ? frag.out_weight : frag.in_weight;
            const int64_t b = offs[v], e = offs[v + 1];
            if (e - b < 2) continue;
            tmp.clear();
            for (int64_t i = b; i < e; ++i) {
              tmp.emplace_back(ids[static_cast<size_t>(i)],
                               ws[static_cast<size_t>(i)]);
            }
            std::sort(tmp.begin(), tmp.end());
            for (int64_t i = b; i < e; ++i) {
              ids[static_cast<size_t>(i)] = tmp[static_cast<size_t>(i - b)].first;
              ws[static_cast<size_t>(i)] = tmp[static_cast<size_t>(i - b)].second;
            }
          }
        }
        return EncodeFragment(frag);
      });
  cleanup_buckets();
  return written;
}

// ---- Opening ----

Result<std::unique_ptr<PagedBackend>> PagedBackend::Open(
    const std::string& path, PagedBackendOptions options) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return StatusFromErrno("cannot open spill file", path);
  auto backend = std::unique_ptr<PagedBackend>(new PagedBackend());
  backend->path_ = path;
  backend->fd_ = fd;
  backend->options_ = options;
  backend->instance_id_ =
      g_next_instance_id.fetch_add(1, std::memory_order_relaxed);

  struct stat st;
  if (::fstat(fd, &st) != 0) return StatusFromErrno("fstat failed on", path);
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  if (file_size < 16) {
    return Status::ParseError("spill file too small for its footer: " + path);
  }
  char footer[16];
  ARIADNE_RETURN_NOT_OK(PreadAll(fd, footer, 16, file_size - 16, path));
  uint64_t dir_offset, magic;
  std::memcpy(&dir_offset, footer, 8);
  std::memcpy(&magic, footer + 8, 8);
  if (magic != kFooterMagic) {
    return Status::ParseError("bad footer magic in spill file: " + path);
  }
  if (dir_offset >= file_size - 16) {
    return Status::ParseError("directory offset out of range in " + path);
  }

  // Directory frame.
  std::string dir_raw(file_size - 16 - dir_offset, '\0');
  ARIADNE_RETURN_NOT_OK(
      PreadAll(fd, dir_raw.data(), dir_raw.size(), dir_offset, path));
  size_t off = 0;
  auto dir_payload = storage::ParseCheckedFrame(dir_raw, &off);
  if (!dir_payload.ok()) {
    return dir_payload.status().WithContext("directory of " + path);
  }
  BinaryReader dir(std::string(dir_payload.value()));
  ARIADNE_ASSIGN_OR_RETURN(uint64_t num_parts, dir.ReadU64());
  backend->directory_.resize(num_parts);
  for (uint64_t p = 0; p < num_parts; ++p) {
    PartitionEntry& e = backend->directory_[p];
    ARIADNE_ASSIGN_OR_RETURN(e.offset, dir.ReadU64());
    ARIADNE_ASSIGN_OR_RETURN(e.frame_bytes, dir.ReadU64());
    ARIADNE_ASSIGN_OR_RETURN(e.decoded_bytes, dir.ReadU64());
    if (e.offset + e.frame_bytes > dir_offset) {
      return Status::ParseError("partition " + std::to_string(p) +
                                " extends past the directory in " + path);
    }
    backend->max_partition_bytes_ =
        std::max(backend->max_partition_bytes_, size_t{e.decoded_bytes});
  }

  // Header frame.
  std::string head_raw(std::min<uint64_t>(dir_offset, 4096), '\0');
  ARIADNE_RETURN_NOT_OK(PreadAll(fd, head_raw.data(), head_raw.size(), 0,
                                 path));
  off = 0;
  auto head_payload = storage::ParseCheckedFrame(head_raw, &off);
  if (!head_payload.ok()) {
    return head_payload.status().WithContext("header of " + path);
  }
  BinaryReader head(std::string(head_payload.value()));
  ARIADNE_ASSIGN_OR_RETURN(uint32_t head_magic, head.ReadU32());
  ARIADNE_ASSIGN_OR_RETURN(uint32_t version, head.ReadU32());
  if (head_magic != kAgpMagic || version != kAgpVersion) {
    return Status::ParseError("bad header magic/version in " + path);
  }
  ARIADNE_ASSIGN_OR_RETURN(int64_t n, head.ReadI64());
  ARIADNE_ASSIGN_OR_RETURN(int64_t m, head.ReadI64());
  ARIADNE_ASSIGN_OR_RETURN(int64_t span, head.ReadI64());
  ARIADNE_ASSIGN_OR_RETURN(int64_t parts, head.ReadI64());
  if (span <= 0 || parts != static_cast<int64_t>(num_parts)) {
    return Status::ParseError("header/directory partition counts disagree in " +
                              path);
  }
  backend->SetCounts(n, m);
  backend->frame_verified_ =
      std::make_unique<std::atomic<uint8_t>[]>(num_parts);
  backend->vertices_per_partition_ = span;

  using FragmentPool = storage::BufferPool<int, const Fragment>;
  FragmentPool::Client client;
  const PagedBackend* b = backend.get();
  client.load = [b](const int& p) -> Result<std::shared_ptr<const Fragment>> {
    ARIADNE_RETURN_NOT_OK(recovery::CheckFaultPoint("graph-partition-read"));
    std::atomic<uint8_t>& verified = b->frame_verified_[p];
    ARIADNE_ASSIGN_OR_RETURN(
        auto frag,
        b->ReadFragmentOnce(p, verified.load(std::memory_order_relaxed) == 0));
    verified.store(1, std::memory_order_relaxed);
    return frag;
  };
  // Residency is charged with the directory's decoded_bytes — the same
  // figure footprint_bytes sums — so a budget equal to the footprint
  // really holds every partition (a per-fragment overhead surcharge here
  // once made a 100% budget thrash the whole file every sweep).
  client.charge = [b](const int& p, const Fragment&) {
    return static_cast<size_t>(
        b->directory_[static_cast<size_t>(p)].decoded_bytes);
  };
  client.reopen = [b] { return b->ReopenAndRevalidate(); };
  client.retry = options.io_retry;
  backend->pool_ =
      std::make_unique<FragmentPool>(options.budget_bytes, std::move(client));
  return backend;
}

PagedBackend::~PagedBackend() {
  pool_.reset();  // joins the prefetch thread, which reads through fd_
  if (fd_ >= 0) ::close(fd_);
}

// ---- Read path ----

Result<std::shared_ptr<const PagedBackend::Fragment>>
PagedBackend::ReadFragmentOnce(int p, bool verify_checksum) const {
  const PartitionEntry& e = directory_[static_cast<size_t>(p)];
  if (e.frame_bytes != e.decoded_bytes + storage::kCheckedFrameOverhead) {
    return Status::ParseError("directory frame/payload sizes disagree for "
                              "partition " + std::to_string(p) + " of " +
                              path_);
  }
  // Frame layout: [len u64][payload][Checksum64 u64]. The payload goes
  // straight into the fragment's own buffer (uninitialized, 8-aligned by
  // operator new[]) so a load is one big read with no staging copy; the
  // length prefix is cross-checked against the (itself checksummed)
  // directory, so prefix corruption is caught even on no-digest reloads.
  uint64_t len_prefix = 0, want_sum = 0;
  ARIADNE_RETURN_NOT_OK(PreadAll(fd_, &len_prefix, 8, e.offset, path_));
  if (len_prefix != e.decoded_bytes) {
    return Status::ParseError(
        "frame length prefix " + std::to_string(len_prefix) +
        " disagrees with the directory for partition " + std::to_string(p) +
        " of " + path_);
  }
  auto payload = std::unique_ptr<char[]>(new char[e.decoded_bytes]);
  ARIADNE_RETURN_NOT_OK(
      PreadAll(fd_, payload.get(), e.decoded_bytes, e.offset + 8, path_));
  if (verify_checksum) {
    ARIADNE_RETURN_NOT_OK(PreadAll(fd_, &want_sum, 8,
                                   e.offset + 8 + e.decoded_bytes, path_));
    if (storage::Checksum64({payload.get(), e.decoded_bytes}) != want_sum) {
      return Status::ParseError("frame checksum mismatch in partition " +
                                std::to_string(p) + " of " + path_);
    }
  }
  const VertexId first = static_cast<VertexId>(p) * vertices_per_partition_;
  const VertexId count =
      std::min(vertices_per_partition_, num_vertices() - first);
  auto frag =
      DecodeFragment(std::move(payload), e.decoded_bytes, first, count);
  if (!frag.ok()) {
    return frag.status().WithContext("partition " + std::to_string(p) +
                                     " of " + path_);
  }
  return std::make_shared<const Fragment>(std::move(frag).value());
}

Status PagedBackend::ReopenAndRevalidate() const {
  std::lock_guard<std::mutex> lock(reopen_mu_);
  const int fd = ::open(path_.c_str(), O_RDONLY);
  if (fd < 0) return StatusFromErrno("reopen failed for spill file", path_);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return StatusFromErrno("fstat failed after reopening", path_);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);
  char footer[16];
  uint64_t magic = 0;
  Status valid = file_size < 16
                     ? Status::ParseError("reopened spill file too small "
                                          "for its footer: " + path_)
                     : PreadAll(fd, footer, 16, file_size - 16, path_);
  if (valid.ok()) {
    std::memcpy(&magic, footer + 8, 8);
    if (magic != kFooterMagic) {
      valid = Status::ParseError("bad footer magic after reopening " + path_);
    }
  }
  if (!valid.ok()) {
    ::close(fd);
    return valid;
  }
  // dup2 retargets the existing descriptor number atomically, so readers
  // mid-pread on fd_ keep working (same immutable file either way).
  if (::dup2(fd, fd_) < 0) {
    ::close(fd);
    return StatusFromErrno("dup2 failed while reopening", path_);
  }
  ::close(fd);
  return Status::OK();
}

const PagedBackend::Fragment* PagedBackend::Lease(VertexId v) const {
  // Hit path: range-check both slots — no division, no lock.
  for (const LeaseSlot& slot : g_lease_slots) {
    if (slot.instance == instance_id_ && v >= slot.first && v < slot.end) {
      return static_cast<const Fragment*>(slot.raw);
    }
  }
  // Sticky error: once a load gave up, every lease miss fails fast.
  if (pool_->failed()) return nullptr;
  const int p = PartitionOf(v);
  auto loaded = pool_->Get(p);
  if (!loaded.ok()) return nullptr;
  std::shared_ptr<const Fragment> frag = std::move(loaded).value();
  LeaseSlot& slot = g_lease_slots[static_cast<size_t>(p) & 1];
  slot.instance = instance_id_;
  slot.partition = p;
  slot.first = frag->first;
  slot.end = frag->first + frag->count;
  slot.raw = frag.get();
  slot.frag = std::move(frag);
  return static_cast<const Fragment*>(slot.raw);
}

void PagedBackend::ReleaseThreadLeases() {
  for (LeaseSlot& slot : g_lease_slots) {
    slot = LeaseSlot{};
  }
}

int64_t PagedBackend::OutDegree(VertexId v) const {
  const Fragment* f = Lease(v);
  if (f == nullptr) return 0;
  const size_t local = static_cast<size_t>(v - f->first);
  return f->out_offsets[local + 1] - f->out_offsets[local];
}

int64_t PagedBackend::InDegree(VertexId v) const {
  const Fragment* f = Lease(v);
  if (f == nullptr) return 0;
  const size_t local = static_cast<size_t>(v - f->first);
  return f->in_offsets[local + 1] - f->in_offsets[local];
}

std::span<const VertexId> PagedBackend::OutNeighbors(VertexId v) const {
  const Fragment* f = Lease(v);
  if (f == nullptr) return {};
  const size_t local = static_cast<size_t>(v - f->first);
  return {f->out_dst + f->out_offsets[local],
          static_cast<size_t>(f->out_offsets[local + 1] -
                              f->out_offsets[local])};
}

std::span<const double> PagedBackend::OutWeights(VertexId v) const {
  const Fragment* f = Lease(v);
  if (f == nullptr) return {};
  const size_t local = static_cast<size_t>(v - f->first);
  return {f->out_weight + f->out_offsets[local],
          static_cast<size_t>(f->out_offsets[local + 1] -
                              f->out_offsets[local])};
}

std::span<const VertexId> PagedBackend::InNeighbors(VertexId v) const {
  const Fragment* f = Lease(v);
  if (f == nullptr) return {};
  const size_t local = static_cast<size_t>(v - f->first);
  return {f->in_src + f->in_offsets[local],
          static_cast<size_t>(f->in_offsets[local + 1] -
                              f->in_offsets[local])};
}

std::span<const double> PagedBackend::InWeights(VertexId v) const {
  const Fragment* f = Lease(v);
  if (f == nullptr) return {};
  const size_t local = static_cast<size_t>(v - f->first);
  return {f->in_weight + f->in_offsets[local],
          static_cast<size_t>(f->in_offsets[local + 1] -
                              f->in_offsets[local])};
}

Status PagedBackend::backend_error() const { return pool_->error(); }

GraphBackendStats PagedBackend::backend_stats() const {
  const storage::BufferPoolStats pool = pool_->stats();
  GraphBackendStats s;
  s.budget_bytes = pool_->budget();
  s.resident_bytes = pool.resident_bytes;
  for (const PartitionEntry& e : directory_) {
    s.footprint_bytes += e.decoded_bytes;
  }
  s.partition_faults = pool.loads;
  s.cache_hits = pool.hits;
  s.prefetch_loads = pool.prefetch_loads;
  s.prefetch_requests = pool.prefetch_requests;
  s.evictions = pool.evictions;
  s.max_partition_bytes = max_partition_bytes_;
  s.partitions = num_partitions();
  s.read_retries = pool.read_retries;
  s.fd_reopens = pool.reopens;
  s.gave_up = pool.gave_up;
  return s;
}

// ---- Prefetch ----

void PagedBackend::PrefetchPartition(int p) const {
  if (p < 0 || p >= num_partitions() || pool_->failed()) return;
  pool_->Prefetch(p);
}

void PagedBackend::PrefetchVertexRange(VertexId first, VertexId last) const {
  if (first < 0) first = 0;
  if (last >= num_vertices()) last = num_vertices() - 1;
  if (first > last) return;
  for (int p = PartitionOf(first); p <= PartitionOf(last); ++p) {
    PrefetchPartition(p);
  }
}

void PagedBackend::AdviseSequentialScan(VertexId v) const {
  // Only partition-boundary crossings matter; everything else is a cheap
  // early-out so callers may hint every vertex of a scan.
  if (v % vertices_per_partition_ != 0) return;
  const int64_t p = v / vertices_per_partition_;
  if (last_advised_.exchange(p, std::memory_order_relaxed) == p) return;
  PrefetchPartition(static_cast<int>(p + 1));
}

Status PagedBackend::VerifyAllPartitions() const {
  // The full-fidelity probe: re-reads and checksums every frame (which
  // also cross-checks the length prefix against the directory and
  // validates the decoded view).
  for (size_t p = 0; p < directory_.size(); ++p) {
    ARIADNE_RETURN_NOT_OK(
        ReadFragmentOnce(static_cast<int>(p), /*verify_checksum=*/true)
            .status());
  }
  for (size_t p = 0; p < directory_.size(); ++p) {
    frame_verified_[p].store(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

}  // namespace ariadne
