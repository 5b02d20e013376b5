#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced runs. Spans are taken
// around calls into the library's public functions from the benchmark's
// own code; nothing inside src/ is instrumented. A span's layer is the
// part of its name before the first '.', e.g. "storage.scan" belongs to
// the storage layer. Spans named "bench.*" are roots: one per measured
// request (a capture, a query, a served request, a paged run). They are
// not a layer, so the share of root time that no layer span covers is the
// unattributed time of the sum-to-total check.

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< a string literal: recording must stay cheap
  int64_t id = 0;
  int64_t parent = -1;   ///< enclosing span on the same thread, or -1
  int64_t request = -1;  ///< shared by the spans of one request
  int step = -1;         ///< provenance layer (superstep) index, or -1
  int tid = 0;           ///< small per-thread id: one trace track each
  double start_us = 0;   ///< microseconds since the tracer was created
  double end_us = 0;
  bool synthetic = false;  ///< rebuilt from a stats struct, not timed here
};

/// Per-layer totals derived from the recorded spans.
struct LayerTotals {
  std::string layer;
  double self_s = 0;  ///< span time minus the part its child spans cover
  int64_t spans = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Times one span on the calling thread; nests under the thread's
  /// innermost open span. Does nothing when tracing is off.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, int step, int64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    int64_t id() const { return id_; }
    double start_us() const { return start_us_; }

   private:
    Tracer* tracer_;
    const char* name_;
    int step_;
    int64_t request_;
    int64_t id_ = -1;
    int64_t parent_ = -1;
    double start_us_ = 0;
  };

  Scope Span(const char* name, int step = -1, int64_t request = -1) {
    return Scope(this, name, step, request);
  }

  /// Records a span whose interval the caller reconstructed (per-superstep
  /// phases from RunStats, server queue/exec times from a response).
  /// `tid` < 0 puts it on the calling thread's track. Returns its id.
  int64_t AddSynthetic(const char* name, int64_t parent,
                       int64_t request, int step, double start_us,
                       double end_us, int tid = -1);

  double NowUs() const;

  std::vector<SpanRecord> spans() const;

  /// Share of the time covered by "bench.*" root spans that no other span
  /// covers (0 when there are no roots).
  double UnattributedFraction() const;

  /// Self time per layer, by layer name.
  std::vector<LayerTotals> SelfTimeByLayer() const;

  /// Writes the spans as Chrome trace-event JSON (Perfetto and
  /// chrome://tracing open it offline). Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& process_name) const;

 private:
  int ThreadId();

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  int64_t next_id_ = 0;
  int next_tid_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
