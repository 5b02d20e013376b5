// Workload `capture`: PageRank baseline, then full capture (Query 2) into
// a store that spills under a fixed provenance budget. The engine, the
// capture projection and the storage write path do nearly all the work;
// the PQL evaluator, layered evaluation and the server do none.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "core/ariadne.h"
#include "eval/online.h"

namespace perfbench {
namespace {

using namespace ariadne;

constexpr size_t kEngineThreads = 3;
constexpr int kFlushThreads = 1;
constexpr int kIterations = 20;
constexpr int kBaselineReps = 5;
/// Write-behind bound of the spilling store. The library's default
/// (256 MB) exceeds the 100 MB budget itself, and how much of it fills
/// depends on the race between engine and flusher, so peak RSS swung by
/// 40% between repetitions; 32 MB keeps the store near its budget.
constexpr size_t kMaxUnflushedBytes = size_t{32} << 20;

struct Shape {
  int scale;
  size_t budget_bytes;
};

Shape ShapeFor(const Run& run) {
  return run.smoke() ? Shape{8, size_t{256} << 10}
                     : Shape{14, size_t{100} << 20};
}

/// Session::Capture, call for call, with a span around each library call
/// (the traced run).
Result<RunStats> TracedCapture(Run& run, const Graph& graph,
                               const EngineOptions& engine_options,
                               const AnalyzedQuery& query,
                               ProvenanceStore* store,
                               std::vector<double>* values) {
  Tracer& tracer = run.tracer();
  {
    auto span = tracer.Span("pql.validate");
    ARIADNE_RETURN_NOT_OK(ValidateMode(query, EvalMode::kOnline));
  }
  PageRankProgram analytic({.iterations = kIterations});
  OnlineOptions online_options;
  online_options.store = store;
  OnlineProgram<PageRankProgram> program(&analytic, &query, &graph,
                                         online_options);
  Engine<double, OnlineMessage<double>> engine(&graph, engine_options);
  RunStats stats;
  {
    auto span = tracer.Span("engine.run");
    ARIADNE_ASSIGN_OR_RETURN(stats, engine.Run(program));
    AddSuperstepSpans(run, stats, span.id(), span.start_us(),
                      "capture_supersteps");
  }
  ARIADNE_RETURN_NOT_OK(program.status());
  {
    auto span = tracer.Span("storage.flush");
    ARIADNE_RETURN_NOT_OK(store->Flush());
  }
  {
    auto span = tracer.Span("engine.copy_values");
    ARIADNE_RETURN_NOT_OK(engine.CopyValuesTo(values));
  }
  return stats;
}

}  // namespace

void RunCapture(Run& run) {
  const Shape shape = ShapeFor(run);
  const bool traced = run.options().trace;
  Tracer& tracer = run.tracer();

  // ---- set-up: graph generation, repeated so setup_s is a median ----
  Graph graph;
  std::vector<double> setup_samples;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_samples.push_back(Timed([&] {
      auto span = tracer.Span("graph.generate");
      auto g = GenerateRmat({.scale = shape.scale,
                             .avg_degree = 16,
                             .seed = run.options().seed});
      if (run.Check(g.ok(), "GenerateRmat: " + g.status().ToString())) {
        graph = std::move(*g);
      }
    }));
  }
  RecordSetup(run, setup_samples);
  run.Layer("graph.generate_s", Median(setup_samples));
  run.Fact("graph_vertices", static_cast<double>(graph.num_vertices()));
  run.Fact("graph_edges", static_cast<double>(graph.num_edges()));
  run.Fact("threads_engine", static_cast<double>(kEngineThreads));
  run.Fact("threads_flush", kFlushThreads);
  run.Fact("provenance_budget_bytes", static_cast<double>(shape.budget_bytes));
  run.Fact("write_behind_bytes", static_cast<double>(kMaxUnflushedBytes));
  run.Fact("pagerank_iterations", kIterations);

  SessionOptions session_options;
  session_options.engine.num_threads = kEngineThreads;
  Session session(&graph, session_options);
  auto query = session.PrepareOnline(queries::CaptureFull());
  if (!run.Check(query.ok(), "prepare capture query")) return;

  // ---- baseline ----
  ResetPeakRss();
  std::vector<double> reference;
  std::vector<double> baseline_samples;
  RunStats baseline_stats;
  for (int i = 0; i < kBaselineReps; ++i) {
    PageRankProgram pagerank({.iterations = kIterations});
    std::vector<double> values;
    Result<RunStats> stats = Status::Internal("not run");
    const double seconds = Timed([&] {
      auto span = tracer.Span("engine.baseline");
      stats = session.RunBaseline(pagerank, &values);
    });
    bool ok = run.Check(stats.ok(), "RunBaseline: " + stats.status().ToString());
    if (ok) {
      baseline_samples.push_back(seconds);
      baseline_stats = *stats;
      if (reference.empty()) {
        reference = values;
        ok = run.Digest("values", Fnv1a(ValueBytes(values)));
      } else {
        ok = run.Check(values == reference,
                       "baseline values differ between repetitions");
      }
    }
    run.CountOp(ok);
  }
  const double baseline_s = Median(baseline_samples);
  run.Layer("baseline_s", baseline_s);
  run.Layer("engine.msgs_per_s",
            baseline_stats.seconds > 0
                ? static_cast<double>(baseline_stats.total_messages) /
                      baseline_stats.seconds
                : 0.0);

  if (traced) {
    // Thread scaling: the same baseline on one worker.
    SessionOptions one_worker = session_options;
    one_worker.engine.num_threads = 1;
    Session single(&graph, one_worker);
    std::vector<double> samples;
    for (int i = 0; i < 3; ++i) {
      PageRankProgram pagerank({.iterations = kIterations});
      samples.push_back(Timed([&] {
        auto span = tracer.Span("engine.baseline_1worker");
        run.Check(single.RunBaseline(pagerank).ok(), "1-worker baseline");
      }));
    }
    run.Layer("engine.scaling", baseline_s > 0 ? Median(samples) / baseline_s
                                               : 0.0);
  }

  // ---- captures ----
  // One repetition: a fresh spilling store, the capture and its final
  // flush timed, then the output checks.
  std::vector<double> capture_samples, traced_samples;
  double peak_rss = 0;
  RunStats capture_stats;
  storage::StorageStats storage_stats;
  int64_t tuples = -1;
  size_t bytes = 0;
  uint64_t compressed = 0;
  double measured = 0;
  int64_t request = 0;

  auto capture_rep = [&](bool spill, bool with_spans) -> double {
    const std::string dir =
        run.work_dir() + "/capture-" + std::to_string(request);
    std::filesystem::create_directories(dir);
    ProvenanceStore store;
    if (spill) {
      storage::LayerStoreOptions options;
      options.dir = dir;
      options.mem_budget_bytes = shape.budget_bytes;
      options.flush_threads = kFlushThreads;
      options.max_unflushed_bytes = kMaxUnflushedBytes;
      if (!run.Check(store.ConfigureStorage(options).ok(),
                     "ConfigureStorage")) {
        run.CountOp(false);
        return 0;
      }
    }
    std::vector<double> values;
    Result<RunStats> stats = Status::Internal("not run");
    double seconds = 0;
    if (with_spans) {
      auto root = tracer.Span(spill ? "bench.capture" : "bench.capture_mem",
                              -1, request);
      const double start = tracer.NowUs();
      stats = TracedCapture(run, graph, session_options.engine, *query,
                            &store, &values);
      seconds = (tracer.NowUs() - start) * 1e-6;
    } else {
      PageRankProgram pagerank({.iterations = kIterations});
      seconds = Timed([&] {
        stats = session.Capture(pagerank, *query, &store, 0, &values);
      });
    }
    const double rss = PeakRssMb();
    ++request;
    bool ok = run.Check(stats.ok(), "Capture: " + stats.status().ToString());
    ok = ok && run.Check(!stats->capture_degraded, "capture degraded");
    ok = ok && run.Check(values == reference,
                         "capture changed the analytic's final values");
    if (ok && spill) {
      capture_stats = *stats;
      storage_stats = store.storage_stats();
      ok = run.Check(store.SpilledLayerCount() > 0, "nothing spilled");
      if (tuples < 0) {
        tuples = store.TotalTuples();
        bytes = store.TotalBytes();
        compressed = storage_stats.compressed_bytes;
        // The APV2 image is the capture's output; digest it once per run.
        auto image = store.SerializeToString();
        ok = ok && run.Check(image.ok(), "SerializeToString") &&
             run.Digest("apv2_image", Fnv1a(*image));
        image = Status::Internal("released");
        ResetPeakRss();  // the check's memory is not the capture's
      } else {
        ok = ok && run.Check(store.TotalTuples() == tuples &&
                                 store.TotalBytes() == bytes &&
                                 storage_stats.compressed_bytes == compressed,
                             "capture size differs between repetitions");
      }
    }
    run.CountOp(ok);
    if (ok && spill) peak_rss = std::max(peak_rss, rss);
    if (!spill) ResetPeakRss();  // the unspilled store is not the workload's
    json::JsonObject row;
    row.Set("spill", spill).Set("traced", with_spans).Set("seconds", seconds)
        .Set("peak_rss_mb", rss);
    run.Row("ops", row.Dump());
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    return ok ? seconds : 0;
  };

  double capture_mem_s = 0;
  if (traced) capture_mem_s = capture_rep(/*spill=*/false, true);

  // Untraced runs time Session::Capture; traced runs alternate the
  // span-instrumented mirror with Session::Capture, which gives the
  // tracing overhead.
  const int min_reps = run.smoke() ? 1 : 2;
  for (int rep = 0;; ++rep) {
    const size_t done = capture_samples.size() + traced_samples.size();
    const double estimate =
        done == 0 ? 0 : measured / static_cast<double>(done);
    const bool need_more =
        static_cast<int>(capture_samples.size()) < min_reps ||
        (traced && static_cast<int>(traced_samples.size()) < min_reps);
    if (!need_more && measured + estimate > run.options().seconds) break;
    if (rep > 64) break;
    const bool with_spans = traced && rep % 2 == 0;
    const double seconds = capture_rep(/*spill=*/true, with_spans);
    if (seconds <= 0) break;
    measured += seconds;
    (with_spans ? traced_samples : capture_samples).push_back(seconds);
  }

  const double capture_s = Median(capture_samples);
  run.EndToEnd("op_p50_ms", capture_s * 1e3);
  run.EndToEnd("peak_rss_mb", peak_rss);

  run.Layer("capture_s", capture_s);
  run.Layer("spill_bytes_per_tuple",
            tuples > 0 ? static_cast<double>(compressed) /
                             static_cast<double>(tuples)
                       : 0.0);
  run.Layer("engine.compute_s",
            baseline_stats.compute_seconds + capture_stats.compute_seconds);
  run.Layer("engine.merge_s",
            baseline_stats.merge_seconds + capture_stats.merge_seconds);
  run.Layer("engine.rebuild_s",
            baseline_stats.rebuild_seconds + capture_stats.rebuild_seconds);
  run.Layer("provenance.tuples", static_cast<double>(tuples));
  run.Layer("provenance.bytes", static_cast<double>(bytes));
  run.Layer("provenance.capture_overhead",
            baseline_s > 0 ? capture_s / baseline_s : 0.0);
  run.Layer("storage.flush_s", storage_stats.flush_seconds);
  run.Layer("storage.pages_written",
            static_cast<double>(storage_stats.pages_written));
  run.Layer("storage.compression_ratio", storage_stats.CompressionRatio());
  if (traced) {
    run.Layer("provenance.capture_mem_s", capture_mem_s);
    run.Layer("provenance.projection_s", capture_mem_s - baseline_s);
    run.Layer("storage.spill_s", capture_s - capture_mem_s);
    run.Layer("trace.overhead_frac",
              capture_s > 0 ? Median(traced_samples) / capture_s - 1 : 0.0);
  }
  run.Fact("store_tuples", static_cast<double>(tuples));
  run.Fact("store_bytes", static_cast<double>(bytes));
  run.Fact("store_compressed_bytes", static_cast<double>(compressed));
  run.Fact("store_layers", static_cast<double>(capture_stats.supersteps));
  run.Fact("baseline_reps", static_cast<double>(baseline_samples.size()));
  run.Fact("capture_reps", static_cast<double>(capture_samples.size()));
  json::JsonObject base;
  base.Set("baseline_s", baseline_s)
      .Set("capture_s", capture_s)
      .Set("capture_overhead", baseline_s > 0 ? capture_s / baseline_s : 0.0);
  run.Row("capture_overhead", base.Dump());
}

}  // namespace perfbench
