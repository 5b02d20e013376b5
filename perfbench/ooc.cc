// Workload `ooc`: PageRank as a baseline only, on the paged graph backend
// with paged vertex state, each under a quarter of its footprint. The
// graph-fragment and vertex-state page caches do the extra work;
// provenance, PQL and the server do nothing.

#include <malloc.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "core/ariadne.h"
#include "graph/paged_backend.h"

namespace perfbench {
namespace {

using namespace ariadne;

constexpr size_t kEngineThreads = 3;
constexpr int kIterations = 20;
constexpr double kBudgetFraction = 0.25;

/// Session::RunBaseline, call for call, with spans (the traced run).
Result<RunStats> TracedBaseline(Run& run, const Graph& graph,
                                const EngineOptions& options,
                                std::vector<double>* values) {
  Tracer& tracer = run.tracer();
  PageRankProgram pagerank({.iterations = kIterations});
  Engine<double, double> engine(&graph, options);
  RunStats stats;
  {
    auto span = tracer.Span("engine.run");
    ARIADNE_ASSIGN_OR_RETURN(stats, engine.Run(pagerank));
    AddSuperstepSpans(run, stats, span.id(), span.start_us(),
                      "paged_supersteps");
  }
  auto span = tracer.Span("engine.copy_values");
  ARIADNE_RETURN_NOT_OK(engine.CopyValuesTo(values));
  return stats;
}

}  // namespace

void RunOoc(Run& run) {
  // Every paged run starts fresh engine threads, and glibc gives new
  // threads new malloc arenas (up to 8 per core), each keeping freed
  // memory: over a run's ~60 paged runs the peak RSS drifted up by half,
  // differently in every process. Two arenas keep the peak a property of
  // the budgets; the paged run time did not change (320 vs 318 ms).
  mallopt(M_ARENA_MAX, 2);
  const bool traced = run.options().trace;
  Tracer& tracer = run.tracer();
  const int scale = run.smoke() ? 10 : 16;
  const std::string path = run.work_dir() + "/graph.agp";

  // ---- set-up: graph generation and the AGP1 spill file ----
  auto graph = std::make_unique<Graph>();
  std::vector<double> setup_samples, generate_samples;
  for (int i = 0; i < kSetupReps; ++i) {
    setup_samples.push_back(Timed([&] {
      generate_samples.push_back(Timed([&] {
        auto span = tracer.Span("graph.generate");
        auto g = GenerateRmat(
            {.scale = scale, .avg_degree = 16, .seed = run.options().seed});
        if (run.Check(g.ok(), "GenerateRmat")) *graph = std::move(*g);
      }));
      auto span = tracer.Span("graph.create_spill");
      run.Check(PagedBackend::CreateFrom(*graph, path).ok(),
                "PagedBackend::CreateFrom");
    }));
  }
  RecordSetup(run, setup_samples);
  run.Layer("graph.generate_s", Median(generate_samples));
  const VertexId num_vertices = graph->num_vertices();
  run.Fact("graph_vertices", static_cast<double>(num_vertices));
  run.Fact("graph_edges", static_cast<double>(graph->num_edges()));
  run.Fact("threads_engine", static_cast<double>(kEngineThreads));
  run.Fact("pagerank_iterations", kIterations);

  // ---- reference: the in-memory run the paged runs must equal ----
  SessionOptions memory_options;
  memory_options.engine.num_threads = kEngineThreads;
  std::vector<double> reference;
  std::vector<double> memory_samples;
  for (int i = 0; i < 3; ++i) {
    Session session(graph.get(), memory_options);
    PageRankProgram pagerank({.iterations = kIterations});
    std::vector<double> values;
    Result<RunStats> stats = Status::Internal("not run");
    memory_samples.push_back(
        Timed([&] { stats = session.RunBaseline(pagerank, &values); }));
    if (run.Check(stats.ok(), "in-memory RunBaseline")) {
      if (reference.empty()) {
        reference = values;
        run.Digest("values", Fnv1a(ValueBytes(values)));
      }
      run.Check(values == reference, "in-memory values differ between runs");
    }
  }
  run.Layer("baseline_s", Median(memory_samples));
  graph.reset();  // paged runs must not be charged for the resident CSR

  uint64_t footprint = 0;
  {
    auto probe = PagedBackend::Open(path);
    if (!run.Check(probe.ok(), "PagedBackend::Open")) return;
    footprint = (*probe)->backend_stats().footprint_bytes;
  }
  PagedBackendOptions graph_options;
  graph_options.budget_bytes =
      static_cast<size_t>(static_cast<double>(footprint) * kBudgetFraction);
  SessionOptions paged_options;
  paged_options.engine.num_threads = kEngineThreads;
  paged_options.engine.paged_vertex_state = true;
  paged_options.engine.vertex_state_budget_bytes = static_cast<size_t>(
      static_cast<double>(num_vertices) * sizeof(double) * kBudgetFraction);
  paged_options.engine.vertex_state_dir = run.work_dir();
  run.Fact("graph_footprint_bytes", static_cast<double>(footprint));
  run.Fact("graph_budget_bytes", static_cast<double>(graph_options.budget_bytes));
  run.Fact("vstate_budget_bytes",
           static_cast<double>(paged_options.engine.vertex_state_budget_bytes));

  // ---- measured: paged runs, each on a freshly opened backend ----
  std::vector<double> samples, traced_samples, rss_samples;
  RunStats last;
  double measured = 0;
  const int min_reps = 2;
  for (int rep = 0;; ++rep) {
    const size_t done = samples.size() + traced_samples.size();
    const double estimate = done == 0 ? 0 : measured / static_cast<double>(done);
    const bool need_more =
        static_cast<int>(samples.size()) < min_reps ||
        (traced && static_cast<int>(traced_samples.size()) < min_reps);
    if ((!need_more && measured + estimate > run.options().seconds) ||
        rep > 10000) {
      break;
    }
    const bool with_spans = traced && rep % 2 == 0;
    ResetPeakRss();
    std::vector<double> values;
    Result<RunStats> stats = Status::Internal("not run");
    double seconds = 0;
    if (with_spans) {
      auto root = tracer.Span("bench.paged_run", -1, rep);
      const double start = tracer.NowUs();
      Result<std::unique_ptr<PagedBackend>> paged =
          Status::Internal("not opened");
      {
        auto span = tracer.Span("graph.open");
        paged = PagedBackend::Open(path, graph_options);
      }
      if (paged.ok()) {
        stats = TracedBaseline(run, **paged, paged_options.engine, &values);
        auto span = tracer.Span("graph.close");
        paged->reset();
      } else {
        stats = paged.status();
      }
      seconds = (tracer.NowUs() - start) * 1e-6;
    } else {
      seconds = Timed([&] {
        auto paged = PagedBackend::Open(path, graph_options);
        if (!paged.ok()) {
          stats = paged.status();
          return;
        }
        Session session(paged->get(), paged_options);
        PageRankProgram pagerank({.iterations = kIterations});
        stats = session.RunBaseline(pagerank, &values);
      });
    }
    const double rss = PeakRssMb();
    bool ok = run.Check(stats.ok(), "paged run: " + stats.status().ToString());
    ok = ok && run.Check(ValueBytes(values) == ValueBytes(reference),
                         "paged values differ from the in-memory run");
    run.CountOp(ok);
    if (!ok) break;
    json::JsonObject row;
    row.Set("traced", with_spans).Set("seconds", seconds).Set("peak_rss_mb", rss);
    run.Row("ops", row.Dump());
    measured += seconds;
    last = *stats;
    (with_spans ? traced_samples : samples).push_back(seconds);
    if (!with_spans) rss_samples.push_back(rss);
  }

  run.EndToEnd("op_p50_ms", Median(samples) * 1e3);
  // The median over runs of each run's own peak: the paged runs are many
  // and short, and a maximum over them follows the rare outlier.
  run.EndToEnd("peak_rss_mb", Median(rss_samples));

  const GraphBackendStats& g = last.graph_backend;
  run.Layer("graph.partition_faults", static_cast<double>(g.partition_faults));
  run.Layer("graph.cache_hit_rate",
            g.cache_hits + g.partition_faults > 0
                ? static_cast<double>(g.cache_hits) /
                      static_cast<double>(g.cache_hits + g.partition_faults)
                : 0.0);
  run.Layer("graph.evictions", static_cast<double>(g.evictions));
  run.Layer("graph.prefetch_loads", static_cast<double>(g.prefetch_loads));
  run.Layer("vstate.page_faults",
            static_cast<double>(last.vertex_state.page_faults));
  run.Layer("vstate.evictions", static_cast<double>(last.vertex_state.evictions));
  run.Layer("vstate.writebacks",
            static_cast<double>(last.vertex_state.writebacks));
  run.Layer("engine.compute_s", last.compute_seconds);
  run.Layer("engine.merge_s", last.merge_seconds);
  run.Layer("engine.rebuild_s", last.rebuild_seconds);
  run.Layer("engine.msgs_per_s",
            last.seconds > 0 ? static_cast<double>(last.total_messages) /
                                   last.seconds
                             : 0.0);
  if (traced) {
    run.Layer("trace.overhead_frac",
              Median(samples) > 0
                  ? Median(traced_samples) / Median(samples) - 1
                  : 0.0);
  }
  run.Fact("paged_reps", static_cast<double>(samples.size()));
  json::JsonObject row;
  row.Set("in_memory_s", Median(memory_samples))
      .Set("paged_s", Median(samples))
      .Set("slowdown", Median(memory_samples) > 0
                           ? Median(samples) / Median(memory_samples)
                           : 0.0);
  run.Row("paged_vs_memory", row.Dump());
}

}  // namespace perfbench
