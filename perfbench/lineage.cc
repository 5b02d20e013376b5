// Workload `lineage`: one closed-loop client runs one-shot layered queries
// (Session::RunOffline, kLayered) back to back over an SSSP full-capture
// store that spills under a budget of a quarter of its decoded bytes. The
// storage read path, view building and per-layer rule evaluation do the
// work; the engine and the capture projection do nothing.

#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "core/ariadne.h"
#include "eval/layered_step.h"
#include "graph/stats.h"
#include "queries.h"

namespace perfbench {
namespace {

using namespace ariadne;

constexpr size_t kCaptureThreads = 3;
constexpr int kPerKind = 3;
/// SSSP runs this many supersteps for the store. Its first supersteps
/// hold nearly the same number of tuples on every R-MAT seed, while the
/// length of its tail does not, and every layered query steps through
/// every layer: uncapped, the store (and each query's cost) varies by a
/// third from seed to seed.
constexpr int kStoreSupersteps = 5;

/// Per provenance layer totals of the traced queries.
struct LayerRow {
  double scan_s = 0, view_s = 0, step_s = 0;
  int64_t slices = 0;  ///< (vertex, relation) slices read
  int64_t queries = 0;
};

struct TracedTotals {
  std::vector<double> prepare_ms;
  std::map<int, LayerRow> layers;
};

double Since(const Tracer& tracer, double start_us) {
  return (tracer.NowUs() - start_us) * 1e-6;
}

/// LayeredEvaluator::Run (eval/layered.cc), call for call, with a span
/// around each library call; preceded by the query's PrepareOffline.
Result<OfflineRun> TracedQuery(Run& run, const Session& session,
                               const ProvenanceStore& store,
                               const QuerySpec& spec, int64_t request,
                               TracedTotals* totals) {
  Tracer& tracer = run.tracer();
  const double prepare_start = tracer.NowUs();
  Result<AnalyzedQuery> query = Status::Internal("not prepared");
  {
    auto span = tracer.Span("pql.prepare", -1, request);
    query = session.PrepareOffline(spec.text, store, spec.params);
  }
  totals->prepare_ms.push_back(Since(tracer, prepare_start) * 1e3);
  ARIADNE_RETURN_NOT_OK(query.status());

  const double eval_start = tracer.NowUs();
  auto init_span = std::make_unique<Tracer::Scope>(&tracer, "eval.init", -1,
                                                   request);
  auto layered_run =
      std::make_unique<LayeredQueryRun>(&session.graph(), &store, &*query);
  LayeredQueryRun& layered = *layered_run;
  ARIADNE_RETURN_NOT_OK(layered.Init());
  const int send_rel = store.RelId("send-message");
  const int receive_rel = store.RelId("receive-message");
  init_span.reset();
  while (!layered.done()) {
    const int step = layered.NextLayerStep();
    LayerRow& row = totals->layers[step];
    ++row.queries;
    std::shared_ptr<const Layer> layer;
    double t = tracer.NowUs();
    {
      auto span = tracer.Span("storage.scan", step, request);
      ARIADNE_ASSIGN_OR_RETURN(
          layer, store.GetLayerRelations(step, layered.needed_rels()));
    }
    const int after = layered.LayerStepAfterNext();
    if (after >= 0) {
      auto span = tracer.Span("storage.prefetch", after, request);
      store.PrefetchLayer(after, layered.needed_rels());
    }
    row.scan_s += Since(tracer, t);
    row.slices += static_cast<int64_t>(layer->slices.size());
    t = tracer.NowUs();
    std::shared_ptr<const LayerView> view;
    {
      auto span = tracer.Span("eval.view", step, request);
      view = BuildLayerView(std::move(layer), step, send_rel, receive_rel,
                            layered.needed_rels());
    }
    row.view_s += Since(tracer, t);
    t = tracer.NowUs();
    {
      auto span = tracer.Span("eval.step", step, request);
      ARIADNE_RETURN_NOT_OK(layered.Step(*view));
      view.reset();  // the one-shot loop drops its view every iteration
    }
    row.step_s += Since(tracer, t);
  }
  Result<OfflineRun> out = Status::Internal("not finished");
  {
    auto span = tracer.Span("eval.finish", -1, request);
    out = layered.Finish(Since(tracer, eval_start));
  }
  // RunOffline frees the run's per-vertex state and the query before it
  // returns; time that too.
  {
    auto span = tracer.Span("eval.release", -1, request);
    layered_run.reset();
  }
  {
    auto span = tracer.Span("pql.release", -1, request);
    query = Status::Internal("released");
  }
  return out;
}

}  // namespace

void RunLineage(Run& run) {
  const bool traced = run.options().trace;
  Tracer& tracer = run.tracer();
  const int scale = run.smoke() ? 7 : 13;

  // ---- set-up: graph, SSSP full capture, spill under 25% budget ----
  Graph graph;
  std::unique_ptr<ProvenanceStore> store;
  std::vector<double> setup_samples, generate_samples;
  size_t budget = 0;
  for (int i = 0; i < kSetupReps; ++i) {
    store.reset();
    const std::string dir = run.work_dir() + "/store-" + std::to_string(i);
    std::filesystem::create_directories(dir);
    setup_samples.push_back(Timed([&] {
      generate_samples.push_back(Timed([&] {
        auto span = tracer.Span("graph.generate");
        auto g = GenerateRmat(
            {.scale = scale, .avg_degree = 16, .seed = run.options().seed});
        if (run.Check(g.ok(), "GenerateRmat")) graph = std::move(*g);
      }));
      SessionOptions options;
      options.engine.num_threads = kCaptureThreads;
      options.engine.max_supersteps = kStoreSupersteps;
      Session session(&graph, options);
      auto capture = session.PrepareOnline(queries::CaptureFull());
      store = std::make_unique<ProvenanceStore>();
      SsspProgram sssp(HighestDegreeVertex(graph));
      auto span = tracer.Span("provenance.setup_capture");
      const bool ok = capture.ok() &&
                      session.Capture(sssp, *capture, store.get()).ok();
      budget = store->TotalBytes() / 4;
      run.Check(ok && store->EnableSpill(dir, budget).ok(),
                "set-up capture and spill");
    }));
  }
  RecordSetup(run, setup_samples);
  run.Layer("graph.generate_s", Median(generate_samples));
  run.Fact("graph_vertices", static_cast<double>(graph.num_vertices()));
  run.Fact("graph_edges", static_cast<double>(graph.num_edges()));
  run.Fact("threads_engine", static_cast<double>(kCaptureThreads));
  run.Fact("threads_flush", 1.0);
  run.Fact("threads_client", 1.0);
  run.Fact("store_tuples", static_cast<double>(store->TotalTuples()));
  run.Fact("store_bytes", static_cast<double>(store->TotalBytes()));
  run.Fact("store_layers", store->num_layers());
  run.Fact("store_budget_bytes", static_cast<double>(budget));
  run.Fact("store_spilled_layers", store->SpilledLayerCount());

  std::mt19937_64 rng(run.options().seed * 0x9e3779b97f4a7c15ull + 13);
  auto pool = MakeQueryPool(*store, kPerKind, rng);
  if (!run.Check(pool.ok(), "query pool: " + pool.status().ToString())) {
    return;
  }
  run.Fact("distinct_queries", static_cast<double>(pool->size()));

  // ---- measured: whole cycles over a fresh permutation of the pool ----
  Session session(&graph);
  ResetPeakRss();
  std::map<std::string, std::string> first_text;  // key -> result text
  std::map<std::string, std::vector<double>> by_kind_ms;
  std::vector<double> all_ms, traced_ms;
  RuleEvalStats eval_totals;
  double peak_layer_bytes = 0, materialized_bytes = 0;
  int64_t eval_queries = 0;
  TracedTotals totals;
  storage::StorageStats traced_storage;
  double measured = 0;
  int64_t request = 0;
  const int min_cycles = traced ? 2 : 1;
  for (int cycle = 0;; ++cycle) {
    const double estimate = cycle == 0 ? 0 : measured / cycle;
    if (cycle >= min_cycles && measured + estimate > run.options().seconds) {
      break;
    }
    const bool with_spans = traced && cycle % 2 == 0;
    std::vector<size_t> order(pool->size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    const storage::StorageStats before = store->storage_stats();
    for (size_t index : order) {
      const QuerySpec& spec = (*pool)[index];
      Result<OfflineRun> result = Status::Internal("not run");
      double seconds = 0;
      if (with_spans) {
        auto root = tracer.Span("bench.query", -1, request);
        const double start = tracer.NowUs();
        result = TracedQuery(run, session, *store, spec, request, &totals);
        seconds = Since(tracer, start);
      } else {
        seconds = Timed([&] {
          auto query = session.PrepareOffline(spec.text, *store, spec.params);
          if (!query.ok()) {
            result = query.status();
            return;
          }
          result = session.RunOffline(store.get(), *query, EvalMode::kLayered);
        });
      }
      ++request;
      measured += seconds;
      bool ok = run.Check(result.ok(), spec.key + ": " +
                                           result.status().ToString());
      if (ok) {
        const std::string text = ResultText(result->result);
        ok = run.Check(!ExpectsRows(spec) || result->result.TotalTuples() > 0,
                       spec.key + " returned no rows");
        auto [it, inserted] = first_text.emplace(spec.key, text);
        if (inserted) {
          ok = run.Digest(spec.key, Fnv1a(text)) && ok;
        } else {
          ok = run.Check(it->second == text,
                         spec.key + " result differs between runs") && ok;
        }
        if (cycle == 0) {
          eval_totals.Merge(result->stats.eval.Total());
          peak_layer_bytes = std::max(
              peak_layer_bytes,
              static_cast<double>(result->stats.peak_layer_bytes));
          materialized_bytes +=
              static_cast<double>(result->stats.materialized_bytes);
          ++eval_queries;
        }
      }
      run.CountOp(ok);
      json::JsonObject op;
      op.Set("query", spec.key).Set("traced", with_spans).Set("ms", seconds * 1e3);
      run.Row("ops", op.Dump());
      if (!ok) continue;
      if (with_spans) {
        traced_ms.push_back(seconds * 1e3);
      } else {
        all_ms.push_back(seconds * 1e3);
        by_kind_ms[spec.kind].push_back(seconds * 1e3);
      }
    }
    if (with_spans && cycle == 0) {
      traced_storage = store->storage_stats().Delta(before);
    }
  }

  run.EndToEnd("op_p50_ms", Median(all_ms));
  run.EndToEnd("peak_rss_mb", PeakRssMb());
  run.Layer("backward_p50_ms", Median(by_kind_ms["backward"]));
  run.Layer("forward_p50_ms", Median(by_kind_ms["forward"]));
  run.Layer("apt_p50_ms", Median(by_kind_ms["apt"]));
  run.Layer("spill_bytes_per_tuple",
            static_cast<double>(store->storage_stats().compressed_bytes) /
                static_cast<double>(std::max<int64_t>(1, store->TotalTuples())));
  run.Layer("provenance.tuples", static_cast<double>(store->TotalTuples()));
  run.Layer("provenance.bytes", static_cast<double>(store->TotalBytes()));

  // Evaluator counters: per query, over the first cycle (every distinct
  // query once), so they repeat exactly.
  const double n = static_cast<double>(std::max<int64_t>(1, eval_queries));
  run.Layer("pql.rows_scanned", static_cast<double>(eval_totals.rows_scanned) / n);
  run.Layer("pql.index_probes", static_cast<double>(eval_totals.index_probes) / n);
  run.Layer("pql.probe_rows_per_probe",
            eval_totals.index_probes > 0
                ? static_cast<double>(eval_totals.probe_rows) /
                      static_cast<double>(eval_totals.index_probes)
                : 0.0);
  run.Layer("pql.derived_tuples", static_cast<double>(eval_totals.derived) / n);
  run.Layer("eval.peak_layer_bytes", peak_layer_bytes);
  run.Layer("eval.materialized_bytes", materialized_bytes / n);

  if (traced) {
    double scan = 0, view = 0, step = 0;
    for (const auto& [index, row] : totals.layers) {
      scan += row.scan_s;
      view += row.view_s;
      step += row.step_s;
      json::JsonObject out;
      out.Set("layer_index", index)
          .Set("scan_s", row.scan_s)
          .Set("view_s", row.view_s)
          .Set("step_s", row.step_s)
          .Set("slices_read", row.slices)
          .Set("queries", row.queries);
      run.Row("lineage_layers", out.Dump());
    }
    const double traced_queries =
        static_cast<double>(std::max<size_t>(1, traced_ms.size()));
    run.Layer("storage.scan_s", scan / traced_queries);
    run.Layer("eval.view_s", view / traced_queries);
    run.Layer("eval.step_s", step / traced_queries);
    run.Layer("pql.prepare_ms", Median(totals.prepare_ms));
    const uint64_t lookups = traced_storage.cache_hits +
                             traced_storage.cache_misses;
    run.Layer("storage.cache_hit_rate",
              lookups > 0 ? static_cast<double>(traced_storage.cache_hits) /
                                static_cast<double>(lookups)
                          : 0.0);
    run.Layer("storage.pages_read",
              static_cast<double>(traced_storage.pages_read) / traced_queries);
    run.Layer("storage.prefetch_pages",
              static_cast<double>(traced_storage.prefetch_pages) /
                  traced_queries);
    run.Layer("trace.overhead_frac",
              Median(all_ms) > 0 ? Median(traced_ms) / Median(all_ms) - 1
                                 : 0.0);
  }
  for (const auto& [kind, samples] : by_kind_ms) {
    json::JsonObject row;
    row.Set("kind", kind)
        .Set("count", static_cast<int64_t>(samples.size()))
        .Set("p50_ms", Median(samples))
        .Set("p90_ms", Percentile(samples, 0.9));
    run.Row("query_kinds", row.Dump());
  }
}

}  // namespace perfbench
