// Workload `serve`: a QueryServer with 2 step threads over a small, fully
// resident SSSP store, driven from one generator thread. Phase 1 is a
// closed loop with 4 outstanding requests (capacity); phase 2 an open
// loop at a fixed rate of about half that capacity, each latency timed
// from the request's due time. Requests draw from a Zipf distribution
// over the distinct queries of the mix, so some are exact duplicates
// (coalesced) and most share layer scans with other in-flight queries.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/json.h"
#include "core/ariadne.h"
#include "graph/stats.h"
#include "queries.h"
#include "serve/server.h"

namespace perfbench {
namespace {

using namespace ariadne;
using Clock = std::chrono::steady_clock;

/// The set-up capture is a few milliseconds at this scale; worker start-up
/// jitter would dominate it.
constexpr size_t kCaptureThreads = 1;
/// SSSP supersteps captured for the store (see lineage.cc).
constexpr int kStoreSupersteps = 5;
constexpr size_t kStepThreads = 2;
constexpr int kOutstanding = 4;
constexpr int kPerKind = 7;
constexpr double kZipfExponent = 1.0;
/// Phase 2 arrival rate, requests per second: about half the closed-loop
/// capacity of the full-size workload on a 4-core host (BENCHMARK.json).
constexpr double kOpenLoopRate = 14.0;
constexpr double kSmokeOpenLoopRate = 40.0;
/// Share of the run's seconds given to the closed-loop phase.
constexpr double kClosedShare = 0.3;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Picks query kinds in turn, then a query of that kind by
/// Zipf(kZipfExponent) over a fixed rank order of the kind's strata
/// (MakeQueryPool draws the i-th query of a kind from the i-th stratum of
/// start activity or eps): the middle stratum first, then outward,
/// alternating. Fixed kind shares and a fixed stratum at each rank keep
/// the mix's cost the same from seed to seed; the Zipf draw within a kind
/// makes the duplicates the server coalesces.
class ZipfPicker {
 public:
  explicit ZipfPicker(const std::vector<QuerySpec>& pool) {
    std::map<std::string, std::vector<size_t>> by_kind;
    for (size_t i = 0; i < pool.size(); ++i) by_kind[pool[i].kind].push_back(i);
    for (auto& [kind, strata] : by_kind) {
      std::vector<size_t> ranked;
      const size_t mid = (strata.size() - 1) / 2;
      ranked.push_back(strata[mid]);
      for (size_t d = 1; ranked.size() < strata.size(); ++d) {
        if (mid + d < strata.size()) ranked.push_back(strata[mid + d]);
        if (d <= mid) ranked.push_back(strata[mid - d]);
      }
      ranked_.push_back(std::move(ranked));
    }
    double total = 0;
    for (size_t r = 0; r < ranked_.front().size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cumulative_.push_back(total);
    }
    for (double& c : cumulative_) c /= total;
  }

  size_t Next(std::mt19937_64& rng) {
    const std::vector<size_t>& kind = ranked_[turn_++ % ranked_.size()];
    const double u = std::uniform_real_distribution<double>(0, 1)(rng);
    const size_t r = static_cast<size_t>(
        std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
        cumulative_.begin());
    return kind[std::min(r, kind.size() - 1)];
  }

 private:
  std::vector<std::vector<size_t>> ranked_;  ///< per kind, by rank
  std::vector<double> cumulative_;
  size_t turn_ = 0;
};

/// Pins the calling thread to one allowed CPU after another; the
/// destructor restores its affinity. On a shared host one CPU can run a
/// thread at ~60% of another's speed for seconds at a time, and a thread
/// stays on its CPU: a single-threaded set-up timed on one CPU followed
/// the CPU the run's main thread happened to start on.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

  /// The number of CPUs taken in turn (1 if the affinity is unknown).
  size_t size() const { return std::max<size_t>(1, cpus_.size()); }

  /// Moves the calling thread to the i-th allowed CPU.
  void PinTo(size_t i) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[i % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

struct Sent {
  size_t spec;
  Clock::time_point due;
  Clock::time_point submitted;
  std::future<serve::ServeResponse> future;
};

}  // namespace

void RunServe(Run& run) {
  const bool traced = run.options().trace;
  Tracer& tracer = run.tracer();
  const int scale = run.smoke() ? 7 : 9;
  const double rate = run.smoke() ? kSmokeOpenLoopRate : kOpenLoopRate;

  // ---- set-up: graph, resident SSSP full capture, service state ----
  // A set-up sample is the mean of one set-up on each allowed CPU (see
  // CpuRotation); setup_s is the median of kSetupReps samples.
  Graph graph;
  std::unique_ptr<ProvenanceStore> store;
  std::unique_ptr<serve::ServiceState> service;
  std::vector<double> setup_samples, generate_samples;
  std::optional<CpuRotation> rotation(std::in_place);
  const double n_cpus = static_cast<double>(rotation->size());
  for (int i = 0; i < kSetupReps; ++i) {
    double setup_total = 0, generate_total = 0;
    for (size_t cpu = 0; cpu < rotation->size(); ++cpu) {
      rotation->PinTo(cpu);
      service.reset();
      store.reset();
      setup_total += Timed([&] {
        generate_total += Timed([&] {
          auto span = tracer.Span("graph.generate");
          auto g = GenerateRmat(
              {.scale = scale, .avg_degree = 16, .seed = run.options().seed});
          if (run.Check(g.ok(), "GenerateRmat")) graph = std::move(*g);
        });
        SessionOptions options;
        options.engine.num_threads = kCaptureThreads;
        options.engine.max_supersteps = kStoreSupersteps;
        Session session(&graph, options);
        auto capture = session.PrepareOnline(queries::CaptureFull());
        store = std::make_unique<ProvenanceStore>();
        SsspProgram sssp(HighestDegreeVertex(graph));
        const bool ok = capture.ok() &&
                        session.Capture(sssp, *capture, store.get()).ok();
        auto state = serve::ServiceState::Create(&graph, store.get());
        if (run.Check(ok && state.ok(), "set-up capture and service state")) {
          service = state.MoveValue();
        }
      });
    }
    setup_samples.push_back(setup_total / n_cpus);
    generate_samples.push_back(generate_total / n_cpus);
  }
  rotation.reset();  // the server's threads must not inherit one CPU
  RecordSetup(run, setup_samples);
  run.Layer("graph.generate_s", Median(generate_samples));
  if (service == nullptr) return;

  std::mt19937_64 rng(run.options().seed * 0x9e3779b97f4a7c15ull + 29);
  auto pool = MakeQueryPool(*store, kPerKind, rng);
  if (!run.Check(pool.ok(), "query pool: " + pool.status().ToString())) {
    return;
  }

  // One-shot references: every served result must equal these.
  Session session(&graph);
  std::vector<std::string> reference(pool->size());
  for (size_t i = 0; i < pool->size(); ++i) {
    const QuerySpec& spec = (*pool)[i];
    auto query = session.PrepareOffline(spec.text, *store, spec.params);
    Result<OfflineRun> result = Status::Internal("not prepared");
    if (query.ok()) {
      result = session.RunOffline(store.get(), *query, EvalMode::kLayered);
    }
    if (run.Check(result.ok(), spec.key + " one-shot: " +
                                   result.status().ToString())) {
      reference[i] = ResultText(result->result);
      run.Check(!ExpectsRows(spec) || result->result.TotalTuples() > 0,
                spec.key + " returned no rows");
      run.Digest(spec.key, Fnv1a(reference[i]));
    }
  }

  run.Fact("graph_vertices", static_cast<double>(graph.num_vertices()));
  run.Fact("graph_edges", static_cast<double>(graph.num_edges()));
  run.Fact("threads_engine", static_cast<double>(kCaptureThreads));
  run.Fact("threads_step", static_cast<double>(kStepThreads));
  run.Fact("threads_scheduler", 1.0);
  run.Fact("threads_generator", 1.0);
  run.Fact("store_tuples", static_cast<double>(store->TotalTuples()));
  run.Fact("store_bytes", static_cast<double>(store->TotalBytes()));
  run.Fact("store_layers", store->num_layers());
  run.Fact("distinct_queries", static_cast<double>(pool->size()));
  run.Fact("closed_loop_outstanding", kOutstanding);
  run.Fact("open_loop_rate_per_s", rate);
  run.Fact("zipf_exponent", kZipfExponent);

  serve::ServerOptions options;
  options.step_threads = kStepThreads;
  serve::QueryServer server(service.get(), options);
  ZipfPicker zipf(*pool);
  auto submit = [&](size_t spec_index) {
    const QuerySpec& spec = (*pool)[spec_index];
    serve::ServeRequest request;
    request.name = spec.key;
    request.text = spec.text;
    request.params = spec.params;
    return server.Submit(std::move(request));
  };
  std::map<std::string, std::vector<double>> latency_by_kind;
  RuleEvalStats eval_totals;
  double peak_layer_bytes = 0;
  int64_t responses = 0;
  // Checks one response; returns whether the op succeeded.
  auto finish = [&](size_t spec_index, const serve::ServeResponse& r) {
    bool ok = run.Check(r.ok(), (*pool)[spec_index].key + " served: " +
                                    r.status.ToString());
    ok = ok && run.Check(ResultText(r.result) == reference[spec_index],
                         (*pool)[spec_index].key +
                             " served result differs from one-shot");
    if (ok) {
      eval_totals.Merge(r.stats.eval.Total());
      peak_layer_bytes = std::max(peak_layer_bytes,
                                  static_cast<double>(r.stats.peak_layer_bytes));
      ++responses;
    }
    run.CountOp(ok);
    return ok;
  };

  ResetPeakRss();
  // ---- phase 1: closed loop, kOutstanding requests in flight ----
  const double closed_seconds = run.options().seconds * kClosedShare;
  std::vector<Sent> slots;
  const Clock::time_point closed_start = Clock::now();
  const Clock::time_point closed_end =
      closed_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(closed_seconds));
  for (int i = 0; i < kOutstanding; ++i) {
    const size_t s = zipf.Next(rng);
    slots.push_back({s, closed_start, Clock::now(), submit(s)});
  }
  int64_t closed_completed = 0;
  std::vector<std::pair<size_t, serve::ServeResponse>> closed_responses;
  while (!slots.empty()) {
    bool progressed = false;
    for (size_t i = 0; i < slots.size();) {
      Sent& slot = slots[i];
      if (slot.future.wait_for(std::chrono::seconds(0)) !=
          std::future_status::ready) {
        ++i;
        continue;
      }
      progressed = true;
      // Checked after the phase, so checking never delays a submission.
      closed_responses.emplace_back(slot.spec, slot.future.get());
      const Clock::time_point now = Clock::now();
      if (now <= closed_end) ++closed_completed;
      if (now < closed_end) {
        const size_t s = zipf.Next(rng);
        slot = {s, now, now, submit(s)};
        ++i;
      } else {
        slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double serve_qps = static_cast<double>(closed_completed) /
                           std::max(1e-9, closed_seconds);
  for (const auto& [spec_index, response] : closed_responses) {
    finish(spec_index, response);
  }
  closed_responses.clear();

  // ---- phase 2: open loop at a fixed rate, timed from due times ----
  const double open_seconds = run.options().seconds - closed_seconds;
  const int64_t n_open = std::max<int64_t>(
      1, static_cast<int64_t>(std::llround(open_seconds * rate)));
  std::vector<Sent> sent;
  sent.reserve(static_cast<size_t>(n_open));
  const Clock::time_point open_start = Clock::now();
  for (int64_t i = 0; i < n_open; ++i) {
    const Clock::time_point due =
        open_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(i / rate));
    std::this_thread::sleep_until(due);
    const size_t s = zipf.Next(rng);
    const Clock::time_point submitted = Clock::now();
    sent.push_back({s, due, submitted, submit(s)});
  }
  std::vector<double> latency_ms, late_ms, queue_ms, exec_ms;
  std::vector<double> traced_ms, untraced_ms;
  std::vector<double> track_end;  // greedy track assignment for the trace
  const double origin_us = tracer.NowUs();
  const Clock::time_point origin = Clock::now();
  for (size_t i = 0; i < sent.size(); ++i) {
    Sent& request = sent[i];
    const serve::ServeResponse response = request.future.get();
    if (!finish(request.spec, response)) continue;
    const double late = Seconds(request.submitted - request.due);
    const double latency =
        late + response.queue_seconds + response.exec_seconds;
    latency_ms.push_back(latency * 1e3);
    late_ms.push_back(late * 1e3);
    queue_ms.push_back(response.queue_seconds * 1e3);
    exec_ms.push_back(response.exec_seconds * 1e3);
    latency_by_kind[(*pool)[request.spec].kind].push_back(latency * 1e3);
    (i % 2 == 0 ? traced_ms : untraced_ms).push_back(latency * 1e3);
    // Traced runs record every other request of phase 2 as spans (rebuilt
    // from the response's queue/exec times; the server is not
    // instrumented) and leave the rest untraced, for the overhead.
    if (traced && i % 2 == 0) {
      const double due_us =
          origin_us - Seconds(origin - request.due) * 1e6;
      const double end_us = due_us + latency * 1e6;
      size_t track = 0;
      while (track < track_end.size() && track_end[track] > due_us) ++track;
      if (track == track_end.size()) track_end.push_back(0);
      track_end[track] = end_us;
      const int tid = 100 + static_cast<int>(track);
      const int64_t id = static_cast<int64_t>(i);
      const int64_t root = tracer.AddSynthetic("bench.request", -1, id, -1,
                                               due_us, end_us, tid);
      double at = due_us;
      for (auto [name, seconds] :
           {std::pair<const char*, double>{"gen.late", late},
            {"serve.queue", response.queue_seconds},
            {"serve.exec", response.exec_seconds}}) {
        tracer.AddSynthetic(name, root, id, -1, at, at + seconds * 1e6, tid);
        at += seconds * 1e6;
      }
    }
  }
  const serve::ServerStats stats = server.stats();
  run.EndToEnd("op_p50_ms", Median(latency_ms));
  run.EndToEnd("peak_rss_mb", PeakRssMb());
  run.Layer("serve_qps", serve_qps);
  run.Layer("serve_p50_ms", Median(latency_ms));
  run.Layer("serve_p90_ms", Percentile(latency_ms, 0.9));
  run.Layer("serve.queue_ms_p90", Percentile(queue_ms, 0.9));
  run.Layer("serve.exec_ms_p50", Median(exec_ms));
  run.Layer("serve.mean_group_size", stats.MeanGroupSize());
  run.Layer("serve.shared_hit_rate", stats.scan.HitRate());
  run.Layer("serve.coalesced_frac",
            stats.submitted > 0 ? static_cast<double>(stats.coalesced) /
                                      static_cast<double>(stats.submitted)
                                : 0.0);
  run.Layer("serve.shed", static_cast<double>(stats.shed));
  run.Layer("serve.rejected", static_cast<double>(stats.rejected));
  run.Layer("serve.expired", static_cast<double>(stats.expired));
  run.Layer("gen.late_p90_ms", Percentile(late_ms, 0.9));
  const double n = static_cast<double>(std::max<int64_t>(1, responses));
  run.Layer("pql.rows_scanned", static_cast<double>(eval_totals.rows_scanned) / n);
  run.Layer("pql.index_probes", static_cast<double>(eval_totals.index_probes) / n);
  run.Layer("pql.probe_rows_per_probe",
            eval_totals.index_probes > 0
                ? static_cast<double>(eval_totals.probe_rows) /
                      static_cast<double>(eval_totals.index_probes)
                : 0.0);
  run.Layer("pql.derived_tuples", static_cast<double>(eval_totals.derived) / n);
  run.Layer("eval.peak_layer_bytes", peak_layer_bytes);
  run.Layer("provenance.tuples", static_cast<double>(store->TotalTuples()));
  run.Layer("provenance.bytes", static_cast<double>(store->TotalBytes()));
  if (traced) {
    run.Layer("trace.overhead_frac",
              Median(untraced_ms) > 0
                  ? Median(traced_ms) / Median(untraced_ms) - 1
                  : 0.0);
  }
  run.Fact("open_loop_requests", static_cast<double>(n_open));
  run.Fact("open_loop_completed", static_cast<double>(latency_ms.size()));
  run.Fact("closed_loop_completed", static_cast<double>(closed_completed));
  for (const auto& [kind, samples] : latency_by_kind) {
    json::JsonObject row;
    row.Set("kind", kind)
        .Set("count", static_cast<int64_t>(samples.size()))
        .Set("p50_ms", Median(samples))
        .Set("p90_ms", Percentile(samples, 0.9));
    run.Row("request_kinds", row.Dump());
  }
}

}  // namespace perfbench
