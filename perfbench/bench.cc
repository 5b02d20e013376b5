#include "bench.h"

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/json.h"
#include "common/mem.h"

namespace perfbench {

using ariadne::json::JsonArray;
using ariadne::json::JsonObject;

const char* SizeName(Size size) {
  return size == Size::kSmoke ? "smoke" : "full";
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"ok_frac", "frac"},
      {"op_p50_ms", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      // The workload-specific end-to-end figures, as measured in the
      // traced run.
      {"failed_frac", "frac"},
      {"baseline_s", "s"},
      {"capture_s", "s"},
      {"spill_bytes_per_tuple", "B/tuple"},
      {"backward_p50_ms", "ms"},
      {"forward_p50_ms", "ms"},
      {"apt_p50_ms", "ms"},
      {"serve_qps", "1/s"},
      {"serve_p50_ms", "ms"},
      {"serve_p90_ms", "ms"},
      // graph
      {"graph.generate_s", "s"},
      {"graph.partition_faults", "count"},
      {"graph.cache_hit_rate", "frac"},
      {"graph.evictions", "count"},
      {"graph.prefetch_loads", "count"},
      // engine
      {"engine.compute_s", "s"},
      {"engine.merge_s", "s"},
      {"engine.rebuild_s", "s"},
      {"engine.msgs_per_s", "1/s"},
      {"engine.scaling", "ratio"},
      {"vstate.page_faults", "count"},
      {"vstate.evictions", "count"},
      {"vstate.writebacks", "count"},
      // provenance
      {"provenance.capture_mem_s", "s"},
      {"provenance.projection_s", "s"},
      {"provenance.tuples", "count"},
      {"provenance.bytes", "bytes"},
      {"provenance.capture_overhead", "ratio"},
      // storage
      {"storage.spill_s", "s"},
      {"storage.flush_s", "s"},
      {"storage.pages_written", "count"},
      {"storage.compression_ratio", "ratio"},
      {"storage.scan_s", "s"},
      {"storage.cache_hit_rate", "frac"},
      {"storage.pages_read", "count"},
      {"storage.prefetch_pages", "count"},
      // pql
      {"pql.prepare_ms", "ms"},
      {"pql.rows_scanned", "count"},
      {"pql.index_probes", "count"},
      {"pql.probe_rows_per_probe", "ratio"},
      {"pql.derived_tuples", "count"},
      // eval
      {"eval.view_s", "s"},
      {"eval.step_s", "s"},
      {"eval.peak_layer_bytes", "bytes"},
      {"eval.materialized_bytes", "bytes"},
      // serve
      {"serve.queue_ms_p90", "ms"},
      {"serve.exec_ms_p50", "ms"},
      {"serve.mean_group_size", "ratio"},
      {"serve.shared_hit_rate", "frac"},
      {"serve.coalesced_frac", "frac"},
      {"serve.shed", "count"},
      {"serve.rejected", "count"},
      {"serve.expired", "count"},
      {"gen.late_p90_ms", "ms"},
      // the benchmark itself
      {"trace.overhead_frac", "frac"},
      {"trace.unattributed_frac", "frac"},
  };
  return specs;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p * static_cast<double>(samples.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

std::string ValueBytes(const std::vector<double>& values) {
  return std::string(reinterpret_cast<const char*>(values.data()),
                     values.size() * sizeof(double));
}

double Timed(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double PeakRssMb() {
  return static_cast<double>(ariadne::PeakRssBytes()) / (1024.0 * 1024.0);
}

void ResetPeakRss() {
  malloc_trim(0);
  // "5" resets VmHWM to the current RSS. Without it (non-Linux, or
  // /proc not writable) the peak also covers what ran before.
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

Run::Run(Options options)
    : options_(std::move(options)), tracer_(options_.trace) {
  work_dir_ = options_.out_dir + "/work-" + options_.workload + "-" +
              std::to_string(::getpid());
  std::filesystem::remove_all(work_dir_);
  std::filesystem::create_directories(work_dir_);
  LoadReferences();
  Fact("workload", options_.workload);
  Fact("size", SizeName(options_.size));
  Fact("seed", static_cast<double>(options_.seed));
  Fact("seconds", options_.seconds);
  Fact("trace", options_.trace ? 1.0 : 0.0);
  Fact("commit", options_.commit);
  Fact("nproc", static_cast<double>(std::thread::hardware_concurrency()));
}

Run::~Run() {
  std::error_code ignored;
  std::filesystem::remove_all(work_dir_, ignored);
}

void Run::LoadReferences() {
  // Line format: <size> <workload> <seed> <key> <hex digest>
  std::ifstream in(options_.references);
  std::string line;
  const std::string prefix = std::string(SizeName(options_.size)) + " " +
                             options_.workload + " " +
                             std::to_string(options_.seed) + " ";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    std::istringstream rest(line.substr(prefix.size()));
    std::string key, digest;
    if (rest >> key >> digest) {
      references_[key] = digest;
      have_references_ = true;
    }
  }
  if (!have_references_) {
    std::fprintf(stderr,
                 "perfbench: no stored reference digests for %s/%s seed "
                 "%llu; only the in-run cross-checks apply\n",
                 SizeName(options_.size), options_.workload.c_str(),
                 static_cast<unsigned long long>(options_.seed));
  }
}

void Run::EndToEnd(const std::string& name, double value) {
  end_to_end_[name] = value;
}
void Run::Layer(const std::string& name, double value) {
  per_layer_[name] = value;
}
void Run::Fact(const std::string& name, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  facts_.emplace_back(name, buf);
}
void Run::Fact(const std::string& name, const std::string& value) {
  facts_.emplace_back(name, "\"" + ariadne::json::JsonEscape(value) + "\"");
}
void Run::Row(const std::string& table, const std::string& json_object) {
  rows_[table].push_back(json_object);
}

void Run::CountOp(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

bool Run::Check(bool ok, const std::string& what) {
  if (!ok) {
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  return ok;
}

bool Run::Digest(const std::string& key, uint64_t digest) {
  const std::string hex = Hex(digest);
  emitted_.push_back(std::string(SizeName(options_.size)) + " " +
                     options_.workload + " " + std::to_string(options_.seed) +
                     " " + key + " " + hex);
  auto it = references_.find(key);
  if (it == references_.end()) {
    // A stored seed must cover every output its run produces.
    return Check(!have_references_,
                 "no stored reference digest for " + key);
  }
  return Check(it->second == hex, "digest of " + key + " is " + hex +
                                      ", stored reference " + it->second);
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) value = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string MetricsObject(const std::vector<MetricSpec>& specs,
                          const std::map<std::string, double>& values) {
  std::string out = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    auto it = values.find(specs[i].name);
    const double value = it == values.end() ? 0.0 : it->second;
    if (i > 0) out += ", ";
    out += "\"" + std::string(specs[i].name) + "\": {\"value\": " +
           Number(value) + ", \"unit\": \"" + specs[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace

int Run::Finish() {
  if (options_.trace) {
    const double unattributed = tracer_.UnattributedFraction();
    Layer("trace.unattributed_frac", unattributed);
    // The sum-to-total bar: layer spans must explain at least 95% of the
    // traced request time where the whole request is driven from here.
    if (options_.workload == "capture" || options_.workload == "lineage") {
      Check(unattributed <= 0.05,
            "trace.unattributed_frac " + Number(unattributed) +
                " exceeds 0.05: layer spans do not sum to the total");
    }
  }
  // Every end-to-end metric must have been measured by the workload.
  if (!options_.trace) {
    for (const MetricSpec& spec : EndToEndMetrics()) {
      Check(end_to_end_.count(spec.name) != 0,
            std::string("end-to-end metric not measured: ") + spec.name);
    }
  }

  const std::string stem = options_.out_dir + "/" + options_.workload +
                           "-" + SizeName(options_.size) + "-seed" +
                           std::to_string(options_.seed) +
                           (options_.trace ? "-trace" : "");
  std::string layers = "[";
  for (const LayerTotals& t : tracer_.SelfTimeByLayer()) {
    JsonObject row;
    row.Set("layer", t.layer).Set("self_s", t.self_s).Set("spans", t.spans);
    layers += (layers.size() > 1 ? ", " : "") + row.Dump();
  }
  layers += "]";
  std::string facts = "{";
  for (size_t i = 0; i < facts_.size(); ++i) {
    facts += (i > 0 ? ", \"" : "\"") + facts_[i].first + "\": " +
             facts_[i].second;
  }
  facts += "}";
  std::string rows = "{";
  for (const auto& [table, list] : rows_) {
    rows += (rows.size() > 1 ? ", \"" : "\"") + table +
            "\": " + JsonArray(list, 2);
  }
  rows += "}";
  std::string results = "{\"facts\": " + facts + ",\n \"correct\": " +
                        (correct_ ? "true" : "false") +
                        ",\n \"attempted\": " + std::to_string(attempted_) +
                        ", \"failed\": " + std::to_string(failed_) +
                        ",\n \"end_to_end\": " +
                        MetricsObject(EndToEndMetrics(), end_to_end_) +
                        ",\n \"per_layer\": " +
                        MetricsObject(PerLayerMetrics(), per_layer_) +
                        ",\n \"layer_self_time\": " + layers +
                        ",\n \"rows\": " + rows + "}\n";
  std::ofstream(stem + ".json") << results;
  if (options_.trace) {
    const std::string trace_path = stem + ".trace.json";
    if (!tracer_.WriteChromeTrace(trace_path, "perfbench " +
                                                  options_.workload)) {
      Check(false, "cannot write " + trace_path);
    }
    std::fprintf(stderr, "perfbench: trace written to %s\n",
                 trace_path.c_str());
  }
  if (!options_.emit_digests.empty()) {
    std::ofstream out(options_.emit_digests, std::ios::app);
    for (const std::string& line : emitted_) out << line << "\n";
  }
  std::fprintf(stderr, "perfbench: results written to %s.json\n",
               stem.c_str());

  const auto& specs = options_.trace ? PerLayerMetrics() : EndToEndMetrics();
  const auto& values = options_.trace ? per_layer_ : end_to_end_;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct_ ? "true" : "false",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_),
              MetricsObject(specs, values).c_str());
  std::fflush(stdout);
  return correct_ && failed_ == 0 ? 0 : 1;
}

void RecordSetup(Run& run, const std::vector<double>& samples) {
  run.EndToEnd("setup_s", Median(samples));
  for (double seconds : samples) {
    JsonObject row;
    row.Set("seconds", seconds);
    run.Row("setup", row.Dump());
  }
}

void AddSuperstepSpans(Run& run, const ariadne::RunStats& stats,
                       int64_t parent, double start_us,
                       const std::string& table) {
  double at = start_us;
  for (const ariadne::SuperstepStats& s : stats.steps) {
    const double step_us = s.seconds * 1e6;
    Tracer& tracer = run.tracer();
    const int64_t id = tracer.AddSynthetic("engine.superstep", parent, -1,
                                           s.step, at, at + step_us);
    double phase = at;
    for (auto [name, seconds] :
         {std::pair<const char*, double>{"engine.rebuild", s.rebuild_seconds},
          {"engine.compute", s.compute_seconds},
          {"engine.merge", s.merge_seconds}}) {
      tracer.AddSynthetic(name, id, -1, s.step, phase,
                          phase + seconds * 1e6);
      phase += seconds * 1e6;
    }
    at += step_us;
    JsonObject row;
    row.Set("superstep", static_cast<int64_t>(s.step))
        .Set("seconds", s.seconds)
        .Set("rebuild_s", s.rebuild_seconds)
        .Set("compute_s", s.compute_seconds)
        .Set("merge_s", s.merge_seconds)
        .Set("active_vertices", s.active_vertices)
        .Set("messages", s.messages_sent);
    run.Row(table, row.Dump());
  }
}

}  // namespace perfbench
