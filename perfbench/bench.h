#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the end-to-end benchmark: run options, metric and
// fact collection, output checks against stored reference digests, and
// small statistics helpers. See README.md for the workloads and metrics.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "engine/types.h"
#include "trace.h"

namespace perfbench {

enum class Size { kFull, kSmoke };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir = ".bench_out";  ///< results, traces, scratch spills
  std::string references = "perfbench/reference_digests.txt";
  std::string commit = "unknown";
  /// When set, every digest the run computes is appended here in the
  /// reference-file format (how reference_digests.txt is recorded).
  std::string emit_digests;
};

const char* SizeName(Size size);

/// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 5;

/// The end-to-end metrics of an untraced run and the per-layer metrics of
/// a traced run, in the order BENCHMARK.json lists them, with units. Every
/// workload reports every name; per-layer metrics that a workload does
/// not exercise read 0.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

/// 64-bit FNV-1a, the digest of every checked output. Defined here, not
/// taken from the library, so a library change cannot move the stored
/// references.
uint64_t Fnv1a(std::string_view bytes, uint64_t h = 0xcbf29ce484222325ull);
std::string Hex(uint64_t digest);

/// Median / nearest-rank percentile (p in [0, 1]) of unsorted samples; 0
/// for an empty set.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// The bytes of a vector of vertex values, for digests and byte-for-byte
/// comparison.
std::string ValueBytes(const std::vector<double>& values);

/// Wall seconds of `fn`.
double Timed(const std::function<void()>& fn);

/// Process peak RSS in MB since the last ResetPeakRss().
double PeakRssMb();
/// Returns freed heap to the OS and restarts the peak-RSS high-water mark
/// (Linux /proc/self/clear_refs), so the peak covers only what follows.
void ResetPeakRss();

/// One benchmark run: tracer, metrics, facts, op counts and checks.
class Run {
 public:
  explicit Run(Options options);

  const Options& options() const { return options_; }
  Tracer& tracer() { return tracer_; }
  bool smoke() const { return options_.size == Size::kSmoke; }

  /// Scratch directory for spills of this run (created; removed by the
  /// destructor).
  const std::string& work_dir() const { return work_dir_; }
  ~Run();
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  void EndToEnd(const std::string& name, double value);
  void Layer(const std::string& name, double value);
  void Fact(const std::string& name, double value);
  void Fact(const std::string& name, const std::string& value);
  /// A row of the results file (per provenance layer, per request kind).
  void Row(const std::string& table, const std::string& json_object);

  /// Counts one attempted op; `ok` false counts it failed.
  void CountOp(bool ok);
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  /// An output check. A false `ok` is logged with `what`, marks the run
  /// incorrect and returns false (the caller fails the op it belongs to).
  bool Check(bool ok, const std::string& what);

  /// Compares a computed digest with the stored reference for this
  /// (size, workload, seed, key), when one is stored. Returns false on a
  /// mismatch (after Check-logging it).
  bool Digest(const std::string& key, uint64_t digest);

  /// Writes the results file and the Chrome trace, then prints the result
  /// line. Returns the process exit code.
  int Finish();

 private:
  void LoadReferences();

  Options options_;
  Tracer tracer_;
  std::string work_dir_;
  std::map<std::string, double> end_to_end_;
  std::map<std::string, double> per_layer_;
  std::vector<std::pair<std::string, std::string>> facts_;
  std::map<std::string, std::vector<std::string>> rows_;
  std::map<std::string, std::string> references_;  ///< key -> hex digest
  bool have_references_ = false;
  std::vector<std::string> emitted_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
};

/// The workloads; each fills `run` and returns normally (failures are
/// recorded as failed ops and checks).
void RunCapture(Run& run);
void RunLineage(Run& run);
void RunServe(Run& run);
void RunOoc(Run& run);

/// Sets setup_s to the median of `samples` and keeps each as a row.
void RecordSetup(Run& run, const std::vector<double>& samples);

/// Adds the per-superstep spans of one engine run below the span
/// `parent` that started at `start_us` — laid out back to back from the
/// RunStats phase times, since the engine itself is not instrumented —
/// and records each superstep's phase times as rows of `table`.
void AddSuperstepSpans(Run& run, const ariadne::RunStats& stats,
                       int64_t parent, double start_us,
                       const std::string& table);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
