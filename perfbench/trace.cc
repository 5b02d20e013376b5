#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/json.h"

namespace perfbench {
namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;
thread_local int thread_track = -1;

std::string LayerOf(const std::string& name) {
  return name.substr(0, name.find('.'));
}

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredLength(std::vector<std::pair<double, double>> intervals,
                     double lo, double hi) {
  std::sort(intervals.begin(), intervals.end());
  double covered = 0, cur_lo = 0, cur_hi = -1;
  bool open = false;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) covered += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) covered += cur_hi - cur_lo;
  return covered;
}

/// Children intervals per parent id.
std::unordered_map<int64_t, std::vector<std::pair<double, double>>>
ChildIntervals(const std::vector<SpanRecord>& spans) {
  std::unordered_map<int64_t, std::vector<std::pair<double, double>>> out;
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0) out[s.parent].emplace_back(s.start_us, s.end_us);
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
  // Growing the span vector inside a traced request would show up as
  // time no span covers.
  if (enabled_) spans_.reserve(size_t{1} << 20);
}

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

int Tracer::ThreadId() {
  if (thread_track < 0) {
    std::lock_guard<std::mutex> lock(mu_);
    thread_track = next_tid_++;
  }
  return thread_track;
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, int step,
                     int64_t request)
    : tracer_(tracer), name_(name), step_(step), request_(request) {
  if (!tracer_->enabled()) return;
  {
    std::lock_guard<std::mutex> lock(tracer_->mu_);
    id_ = tracer_->next_id_++;
  }
  parent_ = open_spans.empty() ? -1 : open_spans.back();
  open_spans.push_back(id_);
  start_us_ = tracer_->NowUs();
}

Tracer::Scope::~Scope() {
  if (id_ < 0) return;
  const double end = tracer_->NowUs();
  open_spans.pop_back();
  SpanRecord record;
  record.name = name_;
  record.id = id_;
  record.parent = parent_;
  record.request = request_;
  record.step = step_;
  record.tid = tracer_->ThreadId();
  record.start_us = start_us_;
  record.end_us = end;
  std::lock_guard<std::mutex> lock(tracer_->mu_);
  tracer_->spans_.push_back(std::move(record));
}

int64_t Tracer::AddSynthetic(const char* name, int64_t parent,
                             int64_t request, int step, double start_us,
                             double end_us, int tid) {
  if (!enabled_) return -1;
  SpanRecord record;
  record.name = name;
  record.parent = parent;
  record.request = request;
  record.step = step;
  record.tid = tid >= 0 ? tid : ThreadId();
  record.start_us = start_us;
  record.end_us = std::max(start_us, end_us);
  record.synthetic = true;
  std::lock_guard<std::mutex> lock(mu_);
  record.id = next_id_++;
  spans_.push_back(std::move(record));
  return spans_.back().id;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double Tracer::UnattributedFraction() const {
  const std::vector<SpanRecord> all = spans();
  const auto children = ChildIntervals(all);
  double root_us = 0, uncovered_us = 0;
  for (const SpanRecord& s : all) {
    if (s.parent >= 0 || LayerOf(s.name) != "bench") continue;
    const double length = s.end_us - s.start_us;
    root_us += length;
    auto it = children.find(s.id);
    const double covered =
        it == children.end()
            ? 0.0
            : CoveredLength(it->second, s.start_us, s.end_us);
    uncovered_us += length - covered;
  }
  return root_us > 0 ? uncovered_us / root_us : 0.0;
}

std::vector<LayerTotals> Tracer::SelfTimeByLayer() const {
  const std::vector<SpanRecord> all = spans();
  const auto children = ChildIntervals(all);
  std::map<std::string, LayerTotals> by_layer;
  for (const SpanRecord& s : all) {
    const std::string layer = LayerOf(s.name);
    if (layer == "bench") continue;
    auto it = children.find(s.id);
    const double covered =
        it == children.end()
            ? 0.0
            : CoveredLength(it->second, s.start_us, s.end_us);
    LayerTotals& totals = by_layer[layer];
    totals.layer = layer;
    totals.self_s += (s.end_us - s.start_us - covered) * 1e-6;
    ++totals.spans;
  }
  std::vector<LayerTotals> out;
  for (auto& [name, totals] : by_layer) out.push_back(totals);
  return out;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& process_name) const {
  using ariadne::json::JsonObject;
  const std::vector<SpanRecord> all = spans();
  std::vector<std::string> events;
  events.reserve(all.size() + 8);
  std::set<int> tids;
  for (const SpanRecord& s : all) tids.insert(s.tid);
  {
    JsonObject args;
    args.Set("name", process_name);
    JsonObject meta;
    meta.Set("name", "process_name").Set("ph", "M").Set("pid", 1).Set("tid", 0);
    meta.SetRaw("args", args.Dump());
    events.push_back(meta.Dump());
  }
  for (int tid : tids) {
    JsonObject args;
    args.Set("name", "track " + std::to_string(tid));
    JsonObject meta;
    meta.Set("name", "thread_name").Set("ph", "M").Set("pid", 1).Set("tid",
                                                                     tid);
    meta.SetRaw("args", args.Dump());
    events.push_back(meta.Dump());
  }
  for (const SpanRecord& s : all) {
    JsonObject args;
    args.Set("id", s.id).Set("parent", s.parent);
    if (s.request >= 0) args.Set("request", s.request);
    if (s.step >= 0) args.Set("layer_index", s.step);
    if (s.synthetic) args.Set("synthetic", true);
    JsonObject event;
    event.Set("name", s.name)
        .Set("cat", LayerOf(s.name))
        .Set("ph", "X")
        .Set("ts", s.start_us)
        .Set("dur", s.end_us - s.start_us)
        .Set("pid", 1)
        .Set("tid", s.tid)
        .SetRaw("args", args.Dump());
    events.push_back(event.Dump());
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::string body = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": " +
                     ariadne::json::JsonArray(events, 1) + "}\n";
  const bool ok = std::fwrite(body.data(), 1, body.size(), out) == body.size();
  return std::fclose(out) == 0 && ok;
}

}  // namespace perfbench
