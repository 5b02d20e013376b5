#include "queries.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using namespace ariadne;

std::string ForwardLineageFrom() {
  return R"pql(
    fwd-lineage(x, v, i) <- value(x, v, i), superstep(x, i), x = $alpha,
                            i = $sigma.
    fwd-lineage(x, v, i) <- receive-message(x, y, m, i), fwd-lineage(y, w, j),
                            value(x, v, i).
  )pql";
}

namespace {

/// Vertices with a slice of relation `rel` in layer `step`, ordered by the
/// slice's tuple count (messages sent or received there), then id.
Result<std::vector<VertexId>> VerticesByActivity(const ProvenanceStore& store,
                                                 int step, int rel) {
  ARIADNE_ASSIGN_OR_RETURN(std::shared_ptr<const Layer> layer,
                           store.GetLayerRelations(step, {rel}));
  std::vector<std::pair<size_t, VertexId>> ranked;
  for (const LayerSlice& slice : layer->slices) {
    if (slice.rel == rel && !slice.tuples.empty()) {
      ranked.emplace_back(slice.tuples.size(), slice.vertex);
    }
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<VertexId> out;
  for (const auto& [count, vertex] : ranked) out.push_back(vertex);
  return out;
}

/// Uniform in the k-th of n equal strata of [0, 1): stratified draws keep
/// a small mix's cost the same from seed to seed.
double Stratum(int k, int n, std::mt19937_64& rng) {
  const double u = std::uniform_real_distribution<double>(0, 1)(rng);
  return (k + u) / n;
}

/// The start of the k-th of n traces: a layer in [lo, hi] and a vertex of
/// it holding a slice of `rel`, both drawn from the k-th stratum — the
/// vertex by its activity rank in that layer, because a trace's cost
/// follows how much its start vertex sends or receives.
Result<std::pair<int, VertexId>> DrawStart(const ProvenanceStore& store,
                                           int lo, int hi, int rel, int k,
                                           int n, std::mt19937_64& rng) {
  const int span = hi - lo + 1;
  const int step =
      lo + std::min(span - 1, static_cast<int>(Stratum(k, n, rng) * span));
  ARIADNE_ASSIGN_OR_RETURN(std::vector<VertexId> vertices,
                           VerticesByActivity(store, step, rel));
  if (vertices.empty()) {
    return Status::Internal("layer " + std::to_string(step) +
                            " holds no start vertex");
  }
  const size_t index = std::min(
      vertices.size() - 1,
      static_cast<size_t>(Stratum(k, n, rng) *
                          static_cast<double>(vertices.size())));
  return std::make_pair(step, vertices[index]);
}

std::string Key(const std::string& kind, VertexId alpha, int sigma) {
  return kind + "/a" + std::to_string(alpha) + "/s" + std::to_string(sigma);
}

}  // namespace

Result<std::vector<QuerySpec>> MakeQueryPool(const ProvenanceStore& store,
                                             int per_kind,
                                             std::mt19937_64& rng) {
  const int layers = store.num_layers();
  const int send = store.RelId("send-message");
  const int receive = store.RelId("receive-message");
  if (layers < 3 || send < 0 || receive < 0) {
    return Status::InvalidArgument("store too small for the query mix");
  }
  std::vector<QuerySpec> pool;
  for (int i = 0; i < per_kind; ++i) {
    ARIADNE_ASSIGN_OR_RETURN(auto start,
                             DrawStart(store, 1, layers - 1, receive, i, per_kind, rng));
    pool.push_back({"backward", Key("backward", start.second, start.first),
                    queries::BackwardLineageFull(),
                    {{"alpha", Value(static_cast<int64_t>(start.second))},
                     {"sigma", Value(static_cast<int64_t>(start.first))}}});
  }
  for (int i = 0; i < per_kind; ++i) {
    ARIADNE_ASSIGN_OR_RETURN(auto start,
                             DrawStart(store, 1, layers - 2, send, i, per_kind, rng));
    pool.push_back({"forward", Key("forward", start.second, start.first),
                    ForwardLineageFrom(),
                    {{"alpha", Value(static_cast<int64_t>(start.second))},
                     {"sigma", Value(static_cast<int64_t>(start.first))}}});
  }
  for (int i = 0; i < per_kind; ++i) {
    // Log-uniform in [0.001, 0.4], stratified; 3 significant digits.
    char key[32], text[32];
    std::snprintf(text, sizeof(text), "%.3g",
                  std::pow(10.0, -3.0 + 2.6 * Stratum(i, per_kind, rng)));
    const double e = std::strtod(text, nullptr);
    std::snprintf(key, sizeof(key), "apt/eps%g", e);
    pool.push_back({"apt", key, queries::Apt(), {{"eps", Value(e)}}});
  }
  return pool;
}

std::string ResultText(const QueryResult& result) {
  std::string text;
  for (const std::string& name : result.TableNames()) {
    text += "== " + name + "\n";
    for (const std::string& row : result.Table(name)->ToSortedStrings()) {
      text += row;
      text += '\n';
    }
  }
  return text;
}

bool ExpectsRows(const QuerySpec& spec) { return spec.kind != "apt"; }

}  // namespace perfbench
