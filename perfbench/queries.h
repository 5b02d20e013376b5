#ifndef PERFBENCH_QUERIES_H_
#define PERFBENCH_QUERIES_H_

// The query mix shared by the `lineage` and `serve` workloads and the
// SSSP full-capture store both query.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "core/ariadne.h"

namespace perfbench {

/// One distinct query of the mix.
struct QuerySpec {
  std::string kind;  ///< "backward", "forward" or "apt"
  std::string key;   ///< kind plus parameters; names its reference digest
  std::string text;
  ariadne::QueryParams params;
};

/// Forward lineage (paper Query 3) started at superstep $sigma rather
/// than 0: under SSSP only the source sends at superstep 0, so a start
/// superstep is what makes forward traces from other vertices non-empty.
std::string ForwardLineageFrom();

/// `per_kind` backward-lineage (Query 10), forward-lineage and apt
/// (Query 1) queries drawn with `rng`. Backward traces start at a vertex
/// that received messages at a superstep >= 1, forward traces at a vertex
/// that sent messages at a superstep >= 1, so their results are non-empty
/// (and no forward trace starts at the SSSP source, whose trace covers the
/// whole run).
ariadne::Result<std::vector<QuerySpec>> MakeQueryPool(
    const ariadne::ProvenanceStore& store, int per_kind, std::mt19937_64& rng);

/// Every table of `result`, name-sorted, rows sorted: the canonical text
/// that output digests are taken over.
std::string ResultText(const ariadne::QueryResult& result);

/// Whether the query kind must produce at least one row.
bool ExpectsRows(const QuerySpec& spec);

}  // namespace perfbench

#endif  // PERFBENCH_QUERIES_H_
