#ifndef ARIADNE_STORAGE_MEMORY_BUDGET_H_
#define ARIADNE_STORAGE_MEMORY_BUDGET_H_

#include <cstddef>
#include <string>

namespace ariadne::storage {

/// How one total memory budget (`--mem-budget-mb`) is split across the
/// three accounts of an out-of-core run (DESIGN.md §2.7), each enforced
/// by its own storage::BufferPool:
///
///   provenance pages        = total * (1 - graph_fraction)
///   graph topology cache    = total * graph_fraction * 2/3
///   paged vertex state      = total * graph_fraction * 1/3
///
/// With the in-memory graph backend the graph needs no cache and the
/// provenance store keeps the whole budget — exactly the pre-§2.7
/// behavior of --mem-budget-mb.
struct BudgetSplit {
  size_t total = 0;
  size_t provenance = 0;
  size_t graph_topology = 0;
  size_t vertex_state = 0;
};

/// Default share of the total budget given to graph data (topology +
/// vertex state) when the paged backend is active.
inline constexpr double kDefaultGraphBudgetFraction = 0.5;

/// Of the graph share, the slice held by topology fragments; the rest is
/// the paged vertex-state budget. Topology dominates (ids + weights, both
/// directions) so it gets the larger slice.
inline constexpr double kTopologySliceOfGraphShare = 2.0 / 3.0;

/// Splits `total_bytes` for a run. `graph_paged` false returns everything
/// to provenance. `graph_fraction` outside (0, 1) falls back to the
/// default.
BudgetSplit ResolveBudgetSplit(size_t total_bytes, bool graph_paged,
                               double graph_fraction);

/// Human-readable "prov=64MiB topo=21MiB vstate=10MiB" summary for logs
/// and --stats-json provenance.
std::string DescribeBudgetSplit(const BudgetSplit& split);

}  // namespace ariadne::storage

#endif  // ARIADNE_STORAGE_MEMORY_BUDGET_H_
