// Dependent sets D(i) and connected subsets S(i) of paper §III-B for every
// position of an ordering, in one union-find sweep over positions. The DP
// solver reads its vertex sets from dep_sets(); compute_vertex_sets()
// derives one position's sets directly from their definitions by DFS over
// the induced prefix subgraph (matching Fig. 4 lines 6-7) and is kept as the
// reference the sweep and GenerateSeq's incrementally maintained v.d sets
// (Theorem 2) are tested against.
//
// Thread safety: these are pure functions of (graph, order) — no shared
// mutable state, no caching. Concurrent calls on the same graph/ordering
// are safe. Dependent sets are sorted by node id; the DP solver relies on
// that order when laying out its dense mixed-radix substrategy tables (see
// dp_solver.cc), so it is part of this interface's contract.
#pragma once

#include <vector>

#include "core/ordering.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

/// Per-position vertex sets for position i (0-based) of an ordering.
struct VertexSets {
  /// X(i): vertices of V_<=i connected to v^(i) through V_<=i (incl. v^(i)).
  std::vector<NodeId> connected;
  /// D(i) = N(X(i)) n V_>i, sorted by node id.
  std::vector<NodeId> dependent;
  /// Anchors of S(i): for each connected component of X(i) - {v^(i)}, the
  /// position j of its maximum-position vertex (Fig. 4 line 14). The
  /// component equals X(j).
  std::vector<i64> subset_anchors;
};

/// Reference: X(i), D(i), S(i) for position i of `order`, by prefix DFS.
VertexSets compute_vertex_sets(const Graph& graph, const Ordering& order,
                               i64 i);

/// D(i) and S(i) for every position, plus the roots of the DP.
struct DepSets {
  std::vector<std::vector<NodeId>> dependent;  ///< D(i), sorted by node id
  std::vector<std::vector<i64>> anchors;       ///< S(i) anchors, ascending
  /// The maximum position of each weakly connected component of the graph,
  /// descending. Its dependent set is empty, so its table holds the optimum
  /// of the whole component (one root for a connected graph).
  std::vector<i64> roots;
};

/// One sweep over positions with a union-find over the sequenced prefix.
/// At position i the distinct prefix components touching N(v^(i)) are the
/// connected subsets S(i), each anchored at its top (maximum) position j,
/// and D(i) = (N(v^(i)) u U_{j in S(i)} D(j)) n V_>i, because X(i) is
/// {v^(i)} plus those components and N(X(j)) n V_>i = D(j) n V_>i for j < i.
/// Valid for any ordering and any graph, connected or not. O(|E| + sum_i
/// |D(i)| log |D(i)|) up to the inverse-Ackermann factor.
DepSets dep_sets(const Graph& graph, const Ordering& order);

/// M = max_i |D(i)| for this ordering — the exponent of the DP complexity.
i64 max_dependent_set_size(const Graph& graph, const Ordering& order);

}  // namespace pase
