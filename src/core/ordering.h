// Vertex orderings. The DP of recurrence (4) works with any ordering; its
// complexity is exponential in the largest dependent-set size M, which is a
// function of the ordering. GenerateSeq (paper Fig. 3) greedily keeps
// dependent sets small; breadth-first ordering is the paper's baseline that
// runs out of memory on InceptionV3/Transformer (Table I).
#pragma once

#include <vector>

#include "graph/graph.h"
#include "util/types.h"

namespace pase {

enum class OrderingKind {
  kGenerateSeq,   ///< paper Fig. 3
  kBreadthFirst,  ///< paper §III-A baseline
};

struct Ordering {
  /// seq[i] = node id of the (i+1)-th vertex v^(i+1) (0-based here).
  std::vector<NodeId> seq;
  /// pos[v] = position of node v in seq.
  std::vector<i64> pos;

  /// Dependent sets tracked by GenerateSeq (v^(i).d in Fig. 3), sorted by
  /// node id; only populated by generate_seq(), used to verify Theorem 2.
  std::vector<std::vector<NodeId>> dep_sets;
};

/// Paper Fig. 3: greedy minimum-|v.d| sequencing. Ties are broken by
/// smallest node id for determinism. The unsequenced nodes are kept ordered
/// by (|v.d|, id) and only the sizes a step merges into are updated, so a
/// step costs O(d (d + log |V|)) for the largest |v.d| = d rather than the
/// figure's O(|V|) rescan; the picks are the figure's, bit for bit.
Ordering generate_seq(const Graph& graph);

/// Breadth-first traversal from node 0, direction-agnostic.
Ordering breadth_first(const Graph& graph);

Ordering make_ordering(const Graph& graph, OrderingKind kind);

}  // namespace pase
