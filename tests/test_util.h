// Shared helpers for the PaSE test suite: deterministic random computation
// graphs (for property tests against brute force), hand-built orderings, and
// the paper's Fig. 2 toy graph.
#pragma once

#include <vector>

#include "core/ordering.h"
#include "graph/graph.h"
#include "ops/ops.h"
#include "util/rng.h"

namespace pase::testing {

/// A connected random computation graph of `n` FC-like nodes: a random
/// spanning tree plus `extra_edges` additional edges; dims drawn from small
/// powers of two. Deterministic for a given seed.
inline Graph random_graph(i64 n, i64 extra_edges, u64 seed) {
  Rng rng(seed);
  Graph g;
  auto rand_dim = [&] {
    static const i64 sizes[] = {4, 8, 16, 32};
    return sizes[rng.uniform(4)];
  };
  for (i64 i = 0; i < n; ++i)
    g.add_node(ops::fully_connected("N" + std::to_string(i), rand_dim(),
                                    rand_dim(), rand_dim()));
  auto connect = [&](NodeId a, NodeId b) {
    // Wire producer output [b, n] to consumer input (b, *, c); extents may
    // differ, which the dim-map representation permits.
    g.add_edge_named(a, b, {"b", "n"}, {"b", "c"});
  };
  for (i64 i = 1; i < n; ++i)
    connect(static_cast<NodeId>(rng.uniform(static_cast<u64>(i))),
            static_cast<NodeId>(i));
  for (i64 e = 0; e < extra_edges; ++e) {
    const NodeId a = static_cast<NodeId>(rng.uniform(static_cast<u64>(n)));
    const NodeId b = static_cast<NodeId>(rng.uniform(static_cast<u64>(n)));
    if (a == b) continue;
    connect(std::min(a, b), std::max(a, b));
  }
  g.validate();
  return g;
}

/// A seeded random repeated-block chain: one block of `period` FC nodes
/// with random (but per-offset fixed) dims, instantiated `repeats` times;
/// consecutive blocks wired tail -> head, plus an intra-block skip edge so
/// blocks are not plain paths. Every copy is a verbatim id-shifted clone of
/// the first, so its layers and edges share cost classes.
inline Graph repeated_block_graph(i64 period, i64 repeats, u64 seed) {
  Rng rng(seed);
  static const i64 sizes[] = {8, 16, 32, 64};
  std::vector<i64> width(static_cast<size_t>(period) + 1);
  for (i64& w : width) w = sizes[rng.uniform(4)];
  const i64 batch = sizes[rng.uniform(4)];
  Graph g;
  NodeId prev = kInvalidNode;
  for (i64 r = 0; r < repeats; ++r) {
    NodeId block_head = kInvalidNode;
    for (i64 j = 0; j < period; ++j) {
      const NodeId fc = g.add_node(ops::fully_connected(
          "B" + std::to_string(r) + "_" + std::to_string(j), batch,
          width[static_cast<size_t>(j) + 1], width[static_cast<size_t>(j)]));
      if (prev != kInvalidNode)
        g.add_edge_named(prev, fc, {"b", "n"}, {"b", "c"});
      if (j == 0) block_head = fc;
      if (j == period - 1 && period >= 3)
        g.add_edge_named(block_head, fc, {"b", "n"}, {"b", "c"});
      prev = fc;
    }
  }
  g.validate();
  return g;
}

/// An Ordering with seq = the given node ids (must be a permutation).
inline Ordering make_identity_ordering(const Graph& g) {
  Ordering o;
  o.pos.assign(static_cast<size_t>(g.num_nodes()), -1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    o.seq.push_back(v);
    o.pos[static_cast<size_t>(v)] = v;
  }
  return o;
}

/// The toy computation graph of paper Fig. 2 (9 vertices). With the identity
/// ordering (v^(i) = node i-1):
///   X(5)  = {v1, v2, v3, v5}
///   D(5)  = {v8}           (recurrence (4) dependent set)
///   S(5)  = {{v1, v2}, {v3}}
///   D_B(5) = {v7, v8, v9}  (breadth-first/naive dependent set)
/// Node ids here are 0-based: paper's v^(k) is node k-1.
inline Graph fig2_toy_graph() {
  Graph g;
  for (int i = 1; i <= 9; ++i)
    g.add_node(ops::fully_connected("v" + std::to_string(i), 8, 8, 8));
  auto connect = [&](int a, int b) {  // 1-based, matching the paper
    g.add_edge_named(static_cast<NodeId>(a - 1), static_cast<NodeId>(b - 1),
                     {"b", "n"}, {"b", "c"});
  };
  connect(1, 2);
  connect(2, 5);
  connect(3, 5);
  connect(5, 8);
  connect(4, 7);
  connect(4, 9);
  connect(6, 7);
  connect(8, 9);
  g.validate();
  return g;
}

}  // namespace pase::testing
