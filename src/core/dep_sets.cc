#include "core/dep_sets.h"

#include <algorithm>

#include "util/bitset.h"
#include "util/check.h"

namespace pase {

namespace {

/// DFS from `start` through vertices with position < `limit_pos` (plus the
/// start itself); returns visited set.
Bitset dfs_prefix(const Graph& graph, const Ordering& order, NodeId start,
                  i64 limit_pos) {
  Bitset visited(graph.num_nodes());
  std::vector<NodeId> stack{start};
  visited.set(start);
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    for (NodeId w : graph.neighbors(v)) {
      if (!visited.test(w) && order.pos[static_cast<size_t>(w)] < limit_pos) {
        visited.set(w);
        stack.push_back(w);
      }
    }
  }
  return visited;
}

}  // namespace

VertexSets compute_vertex_sets(const Graph& graph, const Ordering& order,
                               i64 i) {
  const NodeId vi = order.seq[static_cast<size_t>(i)];
  VertexSets out;

  // X(i): reachable from v^(i) through vertices at positions <= i.
  const Bitset x = dfs_prefix(graph, order, vi, i + 1);
  x.for_each([&](i64 v) { out.connected.push_back(static_cast<NodeId>(v)); });

  // D(i) = N(X(i)) n V_>i.
  Bitset dep(graph.num_nodes());
  x.for_each([&](i64 v) {
    for (NodeId w : graph.neighbors(static_cast<NodeId>(v)))
      if (order.pos[static_cast<size_t>(w)] > i) dep.set(w);
  });
  dep.for_each(
      [&](i64 v) { out.dependent.push_back(static_cast<NodeId>(v)); });

  // S(i): components of X(i) - {v^(i)} within the induced prefix subgraph,
  // identified by their max-position anchor.
  Bitset remaining = x;
  remaining.reset(vi);
  while (remaining.any()) {
    NodeId seed = kInvalidNode;
    remaining.for_each([&](i64 v) {
      if (seed == kInvalidNode) seed = static_cast<NodeId>(v);
    });
    // Component of `seed` within positions < i.
    Bitset comp = dfs_prefix(graph, order, seed, i);
    comp &= remaining;  // restrict to X(i) - {v^(i)}
    i64 anchor = -1;
    comp.for_each([&](i64 v) {
      anchor = std::max(anchor, order.pos[static_cast<size_t>(v)]);
    });
    PASE_CHECK(anchor >= 0 && anchor < i);
    out.subset_anchors.push_back(anchor);
    remaining -= comp;
  }
  std::sort(out.subset_anchors.begin(), out.subset_anchors.end());
  return out;
}

DepSets dep_sets(const Graph& graph, const Ordering& order) {
  const i64 n = graph.num_nodes();
  DepSets out;
  out.dependent.resize(static_cast<size_t>(n));
  out.anchors.resize(static_cast<size_t>(n));

  // Union-find over positions of the sequenced prefix. Position i becomes
  // the parent of every component it joins, so a component's root is its
  // top (maximum) position — the anchor Fig. 4 line 14 names it by.
  std::vector<i64> parent(static_cast<size_t>(n));
  auto find = [&](i64 x) {
    while (parent[static_cast<size_t>(x)] != x) {
      auto& px = parent[static_cast<size_t>(x)];
      px = parent[static_cast<size_t>(px)];  // path halving
      x = px;
    }
    return x;
  };
  // Stamp arrays dedup anchors and dependent-set members per position.
  std::vector<i64> anchor_seen(static_cast<size_t>(n), -1);
  std::vector<i64> member_seen(static_cast<size_t>(n), -1);

  for (i64 i = 0; i < n; ++i) {
    const NodeId vi = order.seq[static_cast<size_t>(i)];
    auto& anchors = out.anchors[static_cast<size_t>(i)];
    auto& dep = out.dependent[static_cast<size_t>(i)];
    auto add_member = [&](NodeId w) {
      if (order.pos[static_cast<size_t>(w)] > i &&
          member_seen[static_cast<size_t>(w)] != i) {
        member_seen[static_cast<size_t>(w)] = i;
        dep.push_back(w);
      }
    };
    for (NodeId w : graph.neighbors(vi)) {
      const i64 pw = order.pos[static_cast<size_t>(w)];
      if (pw > i) {
        add_member(w);
      } else if (pw < i) {
        const i64 j = find(pw);
        if (anchor_seen[static_cast<size_t>(j)] != i) {
          anchor_seen[static_cast<size_t>(j)] = i;
          anchors.push_back(j);
        }
      }
    }
    parent[static_cast<size_t>(i)] = i;
    for (const i64 j : anchors) {
      for (NodeId w : out.dependent[static_cast<size_t>(j)]) add_member(w);
      parent[static_cast<size_t>(j)] = i;
    }
    std::sort(anchors.begin(), anchors.end());
    std::sort(dep.begin(), dep.end());
  }

  for (i64 i = n - 1; i >= 0; --i)
    if (find(i) == i) out.roots.push_back(i);
  return out;
}

i64 max_dependent_set_size(const Graph& graph, const Ordering& order) {
  i64 m = 0;
  for (const auto& d : dep_sets(graph, order).dependent)
    m = std::max(m, static_cast<i64>(d.size()));
  return m;
}

}  // namespace pase
