#include "core/ordering.h"

#include <algorithm>
#include <iterator>
#include <queue>
#include <set>
#include <utility>

#include "util/bitset.h"
#include "util/check.h"

namespace pase {

Ordering generate_seq(const Graph& graph) {
  const i64 n = graph.num_nodes();
  Ordering out;
  out.seq.reserve(static_cast<size_t>(n));
  out.pos.assign(static_cast<size_t>(n), -1);
  out.dep_sets.resize(static_cast<size_t>(n));

  // v.d <- N(v)  (Fig. 3 line 1), kept sorted by node id and without v
  // itself: the paper's v.d may pick up v through a merge (the invariant
  // D(j)|i of Theorem 2's proof intersects with V_>i, which still holds
  // v^(j)), but that entry never counts toward |v.d| and is dropped the
  // moment v is sequenced, so leaving it out changes no pick and no D(i).
  std::vector<std::vector<NodeId>> d(static_cast<size_t>(n));
  // The unsequenced nodes ordered by (|v.d|, id). Fig. 3's line 5 scans in
  // id order for the first strictly smaller |v.d|, which is exactly the
  // lexicographic minimum of this set; sizes change only for the nodes a
  // step merges into, so each step costs O(d (d + log |V|)) for the largest
  // |v.d| = d instead of a scan over every unsequenced node.
  std::set<std::pair<i64, NodeId>> by_size;
  for (NodeId v = 0; v < n; ++v) {
    auto& dv = d[static_cast<size_t>(v)];
    for (NodeId w : graph.neighbors(v))
      if (w != v) dv.push_back(w);
    std::sort(dv.begin(), dv.end());
    by_size.emplace(static_cast<i64>(dv.size()), v);
  }

  std::vector<NodeId> merged_into;
  for (i64 i = 0; i < n; ++i) {
    // Pick the unsequenced node with minimum |v.d| (line 5).
    PASE_CHECK(!by_size.empty());
    const NodeId best = by_size.begin()->second;
    by_size.erase(by_size.begin());
    out.seq.push_back(best);
    out.pos[static_cast<size_t>(best)] = i;

    // v^(i).d equals D(i) (Theorem 2).
    auto& merged = out.dep_sets[static_cast<size_t>(i)];
    merged = std::move(d[static_cast<size_t>(best)]);

    // For all v in v^(i).d: v.d <- v.d U v^(i).d - {v^(i)}  (lines 7-9).
    for (NodeId v : merged) {
      auto& dv = d[static_cast<size_t>(v)];
      const i64 old_size = static_cast<i64>(dv.size());
      merged_into.clear();
      std::set_union(dv.begin(), dv.end(), merged.begin(), merged.end(),
                     std::back_inserter(merged_into));
      merged_into.erase(
          std::remove_if(merged_into.begin(), merged_into.end(),
                         [&](NodeId w) { return w == v || w == best; }),
          merged_into.end());
      dv.swap(merged_into);
      const i64 new_size = static_cast<i64>(dv.size());
      if (new_size != old_size) {
        by_size.erase({old_size, v});
        by_size.emplace(new_size, v);
      }
    }
  }
  return out;
}

Ordering breadth_first(const Graph& graph) {
  const i64 n = graph.num_nodes();
  Ordering out;
  out.seq.reserve(static_cast<size_t>(n));
  out.pos.assign(static_cast<size_t>(n), -1);

  Bitset seen(n);
  std::queue<NodeId> q;
  auto push = [&](NodeId v) {
    if (!seen.test(v)) {
      seen.set(v);
      q.push(v);
    }
  };
  for (NodeId start = 0; start < n; ++start) {
    // The graph is expected to be connected; the loop keeps the ordering
    // total even if it is not.
    push(start);
    while (!q.empty()) {
      const NodeId v = q.front();
      q.pop();
      out.pos[static_cast<size_t>(v)] = static_cast<i64>(out.seq.size());
      out.seq.push_back(v);
      for (NodeId w : graph.neighbors(v)) push(w);
    }
  }
  return out;
}

Ordering make_ordering(const Graph& graph, OrderingKind kind) {
  switch (kind) {
    case OrderingKind::kGenerateSeq: return generate_seq(graph);
    case OrderingKind::kBreadthFirst: return breadth_first(graph);
  }
  PASE_CHECK(false);
  return {};
}

}  // namespace pase
