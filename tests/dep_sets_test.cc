#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/dep_sets.h"
#include "models/models.h"
#include "test_util.h"

namespace pase {
namespace {

// All expectations in this file on the toy graph mirror paper Fig. 2, using
// the identity ordering (node k-1 is the paper's v^(k)). Positions here are
// 0-based: paper's i = 5 is position 4.

TEST(DepSets, Fig2ConnectedSet) {
  const Graph g = testing::fig2_toy_graph();
  const Ordering o = testing::make_identity_ordering(g);
  const VertexSets s = compute_vertex_sets(g, o, 4);
  // X(5) = {v1, v2, v3, v5} -> 0-based node ids {0, 1, 2, 4}.
  EXPECT_EQ(s.connected, (std::vector<NodeId>{0, 1, 2, 4}));
}

TEST(DepSets, Fig2DependentSet) {
  const Graph g = testing::fig2_toy_graph();
  const Ordering o = testing::make_identity_ordering(g);
  const VertexSets s = compute_vertex_sets(g, o, 4);
  // D(5) = {v8} -> node id 7.
  EXPECT_EQ(s.dependent, (std::vector<NodeId>{7}));
}

TEST(DepSets, Fig2ConnectedSubsets) {
  const Graph g = testing::fig2_toy_graph();
  const Ordering o = testing::make_identity_ordering(g);
  const VertexSets s = compute_vertex_sets(g, o, 4);
  // S(5) = {{v1, v2}, {v3}}: anchors are the max positions, i.e. v2
  // (position 1) and v3 (position 2).
  EXPECT_EQ(s.subset_anchors, (std::vector<i64>{1, 2}));
}

TEST(DepSets, Fig2NaiveDependentSetIsLarger) {
  // D_B(5) = N(V_<=5) n V_>5 = {v7, v8, v9}: the naive recurrence's set is
  // strictly larger than D(5), which is the whole point of recurrence (4).
  const Graph g = testing::fig2_toy_graph();
  const Ordering o = testing::make_identity_ordering(g);
  Bitset prefix_neighbors(g.num_nodes());
  for (NodeId v = 0; v <= 4; ++v)
    for (NodeId w : g.neighbors(v))
      if (w > 4) prefix_neighbors.set(w);
  EXPECT_EQ(prefix_neighbors.to_vector(), (std::vector<i64>{6, 7, 8}));
  EXPECT_LT(compute_vertex_sets(g, o, 4).dependent.size(),
            prefix_neighbors.to_vector().size());
}

TEST(DepSets, LastVertexHasEmptyDependentSetAndFullConnectedSet) {
  for (const auto& b : models::paper_benchmarks()) {
    const Ordering o = generate_seq(b.graph);
    const VertexSets s =
        compute_vertex_sets(b.graph, o, b.graph.num_nodes() - 1);
    EXPECT_TRUE(s.dependent.empty()) << b.name;
    // G is weakly connected, so X(|V|) = V (used by Theorem 1's proof).
    EXPECT_EQ(static_cast<i64>(s.connected.size()), b.graph.num_nodes())
        << b.name;
  }
}

TEST(DepSets, FirstVertexSets) {
  const Graph g = testing::fig2_toy_graph();
  const Ordering o = testing::make_identity_ordering(g);
  const VertexSets s = compute_vertex_sets(g, o, 0);
  EXPECT_EQ(s.connected, (std::vector<NodeId>{0}));
  EXPECT_EQ(s.dependent, (std::vector<NodeId>{1}));  // v1's neighbor v2
  EXPECT_TRUE(s.subset_anchors.empty());
}

TEST(DepSets, ConnectedSetContainsSelf) {
  const Graph g = testing::random_graph(9, 4, 3);
  const Ordering o = generate_seq(g);
  for (i64 i = 0; i < g.num_nodes(); ++i) {
    const VertexSets s = compute_vertex_sets(g, o, i);
    const NodeId vi = o.seq[static_cast<size_t>(i)];
    EXPECT_TRUE(std::find(s.connected.begin(), s.connected.end(), vi) !=
                s.connected.end());
  }
}

TEST(DepSets, DependentSetIsDisjointFromPrefix) {
  const Graph g = testing::random_graph(9, 4, 5);
  const Ordering o = generate_seq(g);
  for (i64 i = 0; i < g.num_nodes(); ++i) {
    for (NodeId d : compute_vertex_sets(g, o, i).dependent)
      EXPECT_GT(o.pos[static_cast<size_t>(d)], i);
  }
}

TEST(DepSets, AnchorsCoverConnectedSetExactlyOnce) {
  // The components X(j), j in S(i), partition X(i) - {v^(i)} (the proof of
  // Theorem 1 relies on pairwise disjointness).
  const Graph g = testing::random_graph(11, 5, 7);
  const Ordering o = generate_seq(g);
  for (i64 i = 0; i < g.num_nodes(); ++i) {
    const VertexSets s = compute_vertex_sets(g, o, i);
    std::vector<NodeId> covered;
    for (i64 j : s.subset_anchors) {
      const VertexSets sj = compute_vertex_sets(g, o, j);
      covered.insert(covered.end(), sj.connected.begin(),
                     sj.connected.end());
    }
    std::sort(covered.begin(), covered.end());
    EXPECT_TRUE(std::adjacent_find(covered.begin(), covered.end()) ==
                covered.end())
        << "components overlap at position " << i;
    std::vector<NodeId> expected = s.connected;
    expected.erase(std::remove(expected.begin(), expected.end(),
                               o.seq[static_cast<size_t>(i)]),
                   expected.end());
    EXPECT_EQ(covered, expected) << "position " << i;
  }
}

TEST(DepSets, AnchorDependentSetsNestIntoParent) {
  // D(j) subseteq D(i) u {v^(i)} for X(j) in S(i) — the property the DP's
  // table lookups rely on.
  for (u64 seed = 1; seed <= 6; ++seed) {
    const Graph g = testing::random_graph(10, 5, seed);
    const Ordering o = generate_seq(g);
    for (i64 i = 0; i < g.num_nodes(); ++i) {
      const VertexSets s = compute_vertex_sets(g, o, i);
      const NodeId vi = o.seq[static_cast<size_t>(i)];
      for (i64 j : s.subset_anchors) {
        for (NodeId d : compute_vertex_sets(g, o, j).dependent) {
          EXPECT_TRUE(d == vi ||
                      std::binary_search(s.dependent.begin(),
                                         s.dependent.end(), d))
              << "seed " << seed << " i " << i << " j " << j;
        }
      }
    }
  }
}

TEST(DepSets, MaxDependentSetSizeMatchesPerPositionMax) {
  const Graph g = models::inception_v3();
  const Ordering o = generate_seq(g);
  i64 m = 0;
  for (i64 i = 0; i < g.num_nodes(); ++i)
    m = std::max(m, static_cast<i64>(
                        compute_vertex_sets(g, o, i).dependent.size()));
  EXPECT_EQ(max_dependent_set_size(g, o), m);
}

// The one-pass union-find sweep the solver uses must equal the prefix-DFS
// reference position for position: D(i) (sorted by id), the S(i) anchors,
// and the roots, which are each weakly connected component's maximum
// position in descending order (the positions whose X(i) is a whole
// component).
void expect_sweep_matches_reference(const Graph& g, const Ordering& o) {
  const DepSets sweep = dep_sets(g, o);
  ASSERT_EQ(static_cast<i64>(sweep.dependent.size()), g.num_nodes());
  ASSERT_EQ(static_cast<i64>(sweep.anchors.size()), g.num_nodes());
  std::vector<i64> roots;
  Bitset covered(g.num_nodes());
  for (i64 i = g.num_nodes() - 1; i >= 0; --i) {
    const VertexSets ref = compute_vertex_sets(g, o, i);
    EXPECT_EQ(sweep.dependent[static_cast<size_t>(i)], ref.dependent)
        << "D at position " << i;
    EXPECT_EQ(sweep.anchors[static_cast<size_t>(i)], ref.subset_anchors)
        << "S anchors at position " << i;
    if (covered.test(o.seq[static_cast<size_t>(i)])) continue;
    roots.push_back(i);
    for (NodeId v : ref.connected) covered.set(v);
  }
  EXPECT_EQ(sweep.roots, roots);
}

TEST(DepSetSweep, MatchesDfsReferenceAcrossZoo) {
  for (const char* name :
       {"alexnet", "inception_v3", "rnnlm", "transformer", "densenet",
        "resnet50", "vgg16", "mobilenet_v1", "gnmt", "mlp",
        "transformer_stack_8"}) {
    const Graph g = *models::zoo_graph(name);
    for (const OrderingKind kind :
         {OrderingKind::kGenerateSeq, OrderingKind::kBreadthFirst}) {
      SCOPED_TRACE(std::string(name) +
                   (kind == OrderingKind::kGenerateSeq ? " gs" : " bfs"));
      expect_sweep_matches_reference(g, make_ordering(g, kind));
    }
  }
}

TEST(DepSetSweep, MatchesDfsReferenceOnSeededRandomGraphs) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    const Graph g = testing::random_graph(6 + static_cast<i64>(seed % 14),
                                          static_cast<i64>(seed % 9), seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_sweep_matches_reference(g, generate_seq(g));
    expect_sweep_matches_reference(g, breadth_first(g));
    expect_sweep_matches_reference(g, testing::make_identity_ordering(g));
  }
}

TEST(DepSetSweep, MatchesDfsReferenceOnDisconnectedGraph) {
  // Three weakly connected components (two random graphs and an isolated
  // node), the shape pipeline-stage subgraphs can take: one root each.
  Graph g;
  auto append = [&](const Graph& part) {
    const NodeId base = static_cast<NodeId>(g.num_nodes());
    for (const Node& n : part.nodes()) g.add_node(n);
    for (const Edge& e : part.edges())
      g.add_edge(base + e.src, base + e.dst, e.shape, e.src_dims,
                 e.dst_dims);
  };
  append(testing::random_graph(7, 3, 4));
  g.add_node(ops::fully_connected("isolated", 8, 8, 8));
  append(testing::random_graph(9, 4, 8));
  for (const OrderingKind kind :
       {OrderingKind::kGenerateSeq, OrderingKind::kBreadthFirst}) {
    const Ordering o = make_ordering(g, kind);
    expect_sweep_matches_reference(g, o);
    EXPECT_EQ(dep_sets(g, o).roots.size(), 3u);
  }
  expect_sweep_matches_reference(g, testing::make_identity_ordering(g));
}

TEST(DepSetSweep, Fig2SetsFromTheSweep) {
  const Graph g = testing::fig2_toy_graph();
  const DepSets s = dep_sets(g, testing::make_identity_ordering(g));
  // Paper Fig. 2: D(5) = {v8}, S(5) = {X(2), X(3)} (0-based positions 1, 2).
  EXPECT_EQ(s.dependent[4], (std::vector<NodeId>{7}));
  EXPECT_EQ(s.anchors[4], (std::vector<i64>{1, 2}));
  EXPECT_EQ(s.roots, (std::vector<i64>{8}));
}

}  // namespace
}  // namespace pase
