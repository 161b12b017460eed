#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/dep_sets.h"
#include "core/ordering.h"
#include "models/models.h"
#include "ops/ops.h"
#include "test_util.h"
#include "util/bitset.h"

namespace pase {
namespace {

void expect_permutation(const Graph& g, const Ordering& o) {
  ASSERT_EQ(static_cast<i64>(o.seq.size()), g.num_nodes());
  std::set<NodeId> seen(o.seq.begin(), o.seq.end());
  EXPECT_EQ(static_cast<i64>(seen.size()), g.num_nodes());
  for (i64 i = 0; i < g.num_nodes(); ++i)
    EXPECT_EQ(o.pos[static_cast<size_t>(o.seq[static_cast<size_t>(i)])], i);
}

/// Paper Fig. 3 exactly as written: at every step, scan the unsequenced
/// nodes in id order for the first strictly smaller |v.d| — O(|V|^2)
/// bitset popcounts. The test referee for generate_seq()'s incremental
/// (size, id)-ordered greedy, which must reproduce it bit for bit.
Ordering reference_generate_seq(const Graph& graph) {
  const i64 n = graph.num_nodes();
  Ordering out;
  out.pos.assign(static_cast<size_t>(n), -1);
  out.dep_sets.resize(static_cast<size_t>(n));
  std::vector<Bitset> d(static_cast<size_t>(n));
  for (NodeId v = 0; v < n; ++v)
    d[static_cast<size_t>(v)] = graph.neighbor_set(v);
  Bitset unsequenced(n);
  for (NodeId v = 0; v < n; ++v) unsequenced.set(v);

  for (i64 i = 0; i < n; ++i) {
    // A node's own entry in v.d (picked up through a merge) is not counted.
    NodeId best = kInvalidNode;
    i64 best_size = 0;
    unsequenced.for_each([&](i64 u) {
      const auto& du = d[static_cast<size_t>(u)];
      const i64 size = du.count() - (du.test(u) ? 1 : 0);
      if (best == kInvalidNode || size < best_size) {
        best = static_cast<NodeId>(u);
        best_size = size;
      }
    });
    out.seq.push_back(best);
    out.pos[static_cast<size_t>(best)] = i;
    unsequenced.reset(best);
    d[static_cast<size_t>(best)].reset(best);
    d[static_cast<size_t>(best)].for_each([&](i64 v) {
      out.dep_sets[static_cast<size_t>(i)].push_back(static_cast<NodeId>(v));
    });
    const Bitset merged = d[static_cast<size_t>(best)];
    merged.for_each([&](i64 v) {
      auto& dv = d[static_cast<size_t>(v)];
      dv |= merged;
      dv.reset(best);
    });
  }
  return out;
}

void expect_same_ordering(const Ordering& a, const Ordering& b) {
  ASSERT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.pos, b.pos);
  EXPECT_EQ(a.dep_sets, b.dep_sets);
}

TEST(GenerateSeq, IncrementalMatchesScanAcrossZoo) {
  for (const char* name :
       {"alexnet", "inception_v3", "rnnlm", "transformer", "densenet",
        "resnet50", "vgg16", "mobilenet_v1", "gnmt", "mlp", "resnet_large_p",
        "transformer_pipelined"}) {
    const Graph g = *models::zoo_graph(name);
    SCOPED_TRACE(name);
    expect_same_ordering(generate_seq(g), reference_generate_seq(g));
  }
}

TEST(GenerateSeq, IncrementalMatchesScanOnTransformerStacks) {
  for (const i64 n : {1, 4, 5, 6, 8, 12, 16, 24, 40, 64, 100}) {
    const Graph g = models::transformer_stack(n);
    SCOPED_TRACE("N=" + std::to_string(n));
    expect_same_ordering(generate_seq(g), reference_generate_seq(g));
  }
}

TEST(GenerateSeq, IncrementalMatchesScanOnRandomRepeatedBlocks) {
  for (const u64 seed : {1ull, 2ull, 5ull, 9ull}) {
    for (const i64 period : {1, 2, 3}) {
      const Graph g =
          testing::repeated_block_graph(period, /*repeats=*/9, seed);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " period=" + std::to_string(period));
      expect_same_ordering(generate_seq(g), reference_generate_seq(g));
    }
  }
}

TEST(GenerateSeq, IncrementalMatchesScanOnSeededRandomGraphs) {
  // Dense random graphs make many size ties and large merges, the cases
  // where an incremental update could drift from the scan.
  for (u64 seed = 1; seed <= 40; ++seed) {
    const Graph g = testing::random_graph(8 + static_cast<i64>(seed % 24),
                                          static_cast<i64>(seed % 17), seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_same_ordering(generate_seq(g), reference_generate_seq(g));
  }
}

TEST(Ordering, GenerateSeqIsPermutation) {
  for (const auto& b : models::paper_benchmarks())
    expect_permutation(b.graph, generate_seq(b.graph));
}

TEST(Ordering, BreadthFirstIsPermutation) {
  for (const auto& b : models::paper_benchmarks())
    expect_permutation(b.graph, breadth_first(b.graph));
}

TEST(Ordering, MakeOrderingDispatch) {
  const Graph g = models::alexnet();
  EXPECT_EQ(make_ordering(g, OrderingKind::kGenerateSeq).seq,
            generate_seq(g).seq);
  EXPECT_EQ(make_ordering(g, OrderingKind::kBreadthFirst).seq,
            breadth_first(g).seq);
}

TEST(Ordering, DeterministicAcrossRuns) {
  const Graph g = models::inception_v3();
  EXPECT_EQ(generate_seq(g).seq, generate_seq(g).seq);
  EXPECT_EQ(breadth_first(g).seq, breadth_first(g).seq);
}

// Theorem 2: the v.d sets maintained incrementally by GenerateSeq equal the
// definitional dependent sets D(i) computed by DFS.
class Theorem2Sweep : public ::testing::TestWithParam<u64> {};

TEST_P(Theorem2Sweep, GenerateSeqDepSetsMatchDefinition) {
  const Graph g = testing::random_graph(10, 6, GetParam());
  const Ordering o = generate_seq(g);
  for (i64 i = 0; i < g.num_nodes(); ++i) {
    const VertexSets s = compute_vertex_sets(g, o, i);
    EXPECT_EQ(o.dep_sets[static_cast<size_t>(i)], s.dependent)
        << "position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem2Sweep,
                         ::testing::Range<u64>(1, 13));

TEST(Ordering, Theorem2OnPaperBenchmarks) {
  for (const auto& b : models::paper_benchmarks()) {
    const Ordering o = generate_seq(b.graph);
    for (i64 i = 0; i < b.graph.num_nodes(); ++i) {
      const VertexSets s = compute_vertex_sets(b.graph, o, i);
      ASSERT_EQ(o.dep_sets[static_cast<size_t>(i)], s.dependent)
          << b.name << " position " << i;
    }
  }
}

TEST(Ordering, PathGraphDependentSetsAreSingletons) {
  // AlexNet is a path graph: |D(i)| <= 1 for every vertex under any
  // ordering family we provide (paper Table I discussion).
  const Graph g = models::alexnet();
  EXPECT_LE(max_dependent_set_size(g, generate_seq(g)), 1);
  EXPECT_LE(max_dependent_set_size(g, breadth_first(g)), 1);
}

TEST(Ordering, RnnlmIsPathGraphToo) {
  const Graph g = models::rnnlm();
  EXPECT_LE(max_dependent_set_size(g, generate_seq(g)), 1);
  EXPECT_LE(max_dependent_set_size(g, breadth_first(g)), 1);
}

TEST(Ordering, InceptionGenerateSeqKeepsDependentSetsTiny) {
  // Paper §III-C: GenerateSeq keeps |D(i) u {v^(i)}| <= 3 for InceptionV3
  // while breadth-first lets dependent sets reach ~10.
  const Graph g = models::inception_v3();
  EXPECT_LE(max_dependent_set_size(g, generate_seq(g)), 2);
  EXPECT_GE(max_dependent_set_size(g, breadth_first(g)), 5);
}

TEST(Ordering, TransformerGenerateSeqBeatsBreadthFirst) {
  const Graph g = models::transformer();
  const i64 m_gs = max_dependent_set_size(g, generate_seq(g));
  const i64 m_bf = max_dependent_set_size(g, breadth_first(g));
  EXPECT_LT(m_gs, m_bf);
  EXPECT_LE(m_gs, 4);
}

TEST(Ordering, GenerateSeqNeverWorseOnRandomGraphs) {
  for (u64 seed = 1; seed <= 10; ++seed) {
    const Graph g = testing::random_graph(12, 5, seed);
    EXPECT_LE(max_dependent_set_size(g, generate_seq(g)),
              max_dependent_set_size(g, breadth_first(g)))
        << "seed " << seed;
  }
}

TEST(Ordering, DenseGraphKeepsLargeDependentSets) {
  // Paper §V: for uniformly dense graphs (DenseNet) no ordering helps.
  const Graph g = models::densenet(32, 1, 6, 32);
  EXPECT_GE(max_dependent_set_size(g, generate_seq(g)), 4);
}

TEST(Ordering, SingleNodeGraph) {
  Graph g;
  g.add_node(ops::fully_connected("only", 4, 4, 4));
  const Ordering o = generate_seq(g);
  ASSERT_EQ(o.seq.size(), 1u);
  EXPECT_TRUE(o.dep_sets[0].empty());
}

}  // namespace
}  // namespace pase
