#include "cost/cost_cache.h"

#include <gtest/gtest.h>

#include "core/dp_solver.h"
#include "cost/cost_model.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace pase {
namespace {

CostParams params_for(i64 p) {
  return CostParams::for_machine(MachineSpec::gtx1080ti(p));
}

// ---- Structural equivalence classes.

TEST(CostCache, IdenticalLayersShareAClass) {
  // mlp(16, {64, 64, 64}) stacks FC layers with identical shapes; the
  // repeated middle layers must collapse into one class.
  const Graph g = models::mlp(16, {64, 64, 64, 64});
  const CostCache cache(g);
  EXPECT_LT(cache.num_node_classes(), g.num_nodes());
  EXPECT_LT(cache.num_edge_classes(), g.num_edges());
}

TEST(CostCache, TransformerLayerStackSharesClasses) {
  // 6 structurally identical encoder and decoder layers: class count must
  // be far below the node count.
  const Graph g = models::transformer();
  const CostCache cache(g);
  EXPECT_LT(cache.num_node_classes(), g.num_nodes() / 2);
}

TEST(CostCache, DistinctLayersGetDistinctClasses) {
  Graph g;
  const NodeId a = g.add_node(ops::fully_connected("A", 64, 4096, 1024));
  const NodeId b = g.add_node(ops::fully_connected("B", 64, 4096, 4096));
  const NodeId c = g.add_node(ops::fully_connected("C", 64, 4096, 1024));
  g.add_edge_named(a, b, {"b", "n"}, {"b", "c"});
  g.add_edge_named(b, c, {"b", "n"}, {"b", "c"});
  const CostCache cache(g);
  EXPECT_NE(cache.node_class(a), cache.node_class(b));
  EXPECT_EQ(cache.node_class(a), cache.node_class(c));  // A and C identical
}

// ---- Hit/miss accounting and eviction-free correctness.

TEST(CostCache, CountsHitsAndMisses) {
  const Graph g = testing::random_graph(5, 2, 42);
  CostCache cache(g);
  CostModel cached(g, params_for(4));
  cached.attach_cache(&cache);
  const CostModel plain(g, params_for(4));

  ConfigOptions copts;
  copts.max_devices = 4;
  const ConfigCache configs(g, copts);
  ASSERT_GE(configs.at(0).size(), 2u);
  const Config cfg = configs.at(0)[1];  // some non-serial configuration
  const double first = cached.node_cost(0, cfg);
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 1u);
  const double second = cached.node_cost(0, cfg);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  // A cache hit returns exactly the bits the direct computation produces.
  EXPECT_EQ(first, second);
  EXPECT_EQ(first, plain.node_cost(0, cfg));
}

TEST(CostCache, CachedValuesMatchUncachedEverywhere) {
  // No eviction and exact class construction: every (node, config) and
  // (edge, config pair) query must agree bit-for-bit with the uncached
  // model, hit or miss, across repeated passes.
  const Graph g = testing::random_graph(6, 3, 7);
  const ConfigCache configs(g, [] {
    ConfigOptions o;
    o.max_devices = 8;
    return o;
  }());
  CostCache cache(g);
  CostModel cached(g, params_for(8));
  cached.attach_cache(&cache);
  const CostModel plain(g, params_for(8));

  u64 misses_after_first_pass = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (NodeId v = 0; v < g.num_nodes(); ++v)
      for (const Config& c : configs.at(v))
        ASSERT_EQ(cached.node_cost(v, c), plain.node_cost(v, c));
    for (const Edge& e : g.edges())
      for (const Config& cs : configs.at(e.src))
        for (const Config& cd : configs.at(e.dst))
          ASSERT_EQ(cached.edge_cost(e, cs, cd), plain.edge_cost(e, cs, cd));
    if (pass == 0) misses_after_first_pass = cache.misses();
  }
  EXPECT_GT(cache.hits(), 0u);
  // Eviction-free: the second pass is all hits, no new misses.
  EXPECT_EQ(cache.misses(), misses_after_first_pass);
}

// ---- End-to-end: the cache is invisible in DP results.

TEST(CostCache, DpSolverResultsIdenticalWithAndWithoutCache) {
  for (const char* name : {"alexnet", "transformer"}) {
    const Graph g = std::string(name) == "alexnet" ? models::alexnet()
                                                   : models::transformer();
    DpOptions with = [] {
      DpOptions o;
      o.config_options.max_devices = 8;
      o.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(8));
      return o;
    }();
    DpOptions without = with;
    with.use_cost_cache = true;
    without.use_cost_cache = false;
    MetricsRegistry with_reg, without_reg;
    with.metrics = &with_reg;
    without.metrics = &without_reg;
    const auto memo_hits = [](const MetricsRegistry& reg) {
      return reg.counter("dp.cost_memo.node_hits") +
             reg.counter("dp.cost_memo.edge_hits");
    };

    const DpResult a = find_best_strategy(g, with);
    const DpResult b = find_best_strategy(g, without);
    ASSERT_EQ(a.status, b.status) << name;
    EXPECT_EQ(a.best_cost, b.best_cost) << name;
    EXPECT_EQ(a.strategy, b.strategy) << name;
    // Memoization served evaluations on these repeated-structure models,
    // from the cache or from the per-class memo in front of it...
    EXPECT_GT(a.cost_cache_hits + memo_hits(with_reg), 0u) << name;
    // ...and the uncached run memoizes nothing at all.
    EXPECT_EQ(b.cost_cache_hits + b.cost_cache_misses, 0u) << name;
    EXPECT_EQ(memo_hits(without_reg), 0u) << name;
  }
}

}  // namespace
}  // namespace pase
