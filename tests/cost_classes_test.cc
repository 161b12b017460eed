#include "cost/cost_classes.h"

#include <gtest/gtest.h>

#include <string>

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

ConfigOptions config_options_for(i64 p) {
  ConfigOptions o;
  o.max_devices = p;
  return o;
}

DpOptions dp_options_for(i64 p) {
  DpOptions o;
  o.config_options = config_options_for(p);
  o.cost_params = params_for(p);
  return o;
}

/// Every cost entry a completed solve reads: sum_v |C(v)| plus
/// sum over edges of |C(u)| x |C(w)|.
u64 cost_entries(const Graph& g, const ConfigOptions& copts) {
  const ConfigCache configs(g, copts);
  u64 total = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) total += configs.at(v).size();
  for (const Edge& e : g.edges())
    total += configs.at(e.src).size() * configs.at(e.dst).size();
  return total;
}

// ---- Structural equivalence classes.

TEST(CostCache, IdenticalLayersShareAClass) {
  // mlp(16, {64, 64, 64}) stacks FC layers with identical shapes; the
  // repeated middle layers must collapse into one class.
  const Graph g = models::mlp(16, {64, 64, 64, 64});
  const CostClasses classes(g);
  EXPECT_LT(classes.num_node_classes(), g.num_nodes());
  EXPECT_LT(classes.num_edge_classes(), g.num_edges());
}

TEST(CostCache, TransformerLayerStackSharesClasses) {
  // 6 structurally identical encoder and decoder layers: class count must
  // be far below the node count.
  const Graph g = models::transformer();
  const CostClasses classes(g);
  EXPECT_LT(classes.num_node_classes(), g.num_nodes() / 2);
}

TEST(CostCache, DistinctLayersGetDistinctClasses) {
  Graph g;
  const NodeId a = g.add_node(ops::fully_connected("A", 64, 4096, 1024));
  const NodeId b = g.add_node(ops::fully_connected("B", 64, 4096, 4096));
  const NodeId c = g.add_node(ops::fully_connected("C", 64, 4096, 1024));
  g.add_edge_named(a, b, {"b", "n"}, {"b", "c"});
  g.add_edge_named(b, c, {"b", "n"}, {"b", "c"});
  const CostClasses classes(g);
  EXPECT_NE(classes.node_class(a), classes.node_class(b));
  EXPECT_EQ(classes.node_class(a), classes.node_class(c));  // A and C identical
}

// ---- The solver's counters: memo-served plus directly priced entries.

TEST(CostCache, CountsHitsAndMisses) {
  for (const u64 seed : {3ull, 42ull}) {
    const Graph g = testing::repeated_block_graph(/*period=*/2,
                                                  /*repeats=*/5, seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const DpOptions memo = dp_options_for(4);
    DpOptions direct = memo;
    direct.use_cost_cache = false;
    const u64 entries = cost_entries(g, memo.config_options);

    const DpResult a = find_best_strategy(g, memo);
    ASSERT_EQ(a.status, DpStatus::kOk);
    EXPECT_GT(a.cost_cache_hits, 0u);  // repeated blocks share tables
    EXPECT_EQ(a.cost_cache_hits + a.cost_cache_misses, entries);

    // Without the memo every entry is priced directly.
    const DpResult b = find_best_strategy(g, direct);
    EXPECT_EQ(b.cost_cache_hits, 0u);
    EXPECT_EQ(b.cost_cache_misses, entries);
  }
}

TEST(CostCache, CountersIdenticalAcrossThreadsAndSolves) {
  const Graph g = models::inception_v3();
  const u64 entries = cost_entries(g, config_options_for(8));
  DpOptions opt = dp_options_for(8);
  const DpResult base = find_best_strategy(g, opt);
  ASSERT_EQ(base.status, DpStatus::kOk);
  EXPECT_GT(base.cost_cache_hits, 0u);
  EXPECT_EQ(base.cost_cache_hits + base.cost_cache_misses, entries);
  for (const i64 threads : {1, 4, 8}) {
    opt.num_threads = threads;
    // Two back-to-back solves: nothing carries over between them.
    for (int solve = 0; solve < 2; ++solve) {
      const DpResult r = find_best_strategy(g, opt);
      EXPECT_EQ(r.cost_cache_hits, base.cost_cache_hits)
          << "threads=" << threads << " solve=" << solve;
      EXPECT_EQ(r.cost_cache_misses, base.cost_cache_misses)
          << "threads=" << threads << " solve=" << solve;
    }
  }
}

// ---- Memo-served tables hold exactly the direct functions' bits.

TEST(CostCache, CachedValuesMatchUncachedEverywhere) {
  // Every node's t_l vector and every edge's r * t_x matrix, in both
  // orientations and whether priced or served from a same-class table,
  // must agree bit-for-bit with layer_cost and edge_flop_byte_ratio x
  // transfer_bytes on that node or edge itself.
  const char* kZoo[] = {"alexnet",  "inception_v3", "rnnlm",
                        "transformer", "densenet",  "resnet50",
                        "vgg16",    "mobilenet_v1", "gnmt",
                        "mlp",      "transformer_stack_24"};
  const CostParams params = params_for(8);
  for (const char* name : kZoo) {
    SCOPED_TRACE(name);
    const Graph g = *models::zoo_graph(name);
    const ConfigCache configs(g, config_options_for(8));
    CostTables tables(g, configs, params, /*share=*/true);

    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const auto costs = tables.node(v);
      ASSERT_EQ(costs->size(), configs.at(v).size());
      for (size_t c = 0; c < costs->size(); ++c)
        ASSERT_EQ((*costs)[c], layer_cost(g.node(v), configs.at(v)[c], params))
            << "node " << v << " config " << c;
    }
    for (const Edge& e : g.edges()) {
      for (const NodeId from : {e.src, e.dst}) {
        const NodeId to = from == e.src ? e.dst : e.src;
        const auto& rows = configs.at(from);
        const auto& cols = configs.at(to);
        const auto matrix = tables.edge(e.id, from);
        ASSERT_EQ(matrix->size(), rows.size() * cols.size());
        for (size_t r = 0; r < rows.size(); ++r)
          for (size_t c = 0; c < cols.size(); ++c) {
            const Config& src = from == e.src ? rows[r] : cols[c];
            const Config& dst = from == e.src ? cols[c] : rows[r];
            ASSERT_EQ((*matrix)[r * cols.size() + c],
                      edge_flop_byte_ratio(params, src, dst) *
                          transfer_bytes(e, src, dst, params))
                << "edge " << e.id << " from " << from;
          }
      }
    }
    // Served + priced covers every entry handed out (each edge's matrix
    // was asked for twice, once per orientation).
    u64 edge_entries = 0;
    for (const Edge& e : g.edges())
      edge_entries += configs.at(e.src).size() * configs.at(e.dst).size();
    EXPECT_EQ(tables.served() + tables.priced(),
              cost_entries(g, config_options_for(8)) + edge_entries);
    if (std::string(name) == "transformer" ||
        std::string(name) == "transformer_stack_24")
      EXPECT_GT(tables.served(), 0u);
  }
}

// ---- End-to-end: the memo is invisible in DP results.

TEST(CostCache, DpSolverResultsIdenticalWithAndWithoutCache) {
  for (const char* name : {"alexnet", "transformer"}) {
    const Graph g = std::string(name) == "alexnet" ? models::alexnet()
                                                   : models::transformer();
    DpOptions with = dp_options_for(8);
    DpOptions without = with;
    with.use_cost_cache = true;
    without.use_cost_cache = false;

    const DpResult a = find_best_strategy(g, with);
    const DpResult b = find_best_strategy(g, without);
    ASSERT_EQ(a.status, b.status) << name;
    EXPECT_EQ(a.best_cost, b.best_cost) << name;
    EXPECT_EQ(a.strategy, b.strategy) << name;
    // The memo served entries on these models (AlexNet's layers all
    // differ, but some of its edges share a class)...
    EXPECT_GT(a.cost_cache_hits, 0u) << name;
    // ...and the run without it shares nothing and prices everything.
    EXPECT_EQ(b.cost_cache_hits, 0u) << name;
    EXPECT_EQ(b.cost_cache_misses, a.cost_cache_hits + a.cost_cache_misses)
        << name;
  }
}

}  // namespace
}  // namespace pase
