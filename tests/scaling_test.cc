// Repeated-structure scaling (DESIGN.md §12, docs/SCALING.md). The
// contract under test is bit-identity: the per-class cost memo and
// DpContext reuse must produce exactly the result the unmemoized, context-
// free solver produces, not an approximation.
#include <gtest/gtest.h>

#include <string>

#include "core/dp_solver.h"
#include "cost/cost_classes.h"
#include "models/models.h"
#include "test_util.h"

namespace pase {
namespace {

DpOptions options_for(i64 p) {
  DpOptions opt;
  opt.config_options.max_devices = p;
  opt.cost_params = CostParams::for_machine(MachineSpec::gtx1080ti(p));
  return opt;
}

/// The plain solve with the per-class cost memo off: every cost table is
/// priced directly.
DpOptions unmemoized(i64 p) {
  DpOptions opt = options_for(p);
  opt.use_cost_cache = false;
  return opt;
}

/// Strategy AND cost must be exactly equal — the memo/reuse contract is
/// bit-identity, so no EXPECT_NEAR anywhere in this file.
void expect_same_result(const DpResult& a, const DpResult& b) {
  ASSERT_EQ(a.status, b.status);
  EXPECT_EQ(a.best_cost, b.best_cost);
  EXPECT_EQ(a.strategy, b.strategy);
}

// ---------------------------------------------------------------------------
// Per-class cost memo: memoized == unmemoized, bit for bit

TEST(CostMemo, SolveBitIdenticalOnTransformerStack) {
  const Graph g = models::transformer_stack(16);
  const DpResult fast = find_best_strategy(g, options_for(4));
  ASSERT_EQ(fast.status, DpStatus::kOk);
  // Fifteen repeats of one block: the memo must actually serve them, and
  // serve more entries than it prices.
  EXPECT_GT(fast.cost_cache_hits, fast.cost_cache_misses);
  expect_same_result(find_best_strategy(g, unmemoized(4)), fast);
}

TEST(CostMemo, SolveBitIdenticalOnSeededRepeatedBlockGraphs) {
  for (const u64 seed : {1ull, 4ull, 7ull}) {
    const Graph g =
        testing::repeated_block_graph(/*period=*/2, /*repeats=*/7, seed);
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_same_result(find_best_strategy(g, unmemoized(4)),
                       find_best_strategy(g, options_for(4)));
  }
}

TEST(CostMemo, SolveUnchangedOnIrregularGraphs) {
  // AlexNet's layers all differ, and so do a small MLP's: nothing to share.
  for (const char* name : {"alexnet", "mlp"}) {
    const Graph g = *models::zoo_graph(name);
    SCOPED_TRACE(name);
    EXPECT_EQ(CostClasses(g).num_node_classes(), g.num_nodes());
    const DpResult fast = find_best_strategy(g, options_for(4));
    expect_same_result(find_best_strategy(g, unmemoized(4)), fast);
  }
}

TEST(CostMemo, NoCostCacheDisablesTheMemo) {
  const Graph g = models::transformer_stack(8);
  const DpResult r = find_best_strategy(g, unmemoized(4));
  ASSERT_EQ(r.status, DpStatus::kOk);
  EXPECT_EQ(r.cost_cache_hits, 0u);
  EXPECT_GT(r.cost_cache_misses, 0u);
}

/// The memo's proof-by-test across the whole zoo. "Golden" in the name
/// routes it to the `slow` ctest label (tests/CMakeLists.txt): it solves
/// every zoo model twice.
TEST(CostMemoGolden, SolveBitIdenticalAcrossZoo) {
  const char* kZoo[] = {"alexnet",  "inception_v3", "rnnlm",
                        "transformer", "densenet",  "resnet50",
                        "vgg16",    "mobilenet_v1", "gnmt",
                        "mlp",      "transformer_stack_24"};
  for (const char* name : kZoo) {
    const Graph g = *models::zoo_graph(name);
    SCOPED_TRACE(name);
    expect_same_result(find_best_strategy(g, unmemoized(4)),
                       find_best_strategy(g, options_for(4)));
  }
}

TEST(CostMemo, DeterministicAcrossThreadCounts) {
  const Graph g = models::transformer_stack(16);
  DpResult base;
  for (const i64 threads : {1, 4, 8}) {
    DpOptions opt = options_for(4);
    opt.num_threads = threads;
    const DpResult r = find_best_strategy(g, opt);
    ASSERT_EQ(r.status, DpStatus::kOk);
    if (threads == 1) {
      base = r;
    } else {
      expect_same_result(base, r);
      EXPECT_EQ(r.cost_cache_hits, base.cost_cache_hits);
      EXPECT_EQ(r.cost_cache_misses, base.cost_cache_misses);
    }
  }
}

// ---------------------------------------------------------------------------
// Delta re-solve: context reuse == cold solve after each supported mutation

TEST(DeltaReSolve, EqualsColdAfterBatchMutation) {
  DpContext context;
  DpOptions with_context = options_for(4);
  with_context.context = &context;
  // Prime: the solve stores its ordering/vertex sets in the context.
  const DpResult primed =
      find_best_strategy(models::transformer_stack(8), with_context);
  ASSERT_EQ(primed.status, DpStatus::kOk);
  EXPECT_FALSE(primed.reused_tables);
  // Batch 8 -> 16 changes every extent but no adjacency: delta fires.
  const Graph mutated = models::transformer_stack(8, /*batch=*/16);
  const DpResult delta = find_best_strategy(mutated, with_context);
  EXPECT_TRUE(delta.reused_tables);
  expect_same_result(find_best_strategy(mutated, options_for(4)),
                     delta);
}

TEST(DeltaReSolve, EqualsColdAfterDeviceCountMutation) {
  const Graph g = models::transformer_stack(8);
  DpContext context;
  DpOptions with_context = options_for(4);
  with_context.context = &context;
  ASSERT_EQ(find_best_strategy(g, with_context).status, DpStatus::kOk);
  // p 4 -> 8 changes the configuration space, not the graph.
  DpOptions p8 = options_for(8);
  p8.context = &context;
  const DpResult delta = find_best_strategy(g, p8);
  EXPECT_TRUE(delta.reused_tables);
  expect_same_result(find_best_strategy(g, options_for(8)), delta);
}

TEST(DeltaReSolve, EqualsColdAfterBandwidthMutation) {
  const Graph g = models::transformer_stack(8);
  DpContext context;
  DpOptions with_context = options_for(4);
  with_context.context = &context;
  ASSERT_EQ(find_best_strategy(g, with_context).status, DpStatus::kOk);
  // New machine: different link bandwidths/compute, same graph.
  DpOptions slow_links = with_context;
  slow_links.cost_params =
      CostParams::for_machine(MachineSpec::rtx2080ti(4));
  const DpResult delta = find_best_strategy(g, slow_links);
  EXPECT_TRUE(delta.reused_tables);
  DpOptions cold = options_for(4);
  cold.cost_params = CostParams::for_machine(MachineSpec::rtx2080ti(4));
  expect_same_result(find_best_strategy(g, cold), delta);
}

TEST(DeltaReSolve, AdjacencyChangeInvalidatesContext) {
  DpContext context;
  DpOptions with_context = options_for(4);
  with_context.context = &context;
  ASSERT_EQ(find_best_strategy(models::transformer_stack(8), with_context)
                .status,
            DpStatus::kOk);
  // One more block: different adjacency, so the snapshot must NOT be
  // trusted — and the fresh solve replaces it.
  const Graph bigger = models::transformer_stack(9);
  const DpResult miss = find_best_strategy(bigger, with_context);
  EXPECT_FALSE(miss.reused_tables);
  expect_same_result(find_best_strategy(bigger, options_for(4)), miss);
  // The replacement snapshot serves the new graph.
  EXPECT_TRUE(find_best_strategy(bigger, with_context).reused_tables);
}

TEST(DeltaReSolve, DeterministicAcrossThreadCounts) {
  const Graph g = models::transformer_stack(8);
  const Graph mutated = models::transformer_stack(8, /*batch=*/16);
  DpResult base;
  for (const i64 threads : {1, 4, 8}) {
    DpContext context;
    DpOptions opt = options_for(4);
    opt.context = &context;
    opt.num_threads = threads;
    ASSERT_EQ(find_best_strategy(g, opt).status, DpStatus::kOk);
    const DpResult delta = find_best_strategy(mutated, opt);
    EXPECT_TRUE(delta.reused_tables);
    if (threads == 1)
      base = delta;
    else
      expect_same_result(base, delta);
  }
}

}  // namespace
}  // namespace pase
