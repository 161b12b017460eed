// google-benchmark micro-benchmarks for the solver's kernels: vertex
// ordering, dependent-set computation, configuration enumeration, cost
// evaluation and the end-to-end DP solve.
#include <benchmark/benchmark.h>

#include "core/dep_sets.h"
#include "core/dp_solver.h"
#include "cost/cost_model.h"
#include "models/models.h"
#include "ops/ops.h"
#include "search/baselines.h"
#include "sim/simulator.h"

namespace pase {
namespace {

const Graph& inception() {
  static const Graph g = models::inception_v3();
  return g;
}

const Graph& transformer() {
  static const Graph g = models::transformer();
  return g;
}

void BM_GenerateSeq_Inception(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(generate_seq(inception()));
}
BENCHMARK(BM_GenerateSeq_Inception);

void BM_GenerateSeq_Transformer(benchmark::State& state) {
  for (auto _ : state) benchmark::DoNotOptimize(generate_seq(transformer()));
}
BENCHMARK(BM_GenerateSeq_Transformer);

void BM_DepSets_Inception(benchmark::State& state) {
  const Ordering o = generate_seq(inception());
  for (auto _ : state) benchmark::DoNotOptimize(dep_sets(inception(), o));
}
BENCHMARK(BM_DepSets_Inception);

void BM_EnumerateConfigs(benchmark::State& state) {
  const Node conv = ops::conv2d("c", 128, 256, 17, 17, 192, 3, 3);
  ConfigOptions opts;
  opts.max_devices = state.range(0);
  for (auto _ : state)
    benchmark::DoNotOptimize(enumerate_node_configs(conv, opts));
}
BENCHMARK(BM_EnumerateConfigs)->Arg(8)->Arg(64);

void BM_LayerCost_Conv(benchmark::State& state) {
  const Node conv = ops::conv2d("c", 128, 256, 17, 17, 192, 3, 3);
  const Config cfg{8, 2, 1, 1, 2, 1, 1};
  CostParams p;
  p.r = 500.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(layer_cost(conv, cfg, p));
}
BENCHMARK(BM_LayerCost_Conv);

void BM_TransferBytes(benchmark::State& state) {
  Graph g;
  g.add_node(ops::fully_connected("a", 128, 4096, 4096));
  g.add_node(ops::fully_connected("b", 128, 4096, 4096));
  g.add_edge_named(0, 1, {"b", "n"}, {"b", "c"});
  const Config cu{4, 4, 2}, cv{2, 8, 2};
  CostParams p;
  for (auto _ : state)
    benchmark::DoNotOptimize(transfer_bytes(g.edge(0), cu, cv, p));
}
BENCHMARK(BM_TransferBytes);

void BM_FullCostEvaluation_Inception(benchmark::State& state) {
  CostParams p = CostParams::for_machine(MachineSpec::gtx1080ti(8));
  const CostModel cm(inception(), p);
  const Strategy phi = data_parallel_strategy(inception(), 8);
  for (auto _ : state) benchmark::DoNotOptimize(cm.total_cost(phi));
}
BENCHMARK(BM_FullCostEvaluation_Inception);

void BM_DeltaCostEvaluation_Inception(benchmark::State& state) {
  CostParams p = CostParams::for_machine(MachineSpec::gtx1080ti(8));
  const CostModel cm(inception(), p);
  const Strategy phi = data_parallel_strategy(inception(), 8);
  ConfigOptions copts;
  copts.max_devices = 8;
  const auto configs = enumerate_node_configs(inception().node(10), copts);
  for (auto _ : state)
    benchmark::DoNotOptimize(cm.delta_cost(phi, 10, configs.back()));
}
BENCHMARK(BM_DeltaCostEvaluation_Inception);

void BM_FindBestStrategy(benchmark::State& state) {
  const auto benchmarks = models::paper_benchmarks();
  const Graph& g = benchmarks[static_cast<size_t>(state.range(0))].graph;
  DpOptions opt;
  opt.config_options.max_devices = state.range(1);
  opt.cost_params =
      CostParams::for_machine(MachineSpec::gtx1080ti(state.range(1)));
  for (auto _ : state)
    benchmark::DoNotOptimize(find_best_strategy(g, opt));
  state.SetLabel(benchmarks[static_cast<size_t>(state.range(0))].name +
                 " p=" + std::to_string(state.range(1)));
}
BENCHMARK(BM_FindBestStrategy)
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({3, 8})
    ->Unit(benchmark::kMillisecond);

void BM_SimulateStep_Inception(benchmark::State& state) {
  const Simulator sim(inception(), MachineSpec::gtx1080ti(8));
  const Strategy phi = data_parallel_strategy(inception(), 8);
  for (auto _ : state) benchmark::DoNotOptimize(sim.simulate(phi));
}
BENCHMARK(BM_SimulateStep_Inception);

}  // namespace
}  // namespace pase

BENCHMARK_MAIN();
