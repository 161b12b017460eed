// Search-time scaling trajectory: cold solve vs delta re-solve on the
// generated transformer_stack family (docs/SCALING.md), the numbers the
// ROADMAP's BENCH_table1.json trajectory tracks.
//
// For each N in {8, 100, 1000} (transformer_stack_<N>, 6N + 4 layers):
//   cold_ms   exact solve, no context
//   delta_ms  re-solve after a batch mutation through a DpContext primed
//             by a previous solve (ordering/vertex sets reused)
// Small timings are min-of-3 trials; the N=1000 cold solve is a single
// trial (its noise is far below the gate's band, and three trials would
// triple the stage's wall time for nothing).
//
// Output is one canonical JSON object on stdout (redirect to
// BENCH_table1.json); human-readable numbers go to stderr. The JSON
// carries a top-level "gated" path list, which is what tools/bench_gate
// diffs against the checked-in baseline (calibration-normalized via
// cpu_calib_ms, exactly like BENCH_serve.json).
//
// Structural claims enforced here (exit 1 on violation, so check.sh fails
// even before the gate runs):
//   - delta results are bit-identical to a cold solve of the mutated
//     instance at every N (strategy and best_cost);
//   - the cold solve scales near-linearly: cold(N=1000) <= 20x
//     cold(N=100) for 10x the layers (a quadratic ordering or vertex-set
//     phase would show ~100x);
//   - the N=1000 delta re-solve is sub-second and actually reused tables.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serve/json.h"

using namespace pase;
using pase::bench::calibrate_cpu_ms;
using pase::bench::now_ms;
using pase::serve::Json;
using pase::serve::write_json;

namespace {

struct Row {
  i64 blocks = 0;
  double cold_ms = 0.0;
  double delta_ms = 0.0;
  bool delta_reused = false;
  bool identical = false;
  i64 layers = 0;
};

bool same_result(const DpResult& a, const DpResult& b) {
  return a.status == b.status && a.best_cost == b.best_cost &&
         a.strategy == b.strategy;
}

/// Min-of-`trials` wall time of find_best_strategy; the first trial's
/// result is kept (all trials are bit-identical — the DP is deterministic).
double timed_solve(const Graph& graph, const DpOptions& options, int trials,
                   DpResult* out) {
  double best = 0.0;
  for (int t = 0; t < trials; ++t) {
    const double t0 = now_ms();
    DpResult r = find_best_strategy(graph, options);
    const double ms = now_ms() - t0;
    if (t == 0) *out = std::move(r);
    if (t == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace

int main() {
  const double calib_ms = calibrate_cpu_ms(3);
  std::fprintf(stderr, "cpu calibration: %.3f ms (memory-bound spin)\n",
               calib_ms);

  const MachineSpec machine = MachineSpec::gtx1080ti(8);
  const std::vector<i64> family = {8, 100, 1000};
  bool ok = true;
  std::vector<Row> rows;

  std::fprintf(stderr, "%-24s %6s %12s %12s\n", "model", "layers",
               "cold(ms)", "delta(ms)");
  for (const i64 n : family) {
    Row row;
    row.blocks = n;
    const Graph graph = models::transformer_stack(n);
    const Graph mutated = models::transformer_stack(n, /*batch=*/16);
    row.layers = graph.num_nodes();
    // One trial of the thousand-layer instance is plenty (file comment).
    const int cold_trials = n <= 100 ? 3 : 1;

    const DpOptions cold_options = bench::dp_options(machine);
    DpResult cold;
    row.cold_ms = timed_solve(graph, cold_options, cold_trials, &cold);

    // Delta: prime a context with the original graph, then re-solve the
    // batch-mutated instance (same adjacency) through it. Every trial
    // reuses the stored ordering/vertex sets.
    DpContext context;
    DpOptions delta_options = cold_options;
    delta_options.context = &context;
    DpResult primed, delta, delta_cold;
    timed_solve(graph, delta_options, 1, &primed);
    row.delta_ms = timed_solve(mutated, delta_options, 3, &delta);
    row.delta_reused = delta.reused_tables;
    // The delta result must match a context-free solve of the mutated
    // instance, and the primed solve the cold one.
    timed_solve(mutated, cold_options, 1, &delta_cold);
    row.identical =
        same_result(cold, primed) && same_result(delta, delta_cold);

    std::fprintf(stderr, "transformer_stack_%-6lld %6lld %12.1f %12.1f%s%s\n",
                 static_cast<long long>(n),
                 static_cast<long long>(row.layers), row.cold_ms,
                 row.delta_ms, row.identical ? "" : "  NOT BIT-IDENTICAL",
                 row.delta_reused ? "" : "  DELTA-DID-NOT-REUSE");
    if (!row.identical) {
      std::fprintf(stderr,
                   "FAIL: delta solve differs from cold at N=%lld\n",
                   static_cast<long long>(n));
      ok = false;
    }
    if (!row.delta_reused) {
      std::fprintf(stderr, "FAIL: delta re-solve missed the context at "
                   "N=%lld\n", static_cast<long long>(n));
      ok = false;
    }
    rows.push_back(row);
  }

  const Row& mid = rows[1];
  const Row& big = rows.back();
  const double cold_growth = mid.cold_ms > 0 ? big.cold_ms / mid.cold_ms : 0.0;
  std::fprintf(stderr, "cold growth N=100 -> N=1000: %.1fx\n", cold_growth);
  if (cold_growth > 20.0) {
    std::fprintf(stderr,
                 "FAIL: cold(N=1000) is %.1fx cold(N=100), above the 20x "
                 "near-linear bar\n",
                 cold_growth);
    ok = false;
  }
  if (big.delta_ms >= 1000.0) {
    std::fprintf(stderr,
                 "FAIL: N=1000 delta re-solve took %.0f ms (>= 1 s)\n",
                 big.delta_ms);
    ok = false;
  }

  Json models_json = Json::make_object();
  for (const Row& row : rows) {
    Json entry = Json::make_object();
    entry.object["layers"] =
        Json::make_number(static_cast<double>(row.layers));
    entry.object["cold_ms"] = Json::make_number(row.cold_ms);
    entry.object["delta_ms"] = Json::make_number(row.delta_ms);
    models_json.object["transformer_stack_" + std::to_string(row.blocks)] =
        std::move(entry);
  }

  // The gate bands the absolute search times of the big instances; the
  // N=8 row is informational (a few ms, too close to scheduler noise), and
  // the growth ratio is enforced as a hard claim above instead — the
  // gate's regression/stale bands are built for "lower is better"
  // latencies, not ratios.
  Json gated = Json::make_array();
  for (const char* path :
       {"models.transformer_stack_100.cold_ms",
        "models.transformer_stack_1000.cold_ms",
        "models.transformer_stack_1000.delta_ms"})
    gated.array.push_back(Json::make_string(path));

  Json report = Json::make_object();
  report.object["bench"] = Json::make_string("table1_scaling");
  report.object["cpu_calib_ms"] = Json::make_number(calib_ms);
  report.object["devices"] =
      Json::make_number(static_cast<double>(machine.num_devices));
  report.object["gated"] = std::move(gated);
  report.object["models"] = std::move(models_json);
  std::printf("%s\n", write_json(report).c_str());
  return ok ? 0 : 1;
}
