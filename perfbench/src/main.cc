// perfbench: the repository benchmark (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --expected FILE [--trace-out FILE] [--record]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. --record
// prints the expected-result lines of a solver workload instead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

using perfbench::Metric;
using perfbench::Report;

struct Name {
  const char* name;
  const char* unit;
};

constexpr Name kEndToEnd[] = {
    {"setup_s", "s"},          {"search_s", "s"},
    {"solve_ms_p50", "ms"},    {"throughput_rps", "req/s"},
    {"latency_ms_p50", "ms"},  {"latency_ms_p99", "ms"},
    {"quality_geomean", "ratio"}, {"ok_ratio", "ratio"},
    {"peak_rss_mb", "MB"},
};

// A layer a workload does not reach reads 0.
constexpr Name kPerLayer[] = {
    {"models.build_ms", "ms"},
    {"io.parse_model_ms", "ms"},
    {"graph.nodes", "count"},
    {"graph.edges", "count"},
    {"config.enumerate_ms", "ms"},
    {"config.configs_total", "count"},
    {"config.k_max", "count"},
    {"cost.price_ms", "ms"},
    {"cost.price_calls", "count"},
    {"cost.cache_hit_ratio", "ratio"},
    {"core.ordering_ms", "ms"},
    {"core.dep_set_max", "count"},
    {"core.dp.solve_ms", "ms"},
    {"core.dp.delta_solve_ms", "ms"},
    {"core.dp.reused_ratio", "ratio"},
    {"core.dp.combinations", "count"},
    {"core.dp.phase.ordering_s", "s"},
    {"core.dp.phase.dep_sets_s", "s"},
    {"core.dp.phase.configs_s", "s"},
    {"core.dp.phase.table_fill_s", "s"},
    {"core.dp.phase.back_substitution_s", "s"},
    {"pipeline.search_ms", "ms"},
    {"pipeline.stages", "count"},
    {"hetero.parse_spec_ms", "ms"},
    {"hetero.params_ms", "ms"},
    {"serve.parse_request_us", "us"},
    {"serve.hit_ms_p50", "ms"},
    {"serve.hit_ms_p99", "ms"},
    {"serve.miss_ms_p50", "ms"},
    {"serve.miss_ms_p99", "ms"},
    {"serve.queue_ms_p50", "ms"},
    {"serve.queue_ms_p99", "ms"},
    {"serve.solve_ms_p50", "ms"},
    {"serve.solve_ms_p99", "ms"},
    {"serve.unattributed_ms_p99", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.dedup_ratio", "ratio"},
    {"serve.reuse_ratio", "ratio"},
    {"serve.shed_count", "count"},
    {"trace.overhead_ratio", "ratio"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "zoo_grid|deep_stack|wide_space|serve_mix --seed N --seconds S "
               "--trace 0|1 --expected FILE [--trace-out FILE] [--record]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--record") {
      cfg.record = true;
    } else if (!has_value) {
      return usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      cfg.workload = argv[++i];
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--expected") {
      cfg.expected_path = argv[++i];
    } else if (arg == "--trace-out") {
      cfg.trace_out = argv[++i];
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(cfg.seconds > 0)) return usage("--seconds must be positive");

  Report report;
  if (cfg.workload == "zoo_grid") report = perfbench::run_zoo_grid(cfg);
  else if (cfg.workload == "deep_stack") report = perfbench::run_deep_stack(cfg);
  else if (cfg.workload == "wide_space") report = perfbench::run_wide_space(cfg);
  else if (cfg.workload == "serve_mix") report = perfbench::run_serve_mix(cfg);
  else return usage("unknown workload");
  if (cfg.record) return 0;

  if (report.failed > 0)
    std::fprintf(stderr, "%lld of %lld checks failed; first: %s\n",
                 static_cast<long long>(report.failed),
                 static_cast<long long>(report.attempted),
                 report.first_failure.c_str());

  std::string json = "{\"correct\": ";
  json += report.failed == 0 && report.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  const Name* begin = cfg.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const Name* end = cfg.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  for (const Name* n = begin; n != end; ++n) {
    double value = 0.0;
    bool found = false;
    for (const Metric& m : report.metrics) {
      if (m.name != n->name) continue;
      if (m.unit != n->unit) {
        std::fprintf(stderr, "metric %s has unit %s, expected %s\n", n->name,
                     m.unit.c_str(), n->unit);
        return 1;
      }
      value = m.value;
      found = true;
    }
    if (!found && !cfg.trace) {
      std::fprintf(stderr, "workload did not report %s\n", n->name);
      return 1;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", n->name, value, n->unit);
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
