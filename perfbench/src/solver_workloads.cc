// The three solver workloads: zoo_grid, deep_stack and wide_space. Each is
// a fixed item list (a graph, a machine, solver options) solved in
// round-robin rounds whose order the seed shuffles; search_s sums each
// item's median solve time over the rounds (the paper's Table I number).
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>

#include "bench.h"
#include "config/config_enum.h"
#include "core/dp_solver.h"
#include "core/ordering.h"
#include "cost/cost_model.h"
#include "hetero/hetero.h"
#include "hetero/machine_file.h"
#include "inputs.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "search/baselines.h"
#include "sim/simulator.h"

namespace perfbench {

using pase::DpOptions;
using pase::DpResult;
using pase::Graph;
using pase::MachineSpec;

namespace {

struct Item {
  std::string name;
  std::shared_ptr<const Graph> graph;
  MachineSpec machine;
  bool hetero_sim = false;  ///< simulate with per-device FLOPS and tiers
  DpOptions options;
  i64 pipeline_stages = 1;  ///< != 1: find_best_pipelined_strategy
  bool delta = false;       ///< re-solve through the group's DpContext
};

/// A workload's fixed item list. A group runs back to back in one round and
/// its items share one fresh DpContext (deep_stack's cold + delta pairs).
struct Plan {
  std::vector<Item> items;
  std::vector<std::vector<size_t>> groups;
  /// How each distinct graph is built (for the traced models.build probe).
  std::vector<std::function<Graph()>> builders;
  /// Machine-spec documents parsed during set-up (hetero.parse_spec probe).
  std::vector<std::string> spec_texts;
};

std::shared_ptr<const Graph> build(Plan& plan, std::function<Graph()> fn) {
  plan.builders.push_back(fn);
  return std::make_shared<const Graph>(fn());
}

std::shared_ptr<const Graph> zoo(Plan& plan, const std::string& name) {
  return build(plan, [name] { return *pase::models::zoo_graph(name); });
}

MachineSpec parse_spec(Plan& plan, const MachineSpec& preset) {
  plan.spec_texts.push_back(machine_spec_json(preset));
  MachineSpec m;
  std::string error;
  if (!pase::parse_machine_spec(plan.spec_texts.back(), &m, &error)) {
    std::fprintf(stderr, "machine spec rejected: %s\n", error.c_str());
    std::exit(1);
  }
  return m;
}

Item make_item(std::string name, std::shared_ptr<const Graph> graph,
               const MachineSpec& m, i64 threads) {
  Item it;
  it.name = std::move(name);
  it.graph = std::move(graph);
  it.machine = m;
  it.options.config_options.max_devices = m.num_devices;
  it.options.cost_params = pase::hetero_cost_params(m);
  it.options.num_threads = threads;
  return it;
}

void single_groups(Plan& plan) {
  for (size_t i = 0; i < plan.items.size(); ++i) plan.groups.push_back({i});
}

// zoo_grid: the paper's grid. 8 models x p in {8,16,32,64} x {1080Ti,
// 2080Ti} at 2 solver threads; every solve builds its own cost cache.
Plan plan_zoo_grid() {
  static const char* const kModels[] = {"alexnet",  "inception_v3", "rnnlm",
                                        "transformer", "resnet50", "vgg16",
                                        "gnmt",     "mobilenet_v1"};
  Plan plan;
  for (const char* model : kModels) {
    const auto graph = zoo(plan, model);
    for (const i64 p : {8, 16, 32, 64})
      for (const MachineSpec& m : {MachineSpec::gtx1080ti(p),
                                   MachineSpec::rtx2080ti(p)})
        plan.items.push_back(make_item(std::string(model) + "/p" +
                                           std::to_string(p) + "/" + m.name,
                                       graph, m, 2));
  }
  single_groups(plan);
  return plan;
}

// deep_stack: thousand-node generated stacks where ordering and vertex sets
// dominate a cold solve; each cold solve of N in {200,400,600} is followed
// by a batch-16 delta re-solve through a shared DpContext, which skips both
// phases. A cold N=100 solve makes the item count odd, so the median solve
// is one item's median rather than the boundary between two items.
Plan plan_deep_stack() {
  Plan plan;
  const MachineSpec m = MachineSpec::gtx1080ti(8);
  plan.items.push_back(make_item("transformer_stack_100/p8/cold",
                                 zoo(plan, "transformer_stack_100"), m, 1));
  plan.groups.push_back({0});
  for (const i64 blocks : {200, 400, 600}) {
    const std::string name = "transformer_stack_" + std::to_string(blocks);
    const auto cold = zoo(plan, name);
    const auto wide_batch = build(
        plan, [blocks] { return pase::models::transformer_stack(blocks, 16); });
    plan.items.push_back(make_item(name + "/p8/cold", cold, m, 1));
    Item delta = make_item(name + "/p8/b16-delta", wide_batch, m, 1);
    delta.delta = true;
    plan.items.push_back(std::move(delta));
    plan.groups.push_back({plan.items.size() - 2, plan.items.size() - 1});
  }
  return plan;
}

// wide_space: the widened split space at large K and the searched pipeline
// dimension on heterogeneous, multi-tier machines parsed from JSON text.
Plan plan_wide_space() {
  Plan plan;
  Item splits = make_item("resnet_large_p/p16/all-splits",
                          zoo(plan, "resnet_large_p"),
                          MachineSpec::gtx1080ti(16), 2);
  splits.options.config_options.split_dims = *pase::parse_split_dims("all");
  plan.items.push_back(std::move(splits));
  const auto stack = zoo(plan, "transformer_pipelined");
  for (const MachineSpec& preset :
       {MachineSpec::mixed_pod(16), MachineSpec::multi_tier(32)}) {
    const MachineSpec m = parse_spec(plan, preset);
    Item it = make_item("transformer_pipelined/p" +
                            std::to_string(m.num_devices) + "/" + m.name +
                            "/stages-auto",
                        stack, m, 2);
    it.hetero_sim = true;
    it.pipeline_stages = 0;
    plan.items.push_back(std::move(it));
  }
  single_groups(plan);
  return plan;
}

const char* status_name(pase::DpStatus s) {
  switch (s) {
    case pase::DpStatus::kOk: return "ok";
    case pase::DpStatus::kOutOfMemory: return "out_of_memory";
    case pase::DpStatus::kInfeasible: return "infeasible";
    case pase::DpStatus::kDegraded: return "degraded";
  }
  return "?";
}

struct Solved {
  DpResult dp;
  i64 stages = 1;
  double pipeline_step_s = 0.0;  ///< the program's step estimate, stages > 1
};

Solved solve(const Item& item, const DpOptions& options) {
  Solved out;
  if (item.pipeline_stages != 1) {
    pase::PipelineSearchOptions popts;
    popts.stages = item.pipeline_stages;
    auto r = pase::find_best_pipelined_strategy(*item.graph, item.machine,
                                                options, popts);
    out.dp = std::move(r.dp);
    out.stages = r.stages;
    out.pipeline_step_s = r.step_seconds;
  } else {
    out.dp = pase::find_best_strategy(*item.graph, options);
  }
  return out;
}

const char* solve_span_name(const Item& item) {
  if (item.pipeline_stages != 1) return "pipeline.search";
  return item.delta ? "core.dp.delta_solve" : "core.dp.solve";
}

struct ItemState {
  std::vector<double> seconds;  ///< as measured
  std::vector<double> scaled;   ///< in reference-host seconds
  Solved last;
};

class Runner {
 public:
  Runner(const Plan& plan, const RunConfig& cfg,
         const std::map<std::string, Expected>& expected, HostClock& clock,
         Report& report)
      : plan_(plan), cfg_(cfg), expected_(expected), clock_(clock),
        report_(report), state_(plan.items.size()) {}

  /// Runs whole rounds until the next one would overrun `seconds` (at least
  /// `min_rounds`). Returns the rounds run.
  template <bool kTraced>
  i64 run(double seconds, i64 min_rounds, u64 round_seed_base,
          Tracer* tracer, pase::MetricsRegistry* registry) {
    const double start = now_s();
    double longest_round = 0.0;
    i64 rounds = 0;
    for (;;) {
      const double round_start = now_s();
      if (rounds >= min_rounds &&
          round_start - start + longest_round > seconds)
        break;
      std::vector<size_t> order(plan_.groups.size());
      for (size_t g = 0; g < order.size(); ++g) order[g] = g;
      Rng(round_seed_base + static_cast<u64>(rounds)).shuffle(order);
      if constexpr (kTraced) {
        Span round_span(*tracer, "round");
        run_round<kTraced>(order, rounds, tracer, registry);
      } else {
        run_round<kTraced>(order, rounds, tracer, registry);
      }
      ++rounds;
      longest_round = std::max(longest_round, now_s() - round_start);
    }
    return rounds;
  }

  const std::vector<ItemState>& state() const { return state_; }
  void clear_samples() {
    for (ItemState& s : state_) {
      s.seconds.clear();
      s.scaled.clear();
    }
  }

  /// Sum over `filter`-selected items of the median solve time, seconds
  /// (reference-host seconds when `scaled`).
  double sum_of_medians(const std::function<bool(const Item&)>& filter,
                        bool scaled) const {
    double total = 0.0;
    for (size_t i = 0; i < state_.size(); ++i)
      if (filter(plan_.items[i]))
        total += median(scaled ? state_[i].scaled : state_[i].seconds);
    return total;
  }

 private:
  template <bool kTraced>
  void run_round(const std::vector<size_t>& order, i64 round, Tracer* tracer,
                 pase::MetricsRegistry* registry) {
    for (const size_t g : order) {
      pase::DpContext context;
      for (const size_t i : plan_.groups[g]) {
        const Item& item = plan_.items[i];
        DpOptions options = item.options;
        if (plan_.groups[g].size() > 1) options.context = &context;
        Solved solved;
        double elapsed = 0.0;
        if constexpr (kTraced) {
          options.metrics = registry;
          Span span(*tracer, solve_span_name(item));
          const double t0 = now_s();
          solved = solve(item, options);
          elapsed = now_s() - t0;
        } else {
          const double t0 = now_s();
          solved = solve(item, options);
          elapsed = now_s() - t0;
        }
        state_[i].seconds.push_back(elapsed);
        state_[i].scaled.push_back(clock_.scale(elapsed));
        check(item, solved, round);
        state_[i].last = std::move(solved);
      }
    }
  }

  void check(const Item& item, const Solved& solved, i64 round) {
    ++report_.attempted;
    if (cfg_.record) return;
    const auto it = expected_.find(item.name);
    if (it == expected_.end()) {
      report_.fail(item.name + ": no expected result");
      return;
    }
    const Expected& e = it->second;
    const DpResult& r = solved.dp;
    char buf[512];
    if (e.status != status_name(r.status) ||
        e.cost_bits != double_bits(r.best_cost) ||
        e.digest != strategy_digest(r.strategy) || e.stages != solved.stages) {
      std::snprintf(buf, sizeof buf,
                    "%s (round %lld): got status %s cost %.17g digest %016llx "
                    "stages %lld, expected status %s cost bits %016llx digest "
                    "%016llx stages %lld",
                    item.name.c_str(), static_cast<long long>(round),
                    status_name(r.status), r.best_cost,
                    static_cast<unsigned long long>(strategy_digest(r.strategy)),
                    static_cast<long long>(solved.stages), e.status.c_str(),
                    static_cast<unsigned long long>(e.cost_bits),
                    static_cast<unsigned long long>(e.digest),
                    static_cast<long long>(e.stages));
      report_.fail(buf);
    }
  }

  const Plan& plan_;
  const RunConfig& cfg_;
  const std::map<std::string, Expected>& expected_;
  HostClock& clock_;  ///< sampled after every solve, while the solver is idle
  Report& report_;
  std::vector<ItemState> state_;
};

/// Simulated step-time speedup of each item's last strategy over data
/// parallelism (the Fig. 6 y-axis). The simulator has no pipeline stages, so
/// a strategy of more than one stage is timed by the program's own pipelined
/// step estimate instead (no item of the seed commit chooses one).
std::vector<double> speedups(const Plan& plan,
                             const std::vector<ItemState>& state) {
  std::vector<double> out;
  for (size_t i = 0; i < plan.items.size(); ++i) {
    const Item& item = plan.items[i];
    const Solved& last = state[i].last;
    const pase::Simulator sim(*item.graph, item.machine,
                              pase::CommModelKind::kSimple, item.hetero_sim);
    const double dp =
        sim.simulate(pase::data_parallel_strategy(*item.graph,
                                                  item.machine.num_devices))
            .step_time_s;
    out.push_back(dp / (last.stages > 1
                            ? last.pipeline_step_s
                            : sim.simulate(last.dp.strategy).step_time_s));
  }
  return out;
}

/// Traced-only probes: each layer's public entry points called from here,
/// over this workload's graphs and options, one span per call.
void probe_layers(const Plan& plan, Tracer& tracer, Report& report) {
  i64 nodes = 0, edges = 0;
  {
    Span span(tracer, "setup.probe");
    for (const auto& fn : plan.builders) {
      Graph g;
      {
        Span s(tracer, "models.build");
        g = fn();
      }
      nodes += g.num_nodes();
      edges += g.num_edges();
    }
    for (const std::string& text : plan.spec_texts) {
      Span s(tracer, "hetero.parse_spec");
      MachineSpec m;
      std::string error;
      if (!pase::parse_machine_spec(text, &m, &error)) report.fail(error);
    }
    for (const Item& item : plan.items) {
      Span s(tracer, "hetero.params");
      const pase::CostParams params = pase::hetero_cost_params(item.machine);
      if (params.r <= 0) report.fail("non-positive r");
    }
  }
  std::vector<const Graph*> seen;
  PriceStats price;
  for (const Item& item : plan.items) {
    if (item.delta) continue;  // same adjacency and configs as its cold item
    const Graph& g = *item.graph;
    if (std::find(seen.begin(), seen.end(), &g) == seen.end()) {
      seen.push_back(&g);
      Span s(tracer, "core.ordering");
      const pase::Ordering order =
          pase::make_ordering(g, pase::OrderingKind::kGenerateSeq);
      if (static_cast<i64>(order.seq.size()) != g.num_nodes())
        report.fail("ordering size mismatch");
    }
    probe_config_and_cost(g, item.options.config_options,
                          item.options.cost_params, tracer, price, report);
  }
  report.add("graph.nodes", static_cast<double>(nodes), "count");
  report.add("graph.edges", static_cast<double>(edges), "count");
  report.add("config.configs_total", static_cast<double>(price.configs_total),
             "count");
  report.add("config.k_max", static_cast<double>(price.k_max), "count");
  report.add("cost.price_calls", static_cast<double>(price.calls), "count");
}

constexpr i64 kMinRounds = 3;

/// Compares each item's simulated speedup with its expected value; returns
/// the speedups.
std::vector<double> check_quality(const Plan& plan, const Runner& runner,
                                  const std::map<std::string, Expected>& expected,
                                  Report& report) {
  const std::vector<double> sp = speedups(plan, runner.state());
  for (size_t i = 0; i < plan.items.size(); ++i) {
    ++report.attempted;
    const auto it = expected.find(plan.items[i].name);
    if (it == expected.end()) continue;  // already failed as unexpected
    if (double_bits(it->second.speedup) != double_bits(sp[i]))
      report.fail(plan.items[i].name + ": simulated speedup " +
                  std::to_string(sp[i]) + " differs from the expected " +
                  std::to_string(it->second.speedup));
  }
  return sp;
}

void add_per_layer(const Plan& plan, const Runner& runner, i64 rounds,
                   const pase::MetricsRegistry& registry, Tracer& tracer,
                   double overhead_ratio, Report& report) {
  probe_layers(plan, tracer, report);
  const auto spans = tracer.summary();
  const auto span_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  report.add("models.build_ms", span_ms("models.build"), "ms");
  report.add("config.enumerate_ms", span_ms("config.enumerate"), "ms");
  report.add("cost.price_ms", span_ms("cost.price"), "ms");
  report.add("core.ordering_ms", span_ms("core.ordering"), "ms");
  report.add("hetero.parse_spec_ms", span_ms("hetero.parse_spec"), "ms");
  report.add("hetero.params_ms", span_ms("hetero.params"), "ms");

  u64 hits = 0, lookups = 0;
  i64 dep_set_max = 0, delta_solves = 0, reused = 0, stages = 0;
  for (size_t i = 0; i < plan.items.size(); ++i) {
    const Solved& s = runner.state()[i].last;
    hits += s.dp.cost_cache_hits;
    lookups += s.dp.cost_cache_hits + s.dp.cost_cache_misses;
    dep_set_max = std::max(dep_set_max, s.dp.max_dependent_set);
    if (plan.items[i].delta) {
      ++delta_solves;
      reused += s.dp.reused_tables ? 1 : 0;
    }
    if (plan.items[i].pipeline_stages != 1) stages += s.stages;
  }
  const auto kind = [](bool pipelined, bool delta) {
    return [=](const Item& it) {
      return (it.pipeline_stages != 1) == pipelined && it.delta == delta;
    };
  };
  const double per_round = 1.0 / static_cast<double>(rounds);
  report.add("cost.cache_hit_ratio",
             lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0,
             "ratio");
  report.add("core.dep_set_max", static_cast<double>(dep_set_max), "count");
  report.add("core.dp.solve_ms",
             runner.sum_of_medians(kind(false, false), false) * 1e3, "ms");
  report.add("core.dp.delta_solve_ms",
             runner.sum_of_medians(kind(false, true), false) * 1e3, "ms");
  report.add("core.dp.reused_ratio",
             delta_solves ? static_cast<double>(reused) /
                                static_cast<double>(delta_solves)
                          : 0.0,
             "ratio");
  report.add("core.dp.combinations",
             static_cast<double>(registry.counter("dp.combinations")) *
                 per_round,
             "count");
  for (const char* phase :
       {"ordering", "dep_sets", "configs", "table_fill", "back_substitution"}) {
    // The solver's own phase gauges, per round; an absent gauge reads 0.
    report.add(std::string("core.dp.phase.") + phase + "_s",
               registry.gauge(std::string("dp.phase.") + phase + "_seconds") *
                   per_round,
               "s");
  }
  report.add("pipeline.search_ms",
             runner.sum_of_medians(kind(true, false), false) * 1e3, "ms");
  report.add("pipeline.stages", static_cast<double>(stages), "count");
  report.add("trace.overhead_ratio", overhead_ratio, "ratio");
}

/// Runs one of the three solver workloads.
/// `solver_threads` is the thread count of the workload's solves; the host
/// reference kernel runs on as many. `setup_batch` set-ups make one set-up
/// sample (about 25 ms).
Report run_solver_workload(const RunConfig& cfg, Plan (*make_plan)(),
                           int solver_threads, i64 setup_batch) {
  Report report;
  // Set-up is what a user pays before the first solve (graph builds,
  // machine-spec parsing, cost parameters); repeated so that its median is
  // steady. The last plan is the one solved.
  Plan plan;
  const double setup_s = time_setup(setup_batch, [&] {
    plan = Plan{};
    const double t0 = now_s();
    plan = make_plan();
    return now_s() - t0;
  });
  HostClock clock(solver_threads);
  const auto expected = load_expected(cfg.expected_path, cfg.workload);
  Runner runner(plan, cfg, expected, clock, report);
  const auto all = [](const Item&) { return true; };

  if (cfg.record) {
    runner.run<false>(0.0, 1, cfg.seed, nullptr, nullptr);
    const std::vector<double> sp = speedups(plan, runner.state());
    for (size_t i = 0; i < plan.items.size(); ++i) {
      const DpResult& r = runner.state()[i].last.dp;
      Expected e;
      e.status = status_name(r.status);
      e.cost_bits = double_bits(r.best_cost);
      e.digest = strategy_digest(r.strategy);
      e.speedup = sp[i];
      e.stages = runner.state()[i].last.stages;
      std::printf("%s\n",
                  expected_line(cfg.workload, plan.items[i].name, e).c_str());
    }
    return report;
  }

  if (cfg.trace) {
    // First half untraced, second half traced: the ratio of their search
    // times is the tracing overhead.
    runner.run<false>(cfg.seconds / 2, 2, cfg.seed, nullptr, nullptr);
    const double untraced = runner.sum_of_medians(all, true);
    runner.clear_samples();
    Tracer tracer;
    pase::MetricsRegistry registry;
    const i64 rounds = runner.run<true>(cfg.seconds / 2, 2, cfg.seed + 1000003,
                                        &tracer, &registry);
    add_per_layer(plan, runner, rounds, registry, tracer,
                  runner.sum_of_medians(all, true) / untraced, report);
    check_quality(plan, runner, expected, report);
    finish_trace(tracer, cfg);
    return report;
  }

  const RssBaseline rss;
  runner.run<false>(cfg.seconds, kMinRounds, cfg.seed, nullptr, nullptr);
  const double rss_mb = rss.growth_mb();  // the solves', before the checks
  // A request on a solver workload is one solve, sent by one client as soon
  // as the previous one returns. Every request of an item is the same
  // query, so request latency is taken per item, at the item's median.
  std::vector<double> solve_ms, item_ms;
  double busy_s = 0.0;
  std::string items_line;
  for (size_t i = 0; i < plan.items.size(); ++i) {
    const ItemState& s = runner.state()[i];
    for (const double t : s.scaled) {
      solve_ms.push_back(t * 1e3);
      busy_s += t;
    }
    item_ms.push_back(median(s.scaled) * 1e3);
    items_line += " " + plan.items[i].name + "=" + std::to_string(item_ms.back());
  }
  const std::vector<double> sp = check_quality(plan, runner, expected, report);
  std::fprintf(stderr,
               "%s: %zu timed solves over %zu items; search_s as measured "
               "%.4f, reference kernel median %.3f ms\nitem medians (ms):%s\n",
               cfg.workload.c_str(), solve_ms.size(), plan.items.size(),
               runner.sum_of_medians(all, false),
               clock.median_reference() * 1e3, items_line.c_str());
  report.add("setup_s", setup_s, "s");
  report.add("search_s", runner.sum_of_medians(all, true), "s");
  report.add("solve_ms_p50", median(solve_ms), "ms");
  report.add("throughput_rps", static_cast<double>(solve_ms.size()) / busy_s,
             "req/s");
  report.add("latency_ms_p50", median(item_ms), "ms");
  report.add("latency_ms_p99", percentile(item_ms, 99.0), "ms");
  report.add("quality_geomean", geomean(sp), "ratio");
  report.add("ok_ratio", report.ok_ratio(), "ratio");
  report.add("peak_rss_mb", rss_mb, "MB");
  return report;
}

}  // namespace

std::vector<std::string> solver_item_names(const std::string& workload) {
  Plan plan;
  if (workload == "zoo_grid") plan = plan_zoo_grid();
  else if (workload == "deep_stack") plan = plan_deep_stack();
  else if (workload == "wide_space") plan = plan_wide_space();
  std::vector<std::string> names;
  for (const Item& item : plan.items) names.push_back(item.name);
  return names;
}

Report run_zoo_grid(const RunConfig& cfg) {
  return run_solver_workload(cfg, plan_zoo_grid, 2, 40);
}
Report run_deep_stack(const RunConfig& cfg) {
  return run_solver_workload(cfg, plan_deep_stack, 1, 2);
}
Report run_wide_space(const RunConfig& cfg) {
  return run_solver_workload(cfg, plan_wide_space, 2, 100);
}

}  // namespace perfbench
