// serve_mix: a closed loop of kClients client threads calling
// ServeCore::handle_line in-process with default ServeOptions (apart from
// the event-log ring, kEventRing), over a seeded stream drawn from a fixed
// key universe (inputs.h). Four of every five requests go to hot keys that
// stay cached, one to a cold key that recurs only after more distinct keys
// than the result cache holds, so the hit share sits near 0.8: p50 is a hit
// and p99 a miss by construction.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "bench.h"
#include "config/config_enum.h"
#include "core/dp_solver.h"
#include "core/ordering.h"
#include "cost/cost_model.h"
#include "hetero/hetero.h"
#include "hetero/machine_file.h"
#include "inputs.h"
#include "io/model_parser.h"
#include "io/strategy_io.h"
#include "models/models.h"
#include "obs/metrics.h"
#include "search/baselines.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "sim/simulator.h"

namespace perfbench {

using pase::Graph;
using pase::MachineSpec;

namespace {

constexpr int kClients = 3;
constexpr size_t kStreamLength = size_t{1} << 18;
/// Set-ups per set-up sample (about 25 ms).
constexpr i64 kSetupBatch = 8;
/// Event-log ring capacity. The ring is read after every 0.5 s slice, so it
/// needs room for one slice's requests only (about 400 at the seed commit).
constexpr i64 kEventRing = i64{1} << 13;

// ---------------------------------------------------------------------------
// Reading the service's canonical JSON lines (responses and event-log lines)
// from the outside: top-level fields only, string values unescaped, other
// values as their raw text.

size_t skip_string(const std::string& s, size_t i) {  // i at the quote
  for (++i; i < s.size(); ++i) {
    if (s[i] == '\\') ++i;
    else if (s[i] == '"') return i + 1;
  }
  return s.size();
}

std::string unescape(const std::string& s, size_t begin, size_t end) {
  std::string out;
  out.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    if (s[i] != '\\' || i + 1 >= end) {
      out += s[i];
      continue;
    }
    const char c = s[++i];
    switch (c) {
      case 'n': out += '\n'; break;
      case 't': out += '\t'; break;
      case 'r': out += '\r'; break;
      case 'b': out += '\b'; break;
      case 'f': out += '\f'; break;
      case 'u':
        if (i + 4 < end) {
          out += static_cast<char>(std::stoi(s.substr(i + 1, 4), nullptr, 16));
          i += 4;
        }
        break;
      default: out += c;  // \" \\ \/
    }
  }
  return out;
}

std::map<std::string, std::string> top_level_fields(const std::string& s) {
  std::map<std::string, std::string> out;
  size_t i = s.find('{');
  if (i == std::string::npos) return out;
  ++i;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == ',')) ++i;
    if (i >= s.size() || s[i] != '"') break;
    const size_t key_end = skip_string(s, i);
    const std::string key = unescape(s, i + 1, key_end - 1);
    i = key_end;
    while (i < s.size() && (s[i] == ' ' || s[i] == ':')) ++i;
    if (i >= s.size()) break;
    if (s[i] == '"') {
      const size_t end = skip_string(s, i);
      out[key] = unescape(s, i + 1, end - 1);
      i = end;
    } else {
      const size_t start = i;
      int depth = 0;
      for (; i < s.size(); ++i) {
        const char c = s[i];
        if (c == '"') {
          i = skip_string(s, i) - 1;
        } else if (c == '{' || c == '[') {
          ++depth;
        } else if (c == '}' || c == ']') {
          if (depth == 0) break;
          --depth;
        } else if (c == ',' && depth == 0) {
          break;
        }
      }
      out[key] = s.substr(start, i - start);
    }
  }
  return out;
}

double number_field(const std::map<std::string, std::string>& f,
                    const char* key, double fallback) {
  const auto it = f.find(key);
  return it == f.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

// ---------------------------------------------------------------------------

struct Inputs {
  std::vector<ServeKey> universe;
  std::vector<std::string> lines;
  std::vector<std::uint32_t> stream;
};

Inputs make_inputs(u64 seed) {
  Inputs in;
  in.universe = serve_universe();
  for (const ServeKey& k : in.universe) in.lines.push_back(request_line(k));
  in.stream = serve_stream(in.universe, seed, kStreamLength);
  return in;
}

pase::serve::ServeOptions serve_options() {
  pase::serve::ServeOptions opts;
  opts.event_log_memory = kEventRing;
  return opts;
}

struct Record {
  std::uint32_t key = 0;
  double latency_ms = 0.0;
  double scale = 1.0;  ///< reference-host scale of the request's slice
  bool hit = false;
  std::string code;
  double cost = 0.0;
  u64 digest = 0;
  i64 seq = -1;
};

/// Per-request queue/solve times from the service's own event log, for
/// requests that reached a worker.
struct EventStats {
  std::vector<double> queue_ms, solve_ms, unattributed_ms;
  /// Solve times in reference-host ms (each request's slice scale), overall
  /// and per request id.
  std::vector<double> scaled_solve_ms;
  std::map<std::string, std::vector<double>> scaled_solve_ms_by_id;
  i64 dedup = 0, reuse = 0, leaders = 0;
  u64 lines_read = 0;  ///< event-log lines consumed so far
  u64 lines_lost = 0;  ///< appended but evicted from the ring before a read
};

/// Reads the event-log lines appended since the last read; `scale` is the
/// reference-host scale of the slice that produced them.
void read_new_events(const pase::serve::ServeCore& core, double scale,
                     EventStats& st) {
  const u64 total = core.event_log().total();
  const std::vector<std::string> ring = core.event_log().tail();
  const u64 fresh = total - st.lines_read;
  const size_t kept = static_cast<size_t>(std::min<u64>(fresh, ring.size()));
  st.lines_lost += fresh - kept;
  st.lines_read = total;
  for (size_t i = ring.size() - kept; i < ring.size(); ++i) {
    const auto f = top_level_fields(ring[i]);
    if (f.count("dedup")) ++st.dedup;
    if (!f.count("solve_ms")) continue;
    if (f.count("reuse")) ++st.reuse;
    ++st.leaders;
    const double queue = number_field(f, "queue_ms", 0.0);
    const double solve = number_field(f, "solve_ms", 0.0);
    st.queue_ms.push_back(queue);
    st.solve_ms.push_back(solve);
    st.scaled_solve_ms.push_back(solve * scale);
    const auto id = f.find("id");
    if (id != f.end())
      st.scaled_solve_ms_by_id[id->second].push_back(solve * scale);
    st.unattributed_ms.push_back(number_field(f, "total_ms", 0.0) - queue -
                                 solve);
  }
}

struct LoopResult {
  /// One record per request, in stream order. Allocated for the whole
  /// stream before the loop starts, so the process's memory growth during
  /// the loop is the service's, not the records'.
  std::vector<Record> records;
  EventStats events;
  double scaled_wall_s = 0.0;  ///< wall time in reference-host seconds
  double wall_s = 0.0;
};

/// Slice length of the closed loop. Between slices the clients pause, with
/// nothing in flight, while the host reference kernel is timed.
constexpr double kSliceSeconds = 0.5;

/// The loop's records for the whole stream, allocated and touched up front.
LoopResult new_loop_result(const Inputs& in) {
  LoopResult result;
  result.records.resize(in.stream.size());
  return result;
}

/// The closed loop: each client sends its next request only after the
/// previous reply, until `seconds` have passed.
template <bool kTraced>
void closed_loop(pase::serve::ServeCore& core, const Inputs& in,
                 double seconds, HostClock& clock, Tracer* tracer,
                 LoopResult& result) {
  std::atomic<size_t> next{0};
  clock.next_factor();  // a reference sample right before the first slice
  const double start = now_s();
  while (now_s() - start < seconds && next.load() < in.stream.size()) {
    const size_t slice_first = next.load();
    const double slice_start = now_s();
    const double end = std::min(slice_start + kSliceSeconds, start + seconds);
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        while (now_s() < end) {
          const size_t i = next.fetch_add(1);
          if (i >= in.stream.size()) break;
          const std::uint32_t key = in.stream[i];
          std::string response;
          const double t0 = now_s();
          if constexpr (kTraced) {
            Span span(*tracer, "serve.handle_line");
            response = core.handle_line(in.lines[key]);
          } else {
            response = core.handle_line(in.lines[key]);
          }
          const double latency_ms = (now_s() - t0) * 1e3;
          const auto f = top_level_fields(response);
          Record& r = result.records[i];
          r.key = key;
          r.latency_ms = latency_ms;
          const auto cache = f.find("cache");
          r.hit = cache != f.end() && cache->second == "hit";
          const auto code = f.find("code");
          r.code = code == f.end() ? "" : code->second;
          r.cost = number_field(f, "cost", 0.0);
          const auto strategy = f.find("strategy");
          r.digest = strategy == f.end() ? 0 : fnv1a(strategy->second);
          r.seq = static_cast<i64>(number_field(f, "seq", -1));
        }
      });
    }
    for (std::thread& t : clients) t.join();
    const double slice_wall = now_s() - slice_start;
    const double scale = clock.next_factor();
    result.wall_s += slice_wall;
    result.scaled_wall_s += slice_wall * scale;
    const size_t slice_end = std::min(next.load(), in.stream.size());
    for (size_t i = slice_first; i < slice_end; ++i)
      result.records[i].scale = scale;
    read_new_events(core, scale, result.events);
  }
  result.records.resize(std::min(next.load(), in.stream.size()));
  if (next.load() >= in.stream.size())
    std::fprintf(stderr, "serve_mix: request stream exhausted\n");
  if (result.events.lines_lost > 0)
    std::fprintf(stderr,
                 "serve_mix: %llu event-log lines were evicted before they "
                 "were read\n",
                 static_cast<unsigned long long>(result.events.lines_lost));
}

std::optional<MachineSpec> key_machine(const ServeKey& k) {
  if (!k.spec_json.empty()) {
    MachineSpec m;
    std::string error;
    if (!pase::parse_machine_spec(k.spec_json, &m, &error)) return std::nullopt;
    return m;
  }
  // The service's named presets.
  if (k.machine == "1080ti") return MachineSpec::gtx1080ti(k.devices);
  if (k.machine == "2080ti") return MachineSpec::rtx2080ti(k.devices);
  if (k.machine == "mixed") return MachineSpec::mixed_cluster(k.devices);
  return std::nullopt;
}

std::optional<Graph> key_graph(const ServeKey& k) {
  if (!k.zoo.empty()) return pase::models::zoo_graph(k.zoo);
  pase::ModelParseResult parsed = pase::parse_model(k.model_text);
  if (!parsed.ok) return std::nullopt;
  return std::move(parsed.graph);
}

/// The direct answer for one key: find_best_strategy of the same query,
/// outside the service.
struct Oracle {
  bool valid = false;
  std::string status;
  double cost = 0.0;
  u64 digest = 0;
  double speedup = 0.0;
  double solve_s = 0.0;
  pase::DpResult dp;
};

std::vector<Oracle> solve_directly(const std::vector<ServeKey>& universe,
                                   pase::MetricsRegistry* registry,
                                   Report& report) {
  std::vector<Oracle> out(universe.size());
  for (size_t i = 0; i < universe.size(); ++i) {
    const ServeKey& k = universe[i];
    const auto graph = key_graph(k);
    const auto machine = key_machine(k);
    if (!graph || !machine) {
      report.fail(k.label + ": input rejected");
      continue;
    }
    pase::DpOptions options;
    options.config_options.max_devices = k.devices;
    options.cost_params = pase::hetero_cost_params(*machine);
    options.degraded_fallback = true;
    options.metrics = registry;
    Oracle& o = out[i];
    const double t0 = now_s();
    o.dp = pase::find_best_strategy(*graph, options);
    o.solve_s = now_s() - t0;
    o.valid = true;
    o.status = o.dp.status == pase::DpStatus::kOk ? "ok" : "not-ok";
    o.cost = o.dp.best_cost;
    o.digest = fnv1a(pase::write_strategy(*graph, o.dp.strategy));
    const pase::Simulator sim(*graph, *machine, pase::CommModelKind::kSimple,
                              !pase::HeteroModel(*machine).uniform());
    o.speedup =
        sim.simulate(pase::data_parallel_strategy(*graph, k.devices))
            .step_time_s /
        sim.simulate(o.dp.strategy).step_time_s;
    if (o.status != "ok") report.fail(k.label + ": direct solve not ok");
  }
  return out;
}

void check_responses(const LoopResult& loop, const Inputs& in,
                     const std::vector<Oracle>& oracle, Report& report) {
  for (const Record& r : loop.records) {
    ++report.attempted;
    const Oracle& o = oracle[r.key];
    if (!o.valid || r.code != "ok" ||
        double_bits(r.cost) != double_bits(o.cost) || r.digest != o.digest) {
      char buf[512];
      std::snprintf(buf, sizeof buf,
                    "serve_mix seq %lld (%s): code %s cost %.17g digest "
                    "%016llx, direct solve cost %.17g digest %016llx",
                    static_cast<long long>(r.seq),
                    in.universe[r.key].label.c_str(), r.code.c_str(), r.cost,
                    static_cast<unsigned long long>(r.digest), o.cost,
                    static_cast<unsigned long long>(o.digest));
      report.fail(buf);
    }
  }
}

void add_per_layer(const Inputs& in, const LoopResult& loop,
                   const std::vector<Oracle>& oracle,
                   const pase::MetricsRegistry& registry, Tracer& tracer,
                   double overhead_ratio, Report& report) {
  // Outside probes of the layers a request passes through.
  std::vector<double> parse_us;
  {
    Span probe(tracer, "serve.probe");
    for (const std::string& line : in.lines) {
      std::vector<double> reps;
      for (int r = 0; r < 5; ++r) {
        Span s(tracer, "serve.parse_request");
        const double t0 = now_s();
        const auto parsed = pase::serve::parse_request(line);
        reps.push_back((now_s() - t0) * 1e6);
        if (!parsed.ok) report.fail("request rejected: " + parsed.error);
      }
      parse_us.push_back(median(reps));
    }
  }
  std::vector<Graph> graphs;
  {
    Span probe(tracer, "setup.probe");
    std::vector<std::string> seen_zoo, seen_text, seen_spec;
    for (const ServeKey& k : in.universe) {
      if (!k.zoo.empty() &&
          std::find(seen_zoo.begin(), seen_zoo.end(), k.zoo) == seen_zoo.end()) {
        seen_zoo.push_back(k.zoo);
        Span s(tracer, "models.build");
        graphs.push_back(*pase::models::zoo_graph(k.zoo));
      }
      if (!k.model_text.empty() &&
          std::find(seen_text.begin(), seen_text.end(), k.model_text) ==
              seen_text.end()) {
        seen_text.push_back(k.model_text);
        Span s(tracer, "io.parse_model");
        graphs.push_back(pase::parse_model(k.model_text).graph);
      }
      if (!k.spec_json.empty() &&
          std::find(seen_spec.begin(), seen_spec.end(), k.spec_json) ==
              seen_spec.end()) {
        seen_spec.push_back(k.spec_json);
        Span s(tracer, "hetero.parse_spec");
        MachineSpec m;
        std::string error;
        if (!pase::parse_machine_spec(k.spec_json, &m, &error))
          report.fail(error);
      }
    }
  }
  for (const Graph& g : graphs) {
    Span s(tracer, "core.ordering");
    if (static_cast<i64>(pase::make_ordering(g, pase::OrderingKind::kGenerateSeq)
                             .seq.size()) != g.num_nodes())
      report.fail("ordering size mismatch");
  }
  PriceStats price;
  for (const ServeKey& k : in.universe) {
    const auto graph = key_graph(k);
    const auto machine = key_machine(k);
    if (!graph || !machine) continue;
    pase::CostParams params;
    {
      Span s(tracer, "hetero.params");
      params = pase::hetero_cost_params(*machine);
    }
    pase::ConfigOptions copts;
    copts.max_devices = k.devices;
    probe_config_and_cost(*graph, copts, params, tracer, price, report);
  }

  const auto spans = tracer.summary();
  const auto span_ms = [&](const char* name) {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.total_ms;
  };
  i64 nodes = 0, edges = 0;
  for (const Graph& g : graphs) {
    nodes += g.num_nodes();
    edges += g.num_edges();
  }
  report.add("models.build_ms", span_ms("models.build"), "ms");
  report.add("io.parse_model_ms", span_ms("io.parse_model"), "ms");
  report.add("graph.nodes", static_cast<double>(nodes), "count");
  report.add("graph.edges", static_cast<double>(edges), "count");
  report.add("config.enumerate_ms", span_ms("config.enumerate"), "ms");
  report.add("config.configs_total", static_cast<double>(price.configs_total),
             "count");
  report.add("config.k_max", static_cast<double>(price.k_max), "count");
  report.add("cost.price_ms", span_ms("cost.price"), "ms");
  report.add("cost.price_calls", static_cast<double>(price.calls), "count");
  report.add("core.ordering_ms", span_ms("core.ordering"), "ms");
  report.add("hetero.parse_spec_ms", span_ms("hetero.parse_spec"), "ms");
  report.add("hetero.params_ms", span_ms("hetero.params"), "ms");

  // The direct solves of every key (the oracle) are this workload's view
  // of the core layer.
  u64 hits = 0, lookups = 0;
  i64 dep_set_max = 0;
  double solve_s = 0.0;
  for (const Oracle& o : oracle) {
    hits += o.dp.cost_cache_hits;
    lookups += o.dp.cost_cache_hits + o.dp.cost_cache_misses;
    dep_set_max = std::max(dep_set_max, o.dp.max_dependent_set);
    solve_s += o.solve_s;
  }
  report.add("cost.cache_hit_ratio",
             lookups ? static_cast<double>(hits) / static_cast<double>(lookups)
                     : 0.0,
             "ratio");
  report.add("core.dep_set_max", static_cast<double>(dep_set_max), "count");
  report.add("core.dp.solve_ms", solve_s * 1e3, "ms");
  report.add("core.dp.combinations",
             static_cast<double>(registry.counter("dp.combinations")),
             "count");
  for (const char* phase :
       {"ordering", "dep_sets", "configs", "table_fill", "back_substitution"})
    report.add(std::string("core.dp.phase.") + phase + "_s",
               registry.gauge(std::string("dp.phase.") + phase + "_seconds"),
               "s");

  std::vector<double> hit_ms, miss_ms;
  i64 shed = 0;
  for (const Record& r : loop.records) {
    (r.hit ? hit_ms : miss_ms).push_back(r.latency_ms);
    if (r.code == "shed") ++shed;
  }
  const EventStats& ev = loop.events;
  const double requests = static_cast<double>(loop.records.size());
  report.add("serve.parse_request_us", median(parse_us), "us");
  report.add("serve.hit_ms_p50", percentile(hit_ms, 50), "ms");
  report.add("serve.hit_ms_p99", percentile(hit_ms, 99), "ms");
  report.add("serve.miss_ms_p50", percentile(miss_ms, 50), "ms");
  report.add("serve.miss_ms_p99", percentile(miss_ms, 99), "ms");
  report.add("serve.queue_ms_p50", percentile(ev.queue_ms, 50), "ms");
  report.add("serve.queue_ms_p99", percentile(ev.queue_ms, 99), "ms");
  report.add("serve.solve_ms_p50", percentile(ev.solve_ms, 50), "ms");
  report.add("serve.solve_ms_p99", percentile(ev.solve_ms, 99), "ms");
  report.add("serve.unattributed_ms_p99", percentile(ev.unattributed_ms, 99),
             "ms");
  report.add("serve.cache_hit_ratio",
             static_cast<double>(hit_ms.size()) / requests, "ratio");
  report.add("serve.dedup_ratio", static_cast<double>(ev.dedup) / requests,
             "ratio");
  report.add("serve.reuse_ratio",
             ev.leaders ? static_cast<double>(ev.reuse) /
                              static_cast<double>(ev.leaders)
                        : 0.0,
             "ratio");
  report.add("serve.shed_count", static_cast<double>(shed), "count");
  report.add("trace.overhead_ratio", overhead_ratio, "ratio");
}

}  // namespace

Report run_serve_mix(const RunConfig& cfg) {
  Report report;
  if (cfg.record) return report;  // checked against direct solves instead

  // Set-up is what a user pays before the first request: the service and
  // the request stream. Repeated so that its median is steady; the last
  // service and stream are the ones used.
  std::unique_ptr<pase::serve::ServeCore> core;
  Inputs in;
  const double setup_s = time_setup(kSetupBatch, [&] {
    core.reset();
    in = Inputs{};
    const double t0 = now_s();
    core = std::make_unique<pase::serve::ServeCore>(serve_options());
    in = make_inputs(cfg.seed);
    return now_s() - t0;
  });
  HostClock clock(1);

  if (cfg.trace) {
    // An untraced and a traced half, each on a fresh service: the ratio of
    // their throughputs is the tracing overhead.
    LoopResult untraced = new_loop_result(in);
    closed_loop<false>(*core, in, cfg.seconds / 2, clock, nullptr, untraced);
    core = std::make_unique<pase::serve::ServeCore>(serve_options());
    Tracer tracer;
    LoopResult traced = new_loop_result(in);
    closed_loop<true>(*core, in, cfg.seconds / 2, clock, &tracer, traced);
    pase::MetricsRegistry registry;
    std::vector<Oracle> oracle;
    {
      Span s(tracer, "oracle");
      oracle = solve_directly(in.universe, &registry, report);
    }
    check_responses(untraced, in, oracle, report);
    check_responses(traced, in, oracle, report);
    const double ratio =
        (static_cast<double>(untraced.records.size()) / untraced.scaled_wall_s) /
        (static_cast<double>(traced.records.size()) / traced.scaled_wall_s);
    add_per_layer(in, traced, oracle, registry, tracer, ratio, report);
    finish_trace(tracer, cfg);
    return report;
  }

  LoopResult loop = new_loop_result(in);
  const RssBaseline rss;
  closed_loop<false>(*core, in, cfg.seconds, clock, nullptr, loop);
  const double rss_mb = rss.growth_mb();  // the service's, before the checks
  const std::vector<Oracle> oracle = solve_directly(in.universe, nullptr, report);
  check_responses(loop, in, oracle, report);

  std::vector<double> latency_ms;
  i64 hits = 0;
  for (const Record& r : loop.records) {
    latency_ms.push_back(r.latency_ms * r.scale);
    hits += r.hit ? 1 : 0;
  }
  const double p99 = percentile(latency_ms, 99);
  i64 beyond = 0;
  for (const double l : latency_ms) beyond += l > p99 ? 1 : 0;
  const EventStats& ev = loop.events;
  // search_s: each cold key's median in-service solve time, summed — every
  // cold request is a miss, so each cold key is solved many times a run.
  double search_s = 0.0;
  i64 unsolved = 0;
  for (const ServeKey& k : in.universe) {
    if (k.hot) continue;
    const auto it = ev.scaled_solve_ms_by_id.find(k.label);
    if (it == ev.scaled_solve_ms_by_id.end()) ++unsolved;
    else search_s += median(it->second) / 1e3;
  }
  if (unsolved > 0) report.fail("cold keys never solved: " + std::to_string(unsolved));
  std::vector<double> speedup;
  for (const Oracle& o : oracle) speedup.push_back(o.speedup);
  std::fprintf(stderr,
               "serve_mix: %zu requests, hit share %.4f, %lld samples beyond "
               "p99, %zu solves in the event log; as measured: %.1f req/s, "
               "reference kernel median %.3f ms\n",
               latency_ms.size(),
               static_cast<double>(hits) / static_cast<double>(latency_ms.size()),
               static_cast<long long>(beyond), ev.solve_ms.size(),
               static_cast<double>(latency_ms.size()) / loop.wall_s,
               clock.median_reference() * 1e3);

  report.add("setup_s", setup_s, "s");
  report.add("search_s", search_s, "s");
  report.add("solve_ms_p50", median(ev.scaled_solve_ms), "ms");
  report.add("throughput_rps",
             static_cast<double>(latency_ms.size()) / loop.scaled_wall_s,
             "req/s");
  report.add("latency_ms_p50", median(latency_ms), "ms");
  report.add("latency_ms_p99", p99, "ms");
  report.add("quality_geomean", geomean(speedup), "ratio");
  report.add("ok_ratio", report.ok_ratio(), "ratio");
  report.add("peak_rss_mb", rss_mb, "MB");
  return report;
}

}  // namespace perfbench
