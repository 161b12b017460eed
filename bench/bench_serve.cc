// Serving-path benchmark: drives ServeCore directly (no sockets) and
// reports the numbers the ROADMAP's BENCH_serve.json trajectory tracks —
// per-model cold-solve vs cached-hit latency (the warm-cache payoff) and a
// concurrent mixed-zoo burst with qps, p50/p99 latency and cache hit rate.
//
// Output is one canonical JSON object on stdout (redirect to
// BENCH_serve.json); human-readable numbers go to stderr. tools/check.sh
// gates the cached-hit latencies and the burst p50 against the checked-in
// baseline through tools/bench_gate; cold_ms and speedup are reported,
// not gated.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "serve/json.h"
#include "serve/server.h"

using namespace pase;
using namespace pase::serve;
using pase::bench::calibrate_cpu_ms;
using pase::bench::now_ms;

namespace {

std::string solve_line(const std::string& zoo, i64 devices) {
  return "{\"op\":\"solve\",\"zoo\":\"" + zoo +
         "\",\"devices\":" + std::to_string(devices) + "}";
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<size_t>(q * static_cast<double>(v.size() - 1))];
}

}  // namespace

int main() {
  const double calib_ms = calibrate_cpu_ms(3);
  std::fprintf(stderr,
               "cpu calibration: %.3f ms (8 MiB pointer chase + allocator "
               "churn)\n",
               calib_ms);

  ServeOptions options;
  options.workers = 4;
  options.default_deadline_ms = 60000;
  options.watchdog_grace_ms = 60000;

  const std::vector<std::string> zoo = {"mlp", "alexnet", "vgg16",
                                        "mobilenet_v1"};
  const i64 p = 8;

  Json models_json = Json::make_object();
  std::fprintf(stderr, "%-14s %12s %12s %10s\n", "model", "cold(ms)",
               "cached(ms)", "speedup");
  for (const std::string& m : zoo) {
    const std::string line = solve_line(m, p);
    // Sub-millisecond cold solves swing with the host, so cold_ms is the
    // minimum first-solve time over several fresh cores; the last core
    // stays warm for the hit measurements below.
    constexpr int kColdRuns = 5;
    double cold_ms = 0.0;
    std::unique_ptr<ServeCore> core;
    for (int run = 0; run < kColdRuns; ++run) {
      core = std::make_unique<ServeCore>(options);
      const double t0 = now_ms();
      core->handle_line(line);
      const double ms = now_ms() - t0;
      if (run == 0 || ms < cold_ms) cold_ms = ms;
    }
    // Repeated verified hits (every one re-checks the stored cost, so
    // this prices the verify-on-hit path, not a blind lookup), measured
    // as min-of-3-windows: three independent windows of 64 timed hits
    // (16 warm-ups each), taking the minimum of the per-window p50s and
    // p99s. The check.sh perf gate compares these sub-100us numbers
    // across runs with a 25% tolerance, so a transient contention spike
    // must hit all three windows before it can move the reported value.
    double cached_ms = 0.0, cached_p99_ms = 0.0;
    for (int window = 0; window < 3; ++window) {
      for (int i = 0; i < 16; ++i) core->handle_line(line);
      std::vector<double> hits;
      for (int i = 0; i < 64; ++i) {
        const double h0 = now_ms();
        core->handle_line(line);
        hits.push_back(now_ms() - h0);
      }
      const double p50 = percentile(hits, 0.5);
      const double p99 = percentile(hits, 0.99);
      if (window == 0 || p50 < cached_ms) cached_ms = p50;
      if (window == 0 || p99 < cached_p99_ms) cached_p99_ms = p99;
    }
    Json entry = Json::make_object();
    entry.object["cold_ms"] = Json::make_number(cold_ms);
    entry.object["cached_p50_ms"] = Json::make_number(cached_ms);
    entry.object["cached_p99_ms"] = Json::make_number(cached_p99_ms);
    entry.object["speedup"] =
        Json::make_number(cached_ms > 0 ? cold_ms / cached_ms : 0.0);
    std::fprintf(stderr, "%-14s %12.3f %12.3f %9.1fx\n", m.c_str(), cold_ms,
                 cached_ms, cached_ms > 0 ? cold_ms / cached_ms : 0.0);
    models_json.object[m] = std::move(entry);
  }

  // Mixed-zoo burst on a fresh core: 4 client threads, 200 requests.
  ServeCore core(options);
  const i64 kRequests = 200;
  const i64 kClients = 4;
  std::vector<double> latencies(static_cast<size_t>(kRequests), 0.0);
  std::atomic<i64> next{0};
  const double burst0 = now_ms();
  std::vector<std::thread> clients;
  for (i64 c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const i64 k = next.fetch_add(1, std::memory_order_relaxed);
        if (k >= kRequests) return;
        const std::string line =
            solve_line(zoo[static_cast<size_t>(k) % zoo.size()], p);
        const double t0 = now_ms();
        core.handle_line(line);
        latencies[static_cast<size_t>(k)] = now_ms() - t0;
      }
    });
  }
  for (auto& t : clients) t.join();
  const double burst_s = (now_ms() - burst0) / 1e3;

  const double hits =
      static_cast<double>(core.metrics().counter("serve.cache.hits"));
  const double misses =
      static_cast<double>(core.metrics().counter("serve.cache.misses"));

  // Server-side rolling SLO view of the same burst: total latency over
  // every solve, queue wait and solve time over admitted flights only —
  // the queue/solve split is what audits shed decisions (DESIGN.md §11).
  const ServeCore::SloSnapshot slo = core.slo_snapshot();

  Json burst = Json::make_object();
  burst.object["requests"] = Json::make_number(static_cast<double>(kRequests));
  burst.object["clients"] = Json::make_number(static_cast<double>(kClients));
  burst.object["qps"] =
      Json::make_number(static_cast<double>(kRequests) / burst_s);
  burst.object["p50_ms"] = Json::make_number(percentile(latencies, 0.5));
  burst.object["p99_ms"] = Json::make_number(percentile(latencies, 0.99));
  burst.object["cache_hit_rate"] =
      Json::make_number(hits + misses > 0 ? hits / (hits + misses) : 0.0);
  Json slo_json = Json::make_object();
  slo_json.object["window"] =
      Json::make_number(static_cast<double>(slo.window));
  slo_json.object["total_p50_ms"] = Json::make_number(slo.total.p50);
  slo_json.object["total_p99_ms"] = Json::make_number(slo.total.p99);
  slo_json.object["queue_wait_p50_ms"] =
      Json::make_number(slo.queue_wait.p50);
  slo_json.object["queue_wait_p99_ms"] =
      Json::make_number(slo.queue_wait.p99);
  slo_json.object["solve_p50_ms"] = Json::make_number(slo.solve.p50);
  slo_json.object["admitted"] =
      Json::make_number(static_cast<double>(slo.queue_wait.count));
  burst.object["slo"] = std::move(slo_json);
  std::fprintf(stderr,
               "burst: %lld requests / %lld clients: %.0f qps, "
               "p50=%.3fms p99=%.3fms hit-rate=%.2f\n",
               static_cast<long long>(kRequests),
               static_cast<long long>(kClients),
               static_cast<double>(kRequests) / burst_s,
               percentile(latencies, 0.5), percentile(latencies, 0.99),
               hits / (hits + misses));
  std::fprintf(stderr,
               "  server slo (window %lld): total p50=%.3fms p99=%.3fms | "
               "queue p50=%.3fms p99=%.3fms | solve p50=%.3fms "
               "(%lld admitted)\n",
               static_cast<long long>(slo.window), slo.total.p50,
               slo.total.p99, slo.queue_wait.p50, slo.queue_wait.p99,
               slo.solve.p50, static_cast<long long>(slo.queue_wait.count));

  Json report = Json::make_object();
  report.object["bench"] = Json::make_string("serve");
  report.object["cpu_calib_ms"] = Json::make_number(calib_ms);
  report.object["devices"] = Json::make_number(static_cast<double>(p));
  report.object["models"] = std::move(models_json);
  report.object["burst"] = std::move(burst);
  std::printf("%s\n", write_json(report).c_str());
  return 0;
}
