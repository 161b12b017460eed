#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "config/config_enum.h"
#include "cost/cost_model.h"

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(q / 100.0 * n));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) rank = samples.size();
  return samples[rank - 1];
}

double geomean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (const double v : values) log_sum += std::log(v);
  return std::exp(log_sum / static_cast<double>(values.size()));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double current_rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0.0, resident_pages = 0.0;
  if (!(statm >> size_pages >> resident_pages)) return 0.0;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

RssBaseline::RssBaseline() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  baseline_mb_ = current_rss_mb();
}

namespace {

volatile double g_reference_sink = 0.0;

/// 16 MiB of pseudo-random successor indices: more than a core's private
/// caches hold, so the chase below runs in the cache level the machine's
/// tenants share.
const std::vector<std::uint32_t>& chase_table() {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(std::size_t{1} << 22);
    for (std::size_t i = 0; i < t.size(); ++i)
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    return t;
  }();
  return table;
}

double reference_kernel() {
  std::unordered_map<u64, double> table;
  table.reserve(1 << 13);
  u64 x = 88172645463325252ull;
  const auto step = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (int i = 0; i < (1 << 13); ++i)
    table[step() & 0x3ffff] = std::sqrt(static_cast<double>(x & 1023));
  double acc = 0.0;
  for (int i = 0; i < (1 << 16); ++i) {
    const auto it = table.find(step() & 0x3ffff);
    if (it != table.end()) acc += it->second * 1.0000001;
  }
  std::vector<double> v(1 << 14, 0.0);
  for (int r = 0; r < 8; ++r)
    for (size_t i = 0; i < v.size(); ++i)
      v[i] = v[i] * 0.999 + acc * 1e-9 + static_cast<double>(i);
  const std::vector<std::uint32_t>& chase = chase_table();
  std::uint32_t idx = 1;
  for (int i = 0; i < (1 << 14); ++i)
    idx = chase[(step() ^ idx) & (chase.size() - 1)];
  return acc + v[123] + idx;
}

}  // namespace

double reference_seconds(int threads) {
  chase_table();  // built once, outside the timing
  const double t0 = now_s();
  std::vector<double> results(static_cast<size_t>(threads), 0.0);
  std::vector<std::thread> others;
  for (int t = 1; t < threads; ++t)
    others.emplace_back([&results, t] {
      results[static_cast<size_t>(t)] = reference_kernel();
    });
  results[0] = reference_kernel();
  for (std::thread& t : others) t.join();
  const double elapsed = now_s() - t0;
  double sum = 0.0;
  for (const double r : results) sum += r;
  g_reference_sink = sum;
  return elapsed;
}

double HostClock::next_factor() {
  const double now = reference_seconds(threads_);
  samples_.push_back(now);
  const double factor = kReferenceSeconds / std::min(last_, now);
  last_ = now;
  return factor;
}

double time_setup(i64 batch, const std::function<double()>& setup) {
  std::vector<double> measured, scaled, reference;
  for (int s = 0; s < kSetupSamples; ++s) {
    std::thread([&] {
      const double before = reference_seconds(1);
      double seconds = 0.0;
      for (i64 i = 0; i < batch; ++i) seconds += setup();
      const double after = reference_seconds(1);
      measured.push_back(seconds / static_cast<double>(batch));
      reference.push_back(std::min(before, after));
      scaled.push_back(measured.back() * kReferenceSeconds / reference.back());
    }).join();
  }
  std::fprintf(stderr,
               "set-up: median %.6f s as measured (samples %.6f-%.6f), "
               "%.6f s scaled; reference kernel median %.3f ms\n",
               median(measured),
               *std::min_element(measured.begin(), measured.end()),
               *std::max_element(measured.begin(), measured.end()),
               median(scaled), median(reference) * 1e3);
  return median(scaled);
}

u64 fnv1a(std::string_view bytes, u64 h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

u64 strategy_digest(const pase::Strategy& strategy) {
  u64 h = kFnvBasis;
  for (const pase::Config& c : strategy) {
    std::string bytes(1, static_cast<char>(c.rank()));
    for (i64 i = 0; i < c.rank(); ++i) {
      bytes.push_back(static_cast<char>(c[i] & 0xff));
      bytes.push_back(static_cast<char>(c[i] >> 8));
    }
    h = fnv1a(bytes, h);
  }
  return h;
}

u64 Rng::next() {
  u64 z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

u64 double_bits(double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::map<std::string, Expected> load_expected(const std::string& path,
                                              const std::string& workload) {
  std::map<std::string, Expected> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string wl, item, status, cost_hex, digest_hex;
    double speedup = 0.0;
    i64 stages = 0;
    if (!(is >> wl >> item >> status >> cost_hex >> digest_hex >> speedup >>
          stages))
      continue;
    if (wl != workload) continue;
    Expected e;
    e.status = status;
    e.cost_bits = std::stoull(cost_hex, nullptr, 16);
    e.digest = std::stoull(digest_hex, nullptr, 16);
    e.speedup = speedup;
    e.stages = stages;
    out[item] = e;
  }
  return out;
}

std::string expected_line(const std::string& workload, const std::string& item,
                          const Expected& e) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s %s %s %016" PRIx64 " %016" PRIx64 " %.17g %" PRId64,
                workload.c_str(), item.c_str(), e.status.c_str(), e.cost_bits,
                e.digest, e.speedup, e.stages);
  return buf;
}

// ---------------------------------------------------------------------------
// Tracer

namespace {

/// Innermost open span per thread (index into the owning tracer).
thread_local std::vector<i64> t_open_spans;

i64 thread_index() {
  static std::mutex mu;
  static std::map<std::thread::id, i64> ids;
  std::lock_guard<std::mutex> lk(mu);
  return ids.emplace(std::this_thread::get_id(), static_cast<i64>(ids.size()))
      .first->second;
}

}  // namespace

Tracer::Tracer() : epoch_s_(now_s()) {}

i64 Tracer::open(const char* name) {
  const double start_us = (now_s() - epoch_s_) * 1e6;
  const i64 parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  const i64 tid = thread_index();
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back({name, start_us, start_us, parent, tid});
  const i64 index = static_cast<i64>(spans_.size()) - 1;
  t_open_spans.push_back(index);
  return index;
}

void Tracer::close(i64 index) {
  const double end_us = (now_s() - epoch_s_) * 1e6;
  if (!t_open_spans.empty() && t_open_spans.back() == index)
    t_open_spans.pop_back();
  std::lock_guard<std::mutex> lk(mu_);
  spans_[static_cast<size_t>(index)].end_us = end_us;
}

i64 Tracer::num_spans() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<i64>(spans_.size());
}

std::map<std::string, Tracer::Summary> Tracer::summary() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRec& s : spans_)
    if (s.parent >= 0)
      child_ms[static_cast<size_t>(s.parent)] += (s.end_us - s.start_us) / 1e3;
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double ms = (spans_[i].end_us - spans_[i].start_us) / 1e3;
    Summary& sum = out[spans_[i].name];
    ++sum.count;
    sum.total_ms += ms;
    sum.self_ms += ms - child_ms[i];
  }
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRec& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%" PRId64
                 ",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%" PRId64 "}}%s\n",
                 s.name, s.tid, s.start_us, s.end_us - s.start_us, i, s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

void probe_config_and_cost(const pase::Graph& graph,
                           const pase::ConfigOptions& options,
                           const pase::CostParams& params, Tracer& tracer,
                           PriceStats& stats, Report& report) {
  std::vector<std::vector<pase::Config>> configs(graph.nodes().size());
  {
    Span s(tracer, "config.enumerate");
    for (size_t v = 0; v < configs.size(); ++v)
      configs[v] =
          pase::enumerate_node_configs(graph.node(static_cast<i64>(v)), options);
  }
  for (const auto& list : configs) {
    stats.configs_total += static_cast<i64>(list.size());
    stats.k_max = std::max<i64>(stats.k_max, static_cast<i64>(list.size()));
  }
  Span s(tracer, "cost.price");
  const pase::CostModel cost(graph, params);
  double sum = 0.0;
  for (size_t v = 0; v < configs.size(); ++v)
    for (const pase::Config& c : configs[v]) {
      sum += cost.node_cost(static_cast<i64>(v), c);
      ++stats.calls;
    }
  for (const pase::Edge& e : graph.edges())
    for (const pase::Config& a : configs[static_cast<size_t>(e.src)])
      for (const pase::Config& b : configs[static_cast<size_t>(e.dst)]) {
        sum += cost.edge_cost(e, a, b);
        ++stats.calls;
      }
  if (!std::isfinite(sum)) report.fail("a priced cost is not finite");
}

void finish_trace(const Tracer& tracer, const RunConfig& cfg) {
  std::fprintf(stderr, "%-24s %8s %12s %12s\n", "span", "count", "total_ms",
               "self_ms");
  for (const auto& [name, s] : tracer.summary())
    std::fprintf(stderr, "%-24s %8lld %12.3f %12.3f\n", name.c_str(),
                 static_cast<long long>(s.count), s.total_ms, s.self_ms);
  if (cfg.trace_out.empty()) return;
  if (tracer.write_chrome_trace(cfg.trace_out))
    std::fprintf(stderr, "chrome trace (%lld spans): %s\n",
                 static_cast<long long>(tracer.num_spans()),
                 cfg.trace_out.c_str());
  else
    std::fprintf(stderr, "could not write %s\n", cfg.trace_out.c_str());
}

}  // namespace perfbench
