// Shared pieces of the repository benchmark (perfbench/README.md): run
// configuration, the result record every workload fills, statistics,
// digests, expected-result bookkeeping and the span tracer that only traced
// runs construct.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "config/config.h"
#include "util/types.h"

namespace pase {
class Graph;
struct ConfigOptions;
struct CostParams;
}  // namespace pase

namespace perfbench {

using pase::i64;
using pase::u64;

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Statistics

/// Nearest-rank percentile: the smallest sample such that at least q
/// percent of the samples are <= it (q in (0, 100]). Empty input -> 0.
double percentile(std::vector<double> samples, double q);
inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}
/// Geometric mean of positive values (empty input -> 0).
double geomean(const std::vector<double>& values);
/// Peak resident set size of this process, MB (getrusage ru_maxrss).
double peak_rss_mb();
/// Current resident set size of this process, MB (/proc/self/statm); 0 when
/// it cannot be read.
double current_rss_mb();

/// What the program under test adds to the process's memory in a timed
/// phase. Constructed right before the phase, after the benchmark's own
/// buffers (reference-kernel table, inputs, plans, result records) exist:
/// returns freed heap to the system and samples the resident set.
class RssBaseline {
 public:
  RssBaseline();
  /// Peak RSS so far minus the baseline, MB.
  double growth_mb() const { return peak_rss_mb() - baseline_mb_; }

 private:
  double baseline_mb_;
};

// ---------------------------------------------------------------------------
// Host speed. The benchmark shares its machine with other work whose load
// moves every timing of a run by tens of percent within seconds. A short
// fixed reference kernel owned by the benchmark (hash-map inserts and
// lookups, streaming floating point, a pointer chase through the shared
// cache; independent of the program under test) is timed after every timed
// operation, while the program is idle, on as many threads as the operation
// uses, and each end-to-end time is scaled by kReferenceSeconds over the
// smaller of the reference times just before and after it: seconds on a
// host where the kernel takes kReferenceSeconds. Interruptions only ever
// slow a kernel timing, so the smaller one is the better reading of the
// host's speed.

constexpr double kReferenceSeconds = 0.005;

/// Wall time of the reference kernel run once on each of `threads` threads
/// at the same time, seconds.
double reference_seconds(int threads);

class HostClock {
 public:
  explicit HostClock(int threads)
      : threads_(threads), last_(reference_seconds(threads)) {}
  /// Samples the reference kernel and returns the scale for the interval
  /// since the previous sample: kReferenceSeconds / min(previous, this).
  double next_factor();
  /// `elapsed` (measured since the previous sample) in reference-host
  /// seconds; samples the kernel.
  double scale(double elapsed) { return elapsed * next_factor(); }
  double median_reference() const { return median(samples_); }

 private:
  int threads_;
  double last_;
  std::vector<double> samples_;
};

/// Samples in a set-up measurement.
constexpr int kSetupSamples = 41;

/// Set-up time in reference-host seconds: the median over kSetupSamples
/// samples. A sample is `batch` back-to-back calls of `setup`, each of which
/// tears down the previous set-up untimed, times a fresh one and returns its
/// seconds; their mean is scaled by the smaller of two 1-thread
/// reference-kernel timings taken just before and after the batch.
/// Back-to-back calls keep the kernel's cache sweep out of all but the first
/// set-up of a sample. Each sample runs on a fresh thread, so the samples are
/// spread over the cores the scheduler picks rather than tied to the main
/// thread's.
double time_setup(i64 batch, const std::function<double()>& setup);

// ---------------------------------------------------------------------------
// Digests and seeded randomness (self-contained so that a given seed gives
// the same inputs regardless of how the program's own hashing evolves)

constexpr u64 kFnvBasis = 1469598103934665603ull;
u64 fnv1a(std::string_view bytes, u64 h = kFnvBasis);
/// Digest of a strategy's split factors (rank and factors per node, in
/// node-id order) — independent of the strategy text format.
u64 strategy_digest(const pase::Strategy& strategy);

/// splitmix64 stream.
class Rng {
 public:
  explicit Rng(u64 seed) : state_(seed) {}
  u64 next();
  /// Uniform in [0, n).
  u64 below(u64 n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  u64 state_;
};

// ---------------------------------------------------------------------------
// Run configuration and result record

struct RunConfig {
  std::string workload;
  u64 seed = 1;
  double seconds = 25.0;
  bool trace = false;
  /// Expected-results file (perfbench/expected.txt).
  std::string expected_path;
  /// Print expected-result lines for this workload instead of checking.
  bool record = false;
  /// Where a traced run writes its Chrome trace.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  i64 attempted = 0;
  i64 failed = 0;
  std::string first_failure;
  std::vector<Metric> metrics;

  void fail(const std::string& what) {
    if (failed++ == 0) first_failure = what;
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  double ok_ratio() const {
    return attempted > 0
               ? static_cast<double>(attempted - failed) /
                     static_cast<double>(attempted)
               : 0.0;
  }
};

/// Checked-in expected result of one solver-workload item.
struct Expected {
  std::string status;
  u64 cost_bits = 0;
  u64 digest = 0;
  double speedup = 0.0;
  i64 stages = 1;  ///< pipeline stages of the returned strategy
};

/// Loads "workload item status cost_bits digest speedup stages" lines (hex
/// bits and digest, %.17g speedup; '#' comments). Missing file -> empty map.
std::map<std::string, Expected> load_expected(const std::string& path,
                                              const std::string& workload);
std::string expected_line(const std::string& workload, const std::string& item,
                          const Expected& e);
u64 double_bits(double v);

// ---------------------------------------------------------------------------
// Tracing: spans (name, start, end, parent) kept in memory and written out
// at exit as a Chrome trace plus a per-layer summary. Only traced runs
// construct a Tracer; untraced code paths never reach Span.

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Opens a span on the calling thread under its innermost open span;
  /// returns its index.
  i64 open(const char* name);
  void close(i64 index);

  struct Summary {
    i64 count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus time covered by child spans
  };
  std::map<std::string, Summary> summary() const;
  /// Writes the Chrome trace-event JSON; false when the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;
  i64 num_spans() const;

 private:
  struct SpanRec {
    const char* name;
    double start_us;
    double end_us;
    i64 parent;
    i64 tid;
  };
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
  double epoch_s_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~Span() { tracer_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  i64 index_;
};

/// Writes the Chrome trace to cfg.trace_out and prints the per-layer span
/// summary (count, total and self time per span name) to stderr.
void finish_trace(const Tracer& tracer, const RunConfig& cfg);

/// What the config/cost probe counted.
struct PriceStats {
  i64 configs_total = 0;  ///< sum of |C(v)|
  i64 k_max = 0;          ///< max |C(v)|
  i64 calls = 0;          ///< node_cost plus edge_cost calls
};

/// Traced-only probe of the config and cost layers on one graph: enumerates
/// C(v) for every node (span "config.enumerate"), then prices every
/// (v, C(v)) and (e, C(src) x C(dst)) pair with an uncached CostModel (span
/// "cost.price"). Adds to `stats`; a non-finite cost fails `report`.
void probe_config_and_cost(const pase::Graph& graph,
                           const pase::ConfigOptions& options,
                           const pase::CostParams& params, Tracer& tracer,
                           PriceStats& stats, Report& report);

// ---------------------------------------------------------------------------
// Workloads

/// Item names of a solver workload (empty for other names).
std::vector<std::string> solver_item_names(const std::string& workload);

Report run_zoo_grid(const RunConfig& cfg);
Report run_deep_stack(const RunConfig& cfg);
Report run_wide_space(const RunConfig& cfg);
Report run_serve_mix(const RunConfig& cfg);

}  // namespace perfbench
