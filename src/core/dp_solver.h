// FindBestStrategy (paper Fig. 4): dynamic programming over recurrence (4).
//
// For each vertex v^(i) in the sequence, the solver enumerates every valid
// substrategy phi of the dependent set D(i); for each it finds the
// configuration C of v^(i) minimizing
//
//   H(i, phi U {(v^(i),C)}) + sum_{X(j) in S(i)} R(j, phi''),
//
// where H is the layer cost of v^(i) plus its transfer costs to later
// neighbors, and the R(j, .) values are read from the DP tables of the
// connected-subset anchors. Tables are hash maps keyed by the configuration
// choices of the dependent-set nodes. A table/work guard reports the same
// out-of-memory outcome the paper observes for breadth-first ordering on
// InceptionV3 and Transformer (Table I) without actually exhausting RAM;
// with DpOptions::degraded_fallback, a tripped guard (or an expired
// wall-clock deadline) instead degrades gracefully to a bounded beam search
// over the same vertex ordering and costs, returning a valid but possibly
// suboptimal strategy with status kDegraded.
//
// Parallel execution and determinism contract
// -------------------------------------------
// The per-vertex inner loop of recurrence (4) is embarrassingly parallel:
// every substrategy phi of D(i) is evaluated independently and written to
// its own slot of a dense mixed-radix table (earlier vertices' tables are
// only read). With DpOptions::num_threads != 1 the solver fans these
// evaluations across a work-stealing ThreadPool, decomposing the phi index
// range into fixed chunks by index — never by scheduling — and each phi's
// minimization scans configurations in enumeration order with strict
// less-than, exactly as the sequential loop does. Consequently the returned
// strategy, cost, status and diagnostics are BIT-IDENTICAL at every thread
// count (verified by tests/determinism_test.cc); only elapsed_seconds
// varies. The per-class cost memo (DpOptions::use_cost_cache) is likewise
// invisible in the results: cost functions are pure, so a shared table holds
// the same bits a direct pricing would.
//
// find_best_strategy() itself is a pure function of (graph, options) plus
// wall-clock effects (deadline): concurrent calls from different threads
// are safe, as each call owns all of its mutable state.
#pragma once

#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "config/config_enum.h"
#include "core/dep_sets.h"
#include "core/ordering.h"
#include "cost/cost_model.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

class MetricsRegistry;
class TraceSession;

/// Cross-solve context for delta re-solves (docs/SCALING.md, DESIGN.md §12).
///
/// Everything the solver computes *before* the DP tables — the vertex
/// ordering, the per-position dependent sets D(i) and anchor sets S(i), and
/// the component roots — is a pure function of the graph's ADJACENCY (which
/// node ids are connected, in which direction) and the ordering kind. It is
/// completely independent of tensor extents, batch size, device counts,
/// bandwidths and cost params. A caller that re-solves the same topology
/// under mutated parameters (the robustness evaluator re-solving per
/// degraded machine behind pase_cli --reuse-tables, bench_table1's
/// batch-size re-solve) can hand the same DpContext to every solve: on an
/// adjacency match the solver skips the ordering and vertex-set phases
/// (both near-linear, milliseconds even at thousand-node scale) and only
/// refills the DP tables. On any mismatch the context is ignored, so reuse
/// can never change results; the solver verifies the stored (src, dst) edge
/// list element-for-element rather than trusting a hash. Thread-safe;
/// solves from any number of threads may share one context. The stored
/// snapshot is replaced wholesale after a successful solve of a
/// non-matching graph.
class DpContext {
 public:
  struct Snapshot {
    OrderingKind kind = OrderingKind::kGenerateSeq;
    i64 num_nodes = 0;
    /// Exact (src, dst) per EdgeId — identity, not a hash.
    std::vector<std::pair<NodeId, NodeId>> edges;
    Ordering order;
    DepSets sets;  ///< D(i), S(i) and the roots for `order`
  };

  /// The stored snapshot when it matches (kind, adjacency of `graph`)
  /// exactly; nullptr otherwise.
  std::shared_ptr<const Snapshot> match(const Graph& graph,
                                        OrderingKind kind) const;
  /// Replaces the stored snapshot.
  void store(std::shared_ptr<const Snapshot> snap);

 private:
  mutable std::mutex mu_;
  std::shared_ptr<const Snapshot> snap_;
};

struct DpOptions {
  ConfigOptions config_options;
  CostParams cost_params;
  OrderingKind ordering = OrderingKind::kGenerateSeq;

  /// OOM guard: maximum substrategy-table entries for a single vertex.
  u64 max_table_entries = u64{1} << 23;
  /// Work guard: maximum (substrategies x configurations) combinations
  /// analyzed for a single vertex.
  u64 max_combinations = u64{2} << 30;

  /// Wall-clock budget for the exact DP; 0 = unlimited. Expiry is treated
  /// like a tripped guard (fallback or kOutOfMemory). Checked between
  /// vertices, before each t_x matrix is priced, and (amortized, every few
  /// thousand combinations) inside the table-fill inner loop, so even a
  /// single-large-vertex model honors a tight budget promptly.
  double deadline_seconds = 0.0;
  /// Optional external cancellation token (e.g. a serving watchdog). When
  /// non-null and set, the solve aborts at the next cancellation point and
  /// is treated exactly like a deadline expiry (fallback or kOutOfMemory),
  /// except the beam-search fallback also honors the token and may return
  /// kOutOfMemory if cancelled before producing a strategy. The pointee
  /// must outlive the call.
  const std::atomic<bool>* cancel = nullptr;
  /// Graceful degradation: when a guard or the deadline trips, run a
  /// bounded beam search over the same ordering and recurrence costs
  /// instead of returning no strategy (status kDegraded). Off by default so
  /// the paper-reproduction benches keep reporting the Table I OOM outcome;
  /// pase_cli enables it.
  bool degraded_fallback = false;
  /// Partial strategies kept per vertex by the fallback beam search.
  i64 beam_width = 256;

  /// Worker threads for the per-vertex configuration x substrategy fan-out:
  /// 1 = sequential (no pool), 0 = hardware concurrency, N = exactly N.
  /// Results are bit-identical at any setting (see file comment).
  i64 num_threads = 1;

  /// The per-class cost memo: share whole t_l vectors and t_x matrices
  /// between structurally identical vertices and edges within a solve (see
  /// cost/cost_classes.h). Never changes results; pase_cli --no-cost-cache
  /// turns it off for ablation, and every table is then priced directly.
  bool use_cost_cache = true;

  /// Optional cross-solve context for delta re-solves (see DpContext). When
  /// non-null and its snapshot matches this graph's adjacency + ordering
  /// kind, the ordering/vertex-set/root phases are skipped and only the DP
  /// tables are refilled; on a successful solve of a non-matching graph the
  /// snapshot is replaced. Never changes results. Must outlive the call.
  DpContext* context = nullptr;

  /// Optional observability sinks (src/obs); either or both may be null.
  /// `trace` records phase and per-vertex spans (ordering, dep_sets,
  /// configs, cost_precompute, table_fill, back_substitution, worker task
  /// spans); `metrics` collects
  /// dp.* counters/histograms/gauges. Attaching them never changes results,
  /// and every structural metric recorded is bit-identical across thread
  /// counts (see src/obs/metrics.h and DESIGN.md §9). Both must outlive the
  /// solve.
  TraceSession* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
};

enum class DpStatus {
  kOk,
  kOutOfMemory,  ///< a resource guard tripped (table size, work, or
                 ///< deadline) with the fallback disabled; no strategy
  kInfeasible,   ///< a node has no admissible configuration (e.g. every
                 ///< choice violates the per-device memory cap)
  kDegraded,     ///< a guard tripped, but the beam-search fallback produced
                 ///< a valid (not necessarily optimal) strategy
};

struct DpResult {
  DpStatus status = DpStatus::kOk;
  double best_cost = std::numeric_limits<double>::infinity();
  Strategy strategy;  ///< configuration per node, indexed by NodeId

  // Diagnostics (paper §III-C / Table I discussion).
  i64 max_dependent_set = 0;          ///< M for the ordering used
  u64 max_combinations_analyzed = 0;  ///< max_i |Phi(D(i))| * |C(v^(i))|
  i64 max_configs = 0;                ///< K
  double elapsed_seconds = 0.0;
  std::vector<i64> dependent_set_sizes;  ///< |D(i)| per position

  /// Which guard tripped, human-readable (set for kOutOfMemory/kDegraded).
  std::string guard_reason;
  /// Machine-readable guard classification (mirrors guard_reason). The
  /// serving layer uses this to decide cacheability: kTableGuard/kWorkGuard
  /// trips are pure functions of (graph, options) and may be cached, while
  /// kDeadline/kCancelled depend on wall-clock timing and must not be.
  enum class TripCause { kNone, kTableGuard, kWorkGuard, kDeadline,
                         kCancelled };
  TripCause trip_cause = TripCause::kNone;

  /// Worker threads actually used (DpOptions::num_threads resolved).
  i64 threads_used = 1;
  /// Cost entries (one t_l value or one r * t_x matrix cell) the solve
  /// read: served by the per-class memo from a table priced for an earlier
  /// same-class vertex or edge, and priced by a direct cost call. Both are
  /// pure functions of (graph, options minus num_threads); on a completed
  /// solve they sum to sum_v |C(v)| + sum_(u,w) |C(u)| x |C(w)|.
  u64 cost_cache_hits = 0;
  u64 cost_cache_misses = 0;

  /// Ordering/vertex sets/roots were reused from DpOptions::context
  /// (structural: identical at every thread count).
  bool reused_tables = false;
};

/// Stable wire name for a trip cause ("table_guard", "deadline", ...;
/// "none" for kNone) — what the serve event log and traces emit.
const char* trip_cause_name(DpResult::TripCause cause);

/// Runs FindBestStrategy on `graph`. Deterministic: ties are broken by
/// configuration enumeration order.
DpResult find_best_strategy(const Graph& graph, const DpOptions& options);

}  // namespace pase
