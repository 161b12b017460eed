// Ablation for paper §III-C and §V: dependent-set sizes under GenerateSeq
// vs breadth-first ordering, the resulting K^(M+1) work bound, and the
// DenseNet case where no ordering helps.
#include <algorithm>
#include <cmath>

#include "bench_common.h"
#include "core/dep_sets.h"
#include "util/table.h"

using namespace pase;

namespace {

struct OrderingStats {
  i64 max_dep = 0;
  double mean_dep = 0.0;
};

OrderingStats stats(const Graph& g, const Ordering& o) {
  OrderingStats s;
  double sum = 0.0;
  for (const auto& dependent : dep_sets(g, o).dependent) {
    const i64 d = static_cast<i64>(dependent.size());
    s.max_dep = std::max(s.max_dep, d);
    sum += static_cast<double>(d);
  }
  s.mean_dep = sum / static_cast<double>(g.num_nodes());
  return s;
}

}  // namespace

int main() {
  auto benchmarks = models::paper_benchmarks();
  benchmarks.push_back({"DenseNet (2x6)", models::densenet()});

  TextTable table(
      "Ablation: dependent-set sizes by ordering (paper Sec. III-C / V)");
  table.set_header({"Benchmark", "|V|", "K(p=8)", "M GenerateSeq",
                    "mean |D| GS", "M BreadthFirst", "mean |D| BF",
                    "log10 K^(M+1) GS", "log10 K^(M+1) BF"});

  ConfigOptions copts;
  copts.max_devices = 8;
  char buf[32];
  for (const auto& b : benchmarks) {
    const ConfigCache cache(b.graph, copts);
    const double k = static_cast<double>(cache.max_configs());
    const OrderingStats gs = stats(b.graph, generate_seq(b.graph));
    const OrderingStats bf = stats(b.graph, breadth_first(b.graph));
    std::vector<std::string> row = {b.name,
                                    std::to_string(b.graph.num_nodes()),
                                    std::to_string(cache.max_configs()),
                                    std::to_string(gs.max_dep)};
    std::snprintf(buf, sizeof(buf), "%.2f", gs.mean_dep);
    row.push_back(buf);
    row.push_back(std::to_string(bf.max_dep));
    std::snprintf(buf, sizeof(buf), "%.2f", bf.mean_dep);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f",
                  std::log10(k) * static_cast<double>(gs.max_dep + 1));
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f",
                  std::log10(k) * static_cast<double>(bf.max_dep + 1));
    row.push_back(buf);
    table.add_row(row);
  }
  table.print();
  std::printf(
      "\nPaper reference points: InceptionV3 has ~218 nodes; GenerateSeq\n"
      "keeps |D(i) u {v}| <= 3 while BF reaches ~10, i.e. K^(M+1) >= 1e11\n"
      "combinations (OOM). DenseNet stays dense under any ordering (Sec. "
      "V).\n");
  return 0;
}
