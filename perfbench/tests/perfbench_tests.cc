// The benchmark's own tests: seeded inputs, the serve hit-share band, the
// percentile helper and expected-result coverage.
//
//   perfbench_tests --expected perfbench/expected.txt
#include <cstdio>
#include <cstring>
#include <string>

#include "bench.h"
#include "hetero/machine_file.h"
#include "inputs.h"
#include "io/model_parser.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::string rendered_stream(std::uint64_t seed, size_t n) {
  const auto universe = perfbench::serve_universe();
  std::string out;
  for (const std::uint32_t k : perfbench::serve_stream(universe, seed, n))
    out += perfbench::request_line(universe[k]) + "\n";
  return out;
}

void serve_stream_is_byte_identical_per_seed() {
  CHECK(rendered_stream(7, 3000) == rendered_stream(7, 3000));
  CHECK(rendered_stream(7, 3000) != rendered_stream(8, 3000));
}

void serve_hit_share_in_band() {
  const auto universe = perfbench::serve_universe();
  size_t hot = 0;
  for (const auto& k : universe) hot += k.hot ? 1 : 0;
  // Between two requests for one cold key every other key is requested, more
  // than the result cache holds, so a cold key is always evicted before it
  // recurs; there are few enough hot keys that they never are.
  CHECK(universe.size() - 1 > 128);
  CHECK(hot < 64);
  for (const std::uint64_t seed : {1, 2, 3, 42, 1000}) {
    const double share = perfbench::lru_hit_share(
        perfbench::serve_stream(universe, seed, 5000), 128);
    std::fprintf(stderr, "seed %llu: hit share %.4f\n",
                 static_cast<unsigned long long>(seed), share);
    CHECK(share > 0.75 && share < 0.85);
  }
}

void nearest_rank_percentile() {
  using perfbench::percentile;
  const std::vector<double> v = {15, 20, 35, 40, 50};
  CHECK(percentile(v, 5) == 15);
  CHECK(percentile(v, 30) == 20);
  CHECK(percentile(v, 40) == 20);
  CHECK(percentile(v, 50) == 35);
  CHECK(percentile(v, 100) == 50);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  CHECK(percentile(hundred, 50) == 50);
  CHECK(percentile(hundred, 99) == 99);
  CHECK(perfbench::median({3, 1, 2}) == 2);
  CHECK(percentile({}, 50) == 0);
}

void generated_inputs_parse() {
  for (const perfbench::Topology t : perfbench::kTopologies) {
    const auto parsed = pase::parse_model(perfbench::inline_model(t, 32));
    if (!parsed.ok) std::fprintf(stderr, "%s\n", parsed.error.c_str());
    CHECK(parsed.ok);
  }
  for (const pase::MachineSpec& m :
       {pase::MachineSpec::mixed_pod(16), pase::MachineSpec::multi_tier(32),
        pase::MachineSpec::multi_tier(8)}) {
    pase::MachineSpec back;
    std::string error;
    CHECK(pase::parse_machine_spec(perfbench::machine_spec_json(m), &back,
                                   &error));
    CHECK(back.device_flops == m.device_flops);
    CHECK(back.link_tiers.size() == m.link_tiers.size());
    CHECK(back.link_bandwidth == m.link_bandwidth);
  }
}

void every_item_has_an_expectation(const std::string& path) {
  for (const char* workload : {"zoo_grid", "deep_stack", "wide_space"}) {
    const auto expected = perfbench::load_expected(path, workload);
    const auto names = perfbench::solver_item_names(workload);
    CHECK(!names.empty());
    CHECK(expected.size() == names.size());
    for (const std::string& name : names) {
      if (!expected.count(name))
        std::fprintf(stderr, "no expectation for %s/%s\n", workload,
                     name.c_str());
      CHECK(expected.count(name) == 1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string expected_path;
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--expected") == 0) expected_path = argv[i + 1];
  if (expected_path.empty()) {
    std::fprintf(stderr, "usage: perfbench_tests --expected FILE\n");
    return 2;
  }
  serve_stream_is_byte_identical_per_seed();
  serve_hit_share_in_band();
  nearest_rank_percentile();
  generated_inputs_parse();
  every_item_has_an_expectation(expected_path);
  std::fprintf(stderr, "%s (%d failed checks)\n",
               failures ? "FAILED" : "all perfbench tests passed", failures);
  return failures ? 1 : 0;
}
