// Inputs the benchmark generates: machine-spec JSON text, inline
// pase-model text, and the serve_mix key universe plus its seeded request
// stream. Everything here is a pure function of its arguments, so a given
// seed always yields byte-identical inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cost/machine.h"
#include "util/types.h"

namespace perfbench {

/// A machine-spec document (src/hetero/machine_file.h format) describing
/// `m` exactly: doubles are written with 17 significant digits, so parsing
/// the text gives back the same bits.
std::string machine_spec_json(const pase::MachineSpec& m);

/// Inline model topologies the serve stream sends as pase-model text.
enum class Topology { kMlp, kResidualCnn, kSeqBlocks };
constexpr Topology kTopologies[] = {Topology::kMlp, Topology::kResidualCnn,
                                    Topology::kSeqBlocks};
/// pase-model v1 text of topology `t` at batch size `batch`. Every batch
/// size gives the same adjacency, so re-solves of one topology at another
/// batch size are delta re-solves.
std::string inline_model(Topology t, pase::i64 batch);

/// One distinct serve query. Exactly one of zoo/model_text is set, and
/// exactly one of machine/spec_json.
struct ServeKey {
  std::string label;  ///< e.g. "inception_v3/p32/spec-multi_tier"
  std::string zoo;
  std::string model_text;
  std::string machine;    ///< named preset
  std::string spec_json;  ///< inline machine_spec
  pase::i64 devices = 8;
  /// Hot keys recur every few dozen requests and stay cached; cold keys
  /// recur only after more distinct keys than the result cache holds, so
  /// every cold request is a miss.
  bool hot = false;
};

/// The fixed serve_mix key universe (composition independent of the seed).
std::vector<ServeKey> serve_universe();
/// The protocol line for one key; its "id" is the key's label.
std::string request_line(const ServeKey& key);

/// Seeded request stream of `n` key indices: blocks of 5 slots, one cold
/// slot per block at a seeded position; hot slots cycle through a fixed
/// permutation of the hot keys and cold slots through a fixed permutation of
/// the cold keys, each from a seeded starting point, so every key's
/// recurrence distance is fixed by construction.
std::vector<std::uint32_t> serve_stream(const std::vector<ServeKey>& universe,
                                        std::uint64_t seed, size_t n);

/// Hit share an LRU result cache of `capacity` entries would see on
/// `stream` (the serve_mix hit-share band check).
double lru_hit_share(const std::vector<std::uint32_t>& stream,
                     size_t capacity);

}  // namespace perfbench
