#include "inputs.h"

#include <cstdio>
#include <list>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kBaseOrderSeed = 0x5eed0f5e7e5ull;

/// One request in every kBlock goes to a cold key.
constexpr pase::i64 kBlock = 5;

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

const char* topology_name(Topology t) {
  switch (t) {
    case Topology::kMlp: return "mlp";
    case Topology::kResidualCnn: return "rescnn";
    case Topology::kSeqBlocks: return "seq2";
  }
  return "?";
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num(pase::i64 v) { return std::to_string(v); }

}  // namespace

std::string machine_spec_json(const pase::MachineSpec& m) {
  std::string s = "{\"name\":" + json_quote(m.name) +
                  ",\"devices\":" + num(m.num_devices) +
                  ",\"devices_per_node\":" + num(m.devices_per_node) +
                  ",\"peak_flops\":" + num(m.peak_flops);
  if (!m.device_flops.empty()) {
    s += ",\"device_flops\":[";
    for (size_t i = 0; i < m.device_flops.size(); ++i)
      s += (i ? "," : "") + num(m.device_flops[i]);
    s += "]";
  }
  s += ",\"link_bandwidth\":" + num(m.link_bandwidth);
  if (m.intra_node_bandwidth > 0)
    s += ",\"intra_node_bandwidth\":" + num(m.intra_node_bandwidth);
  if (m.inter_node_bandwidth > 0)
    s += ",\"inter_node_bandwidth\":" + num(m.inter_node_bandwidth);
  if (!m.link_tiers.empty()) {
    s += ",\"link_tiers\":[";
    for (size_t i = 0; i < m.link_tiers.size(); ++i) {
      const pase::LinkTier& t = m.link_tiers[i];
      s += std::string(i ? "," : "") + "{\"span\":" + num(t.span) +
           ",\"bandwidth\":" + num(t.bandwidth) +
           ",\"latency_s\":" + num(t.latency_s) + "}";
    }
    s += "]";
  }
  s += ",\"link_latency_s\":" + num(m.link_latency_s) +
       ",\"compute_efficiency\":" + num(m.compute_efficiency) +
       ",\"grad_overlap_efficiency\":" + num(m.grad_overlap_efficiency) +
       ",\"gradient_comm_discount\":" + num(m.gradient_comm_discount) + "}";
  return s;
}

std::string inline_model(Topology t, pase::i64 batch) {
  std::string s = "pase-model v1\nmodel bench-" +
                  std::string(topology_name(t)) + "\nbatch " + num(batch) +
                  "\n";
  switch (t) {
    case Topology::kMlp:
      s +=
          "node fc1 fc n=1024 c=784\n"
          "node fc2 fc n=1024 c=1024\n"
          "node fc3 fc n=512 c=1024\n"
          "node fc4 fc n=10 c=512\n"
          "node sm softmax n=10\n"
          "edge fc1 fc2 b:b n:c\n"
          "edge fc2 fc3 b:b n:c\n"
          "edge fc3 fc4 b:b n:c\n"
          "edge fc4 sm b:b n:n\n";
      break;
    case Topology::kResidualCnn:
      s +=
          "node conv1 conv2d c=3 h=32 w=32 n=64 r=3 s=3\n"
          "node conv2a conv2d c=64 h=32 w=32 n=64 r=3 s=3\n"
          "node conv2b conv2d c=64 h=32 w=32 n=64 r=1 s=1\n"
          "node add elementwise c=64 h=32 w=32\n"
          "node pool pool c=64 h=16 w=16 r=2 s=2\n"
          "node fc fc n=10 c=16384\n"
          "node sm softmax n=10\n"
          "edge conv1 conv2a b:b n:c h:h w:w\n"
          "edge conv1 conv2b b:b n:c h:h w:w\n"
          "edge conv2a add b:b n:c h:h w:w\n"
          "edge conv2b add b:b n:c h:h w:w\n"
          "edge add pool b:b c:c h:h w:w\n"
          "edge pool fc b:b c:c h:- w:-\n"
          "edge fc sm b:b n:n\n";
      break;
    case Topology::kSeqBlocks:
      s +=
          "node emb embedding s=64 d=256 v=8192\n"
          "node attn1 attention s=64 heads=4 qk=64\n"
          "node ln1 layernorm s=64 d=256\n"
          "node ffn1 ffn s=64 d=256 e=1024\n"
          "node ln2 layernorm s=64 d=256\n"
          "node attn2 attention s=64 heads=4 qk=64\n"
          "node ln3 layernorm s=64 d=256\n"
          "node ffn2 ffn s=64 d=256 e=1024\n"
          "node ln4 layernorm s=64 d=256\n"
          "node proj projection s=64 v=8192 d=256\n"
          "node sm softmax_seq s=64 v=8192\n"
          "edge emb attn1 b:b s:s d:-\n"
          "edge attn1 ln1 b:b s:s h:d c:-\n"
          "edge ln1 ffn1 b:b s:s d:d\n"
          "edge ffn1 ln2 b:b s:s d:d\n"
          "edge ln2 attn2 b:b s:s d:-\n"
          "edge attn2 ln3 b:b s:s h:d c:-\n"
          "edge ln3 ffn2 b:b s:s d:d\n"
          "edge ffn2 ln4 b:b s:s d:d\n"
          "edge ln2 ln4 b:b s:s d:d\n"
          "edge ln4 proj b:b s:s d:d\n"
          "edge proj sm b:b s:s v:v\n";
      break;
  }
  return s;
}

std::vector<ServeKey> serve_universe() {
  // Zoo queries over devices {8,16,32}: the 1080ti ones are hot, the other
  // named presets and the two inline machine specs are cold.
  static const char* const kZoo[] = {"alexnet",  "inception_v3", "rnnlm",
                                     "transformer", "resnet50", "vgg16",
                                     "gnmt",     "mobilenet_v1"};
  static const char* const kNamed[] = {"1080ti", "2080ti", "mixed"};
  std::vector<ServeKey> keys;
  for (const char* zoo : kZoo) {
    for (const pase::i64 p : {8, 16, 32}) {
      for (const char* machine : kNamed) {
        ServeKey k;
        k.zoo = zoo;
        k.machine = machine;
        k.devices = p;
        k.hot = std::string(machine) == "1080ti";
        k.label = k.zoo + "/p" + num(p) + "/" + machine;
        keys.push_back(std::move(k));
      }
      for (const bool tiered : {false, true}) {
        ServeKey k;
        k.zoo = zoo;
        k.spec_json = machine_spec_json(tiered ? pase::MachineSpec::multi_tier(p)
                                               : pase::MachineSpec::mixed_pod(p));
        k.devices = p;
        k.label = k.zoo + "/p" + num(p) +
                  (tiered ? "/spec-multi_tier" : "/spec-mixed_pod");
        keys.push_back(std::move(k));
      }
    }
  }
  // Inline models: one adjacency per topology at six batch sizes, so misses
  // of a known topology are delta re-solves.
  for (const Topology t : kTopologies) {
    for (const pase::i64 batch : {8, 16, 32, 64, 128, 256}) {
      for (const pase::i64 p : {8, 16}) {
        ServeKey k;
        k.model_text = inline_model(t, batch);
        k.machine = "1080ti";
        k.devices = p;
        k.hot = p == 8 && (batch == 32 || batch == 64);
        k.label = std::string("inline-") + topology_name(t) + "-b" +
                  num(batch) + "/p" + num(p) + "/1080ti";
        keys.push_back(std::move(k));
      }
    }
  }
  return keys;
}

std::string request_line(const ServeKey& key) {
  std::string s = "{\"op\":\"solve\",\"id\":" + json_quote(key.label);
  if (!key.zoo.empty()) s += ",\"zoo\":" + json_quote(key.zoo);
  else s += ",\"model\":" + json_quote(key.model_text);
  s += ",\"devices\":" + num(key.devices);
  if (!key.machine.empty()) s += ",\"machine\":" + json_quote(key.machine);
  else s += ",\"machine_spec\":" + key.spec_json;
  return s + "}";
}

std::vector<std::uint32_t> serve_stream(const std::vector<ServeKey>& universe,
                                        std::uint64_t seed, size_t n) {
  std::vector<std::uint32_t> hot, cold;
  for (size_t i = 0; i < universe.size(); ++i)
    (universe[i].hot ? hot : cold).push_back(static_cast<std::uint32_t>(i));
  // One fixed interleaving of the keys; the seed picks where in each cycle
  // the stream starts and where each block's cold slot falls. Which keys
  // are alive in the service's caches together (and so its memory) then
  // does not depend on the seed.
  Rng base(kBaseOrderSeed);
  base.shuffle(hot);
  base.shuffle(cold);
  Rng rng(seed);
  size_t next_hot = rng.below(hot.size());
  size_t next_cold = rng.below(cold.size());
  std::vector<std::uint32_t> stream;
  stream.reserve(n);
  while (stream.size() < n) {
    const u64 cold_slot = rng.below(kBlock);
    for (u64 slot = 0; slot < kBlock && stream.size() < n; ++slot) {
      if (slot == cold_slot) stream.push_back(cold[next_cold++ % cold.size()]);
      else stream.push_back(hot[next_hot++ % hot.size()]);
    }
  }
  return stream;
}

double lru_hit_share(const std::vector<std::uint32_t>& stream,
                     size_t capacity) {
  std::list<std::uint32_t> order;  // most recent first
  std::unordered_map<std::uint32_t, std::list<std::uint32_t>::iterator> where;
  size_t hits = 0;
  for (const std::uint32_t k : stream) {
    const auto it = where.find(k);
    if (it != where.end()) {
      ++hits;
      order.erase(it->second);
    } else if (order.size() == capacity) {
      where.erase(order.back());
      order.pop_back();
    }
    order.push_front(k);
    where[k] = order.begin();
  }
  return stream.empty() ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(stream.size());
}

}  // namespace perfbench
