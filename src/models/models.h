// Model zoo: builders for the paper's four evaluation benchmarks (§IV) plus
// auxiliary graphs used by tests, examples and ablations. Shapes default to
// the paper's: batch 128 for the CNNs (ImageNet-1K), batch 64 for RNNLM
// (Billion-Word) and Transformer (WMT EN->DE).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace pase::models {

/// AlexNet (Krizhevsky et al.): 5 convolutions, 3 FC layers, softmax —
/// a simple path graph (paper §IV benchmark (a)).
Graph alexnet(i64 batch = 128);

/// InceptionV3 (Szegedy et al.): full stem + 3xA, B, 4xC, D, 2xE inception
/// modules; sparse graph with a few high-degree split/concat nodes
/// (paper §IV benchmark (b), Fig. 5).
Graph inception_v3(i64 batch = 128);

/// RNNLM: embedding -> 2-layer LSTM stack (a single 5-D node, §IV-A) ->
/// vocabulary projection -> softmax; path graph (benchmark (c)). The
/// default vocabulary is the 32k sampled-softmax shortlist Billion-Word
/// LMs train with; pass vocab = 793471 for the raw corpus vocabulary.
Graph rnnlm(i64 batch = 64, i64 seq_len = 40, i64 embed = 1024,
            i64 hidden = 2048, i64 vocab = 32768, i64 layers = 2);

/// Transformer base (Vaswani et al.): 6 encoder + 6 decoder layers with
/// residual/LayerNorm structure; the encoder output is a high-degree node
/// with a long live range (benchmark (d)).
Graph transformer(i64 batch = 64, i64 seq_len = 128, i64 d_model = 512,
                  i64 heads = 8, i64 d_ff = 2048, i64 vocab = 32000,
                  i64 layers = 6);

/// DenseNet-style dense block stack: uniformly dense connectivity; no
/// ordering keeps dependent sets small (the §V limitation example).
Graph densenet(i64 batch = 32, i64 blocks = 2, i64 layers_per_block = 6,
               i64 growth = 32);

/// ResNet-50: bottleneck residual blocks whose skip connections create a
/// degree-3 join per block — a zoo extension beyond the paper's benchmarks.
Graph resnet50(i64 batch = 128);

/// VGG-16: a parameter-heavy path-graph CNN (the classic OWT showcase).
Graph vgg16(i64 batch = 128);

/// MobileNetV1: depthwise-separable blocks; channel splits of the depthwise
/// convolutions are communication-free, a distinct trade-off point.
Graph mobilenet_v1(i64 batch = 128);

/// GNMT-style LSTM encoder-decoder with an attention bridge — the
/// architecture whose expert strategy [1] the paper's RNN baseline mimics.
Graph gnmt(i64 batch = 64, i64 seq_len = 40, i64 embed = 1024,
           i64 hidden = 1024, i64 vocab = 32768, i64 layers = 4);

/// Small multi-layer perceptron (FC chain) for tests and the quickstart.
Graph mlp(i64 batch, const std::vector<i64>& widths);

/// Generated decoder-only transformer stack (GPT-style): `blocks` identical
/// pre-norm blocks (LN -> attention -> residual, LN -> feed-forward ->
/// residual; 6 nodes each) between an embedding head and an
/// LN/projection/softmax tail. Every block is structurally identical, the
/// repeated-structure workload of docs/SCALING.md; N up to 1000
/// and beyond is supported. Defaults keep per-node work small so graph size,
/// not per-vertex cost, dominates search time.
Graph transformer_stack(i64 blocks, i64 batch = 8, i64 seq_len = 64,
                        i64 d_model = 256, i64 heads = 4, i64 d_ff = 1024,
                        i64 vocab = 8192);

/// Builds a zoo model by name: the builders above with their default
/// shapes ("alexnet", "transformer", "mlp", ...), the generated
/// repeated-block family "transformer_stack_<N>" for N in [1, 100000]
/// (e.g. "transformer_stack_1000"), and the widened-space scenarios
/// "resnet_large_p" (small-batch ResNet-50 — batch parallelism exhausts at
/// large p, spatial/channel splits keep scaling) and
/// "transformer_pipelined" (a deep uniform stack for --pipeline-stages).
/// Returns nullopt for unknown names. This is the lookup behind the
/// strategy service's `zoo` request field and pase_cli's --zoo flag.
std::optional<Graph> zoo_graph(const std::string& name);

/// A named benchmark graph.
struct Benchmark {
  std::string name;
  Graph graph;
};

/// The paper's four evaluation benchmarks with Table I/II shapes.
std::vector<Benchmark> paper_benchmarks();

}  // namespace pase::models
