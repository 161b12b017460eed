#include "cost/cost_classes.h"

#include <map>

#include "graph/iter_space.h"

namespace pase {

namespace {

/// Exact structural signature of everything layer_cost() reads from a Node.
/// Built as a flat integer/double vector and compared with std::map's exact
/// ordering, so two nodes share a class iff the cost model cannot tell them
/// apart (names and op kinds are irrelevant to cost).
std::vector<double> node_signature(const Node& n) {
  std::vector<double> s;
  s.push_back(static_cast<double>(n.space.rank()));
  for (i64 d = 0; d < n.space.rank(); ++d)
    s.push_back(static_cast<double>(n.space.dim(d).size));
  s.push_back(n.flops_per_point);
  s.push_back(static_cast<double>(n.reduction_dims.size()));
  for (i32 d : n.reduction_dims) s.push_back(static_cast<double>(d));
  s.push_back(static_cast<double>(n.params.size()));
  for (const ParamTensor& p : n.params) {
    s.push_back(static_cast<double>(p.volume));
    s.push_back(static_cast<double>(p.dims.size()));
    for (i32 d : p.dims) s.push_back(static_cast<double>(d));
  }
  s.push_back(static_cast<double>(n.halos.size()));
  for (const HaloSpec& h : n.halos) {
    s.push_back(static_cast<double>(h.dim));
    s.push_back(static_cast<double>(h.width));
  }
  s.push_back(static_cast<double>(n.output.volume));
  s.push_back(static_cast<double>(n.output.dims.size()));
  for (i32 d : n.output.dims) s.push_back(static_cast<double>(d));
  return s;
}

/// Everything transfer_bytes() reads from an Edge (endpoints excluded: the
/// cost depends only on the tensor and its dim maps, not on which node ids
/// carry it).
std::vector<double> edge_signature(const Edge& e) {
  std::vector<double> s;
  s.push_back(static_cast<double>(e.shape.size()));
  for (i64 x : e.shape) s.push_back(static_cast<double>(x));
  for (i32 x : e.src_dims) s.push_back(static_cast<double>(x));
  for (i32 x : e.dst_dims) s.push_back(static_cast<double>(x));
  return s;
}

}  // namespace

CostClasses::CostClasses(const Graph& graph) {
  std::map<std::vector<double>, u32> node_ids;
  node_class_.reserve(static_cast<size_t>(graph.num_nodes()));
  for (const Node& n : graph.nodes()) {
    const auto [it, inserted] = node_ids.emplace(
        node_signature(n), static_cast<u32>(node_ids.size()));
    (void)inserted;
    node_class_.push_back(it->second);
  }
  num_node_classes_ = static_cast<i64>(node_ids.size());

  std::map<std::vector<double>, u32> edge_ids;
  edge_class_.reserve(static_cast<size_t>(graph.num_edges()));
  for (const Edge& e : graph.edges()) {
    const auto [it, inserted] = edge_ids.emplace(
        edge_signature(e), static_cast<u32>(edge_ids.size()));
    (void)inserted;
    edge_class_.push_back(it->second);
  }
  num_edge_classes_ = static_cast<i64>(edge_ids.size());
}

CostTables::CostTables(const Graph& graph, const ConfigCache& configs,
                       const CostParams& params, bool share)
    : graph_(graph), configs_(configs), params_(params) {
  if (!share) return;
  classes_.emplace(graph);
  node_memo_.resize(static_cast<size_t>(classes_->num_node_classes()));
  edge_memo_.resize(static_cast<size_t>(2 * classes_->num_edge_classes()));
}

CostTables::Table CostTables::node(NodeId v) {
  const auto& v_configs = configs_.at(v);
  Memo* memo = nullptr;
  if (classes_) {
    memo = &node_memo_[classes_->node_class(v)];
    if (memo->table && configs_.at(memo->rows) == v_configs) {
      served_ += memo->table->size();
      return memo->table;
    }
  }
  auto costs = std::make_shared<std::vector<double>>(v_configs.size());
  const Node& node = graph_.node(v);
  for (size_t c = 0; c < v_configs.size(); ++c)
    (*costs)[c] = layer_cost(node, v_configs[c], params_);
  priced_ += costs->size();
  if (memo) *memo = {v, kInvalidNode, costs};
  return costs;
}

CostTables::Table CostTables::edge(EdgeId e, NodeId from) {
  const Edge& edge = graph_.edge(e);
  const bool forward = edge.src == from;
  const NodeId to = forward ? edge.dst : edge.src;
  const auto& rows = configs_.at(from);
  const auto& cols = configs_.at(to);
  Memo* memo = nullptr;
  if (classes_) {
    memo = &edge_memo_[2 * static_cast<size_t>(classes_->edge_class(e)) +
                       (forward ? 1 : 0)];
    if (memo->table && configs_.at(memo->rows) == rows &&
        configs_.at(memo->cols) == cols) {
      served_ += memo->table->size();
      return memo->table;
    }
  }
  auto costs = std::make_shared<std::vector<double>>(rows.size() * cols.size());
  for (size_t r = 0; r < rows.size(); ++r)
    for (size_t c = 0; c < cols.size(); ++c) {
      const Config& src = forward ? rows[r] : cols[c];
      const Config& dst = forward ? cols[c] : rows[r];
      (*costs)[r * cols.size() + c] =
          edge_flop_byte_ratio(params_, src, dst) *
          transfer_bytes(edge, src, dst, params_);
    }
  priced_ += costs->size();
  if (memo) *memo = {from, to, costs};
  return costs;
}

}  // namespace pase
