// Structural cost classes and the DP's per-class cost tables.
//
// Real DNNs repeat structure — the Transformer stacks 6 identical encoder
// layers, InceptionV3 repeats whole modules — so a search keeps asking for
// t_l and t_x of layers/edges that are byte-for-byte copies of one another.
// CostClasses groups nodes (and edges) into *structural equivalence classes*
// by comparing every field the cost model reads (iteration space extents,
// FLOP density, parameter tensors, reduction dims, halos, output spec; edge
// tensor shape and dim maps). Class construction is exact (full structural
// comparison, no hashing shortcut), so equal classes imply bit-identical
// costs for equal configurations.
//
// CostTables is what the DP solver reads: t_l over C(v) and r * t_x over
// C(u) x C(w), priced by direct calls to layer_cost and
// edge_flop_byte_ratio x transfer_bytes. With sharing on, a table is
// priced once and served to every later node (edge, in the same
// orientation) of the same CostClasses class whose configuration lists are
// equal — verified at lookup, never assumed. Cost functions are pure, so a
// served table holds exactly the bits a direct pricing would.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "config/config_enum.h"
#include "cost/cost_model.h"
#include "graph/graph.h"
#include "util/types.h"

namespace pase {

class CostClasses {
 public:
  explicit CostClasses(const Graph& graph);

  /// Structural class ids (nodes with equal ids have identical cost
  /// behaviour for every configuration; likewise edges).
  u32 node_class(NodeId v) const {
    return node_class_[static_cast<size_t>(v)];
  }
  u32 edge_class(EdgeId e) const {
    return edge_class_[static_cast<size_t>(e)];
  }
  i64 num_node_classes() const { return num_node_classes_; }
  i64 num_edge_classes() const { return num_edge_classes_; }

 private:
  std::vector<u32> node_class_;
  std::vector<u32> edge_class_;
  i64 num_node_classes_ = 0;
  i64 num_edge_classes_ = 0;
};

/// Per-solve cost tables. Not thread-safe: the DP fills them on its calling
/// thread, which also makes served()/priced() pure functions of the query
/// sequence. `graph`, `configs` and `params` must outlive the tables.
class CostTables {
 public:
  using Table = std::shared_ptr<const std::vector<double>>;

  /// `share` off prices every table directly and shares none.
  CostTables(const Graph& graph, const ConfigCache& configs,
             const CostParams& params, bool share);

  /// t_l(v, C) for every C in C(v), in enumeration order.
  Table node(NodeId v);
  /// r * t_x of edge e for every pair of `from`'s and the other endpoint's
  /// configurations, row-major in `from`: [c_from * |C(other)| + c_other].
  Table edge(EdgeId e, NodeId from);

  /// Entries answered from a table priced for an earlier same-class node
  /// or edge, and entries priced by a direct cost call.
  u64 served() const { return served_; }
  u64 priced() const { return priced_; }

 private:
  /// A priced table and the node (edge endpoints) whose configuration
  /// lists it was priced over.
  struct Memo {
    NodeId rows = kInvalidNode;
    NodeId cols = kInvalidNode;
    Table table;
  };

  const Graph& graph_;
  const ConfigCache& configs_;
  const CostParams& params_;
  std::optional<CostClasses> classes_;
  std::vector<Memo> node_memo_;  ///< by node class
  std::vector<Memo> edge_memo_;  ///< by 2 * edge class + (e.src == from)
  u64 served_ = 0;
  u64 priced_ = 0;
};

}  // namespace pase
