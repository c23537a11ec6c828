#include "aaa/architecture_graph.hpp"

#include <deque>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::aaa {

const char* operator_kind_name(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::Processor: return "processor";
    case OperatorKind::FpgaStatic: return "fpga_static";
    case OperatorKind::FpgaRegion: return "fpga_region";
  }
  return "?";
}

OperatorKind operator_kind_from_name(const std::string& keyword) {
  if (keyword == "processor") return OperatorKind::Processor;
  if (keyword == "fpga_static") return OperatorKind::FpgaStatic;
  if (keyword == "fpga_region") return OperatorKind::FpgaRegion;
  raise("operator_kind_from_name", "unknown operator kind '" + keyword + "'");
}

NodeId ArchitectureGraph::add_operator(OperatorNode op) {
  PDR_CHECK(!op.name.empty(), "ArchitectureGraph", "operator name must not be empty");
  PDR_CHECK(!find(op.name).has_value(), "ArchitectureGraph", "duplicate name '" + op.name + "'");
  if (op.kind == OperatorKind::FpgaRegion)
    PDR_CHECK(!op.region.empty(), "ArchitectureGraph",
              "FpgaRegion operator '" + op.name + "' must name its floorplan region");
  ArchVertex v;
  v.op = std::move(op);
  validated_.clear();
  ++version_;
  return g_.add_node(std::move(v));
}

NodeId ArchitectureGraph::add_medium(MediumNode medium) {
  PDR_CHECK(!medium.name.empty(), "ArchitectureGraph", "medium name must not be empty");
  PDR_CHECK(!find(medium.name).has_value(), "ArchitectureGraph",
            "duplicate name '" + medium.name + "'");
  PDR_CHECK(medium.bandwidth_bytes_per_s > 0, "ArchitectureGraph",
            "medium '" + medium.name + "' must have positive bandwidth");
  ArchVertex v;
  v.medium = std::move(medium);
  validated_.clear();
  ++version_;
  return g_.add_node(std::move(v));
}

void ArchitectureGraph::connect(NodeId op, NodeId medium) {
  PDR_CHECK(g_[op].is_operator() && !g_[medium].is_operator(), "ArchitectureGraph::connect",
            "connections join an operator to a medium");
  g_.add_edge(op, medium, ArchLink{});
  g_.add_edge(medium, op, ArchLink{});
  validated_.clear();
  ++version_;
}

void ArchitectureGraph::connect(const std::string& op, const std::string& medium) {
  connect(by_name(op), by_name(medium));
}

NodeId ArchitectureGraph::by_name(const std::string& name) const {
  const auto n = find(name);
  PDR_CHECK(n.has_value(), "ArchitectureGraph::by_name", "no vertex named '" + name + "'");
  return *n;
}

std::optional<NodeId> ArchitectureGraph::find(const std::string& name) const {
  for (NodeId n : g_.node_ids())
    if (g_[n].name() == name) return n;
  return std::nullopt;
}

const OperatorNode& ArchitectureGraph::op(NodeId n) const {
  PDR_CHECK(g_[n].is_operator(), "ArchitectureGraph::op", "vertex is not an operator");
  return *g_[n].op;
}

const MediumNode& ArchitectureGraph::medium(NodeId n) const {
  PDR_CHECK(!g_[n].is_operator(), "ArchitectureGraph::medium", "vertex is not a medium");
  return *g_[n].medium;
}

std::vector<NodeId> ArchitectureGraph::operators() const {
  std::vector<NodeId> out;
  for (NodeId n : g_.node_ids())
    if (g_[n].is_operator()) out.push_back(n);
  return out;
}

std::vector<NodeId> ArchitectureGraph::media() const {
  std::vector<NodeId> out;
  for (NodeId n : g_.node_ids())
    if (!g_[n].is_operator()) out.push_back(n);
  return out;
}

std::vector<NodeId> ArchitectureGraph::attached_media(NodeId op) const {
  PDR_CHECK(g_[op].is_operator(), "ArchitectureGraph::attached_media", "vertex is not an operator");
  std::vector<NodeId> out;
  for (NodeId s : g_.successors(op))
    if (!g_[s].is_operator()) out.push_back(s);
  return out;
}

std::vector<NodeId> ArchitectureGraph::operators_of_kind(OperatorKind kind) const {
  std::vector<NodeId> out;
  for (NodeId n : operators())
    if (op(n).kind == kind) out.push_back(n);
  return out;
}

std::vector<NodeId> ArchitectureGraph::route(NodeId from_op, NodeId to_op) const {
  PDR_CHECK(g_[from_op].is_operator() && g_[to_op].is_operator(), "ArchitectureGraph::route",
            "route endpoints must be operators");
  if (from_op == to_op) return {};

  // BFS over the bipartite operator/medium graph.
  std::vector<NodeId> parent(g_.node_ids().size() + 64, graph::kNoNode);
  std::vector<bool> seen(parent.size(), false);
  std::deque<NodeId> queue{from_op};
  seen[from_op] = true;
  while (!queue.empty()) {
    const NodeId cur = queue.front();
    queue.pop_front();
    if (cur == to_op) break;
    for (NodeId next : g_.successors(cur)) {
      if (!seen[next]) {
        seen[next] = true;
        parent[next] = cur;
        queue.push_back(next);
      }
    }
  }
  PDR_CHECK(seen[to_op], "ArchitectureGraph::route",
            "no route from '" + g_[from_op].name() + "' to '" + g_[to_op].name() + "'");

  // Walk back, keeping only media.
  std::vector<NodeId> media_path;
  for (NodeId n = to_op; n != from_op; n = parent[n])
    if (!g_[n].is_operator()) media_path.push_back(n);
  return {media_path.rbegin(), media_path.rend()};
}

void ArchitectureGraph::validate() const {
  if (validated_.test()) return;
  const auto ops = operators();
  PDR_CHECK(!ops.empty(), "ArchitectureGraph::validate", "no operators");
  for (graph::EdgeId e : g_.edge_ids()) {
    const bool mixed = g_[g_.edge_from(e)].is_operator() != g_[g_.edge_to(e)].is_operator();
    PDR_CHECK(mixed, "ArchitectureGraph::validate",
              "edges must join an operator and a medium");
  }
  for (NodeId a : ops)
    for (NodeId b : ops)
      if (a != b) route(a, b);  // throws when disconnected
  validated_.set();
}

std::string ArchitectureGraph::to_dot() const {
  std::vector<graph::DotNode> nodes;
  std::vector<graph::DotEdge> edges;
  for (NodeId n : g_.node_ids()) {
    graph::DotNode dn;
    dn.id = g_[n].name();
    if (g_[n].is_operator()) {
      const OperatorNode& o = op(n);
      dn.label = o.name + "\\n[" + operator_kind_name(o.kind) + "]";
      dn.shape = o.kind == OperatorKind::FpgaRegion ? "box3d" : "box";
      if (o.kind == OperatorKind::FpgaRegion) dn.color = "lightblue";
    } else {
      const MediumNode& m = medium(n);
      dn.label = m.name + strprintf("\\n%.0f MB/s", m.bandwidth_bytes_per_s / 1e6);
      dn.shape = "ellipse";
    }
    nodes.push_back(std::move(dn));
  }
  for (graph::EdgeId e : g_.edge_ids()) {
    // Draw each operator<->medium pair once.
    if (g_[g_.edge_from(e)].is_operator())
      edges.push_back(graph::DotEdge{g_[g_.edge_from(e)].name(), g_[g_.edge_to(e)].name(), "", false});
  }
  return graph::to_dot("architecture", nodes, edges);
}

ArchitectureGraph make_figure1_architecture(int dynamic_regions, double il_bandwidth_bytes_per_s) {
  PDR_CHECK(dynamic_regions >= 0, "make_figure1_architecture", "negative region count");
  ArchitectureGraph arch;
  arch.add_operator(OperatorNode{"F1", OperatorKind::FpgaStatic, 1.0, "XC2V2000", ""});
  const NodeId il = arch.add_medium(MediumNode{"IL", il_bandwidth_bytes_per_s, 100});
  arch.connect(arch.by_name("F1"), il);
  for (int i = 1; i <= dynamic_regions; ++i) {
    // Not "D" + std::to_string(i): GCC 12 at -O3 flags it with a
    // -Werror=restrict false positive (GCC bug 105329).
    const std::string name = strprintf("D%d", i);
    arch.add_operator(OperatorNode{name, OperatorKind::FpgaRegion, 1.0, "XC2V2000", name});
    arch.connect(arch.by_name(name), il);
  }
  return arch;
}

ArchitectureGraph make_sundance_architecture() {
  ArchitectureGraph arch;
  // TI C6201 DSP @ 200 MHz: the software operator. Its speed factor is
  // relative to FPGA implementations of the same operations (see
  // aaa/durations.cpp for the per-kind duration table).
  arch.add_operator(OperatorNode{"DSP", OperatorKind::Processor, 1.0, "", ""});
  arch.add_operator(OperatorNode{"F1", OperatorKind::FpgaStatic, 1.0, "XC2V2000", ""});
  arch.add_operator(OperatorNode{"D1", OperatorKind::FpgaRegion, 1.0, "XC2V2000", "D1"});

  // SHB: the Sundance High-speed Bus between DSP and FPGA (32 bit @ 50 MHz).
  arch.add_medium(MediumNode{"SHB", 200e6, 2000});
  // LIO: the on-chip link between fixed part and dynamic region, crossing
  // the bus macros (paper Figure 4).
  arch.add_medium(MediumNode{"LIO", 400e6, 50});

  arch.connect("DSP", "SHB");
  arch.connect("F1", "SHB");
  arch.connect("F1", "LIO");
  arch.connect("D1", "LIO");
  return arch;
}

}  // namespace pdr::aaa
