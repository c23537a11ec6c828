// The AAA architecture graph.
//
// "Architecture is also modeled by a graph where the vertices are
// operators (e.g processors, DSP, FPGA) or media and edges are
// connections between them." (§3)
//
// Following the paper's Figure 1, runtime-reconfigurable parts of an
// FPGA (D1, D2) and its fixed part (F1) are distinct operators; an
// internal medium (IL) connects them; the configuration port is itself a
// resource operators contend for.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "fabric/config_port.hpp"
#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "util/units.hpp"
#include "util/validated_flag.hpp"

namespace pdr::aaa {

using graph::NodeId;

enum class OperatorKind : std::uint8_t {
  Processor,   ///< DSP / CPU: sequential, can host M and P functionalities
  FpgaStatic,  ///< fixed part of an FPGA (F1)
  FpgaRegion,  ///< runtime-reconfigurable part of an FPGA (D1, D2)
};

const char* operator_kind_name(OperatorKind kind);

/// Inverse of operator_kind_name; throws on unknown keywords.
OperatorKind operator_kind_from_name(const std::string& keyword);

/// An operator vertex (computation resource, no internal parallelism, §3).
struct OperatorNode {
  std::string name;
  OperatorKind kind = OperatorKind::Processor;
  double speed_factor = 1.0;  ///< duration divisor (2.0 = twice as fast)
  std::string device;         ///< FPGA device name, for FPGA operators
  std::string region;         ///< floorplan region, for FpgaRegion operators
};

/// A communication medium vertex (bus or internal link).
struct MediumNode {
  std::string name;
  double bandwidth_bytes_per_s = 0.0;
  TimeNs latency = 0;  ///< fixed per-transfer latency

  /// Duration of one `bytes`-sized transfer over this medium.
  TimeNs transfer_time(Bytes bytes) const {
    return latency + transfer_time_ns(bytes, bandwidth_bytes_per_s);
  }
};

/// Architecture vertices are operators or media.
struct ArchVertex {
  std::optional<OperatorNode> op;
  std::optional<MediumNode> medium;

  const std::string& name() const { return op ? op->name : medium->name; }
  bool is_operator() const { return op.has_value(); }
};

/// Edges carry no payload: a connection means the operator can reach the
/// medium (architecture graphs are undirected in SynDEx; we add both arcs).
struct ArchLink {};

class ArchitectureGraph {
 public:
  NodeId add_operator(OperatorNode op);
  NodeId add_medium(MediumNode medium);

  /// Connects an operator to a medium (bidirectional reachability).
  void connect(NodeId op, NodeId medium);
  void connect(const std::string& op, const std::string& medium);

  NodeId by_name(const std::string& name) const;
  std::optional<NodeId> find(const std::string& name) const;

  bool is_operator(NodeId n) const { return g_[n].is_operator(); }
  const OperatorNode& op(NodeId n) const;
  const MediumNode& medium(NodeId n) const;

  std::vector<NodeId> operators() const;
  std::vector<NodeId> media() const;

  /// Media directly attached to an operator.
  std::vector<NodeId> attached_media(NodeId op) const;
  /// Operators of one kind.
  std::vector<NodeId> operators_of_kind(OperatorKind kind) const;

  /// A communication route between two operators: the sequence of media to
  /// traverse (shortest hop count; empty if src == dst). Throws if the
  /// operators are not connected.
  std::vector<NodeId> route(NodeId from_op, NodeId to_op) const;

  /// Checks invariants: operators only connect to media, names unique,
  /// every operator reaches every other (a connected platform).
  void validate() const;

  std::string to_dot() const;

  std::size_t size() const { return g_.node_count(); }

  /// Monotone mutation counter, bumped by every mutator.
  std::uint64_t version() const { return version_; }

 private:
  graph::Digraph<ArchVertex, ArchLink> g_;
  util::ValidatedFlag validated_;  ///< cleared by every mutator
  std::uint64_t version_ = 0;      ///< bumped by every mutator
};

/// Builds the paper's Figure-1 model: fixed part F1, dynamic parts D1..Dn,
/// internal link IL of `il_bandwidth` connecting them all.
ArchitectureGraph make_figure1_architecture(int dynamic_regions, double il_bandwidth_bytes_per_s);

/// Builds the case-study platform (paper §6): one DSP (TI C6201-like)
/// and one XC2V2000 FPGA split into fixed part F1 and dynamic region D1,
/// joined by the SHB bus; F1 and D1 joined by the internal link LIO.
ArchitectureGraph make_sundance_architecture();

}  // namespace pdr::aaa
