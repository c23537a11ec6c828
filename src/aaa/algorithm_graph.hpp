// The AAA algorithm graph.
//
// "Application algorithm is represented by a data flow graph to exhibit
// the potential parallelism between operations. An operation is executed
// as soon as its input are available, and is infinitely repeated." (§3)
//
// Operations carry the operator kind used for synthesis and duration
// lookup. A vertex may be *conditioned*: it owns several exclusive
// implementation alternatives, one of which is selected at run time by a
// control input (the paper's `Select` entry choosing QPSK vs QAM-16 per
// OFDM symbol). Conditioned vertices are what dynamic regions implement.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/dot.hpp"
#include "synth/elaborate.hpp"
#include "util/units.hpp"
#include "util/validated_flag.hpp"

namespace pdr::aaa {

using graph::NodeId;

enum class OpClass : std::uint8_t {
  Sensor,    ///< produces input data (no predecessors)
  Compute,   ///< regular operation
  Actuator,  ///< consumes output data (no successors)
};

/// One runtime-selectable implementation of a conditioned vertex.
struct Alternative {
  std::string name;    ///< e.g. "qpsk"
  std::string kind;    ///< operator kind, e.g. "qpsk_mapper"
  synth::Params params;
};

/// One data-flow operation.
struct Operation {
  std::string name;
  std::string kind;  ///< operator kind (ignored when alternatives exist)
  synth::Params params;
  OpClass cls = OpClass::Compute;
  std::vector<Alternative> alternatives;  ///< non-empty => conditioned vertex

  bool conditioned() const { return !alternatives.empty(); }
};

/// A data dependency carrying `bytes` per graph iteration.
struct DataDep {
  Bytes bytes = 0;
};

class AlgorithmGraph {
 public:
  /// Adds an operation; names must be unique.
  NodeId add_operation(Operation op);

  /// Convenience for plain compute vertices.
  NodeId add_compute(const std::string& name, const std::string& kind,
                     const synth::Params& params = {});
  NodeId add_sensor(const std::string& name, const std::string& kind = "bit_source");
  NodeId add_actuator(const std::string& name, const std::string& kind = "interface_in_out");

  /// Adds a conditioned vertex with runtime-selected alternatives.
  NodeId add_conditioned(const std::string& name, std::vector<Alternative> alternatives);

  /// Adds a data dependency `from -> to` of `bytes` per iteration.
  void add_dependency(NodeId from, NodeId to, Bytes bytes);
  void add_dependency(const std::string& from, const std::string& to, Bytes bytes);

  /// SynDEx-style repeated vertex: replaces plain compute `name` by
  /// `count` data-parallel instances "name#0".."name#<count-1>", rewiring
  /// every dependency to each instance with the payload split evenly
  /// (scatter on inputs, gather on outputs). The adequation can then
  /// spread the instances across operators. Returns the instance names.
  std::vector<std::string> expand_repetition(const std::string& name, int count);

  const Operation& op(NodeId n) const { return g_[n]; }
  NodeId by_name(const std::string& name) const;
  std::optional<NodeId> find(const std::string& name) const;

  const graph::Digraph<Operation, DataDep>& digraph() const { return g_; }
  std::size_t size() const { return g_.node_count(); }

  /// Monotone mutation counter: bumped by every mutator. Callers holding
  /// graph-shaped derived structures (aaa::Adequation's problem tables)
  /// compare versions to refuse a stale snapshot.
  std::uint64_t version() const { return version_; }

  /// Checks structural invariants: acyclic, sensors have no inputs,
  /// actuators no outputs, conditioned vertices have >= 2 alternatives
  /// with unique names. Throws pdr::Error describing the first violation.
  /// The verdict is cached until the next mutation, so repeated runs
  /// over the same graph (the explorer, bench repeats) validate once.
  void validate() const;

  /// Graphviz rendering (conditioned vertices drawn as double octagons).
  std::string to_dot() const;

 private:
  graph::Digraph<Operation, DataDep> g_;
  /// Name -> node index. Kept in lockstep with g_ so find()/by_name()
  /// (and hence every name-based add_dependency during graph
  /// construction) is O(1) instead of a full node scan — the difference
  /// between seconds and hours when generators build million-op graphs.
  std::unordered_map<std::string, NodeId> index_;
  util::ValidatedFlag validated_;  ///< cleared by every mutator
  std::uint64_t version_ = 0;      ///< bumped by every mutator
};

}  // namespace pdr::aaa
