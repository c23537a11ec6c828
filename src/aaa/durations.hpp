// Operation duration characterization.
//
// The adequation heuristic "takes into account durations of computations
// and inter-component communications" (§3). Durations are looked up by
// (operation kind, target): first an exact per-operator-name entry, then a
// per-operator-kind entry, scaled by the operator's speed factor. An
// operation with no entry for a target cannot be mapped there — this is
// how software-only or hardware-only operations are expressed.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "aaa/algorithm_graph.hpp"
#include "aaa/architecture_graph.hpp"
#include "util/units.hpp"

namespace pdr::aaa {

class DurationTable {
 public:
  /// Duration of `op_kind` on any operator of `target` kind.
  void set(const std::string& op_kind, OperatorKind target, TimeNs duration);

  /// Duration of `op_kind` on the specific operator `operator_name`
  /// (overrides the kind-level entry).
  void set_for(const std::string& op_kind, const std::string& operator_name, TimeNs duration);

  /// True if `op_kind` can execute on `target`.
  bool supports(const std::string& op_kind, const OperatorNode& target) const;

  /// Duration of `op_kind` on `target` (speed factor applied). Throws if
  /// unsupported.
  TimeNs lookup(const std::string& op_kind, const OperatorNode& target) const;

  /// Mean duration of `op_kind` across all entries — the operator-agnostic
  /// weight used for critical-path priorities. Throws if no entry exists.
  double mean(const std::string& op_kind) const;

  /// One characterization entry, for serialization.
  struct Entry {
    std::string op_kind;
    bool per_operator_name = false;  ///< true: `target` is an operator name
    std::string target;              ///< operator-kind keyword or operator name
    TimeNs duration = 0;
  };

  /// All entries (kind-level first, then name-level), in map order.
  std::vector<Entry> entries() const;

  /// Monotone mutation counter: bumped by every set()/set_for(), so
  /// callers holding duration-derived values (e.g. critical-path
  /// priorities) can refuse a stale snapshot.
  std::uint64_t version() const { return version_; }

 private:
  std::map<std::pair<std::string, OperatorKind>, TimeNs> by_kind_;
  std::map<std::pair<std::string, std::string>, TimeNs> by_name_;
  std::uint64_t version_ = 0;  ///< bumped by every mutator
};

/// Per-OFDM-symbol durations of every MC-CDMA operator on the case-study
/// platform (TI C6201 DSP vs Virtex-II fabric). FPGA datapaths are
/// pipelined and fast; the DSP serializes the same work 5-20x slower —
/// the asymmetry that pushes the transmitter chain into hardware during
/// adequation, exactly as in the paper's implementation.
DurationTable mccdma_durations();

}  // namespace pdr::aaa
