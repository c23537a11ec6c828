// Macro-code generation: the synchronized executive.
//
// "The result is a synchronized executive represented by a macro-code for
// each vertices of the architecture." (§3) Each operator and medium gets
// a loop body of macro instructions (Recv / Send / Compute / Reconfig /
// Move) derived from one iteration's schedule; this is the intermediate
// form both code generators (VHDL for FPGA parts, C for processors)
// translate.
//
// Instructions are plain data: the names they carry (operation, buffer,
// module, medium) are util::SymbolIds into one name table that every
// program of an executive shares through a shared_ptr, so a program
// handed on its own to a generator still resolves them. Two instructions
// carry the same id exactly when their texts are equal, which is what
// the player's token channels and lint's channel map key on; a buffer
// ("<producer>_to_<consumer>") is one id across a multi-hop route's hops
// and across parallel edges. Consumers call name() only where they write
// text.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "aaa/adequation.hpp"
#include "util/interner.hpp"

namespace pdr::aaa {

enum class MacroOp : std::uint8_t {
  Recv,      ///< operator: receive a buffer from a medium
  Send,      ///< operator: send a buffer to a medium
  Compute,   ///< operator: run one operation
  Reconfig,  ///< region: reconfigure to a module / manager: issue request
  Move,      ///< medium: carry a buffer between operators
};

const char* macro_op_name(MacroOp op);

struct MacroInstr {
  MacroOp op = MacroOp::Compute;
  util::SymbolId what = util::kEmptySymbol;  ///< operation, buffer or module name
  util::SymbolId with = util::kEmptySymbol;  ///< medium (Recv/Send); empty otherwise
  Bytes bytes = 0;
  TimeNs duration = 0;
  TimeNs at = 0;  ///< schedule time, for traceability
};

/// The name table an executive's instructions index.
using MacroNames = std::shared_ptr<const util::Interner>;

/// A table holding only the empty name: what a default program resolves
/// against.
const MacroNames& empty_macro_names();

/// The infinite loop body of one architecture vertex.
struct MacroProgram {
  std::string resource;
  bool is_medium = false;
  std::vector<MacroInstr> body;
  MacroNames names = empty_macro_names();  ///< resolves the body's `what`/`with`

  std::string_view name(util::SymbolId id) const { return names->name(id); }
  std::string to_string() const;
};

/// The whole synchronized executive. Every program shares `names`.
struct Executive {
  MacroNames names = empty_macro_names();
  std::vector<MacroProgram> programs;

  std::string_view name(util::SymbolId id) const { return names->name(id); }
  const MacroProgram& program(std::string_view resource) const;
  std::string to_string() const;
};

/// Builds per-vertex macro programs from a schedule. Instructions appear
/// in schedule-time order; on one operator a Recv precedes the Compute it
/// feeds and Sends follow the Compute that produced the buffer. A
/// transfer's endpoints are the producer and consumer of its algorithm
/// edge; a row without an edge (a hand-built schedule) names them
/// instead. Throws pdr::Error when an endpoint was not placed.
Executive generate_executive(const Schedule& schedule, const AlgorithmGraph& algorithm,
                             const ArchitectureGraph& architecture);

}  // namespace pdr::aaa
