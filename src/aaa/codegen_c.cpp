#include "aaa/codegen_c.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_writer.hpp"

namespace pdr::aaa {

std::string generate_c_executive(const MacroProgram& program, const OperatorNode& op,
                                 const ConstraintSet& constraints) {
  PDR_CHECK(!program.is_medium, "generate_c_executive", "media have no C executive");
  PDR_CHECK(op.kind == OperatorKind::Processor, "generate_c_executive",
            "FPGA operators use the VHDL generator");

  const bool cpu_manager = constraints.manager == Placement::Cpu;
  std::string out;
  out += "/* executive for processor operator '" + op.name + "'\n";
  out += " * generated by pdrflow (AAA/SynDEx-style executive translation) */\n";
  out += "#include <stdint.h>\n\n";
  out += "extern void medium_send(const char* medium, const void* buf, uint32_t bytes);\n";
  out += "extern void medium_recv(const char* medium, void* buf, uint32_t bytes);\n";
  TextWriter w(out);
  for (const auto& instr : program.body)
    if (instr.op == MacroOp::Compute) {
      w << "extern void op_";
      w.identifier(program.name(instr.what)) << "(void);\n";
    }
  out += "\n";

  // Buffers.
  for (const auto& instr : program.body) {
    if (instr.op != MacroOp::Recv && instr.op != MacroOp::Send) continue;
    w << "static uint8_t ";
    w.identifier(program.name(instr.what)) << '[' << (instr.bytes ? instr.bytes : 1) << "];\n";
  }
  out += "\n";

  if (cpu_manager) {
    out += "/* Reconfiguration requests arrive from the FPGA as hardware\n";
    out += " * interruptions (paper Fig. 2 case b); the ISR fetches the partial\n";
    out += " * bitstream from memory and feeds " +
           std::string(to_keyword(constraints.port)) + ". */\n";
    out += "extern void selectmap_feed(const uint8_t* stream, uint32_t bytes);\n";
    out += "extern const uint8_t* bitstream_of(uint32_t module_id, uint32_t* bytes);\n";
    out += "volatile uint32_t pending_module = 0;\n\n";
    out += "void reconfig_isr(uint32_t module_id) {\n";
    out += "  uint32_t bytes = 0;\n";
    out += "  const uint8_t* stream = bitstream_of(module_id, &bytes);\n";
    out += "  selectmap_feed(stream, bytes);\n";
    out += "}\n\n";
  }

  out += "void executive_" + identifier(op.name) + "(void) {\n";
  out += "  for (;;) {  /* operations are infinitely repeated (AAA) */\n";
  for (const auto& instr : program.body) {
    switch (instr.op) {
      case MacroOp::Recv:
      case MacroOp::Send:
        w << (instr.op == MacroOp::Recv ? "    medium_recv(\"" : "    medium_send(\"")
          << program.name(instr.with) << "\", ";
        w.identifier(program.name(instr.what)) << ", " << instr.bytes << ");\n";
        break;
      case MacroOp::Compute:
        w << "    op_";
        w.identifier(program.name(instr.what)) << "();\n";
        break;
      case MacroOp::Reconfig:
        w << "    /* request reconfiguration to module " << program.name(instr.what) << " */\n";
        break;
      case MacroOp::Move:
        break;
    }
  }
  out += "  }\n}\n";
  return out;
}

}  // namespace pdr::aaa
