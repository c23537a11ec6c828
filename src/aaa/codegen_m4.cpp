#include "aaa/codegen_m4.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_writer.hpp"

namespace pdr::aaa {
namespace {

std::string vertex_kind(const ArchitectureGraph& architecture, const std::string& name) {
  const auto node = architecture.find(name);
  PDR_CHECK(node.has_value(), "generate_m4", "program resource '" + name + "' not in architecture");
  if (!architecture.is_operator(*node)) return "medium";
  return operator_kind_name(architecture.op(*node).kind);
}

}  // namespace

std::string generate_m4_macrocode(const MacroProgram& program,
                                  const ArchitectureGraph& architecture) {
  const std::string id = identifier(program.resource);
  std::string out;
  out += "divert(-1)\n";
  out += "# " + program.resource + ".m4 -- synchronized executive (pdrflow, SynDEx-style)\n";
  out += "# vertex kind: " + vertex_kind(architecture, program.resource) + "\n";
  out += "divert(0)dnl\n";
  if (program.is_medium) {
    out += "media_(" + id + ")dnl\n";
  } else {
    out += "processor_(" + id + ", " + vertex_kind(architecture, program.resource) + ")dnl\n";
  }
  out += "main_\n  loop_\n";
  TextWriter w(out);
  const util::Interner& names = *program.names;
  for (const auto& instr : program.body) {
    switch (instr.op) {
      case MacroOp::Recv:
      case MacroOp::Send:
        w << (instr.op == MacroOp::Recv ? "    recv_(" : "    send_(");
        w.identifier(names.name(instr.what)) << ", ";
        w.identifier(names.name(instr.with)) << ", " << instr.bytes << ")\n";
        break;
      case MacroOp::Compute:
        w << "    compute_(";
        w.identifier(names.name(instr.what)) << ", " << instr.duration << ")\n";
        break;
      case MacroOp::Reconfig:
        w << "    reconf_(";
        w.identifier(names.name(instr.what)) << ")\n";
        break;
      case MacroOp::Move:
        w << "    move_(";
        w.identifier(names.name(instr.what)) << ", " << instr.bytes << ")\n";
        break;
    }
  }
  out += "  endloop_\nendmain_\n";
  return out;
}

std::string generate_m4_application(const Executive& executive,
                                    const ArchitectureGraph& architecture,
                                    const std::string& application_name) {
  std::string out;
  out += "divert(-1)\n# " + application_name + ".m4 -- application executive index\ndivert(0)dnl\n";
  out += "application_(" + identifier(application_name) + ")dnl\n";
  for (NodeId n : architecture.operators())
    out += "declare_processor_(" + identifier(architecture.op(n).name) + ", " +
           operator_kind_name(architecture.op(n).kind) + ")dnl\n";
  for (NodeId n : architecture.media()) {
    const MediumNode& m = architecture.medium(n);
    out += strprintf("declare_media_(%s, %.0f)dnl\n", identifier(m.name).c_str(),
                     m.bandwidth_bytes_per_s);
  }
  for (const auto& p : executive.programs)
    out += "include_(" + identifier(p.resource) + ".m4)dnl\n";
  out += "end_application_dnl\n";
  return out;
}

}  // namespace pdr::aaa
