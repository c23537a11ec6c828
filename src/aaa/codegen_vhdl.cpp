#include "aaa/codegen_vhdl.hpp"

#include <set>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/text_writer.hpp"

namespace pdr::aaa {
namespace {

std::string vhdl_header(const std::string& what) {
  return "-- " + what + "\n-- generated by pdrflow (AAA/SynDEx-style executive translation)\n"
         "library ieee;\nuse ieee.std_logic_1164.all;\nuse ieee.numeric_std.all;\n\n";
}

}  // namespace

std::string generate_vhdl_package() {
  std::string out = vhdl_header("shared executive package");
  out += "package pdr_executive is\n";
  out += "  subtype word_t is std_logic_vector(31 downto 0);\n";
  out += "  type handshake_t is record\n";
  out += "    req  : std_logic;\n";
  out += "    ack  : std_logic;\n";
  out += "    data : word_t;\n";
  out += "  end record;\n";
  out += "end package pdr_executive;\n";
  return out;
}

std::string generate_vhdl_entity(const MacroProgram& program, const OperatorNode& op,
                                 const VhdlOptions& options) {
  PDR_CHECK(!program.is_medium, "generate_vhdl_entity", "media have no VHDL entity");
  PDR_CHECK(op.kind != OperatorKind::Processor, "generate_vhdl_entity",
            "processor operators use the C generator");
  const std::string entity = identifier(op.name);
  const bool dynamic = op.kind == OperatorKind::FpgaRegion;

  // Collect the buffers this operator exchanges, in name order.
  std::set<std::string_view> recv_bufs;
  std::set<std::string_view> send_bufs;
  std::vector<const MacroInstr*> computes;
  std::vector<const MacroInstr*> reconfigs;
  for (const auto& instr : program.body) {
    switch (instr.op) {
      case MacroOp::Recv: recv_bufs.insert(program.name(instr.what)); break;
      case MacroOp::Send: send_bufs.insert(program.name(instr.what)); break;
      case MacroOp::Compute: computes.push_back(&instr); break;
      case MacroOp::Reconfig: reconfigs.push_back(&instr); break;
      case MacroOp::Move: break;
    }
  }

  std::string out = vhdl_header("operator " + op.name + " (" +
                                std::string(operator_kind_name(op.kind)) + ")");
  out += "use work.pdr_executive.all;\n\n";
  out += "entity " + entity + " is\n  port (\n";
  out += "    " + options.clock_name + " : in std_logic;\n";
  out += "    " + options.reset_name + " : in std_logic";
  for (const auto& b : recv_bufs) out += ";\n    " + identifier(b) + "_in : in handshake_t";
  for (const auto& b : send_bufs) out += ";\n    " + identifier(b) + "_out : out handshake_t";
  if (dynamic) out += ";\n    in_reconf : in std_logic";  // lock-up during reconfiguration (Fig. 4)
  if (options.embed_reconfig_manager) {
    out += ";\n    cfg_data : out std_logic_vector(7 downto 0)";
    out += ";\n    cfg_wr   : out std_logic";
    out += ";\n    mem_addr : out std_logic_vector(23 downto 0)";
    out += ";\n    mem_data : in  word_t";
  }
  out += "\n  );\nend entity " + entity + ";\n\n";

  out += "architecture executive of " + entity + " is\n";
  const int comm_steps = static_cast<int>(recv_bufs.size() + send_bufs.size());
  out += strprintf("  signal comm_step    : natural range 0 to %d := 0;\n",
                   comm_steps > 0 ? comm_steps : 1);
  out += strprintf("  signal compute_step : natural range 0 to %d := 0;\n",
                   computes.empty() ? 1 : static_cast<int>(computes.size()));
  out += "  signal buf_phase    : std_logic := '0';  -- ping/pong buffer phase\n";
  for (const auto* c : computes) {
    const std::string op_id = identifier(program.name(c->what));
    out += "  signal start_" + op_id + ", done_" + op_id + " : std_logic;\n";
  }
  if (options.embed_reconfig_manager) {
    out += "  component config_manager is port (clk, rst : in std_logic); end component;\n";
    out += "  component protocol_builder is port (clk, rst : in std_logic); end component;\n";
  }
  for (int i = 0; i < options.bus_macro_count; ++i)
    out += strprintf("  component bus_macro_8 is port (a, b : inout word_t); end component; "
                     "-- bus macro %d (eight 3-state buffers)\n", i);
  out += "begin\n\n";

  // Process 1: communication sequencing — a real FSM stepping through the
  // executive's recv/send order, handshaking each buffer.
  out += "  comm_sequencer : process(" + options.clock_name + ")\n  begin\n";
  out += "    if rising_edge(" + options.clock_name + ") then\n";
  out += "      if " + options.reset_name + " = '1' then\n        comm_step <= 0;\n";
  out += "      else\n        case comm_step is\n";
  int step = 0;
  const int total_steps = comm_steps > 0 ? comm_steps : 1;
  TextWriter w(out);
  for (const auto& instr : program.body) {
    if (instr.op != MacroOp::Recv && instr.op != MacroOp::Send) continue;
    const bool recv = instr.op == MacroOp::Recv;
    w << "          when " << step << " =>  -- " << (recv ? "recv " : "send ")
      << program.name(instr.what) << " (" << instr.bytes << " B)\n";
    const std::string buf = identifier(program.name(instr.what));
    if (recv) {
      w << "            if " << buf << "_in.req = '1' then\n";
    } else {
      w << "            " << buf << "_out.req <= '1';\n"
        << "            if " << buf << "_out.ack = '1' then\n"
        << "              " << buf << "_out.req <= '0';\n";
    }
    w << "              comm_step <= " << (step + 1) % total_steps << ";\n"
      << "            end if;\n";
    ++step;
  }
  out += "          when others => comm_step <= 0;\n";
  out += "        end case;\n      end if;\n    end if;\n  end process comm_sequencer;\n\n";

  // Process 2: computation sequencing — pulse each operation's start and
  // wait for its done, in executive order, frozen while reconfiguring.
  out += "  compute_sequencer : process(" + options.clock_name + ")\n  begin\n";
  out += "    if rising_edge(" + options.clock_name + ") then\n";
  out += "      if " + options.reset_name + " = '1' then\n        compute_step <= 0;\n";
  if (dynamic) {
    out += "      elsif in_reconf = '1' then\n";
    out += "        compute_step <= compute_step;  -- locked up during reconfiguration (Fig. 4)\n";
  }
  out += "      else\n        case compute_step is\n";
  for (std::size_t i = 0; i < computes.size(); ++i) {
    const std::string op_id = identifier(program.name(computes[i]->what));
    w << "          when " << i << " =>\n"
      << "            start_" << op_id << " <= '1';\n"
      << "            if done_" << op_id << " = '1' then\n"
      << "              start_" << op_id << " <= '0';\n"
      << "              compute_step <= " << (i + 1) % computes.size() << ";\n"
      << "            end if;\n";
  }
  out += "          when others => compute_step <= 0;\n";
  out += "        end case;\n      end if;\n    end if;\n  end process compute_sequencer;\n\n";

  // Process 3: operator behaviour — the datapaths, instantiated as
  // components elsewhere; this process routes their data and raises
  // reconfiguration requests for dynamic modules.
  out += "  operator_behaviour : process(" + options.clock_name + ")\n  begin\n";
  out += "    if rising_edge(" + options.clock_name + ") then\n";
  for (const auto* c : computes) {
    const std::string op_id = identifier(program.name(c->what));
    out += "      -- datapath " + op_id + ": started by start_" + op_id + ", reports done_" +
           op_id + "\n";
    out += "      done_" + op_id + " <= start_" + op_id + ";  -- single-cycle placeholder latency\n";
  }
  for (const auto* r : reconfigs) {
    out += "      -- raise configuration request for module ";
    out += program.name(r->what);
    out += " towards the configuration manager\n";
  }
  out += "    end if;\n  end process operator_behaviour;\n\n";

  // Process 4: buffer read/write phase activation (ping-pong).
  out += "  buffer_phase_ctrl : process(" + options.clock_name + ")\n  begin\n";
  out += "    if rising_edge(" + options.clock_name + ") then\n";
  out += "      if " + options.reset_name + " = '1' then\n        buf_phase <= '0';\n";
  out += "      elsif compute_step = 0 then\n        buf_phase <= not buf_phase;\n";
  out += "      end if;\n    end if;\n  end process buffer_phase_ctrl;\n\n";

  if (options.embed_reconfig_manager) {
    out += "  u_config_manager   : config_manager   port map (clk => " + options.clock_name +
           ", rst => " + options.reset_name + ");\n";
    out += "  u_protocol_builder : protocol_builder port map (clk => " + options.clock_name +
           ", rst => " + options.reset_name + ");\n\n";
  }

  out += "end architecture executive;\n";
  return out;
}

std::string generate_vhdl_top(const Executive& executive, const ArchitectureGraph& architecture,
                              const ConstraintSet& constraints) {
  std::string out = vhdl_header("top-level: static part + dynamic regions");
  out += "use work.pdr_executive.all;\n\n";
  out += "entity design_top is\n  port (clk, rst : in std_logic);\nend entity design_top;\n\n";
  out += "architecture structural of design_top is\n";

  std::vector<const OperatorNode*> fpga_ops;
  for (NodeId n : architecture.operators()) {
    const OperatorNode& op = architecture.op(n);
    if (op.kind != OperatorKind::Processor) fpga_ops.push_back(&op);
  }
  for (const auto* op : fpga_ops)
    out += "  component " + identifier(op->name) + " is port (clk, rst : in std_logic); "
           "end component;\n";
  out += "begin\n";
  for (const auto* op : fpga_ops) {
    out += "  u_" + identifier(op->name) + " : " + identifier(op->name) +
           " port map (clk => clk, rst => rst);";
    if (op->kind == OperatorKind::FpgaRegion)
      out += "  -- reconfigurable region " + op->region;
    out += "\n";
  }
  out += strprintf("  -- reconfiguration via %s, manager on %s, builder on %s\n",
                   to_keyword(constraints.port), to_keyword(constraints.manager),
                   to_keyword(constraints.builder));
  (void)executive;
  out += "end architecture structural;\n";
  return out;
}

}  // namespace pdr::aaa
