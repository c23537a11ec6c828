#include "aaa/macrocode.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>

#include "util/error.hpp"
#include "util/text_writer.hpp"

namespace pdr::aaa {

const char* macro_op_name(MacroOp op) {
  switch (op) {
    case MacroOp::Recv: return "recv";
    case MacroOp::Send: return "send";
    case MacroOp::Compute: return "compute";
    case MacroOp::Reconfig: return "reconfig";
    case MacroOp::Move: return "move";
  }
  return "?";
}

const MacroNames& empty_macro_names() {
  static const MacroNames empty = std::make_shared<const util::Interner>();
  return empty;
}

namespace {

void append_instr(TextWriter& w, const MacroInstr& instr, const util::Interner& names) {
  const std::string_view what = names.name(instr.what);
  switch (instr.op) {
    case MacroOp::Recv:
    case MacroOp::Send: {
      const bool recv = instr.op == MacroOp::Recv;
      w << (recv ? "recv    " : "send    ");
      w.left(what, 24) << (recv ? " from " : " to   ");
      w.left(names.name(instr.with), 8) << " (" << instr.bytes << " B)";
      return;
    }
    case MacroOp::Compute:
    case MacroOp::Reconfig:
      w << (instr.op == MacroOp::Compute ? "compute " : "reconf  ");
      w.left(what, 24) << " (";
      w.fixed(to_us(instr.duration), 3) << " us)";
      return;
    case MacroOp::Move:
      w << "move    ";
      w.left(what, 24) << " (" << instr.bytes << " B)";
      return;
  }
  w << '?';
}

void append_program(TextWriter& w, const MacroProgram& program) {
  w << (program.is_medium ? "medium " : "operator ") << program.resource << ":\n  loop:\n";
  for (const auto& instr : program.body) {
    w << "    ";
    append_instr(w, instr, *program.names);
    w << '\n';
  }
  if (program.body.empty()) w << "    (idle)\n";
}

}  // namespace

std::string MacroProgram::to_string() const {
  std::string out;
  TextWriter w(out);
  append_program(w, *this);
  return out;
}

const MacroProgram& Executive::program(std::string_view resource) const {
  for (const auto& p : programs)
    if (p.resource == resource) return p;
  raise("Executive::program", "no program for resource '" + std::string(resource) + "'");
}

std::string Executive::to_string() const {
  std::string out;
  TextWriter w(out);
  for (const auto& p : programs) {
    append_program(w, p);
    w << '\n';
  }
  return out;
}

Executive generate_executive(const Schedule& schedule, const AlgorithmGraph& algorithm,
                             const ArchitectureGraph& architecture) {
  PDR_CHECK(schedule.size() <= 0xffffffffu, "generate_executive", "schedule too large");
  // The executive's name table, shared by every program.
  const auto names = std::make_shared<util::Interner>();
  Executive exec;
  exec.names = names;
  // Programs in architecture declaration order (operators then media).
  for (NodeId n : architecture.operators())
    exec.programs.push_back(MacroProgram{architecture.op(n).name, false, {}, exec.names});
  for (NodeId n : architecture.media())
    exec.programs.push_back(MacroProgram{architecture.medium(n).name, true, {}, exec.names});

  // Program of each schedule symbol naming a resource, resolved by name
  // on first use: kUnresolved until then, kNoProgram for a name that is
  // no architecture vertex (its items appear in no program).
  constexpr std::int32_t kUnresolved = -2;
  constexpr std::int32_t kNoProgram = -1;
  std::vector<std::int32_t> program_of(schedule.symbols.size(), kUnresolved);
  const auto program_of_resource = [&](util::SymbolId sym) {
    std::int32_t& slot = program_of[sym];
    if (slot == kUnresolved) {
      slot = kNoProgram;
      const std::string_view name = schedule.name(sym);
      for (std::size_t p = 0; p < exec.programs.size(); ++p)
        if (exec.programs[p].resource == name) {
          slot = static_cast<std::int32_t>(p);
          break;
        }
    }
    return slot;
  };
  // Program of the operator a transfer endpoint was placed on, per
  // algorithm node. The endpoint is the producer or consumer of the
  // transfer's edge; a row without one (a hand-built schedule) names it.
  const graph::Digraph<Operation, DataDep>& dag = algorithm.digraph();
  std::vector<std::int32_t> program_of_node(dag.node_capacity(), kUnresolved);
  const auto endpoint_program = [&](graph::NodeId n, util::SymbolId op_sym) {
    std::int32_t& slot = program_of_node[n];
    if (slot == kUnresolved) {
      PDR_CHECK(!schedule.placement_name(n).empty(), "generate_executive",
                "operation '" + std::string(schedule.name(op_sym)) + "' was not placed");
      slot = program_of_resource(schedule.placement[n]);
    }
    return slot;
  };

  // Names enter the table unindexed: first the schedule's symbols, each
  // under its own id, then one buffer "<src>_to_<dst>" per edge (a
  // multi-hop route's hops share it), or per endpoint pair for rows
  // without an edge. Texts that repeat (parallel edges, say) are merged
  // after.
  names->append_all(schedule.symbols);
  const auto symbol = [](util::SymbolId sym) {
    return sym == util::kNoSymbol ? util::kEmptySymbol : sym;
  };
  std::vector<util::SymbolId> buffer_of_edge(dag.edge_capacity(), util::kNoSymbol);
  std::map<std::pair<util::SymbolId, util::SymbolId>, util::SymbolId> buffer_of_pair;
  std::string buffer_name;
  const auto buffer = [&](std::size_t i) {
    const graph::EdgeId e = schedule.edge(i);
    util::SymbolId& slot = e == graph::kNoEdge
                               ? buffer_of_pair.try_emplace({schedule.src_sym(i), schedule.dst_sym(i)},
                                                            util::kNoSymbol)
                                     .first->second
                               : buffer_of_edge[e];
    if (slot == util::kNoSymbol) {
      buffer_name = schedule.src(i);
      buffer_name += "_to_";
      buffer_name += schedule.dst(i);
      slot = names->append(buffer_name);
    }
    return slot;
  };

  // Each program's instructions come from three streams of items: bodies
  // (computes, reconfigs, moves) and sends at the item's start, receives
  // at its end. Merging them by time, receives before bodies before sends
  // at one instant and item order within a stream, puts a Recv before
  // the Compute it feeds and Sends after the Compute that produced them.
  struct Recv {
    TimeNs at;
    std::uint32_t item;
  };
  struct Streams {
    std::vector<std::uint32_t> body;
    std::vector<std::uint32_t> send;
    std::vector<Recv> recv;
  };
  std::vector<Streams> streams(exec.programs.size());
  // The name each item's instructions carry: its label, module or buffer.
  std::vector<util::SymbolId> what(schedule.size());
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto item = static_cast<std::uint32_t>(i);
    if (const std::int32_t p = program_of_resource(schedule.resource_sym(i)); p != kNoProgram)
      streams[static_cast<std::size_t>(p)].body.push_back(item);
    switch (schedule.kind(i)) {
      case ItemKind::Compute: what[i] = symbol(schedule.label_sym(i)); break;
      case ItemKind::Reconfig: what[i] = symbol(schedule.module_sym(i)); break;
      case ItemKind::Transfer: {
        const graph::EdgeId e = schedule.edge(i);
        const bool by_name = e == graph::kNoEdge;
        const graph::NodeId from =
            by_name ? algorithm.by_name(std::string(schedule.src(i))) : dag.edge_from(e);
        const graph::NodeId to =
            by_name ? algorithm.by_name(std::string(schedule.dst(i))) : dag.edge_to(e);
        if (const std::int32_t p = endpoint_program(from, schedule.src_sym(i)); p != kNoProgram)
          streams[static_cast<std::size_t>(p)].send.push_back(item);
        if (const std::int32_t p = endpoint_program(to, schedule.dst_sym(i)); p != kNoProgram)
          streams[static_cast<std::size_t>(p)].recv.push_back(Recv{schedule.end(i), item});
        what[i] = buffer(i);
        break;
      }
    }
  }
  const std::vector<util::SymbolId> alias = names->first_ids();
  const auto canonical = [&](util::SymbolId id) { return alias.empty() ? id : alias[id]; };

  const auto by_start = [&](std::uint32_t a, std::uint32_t b) {
    return schedule.start(a) < schedule.start(b);
  };
  for (std::size_t p = 0; p < exec.programs.size(); ++p) {
    Streams& st = streams[p];
    // Streams are in item order; a scheduled run's items are already in
    // start order, so only a hand-built schedule needs the stable sort.
    if (!std::is_sorted(st.body.begin(), st.body.end(), by_start))
      std::stable_sort(st.body.begin(), st.body.end(), by_start);
    if (!std::is_sorted(st.send.begin(), st.send.end(), by_start))
      std::stable_sort(st.send.begin(), st.send.end(), by_start);
    std::sort(st.recv.begin(), st.recv.end(), [](const Recv& a, const Recv& b) {
      return a.at != b.at ? a.at < b.at : a.item < b.item;
    });

    std::vector<MacroInstr>& body = exec.programs[p].body;
    body.resize(st.body.size() + st.send.size() + st.recv.size());
    std::size_t b = 0;
    std::size_t s = 0;
    std::size_t r = 0;
    for (MacroInstr& mi : body) {
      // Earliest head; at one instant recv (0) before body (1) before send (2).
      int pick = -1;
      if (r < st.recv.size()) {
        pick = 0;
        mi.at = st.recv[r].at;
      }
      if (b < st.body.size() && (pick < 0 || schedule.start(st.body[b]) < mi.at)) {
        pick = 1;
        mi.at = schedule.start(st.body[b]);
      }
      if (s < st.send.size() && (pick < 0 || schedule.start(st.send[s]) < mi.at)) {
        pick = 2;
        mi.at = schedule.start(st.send[s]);
      }
      const std::size_t i = pick == 0 ? st.recv[r++].item : pick == 1 ? st.body[b++] : st.send[s++];
      mi.what = canonical(what[i]);
      switch (schedule.kind(i)) {
        case ItemKind::Compute:
        case ItemKind::Reconfig:
          mi.op = schedule.kind(i) == ItemKind::Compute ? MacroOp::Compute : MacroOp::Reconfig;
          mi.duration = schedule.end(i) - schedule.start(i);
          break;
        case ItemKind::Transfer:
          // The medium carries the buffer; its endpoints send and receive it.
          mi.op = pick == 0 ? MacroOp::Recv : pick == 2 ? MacroOp::Send : MacroOp::Move;
          if (mi.op != MacroOp::Move) mi.with = canonical(symbol(schedule.resource_sym(i)));
          mi.bytes = schedule.bytes(i);
          break;
      }
    }
  }
  return exec;
}

}  // namespace pdr::aaa
