#include "aaa/macrocode.hpp"

#include <algorithm>
#include <cstdint>

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

namespace {

void append_instr(TextWriter& w, const MacroInstr& instr) {
  switch (instr.op) {
    case MacroOp::Recv:
    case MacroOp::Send: {
      const bool recv = instr.op == MacroOp::Recv;
      w << (recv ? "recv    " : "send    ");
      w.left(instr.what, 24) << (recv ? " from " : " to   ");
      w.left(instr.with, 8) << " (" << instr.bytes << " B)";
      return;
    }
    case MacroOp::Compute:
    case MacroOp::Reconfig:
      w << (instr.op == MacroOp::Compute ? "compute " : "reconf  ");
      w.left(instr.what, 24) << " (";
      w.fixed(to_us(instr.duration), 3) << " us)";
      return;
    case MacroOp::Move:
      w << "move    ";
      w.left(instr.what, 24) << " (" << instr.bytes << " B)";
      return;
  }
  w << '?';
}

void append_program(TextWriter& w, const MacroProgram& program) {
  w << (program.is_medium ? "medium " : "operator ") << program.resource << ":\n  loop:\n";
  for (const auto& instr : program.body) {
    w << "    ";
    append_instr(w, instr);
    w << '\n';
  }
  if (program.body.empty()) w << "    (idle)\n";
}

}  // namespace

std::string MacroInstr::to_string() const {
  std::string out;
  TextWriter w(out);
  append_instr(w, *this);
  return out;
}

std::string MacroProgram::to_string() const {
  std::string out;
  TextWriter w(out);
  append_program(w, *this);
  return out;
}

const MacroProgram& Executive::program(const std::string& resource) const {
  for (const auto& p : programs)
    if (p.resource == resource) return p;
  raise("Executive::program", "no program for resource '" + resource + "'");
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
  Executive exec;
  // Programs in architecture declaration order (operators then media).
  for (NodeId n : architecture.operators())
    exec.programs.push_back(MacroProgram{architecture.op(n).name, false, {}});
  for (NodeId n : architecture.media())
    exec.programs.push_back(MacroProgram{architecture.medium(n).name, true, {}});

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
  // Program of the operator each transfer endpoint (an operation name
  // symbol) was placed on, through the NodeId-indexed placement column.
  std::vector<std::int32_t> program_of_endpoint(schedule.symbols.size(), kUnresolved);
  const auto endpoint_program = [&](util::SymbolId op_sym) {
    std::int32_t& slot = program_of_endpoint[op_sym];
    if (slot == kUnresolved) {
      const std::string_view op_name = schedule.name(op_sym);
      const graph::NodeId n = algorithm.by_name(std::string(op_name));
      PDR_CHECK(!schedule.placement_name(n).empty(), "generate_executive",
                "operation '" + std::string(op_name) + "' was not placed");
      slot = program_of_resource(schedule.placement[n]);
    }
    return slot;
  };

  // One bucket of events per program. An event is (time, order class,
  // class-and-item key): order classes break ties at equal timestamps —
  // receives (0) before computes/reconfigs/moves (1) before sends (2) —
  // and the item index keeps emit order within a class. A transfer's three
  // events differ in class, so the key is unique and sorting each bucket
  // gives the order a stable sort of all events by (time, class) would.
  struct Event {
    TimeNs at;
    std::uint64_t key;  ///< class << 32 | item index
  };
  constexpr std::uint64_t kRecv = 0;
  constexpr std::uint64_t kBody = 1;
  constexpr std::uint64_t kSend = 2;
  std::vector<std::vector<Event>> buckets(exec.programs.size());
  const auto file = [&](std::int32_t program, TimeNs at, std::uint64_t cls, std::size_t i) {
    if (program != kNoProgram)
      buckets[static_cast<std::size_t>(program)].push_back(
          Event{at, cls << 32 | static_cast<std::uint64_t>(i)});
  };
  PDR_CHECK(schedule.size() <= 0xffffffffu, "generate_executive", "schedule too large");
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    file(program_of_resource(schedule.resource_sym(i)), schedule.start(i), kBody, i);
    if (schedule.kind(i) != ItemKind::Transfer) continue;
    // Producer side sends when the transfer begins, consumer side
    // receives when it completes.
    file(endpoint_program(schedule.src_sym(i)), schedule.start(i), kSend, i);
    file(endpoint_program(schedule.dst_sym(i)), schedule.end(i), kRecv, i);
  }

  for (std::size_t p = 0; p < exec.programs.size(); ++p) {
    std::vector<Event>& bucket = buckets[p];
    std::sort(bucket.begin(), bucket.end(), [](const Event& a, const Event& b) {
      return a.at != b.at ? a.at < b.at : a.key < b.key;
    });
    std::vector<MacroInstr>& body = exec.programs[p].body;
    body.resize(bucket.size());
    for (std::size_t k = 0; k < bucket.size(); ++k) {
      const std::size_t i = static_cast<std::size_t>(bucket[k].key & 0xffffffffu);
      const std::uint64_t cls = bucket[k].key >> 32;
      MacroInstr& mi = body[k];
      mi.at = bucket[k].at;
      switch (schedule.kind(i)) {
        case ItemKind::Compute:
          mi.op = MacroOp::Compute;
          mi.what = schedule.label(i);
          mi.duration = schedule.end(i) - schedule.start(i);
          break;
        case ItemKind::Reconfig:
          mi.op = MacroOp::Reconfig;
          mi.what = schedule.module_name(i);
          mi.duration = schedule.end(i) - schedule.start(i);
          break;
        case ItemKind::Transfer:
          // The medium carries the buffer; its endpoints send and receive it.
          mi.op = cls == kRecv ? MacroOp::Recv : cls == kSend ? MacroOp::Send : MacroOp::Move;
          mi.what = schedule.src(i);
          mi.what += "_to_";
          mi.what += schedule.dst(i);
          if (mi.op != MacroOp::Move) mi.with = schedule.resource(i);
          mi.bytes = schedule.bytes(i);
          break;
      }
    }
  }
  return exec;
}

}  // namespace pdr::aaa
