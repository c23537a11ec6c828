#include "lint/executive_rules.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::lint {

namespace {

using aaa::Executive;
using aaa::MacroInstr;
using aaa::MacroOp;
using aaa::MacroProgram;

/// One Send/Recv/Move occurrence, located by (program, instruction).
struct Endpoint {
  std::size_t program = 0;
  std::size_t instr = 0;
  TimeNs at = 0;
};

/// Channel key: the medium's name and the buffer's symbol.
struct ChannelKey {
  std::string_view medium;
  util::SymbolId buffer;
};

/// Orders channels by (medium, buffer) text, so reports list them in name
/// order. Equal ids are equal text, so only distinct buffers are read.
struct ByName {
  const util::Interner* names;
  bool operator()(const ChannelKey& a, const ChannelKey& b) const {
    if (a.medium != b.medium) return a.medium < b.medium;
    return a.buffer != b.buffer && names->name(a.buffer) < names->name(b.buffer);
  }
};

struct Channel {
  std::vector<Endpoint> sends;
  std::vector<Endpoint> recvs;
  std::vector<Endpoint> moves;
};

using Channels = std::map<ChannelKey, Channel, ByName>;

std::string channel_name(const Executive& executive, const ChannelKey& key) {
  std::string out = "buffer ";
  out += executive.name(key.buffer);
  out += " on ";
  out += key.medium;
  return out;
}

/// PDR060/061/062: pairing of sends, recvs and moves per channel.
void check_pairing(Report& report, const Executive& executive, const Channels& channels) {
  for (const auto& [key, ch] : channels) {
    // Balanced and not a lone move: none of the three rules fires.
    if (ch.sends.size() == ch.recvs.size() && (ch.moves.empty() || !ch.sends.empty())) continue;
    const std::string where = channel_name(executive, key);
    const std::string buffer(executive.name(key.buffer));
    const std::string medium(key.medium);
    if (!ch.sends.empty() && ch.recvs.empty())
      report.add(Rule::SendWithoutRecv, Severity::Error, where,
                 "'" + executive.programs[ch.sends.front().program].resource + "' sends buffer '" +
                     buffer + "' over '" + medium + "' but no program receives it",
                 "a blocking send with no receiver stalls the executive forever");
    else if (ch.sends.size() > ch.recvs.size())
      report.add(Rule::SendWithoutRecv, Severity::Error, where,
                 strprintf("buffer '%s' is sent %zu time(s) over '%s' but received only %zu",
                           buffer.c_str(), ch.sends.size(), medium.c_str(),
                           ch.recvs.size()),
                 "every send must pair with exactly one recv on the same medium");
    if (!ch.recvs.empty() && ch.sends.empty())
      report.add(Rule::RecvWithoutSend, Severity::Error, where,
                 "'" + executive.programs[ch.recvs.front().program].resource +
                     "' waits for buffer '" + buffer + "' on '" + medium +
                     "' but no program sends it",
                 "a blocking receive with no sender deadlocks its program");
    else if (ch.recvs.size() > ch.sends.size())
      report.add(Rule::RecvWithoutSend, Severity::Error, where,
                 strprintf("buffer '%s' is received %zu time(s) over '%s' but sent only %zu",
                           buffer.c_str(), ch.recvs.size(), medium.c_str(),
                           ch.sends.size()),
                 "every recv must pair with exactly one send on the same medium");
    if (!ch.moves.empty() && ch.sends.empty() && ch.recvs.empty())
      report.add(Rule::OrphanMove, Severity::Warning, where,
                 "medium '" + medium + "' carries buffer '" + buffer +
                     "' that no operator sends or receives",
                 "remove the move or add the missing endpoints");
  }
}

/// PDR064/065: single-buffer semantics per channel — a value must be
/// written before it is read and read before it is overwritten.
void check_buffer_order(Report& report, const Executive& executive, const Channels& channels) {
  for (const auto& [key, ch] : channels) {
    if (ch.sends.empty() || ch.recvs.empty()) continue;  // pairing rules fired already
    const auto buffer = [&] { return std::string(executive.name(key.buffer)); };
    // Merge sends (+1) and recvs (-1) in schedule-time order; a send at
    // the same instant as a recv is ordered first (the recv observes the
    // transfer's completion).
    struct Ev {
      TimeNs at;
      int kind;  // 0 = send, 1 = recv
    };
    std::vector<Ev> events;
    events.reserve(ch.sends.size() + ch.recvs.size());
    for (const Endpoint& e : ch.sends) events.push_back(Ev{e.at, 0});
    for (const Endpoint& e : ch.recvs) events.push_back(Ev{e.at, 1});
    std::stable_sort(events.begin(), events.end(), [](const Ev& a, const Ev& b) {
      if (a.at != b.at) return a.at < b.at;
      return a.kind < b.kind;
    });
    int outstanding = 0;
    bool reported_read = false;
    bool reported_overwrite = false;
    for (const Ev& ev : events) {
      if (ev.kind == 0) {
        if (outstanding > 0 && !reported_overwrite) {
          report.add(Rule::BufferOverwrite, Severity::Error, channel_name(executive, key),
                     strprintf("buffer '%s' is sent again at %lld ns before the previous value "
                               "is received",
                               buffer().c_str(), static_cast<long long>(ev.at)),
                     "single-buffer channels must alternate send and recv");
          reported_overwrite = true;
        }
        ++outstanding;
      } else {
        if (outstanding == 0 && !reported_read) {
          report.add(Rule::RecvBeforeSend, Severity::Error, channel_name(executive, key),
                     strprintf("buffer '%s' is read at %lld ns before any send writes it",
                               buffer().c_str(), static_cast<long long>(ev.at)),
                     "reorder the programs so the producer sends first");
          reported_read = true;
        } else if (outstanding > 0) {
          --outstanding;
        }
      }
    }
  }
}

/// PDR063: deadlock — a cycle in the graph whose nodes are instructions,
/// with intra-program sequential edges and a cross edge from each send to
/// its paired recv (k-th send pairs with k-th recv per channel). A
/// time-consistent executive is acyclic: every edge advances time.
void check_deadlock(Report& report, const Executive& executive, const Channels& channels) {
  // Global instruction numbering.
  std::vector<std::size_t> program_base(executive.programs.size(), 0);
  std::size_t total = 0;
  for (std::size_t p = 0; p < executive.programs.size(); ++p) {
    program_base[p] = total;
    total += executive.programs[p].body.size();
  }
  std::vector<std::vector<std::size_t>> next(total);
  for (std::size_t p = 0; p < executive.programs.size(); ++p)
    for (std::size_t i = 1; i < executive.programs[p].body.size(); ++i)
      next[program_base[p] + i - 1].push_back(program_base[p] + i);
  for (const auto& [key, ch] : channels) {
    (void)key;
    const std::size_t pairs = std::min(ch.sends.size(), ch.recvs.size());
    for (std::size_t k = 0; k < pairs; ++k)
      next[program_base[ch.sends[k].program] + ch.sends[k].instr].push_back(
          program_base[ch.recvs[k].program] + ch.recvs[k].instr);
  }

  // Iterative DFS with tri-colour marking; report the first cycle found.
  enum : std::uint8_t { White, Grey, Black };
  std::vector<std::uint8_t> colour(total, White);
  const auto describe = [&](std::size_t node) {
    for (std::size_t p = executive.programs.size(); p-- > 0;)
      if (node >= program_base[p]) {
        const MacroProgram& prog = executive.programs[p];
        const MacroInstr& mi = prog.body[node - program_base[p]];
        std::string out = prog.resource + ": " + macro_op_name(mi.op) + " ";
        out += prog.name(mi.what);
        return out;
      }
    return std::string("?");
  };
  for (std::size_t root = 0; root < total; ++root) {
    if (colour[root] != White) continue;
    std::vector<std::pair<std::size_t, std::size_t>> stack{{root, 0}};
    colour[root] = Grey;
    while (!stack.empty()) {
      auto& [node, edge] = stack.back();
      if (edge < next[node].size()) {
        const std::size_t to = next[node][edge++];
        if (colour[to] == Grey) {
          // Reconstruct the cycle from the DFS stack.
          std::string cycle = describe(to);
          for (std::size_t i = stack.size(); i-- > 0;) {
            cycle += " <- " + describe(stack[i].first);
            if (stack[i].first == to) break;
          }
          report.add(Rule::SyncCycle, Severity::Error, "executive",
                     "cyclic synchronization (deadlock): " + cycle,
                     "the blocked programs wait on each other forever; break the cycle by "
                     "reordering sends and receives");
          return;  // one deadlock report is enough
        }
        if (colour[to] == White) {
          colour[to] = Grey;
          stack.emplace_back(to, 0);
        }
      } else {
        colour[node] = Black;
        stack.pop_back();
      }
    }
  }
}

}  // namespace

Report check_executive(const Executive& executive) {
  Report report;

  Channels channels(ByName{executive.names.get()});
  for (std::size_t p = 0; p < executive.programs.size(); ++p) {
    const MacroProgram& prog = executive.programs[p];
    PDR_CHECK(prog.names == executive.names, "check_executive",
              "program '" + prog.resource + "' does not share the executive's name table");
    for (std::size_t i = 0; i < prog.body.size(); ++i) {
      const MacroInstr& mi = prog.body[i];
      const Endpoint ep{p, i, mi.at};
      switch (mi.op) {
        case MacroOp::Send: channels[{prog.name(mi.with), mi.what}].sends.push_back(ep); break;
        case MacroOp::Recv: channels[{prog.name(mi.with), mi.what}].recvs.push_back(ep); break;
        case MacroOp::Move:
          if (prog.is_medium) channels[{prog.resource, mi.what}].moves.push_back(ep);
          break;
        default: break;
      }
    }
  }

  check_pairing(report, executive, channels);
  check_buffer_order(report, executive, channels);
  check_deadlock(report, executive, channels);
  return report;
}

}  // namespace pdr::lint
