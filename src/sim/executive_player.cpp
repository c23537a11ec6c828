#include "sim/executive_player.hpp"

#include <deque>
#include <map>
#include <vector>

#include "util/error.hpp"
#include "util/interner.hpp"
#include "util/strings.hpp"

namespace pdr::sim {

using aaa::MacroInstr;
using aaa::MacroOp;
using aaa::MacroProgram;

ExecutivePlayer::ExecutivePlayer(const aaa::Executive& executive,
                                 const aaa::ArchitectureGraph& architecture)
    : executive_(executive), architecture_(architecture) {
  reconfig_cost_ = [](const std::string&, const std::string&) { return aaa::kPaperReconfigCost; };
}

void ExecutivePlayer::set_reconfig_cost(ReconfigCost cost) { reconfig_cost_ = std::move(cost); }

void ExecutivePlayer::set_variant_selector(VariantSelector selector) {
  selector_ = std::move(selector);
}

void ExecutivePlayer::set_initial_residency(std::map<std::string, std::string> residency) {
  initial_residency_ = std::move(residency);
}

namespace {

/// Variant carried by a Compute instruction's name — macro-code renders
/// conditioned computations as "op(variant)". "" when unconditioned.
std::string_view compute_variant(std::string_view what) {
  const auto open = what.rfind('(');
  if (open == std::string_view::npos || what.empty() || what.back() != ')') return {};
  return what.substr(open + 1, what.size() - open - 2);
}

}  // namespace

void ExecutivePlayer::set_survive_reconfig_failures(bool survive) {
  survive_reconfig_failures_ = survive;
}

PlayResult ExecutivePlayer::run(int iterations) {
  PDR_CHECK(iterations > 0, "ExecutivePlayer::run", "iterations must be positive");

  struct ProgState {
    const MacroProgram* prog = nullptr;
    std::size_t pc = 0;       ///< index into prog->body
    int iteration = 0;        ///< completed loop passes
    TimeNs time = 0;          ///< local completion time of last instruction
    bool done = false;
  };
  // Instructions name their buffers by symbol of the executive's one
  // table, so a buffer's token channels are found by id. Resources and
  // modules (which a selector may name outside that table) are interned
  // here; the residency table is indexed by these symbols.
  const util::Interner& names = *executive_.names;
  util::Interner syms;

  std::vector<ProgState> progs;
  std::vector<bool> is_region(executive_.programs.size(), false);
  std::vector<util::SymbolId> prog_resource(executive_.programs.size(), util::kNoSymbol);
  for (const auto& p : executive_.programs) {
    PDR_CHECK(p.names == executive_.names, "ExecutivePlayer",
              "program '" + p.resource + "' does not share the executive's name table");
    ProgState st;
    st.prog = &p;
    st.done = p.body.empty();
    const auto node = architecture_.find(p.resource);
    is_region[progs.size()] = node.has_value() && architecture_.is_operator(*node) &&
                              architecture_.op(*node).kind == aaa::OperatorKind::FpgaRegion;
    prog_resource[progs.size()] = syms.intern(p.resource);
    progs.push_back(st);
  }

  // Token channels per buffer: snd = producer -> medium, dlv = medium ->
  // consumer. Values are availability times. A buffer's channels are
  // numbered on first use.
  constexpr std::uint32_t kNoChannel = static_cast<std::uint32_t>(-1);
  std::vector<std::uint32_t> channel_of(names.size(), kNoChannel);
  std::vector<std::deque<TimeNs>> snd_channels;
  std::vector<std::deque<TimeNs>> dlv_channels;
  const auto channel = [&](std::vector<std::deque<TimeNs>>& channels,
                           util::SymbolId buffer) -> std::deque<TimeNs>& {
    std::uint32_t& slot = channel_of[buffer];
    if (slot == kNoChannel) {
      slot = static_cast<std::uint32_t>(snd_channels.size());
      snd_channels.emplace_back();
      dlv_channels.emplace_back();
    }
    return channels[slot];
  };
  TimeNs port_free = 0;
  // Resident module per region symbol (kNoSymbol = never configured).
  std::vector<util::SymbolId> region_loaded;
  const auto loaded_in = [&region_loaded](util::SymbolId region) -> util::SymbolId& {
    if (region_loaded.size() <= region) region_loaded.resize(region + 1, util::kNoSymbol);
    return region_loaded[region];
  };
  for (const auto& [region, module] : initial_residency_)
    loaded_in(syms.intern(region)) = syms.intern(module);

  PlayResult result;
  result.iterations = iterations;
  std::vector<TimeNs> first_iter_end(progs.size(), 0);

  // Cooperative fixpoint: keep advancing any program whose next
  // instruction's inputs are available.
  bool progress = true;
  while (progress) {
    progress = false;
    for (auto& st : progs) {
      while (!st.done) {
        const MacroInstr& instr = st.prog->body[st.pc];
        const std::string_view what = names.name(instr.what);
        bool advanced = false;
        switch (instr.op) {
          case MacroOp::Send: {
            channel(snd_channels, instr.what).push_back(st.time);
            advanced = true;
            break;
          }
          case MacroOp::Move: {
            auto& q = channel(snd_channels, instr.what);
            if (!q.empty()) {
              const TimeNs token = q.front();
              q.pop_front();
              const TimeNs start = std::max(st.time, token);
              const auto m = architecture_.find(st.prog->resource);
              TimeNs duration = 0;
              if (m.has_value() && !architecture_.is_operator(*m))
                duration = architecture_.medium(*m).transfer_time(instr.bytes);
              const TimeNs end = start + duration;
              result.timeline.add(st.prog->resource, std::string(what), SpanKind::Transfer,
                                  start, end);
              channel(dlv_channels, instr.what).push_back(end);
              st.time = end;
              advanced = true;
            }
            break;
          }
          case MacroOp::Recv: {
            auto& q = channel(dlv_channels, instr.what);
            if (!q.empty()) {
              const TimeNs token = q.front();
              q.pop_front();
              st.time = std::max(st.time, token);
              advanced = true;
            }
            break;
          }
          case MacroOp::Compute: {
            const TimeNs end = st.time + instr.duration;
            // Hazard monitor: a conditioned computation in a dynamic
            // region must find its variant physically resident.
            const std::size_t prog_index = static_cast<std::size_t>(&st - progs.data());
            if (is_region[prog_index]) {
              const std::string variant(compute_variant(what));
              if (!variant.empty()) {
                const util::SymbolId resident = loaded_in(prog_resource[prog_index]);
                if (resident == util::kNoSymbol || syms.name(resident) != variant) {
                  const std::string resident_name =
                      resident == util::kNoSymbol ? "" : std::string(syms.name(resident));
                  ++result.hazard_faults;
                  result.hazards.push_back(strprintf(
                      "iteration %d: '%s' at %lld ns in region '%s' needs variant '%s' but %s",
                      st.iteration, std::string(what).c_str(), static_cast<long long>(st.time),
                      st.prog->resource.c_str(), variant.c_str(),
                      resident_name.empty()
                          ? "the region was never configured"
                          : ("module '" + resident_name + "' is resident").c_str()));
                }
              }
            }
            result.timeline.add(st.prog->resource, std::string(what), SpanKind::Compute, st.time,
                                end);
            st.time = end;
            advanced = true;
            break;
          }
          case MacroOp::Reconfig: {
            std::string module(what);
            if (selector_) module = selector_(st.iteration, st.prog->resource, module);
            const util::SymbolId resource_sym =
                prog_resource[static_cast<std::size_t>(&st - progs.data())];
            // With runtime selection, regions are sticky: reloading the
            // resident module costs nothing.
            if (selector_ && loaded_in(resource_sym) == syms.intern(module)) {
              ++result.reconfigs_skipped;
              advanced = true;
              break;
            }
            TimeNs cost = 0;
            if (survive_reconfig_failures_) {
              try {
                cost = reconfig_cost_(st.prog->resource, module);
              } catch (const Error&) {
                // The load failed past recovery; keep the previous
                // resident module and let the program continue.
                ++result.reconfigs_failed;
                advanced = true;
                break;
              }
            } else {
              cost = reconfig_cost_(st.prog->resource, module);
            }
            const TimeNs start = std::max(st.time, port_free);
            const TimeNs end = start + cost;
            port_free = end;
            loaded_in(resource_sym) = syms.intern(module);
            result.timeline.add(st.prog->resource, "load " + module, SpanKind::Reconfig, start,
                                end);
            st.time = end;
            ++result.reconfigs;
            advanced = true;
            break;
          }
        }
        if (!advanced) break;  // blocked; try other programs
        progress = true;
        if (++st.pc == st.prog->body.size()) {
          st.pc = 0;
          ++st.iteration;
          if (st.iteration == 1) first_iter_end[static_cast<std::size_t>(&st - progs.data())] = st.time;
          if (st.iteration >= iterations) st.done = true;
        }
      }
    }
  }

  // Deadlock check: every program must have completed all iterations.
  for (const auto& st : progs) {
    if (!st.done) {
      const MacroInstr& instr = st.prog->body[st.pc];
      raise("ExecutivePlayer",
            strprintf("deadlock: program '%s' blocked at iteration %d on '%s %s'",
                      st.prog->resource.c_str(), st.iteration, macro_op_name(instr.op),
                      std::string(names.name(instr.what)).c_str()));
    }
    result.makespan = std::max(result.makespan, st.time);
  }
  if (iterations > 1) {
    TimeNs first = 0;
    for (std::size_t i = 0; i < progs.size(); ++i) first = std::max(first, first_iter_end[i]);
    result.iteration_period = (result.makespan - first) / (iterations - 1);
  } else {
    result.iteration_period = result.makespan;
  }
  sinks_.trace([&](obs::Tracer& t) { result.timeline.export_to(t, "exec_"); });
  sinks_.count("sim.player.runs");
  sinks_.count("sim.player.reconfigs", result.reconfigs);
  sinks_.count("sim.player.reconfigs_skipped", result.reconfigs_skipped);
  sinks_.count("sim.player.reconfigs_failed", result.reconfigs_failed);
  sinks_.count("sim.player.hazard_faults", result.hazard_faults);
  sinks_.gauge("sim.player.makespan_ns", static_cast<double>(result.makespan));
  sinks_.gauge("sim.player.iteration_period_ns", static_cast<double>(result.iteration_period));
  return result;
}

}  // namespace pdr::sim
