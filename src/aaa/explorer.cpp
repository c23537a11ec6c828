#include "aaa/explorer.hpp"

#include <algorithm>
#include <set>

#include "aaa/schedule_analysis.hpp"
#include "util/strings.hpp"

namespace pdr::aaa {

AdequationOptions DesignPoint::to_options() const {
  AdequationOptions options;
  options.strategy = strategy;
  options.prefetch = prefetch;
  options.selection = selection;
  for (const auto& [region, module] : preloaded)
    if (!module.empty()) options.preloaded[region] = module;
  return options;
}

std::string DesignPoint::name() const {
  std::string out = mapping_strategy_name(strategy);
  out += prefetch ? "/prefetch=on" : "/prefetch=off";
  for (const auto& [region, module] : preloaded)
    out += "/preload[" + region + "=" + (module.empty() ? "-" : module) + "]";
  for (const auto& [op, alt] : selection) out += "/sel[" + op + "=" + alt + "]";
  if (!floorplan.name.empty()) out += "/fp[" + floorplan.name + "]";
  return out;
}

ExplorationSpace ExplorationSpace::from_project(const Project& project) {
  ExplorationSpace space;
  space.strategies = {MappingStrategy::SynDExList, MappingStrategy::RoundRobin,
                      MappingStrategy::FirstFeasible};
  space.prefetch = {true, false};

  const auto& g = project.algorithm.digraph();
  for (graph::NodeId n : g.node_ids()) {
    const Operation& op = g[n];
    if (!op.conditioned()) continue;
    std::vector<std::string> alts;
    for (const auto& a : op.alternatives) alts.push_back(a.name);
    space.selections.emplace_back(op.name, std::move(alts));
  }

  for (NodeId w : project.architecture.operators_of_kind(OperatorKind::FpgaRegion)) {
    const OperatorNode& region = project.architecture.op(w);
    // Seed choices: empty, plus every alternative whose kind the region's
    // duration entries can execute (names deduped across vertices).
    std::vector<std::string> choices{""};
    std::set<std::string> seen;
    for (graph::NodeId n : g.node_ids()) {
      for (const auto& a : g[n].alternatives) {
        if (!project.durations.supports(a.kind, region)) continue;
        if (seen.insert(a.name).second) choices.push_back(a.name);
      }
    }
    space.preloads.emplace_back(region.name, std::move(choices));
  }
  return space;
}

std::size_t ExplorationSpace::point_count() const {
  std::size_t count = std::max<std::size_t>(strategies.size(), 1) *
                      std::max<std::size_t>(prefetch.size(), 1);
  for (const auto& [name, values] : preloads) count *= std::max<std::size_t>(values.size(), 1);
  for (const auto& [name, values] : selections) count *= std::max<std::size_t>(values.size(), 1);
  count *= std::max<std::size_t>(floorplans.size(), 1);
  return count;
}

std::vector<DesignPoint> ExplorationSpace::enumerate() const {
  std::vector<DesignPoint> points;
  points.reserve(point_count());
  const std::vector<MappingStrategy> strats =
      strategies.empty() ? std::vector<MappingStrategy>{MappingStrategy::SynDExList} : strategies;
  const std::vector<bool> pf = prefetch.empty() ? std::vector<bool>{true} : prefetch;

  // Odometer over the preload/selection axes (empty product = one point).
  const auto cross = [](const std::vector<std::pair<std::string, std::vector<std::string>>>& axes) {
    std::vector<std::map<std::string, std::string>> out{{}};
    for (const auto& [name, values] : axes) {
      if (values.empty()) continue;
      std::vector<std::map<std::string, std::string>> next;
      next.reserve(out.size() * values.size());
      for (const auto& base : out)
        for (const std::string& value : values) {
          auto assignment = base;
          assignment[name] = value;
          next.push_back(std::move(assignment));
        }
      out = std::move(next);
    }
    return out;
  };
  const auto preload_choices = cross(preloads);
  const auto selection_choices = cross(selections);
  // An empty floorplan axis enumerates one off-choice (empty name), so the
  // existing four-axis order is unchanged when the axis is unused.
  const std::vector<FloorplanChoice> fps =
      floorplans.empty() ? std::vector<FloorplanChoice>{FloorplanChoice{}} : floorplans;

  for (const MappingStrategy strategy : strats)
    for (const bool prefetch_on : pf)
      for (const auto& preloaded : preload_choices)
        for (const auto& selection : selection_choices)
          for (const auto& floorplan : fps) {
            DesignPoint point;
            point.strategy = strategy;
            point.prefetch = prefetch_on;
            point.preloaded = preloaded;
            point.selection = selection;
            point.floorplan = floorplan;
            points.push_back(std::move(point));
          }
  return points;
}

std::string ExplorationSpace::describe() const {
  std::string out = strprintf("%zu strategies x %zu prefetch", strategies.size(), prefetch.size());
  for (const auto& [name, values] : preloads)
    out += strprintf(" x %zu preloads[%s]", values.size(), name.c_str());
  for (const auto& [name, values] : selections)
    out += strprintf(" x %zu selections[%s]", values.size(), name.c_str());
  if (!floorplans.empty()) out += strprintf(" x %zu floorplans", floorplans.size());
  return out;
}

ExplorationOutcome run_design_point(const Adequation& adequation, const DesignPoint& point,
                                    const ReconfigCost& reconfig_cost,
                                    const ScheduleVerifier& verifier) {
  ExplorationOutcome outcome;
  try {
    AdequationOptions options = point.to_options();
    options.reconfig_cost = reconfig_cost;
    if (!point.floorplan.region_load_ns.empty()) {
      // Regions the floorplan does not place fall back to the base model.
      const std::map<std::string, TimeNs>& table = point.floorplan.region_load_ns;
      options.reconfig_cost = [&table, &reconfig_cost](const std::string& region,
                                                       const std::string& module) {
        const auto it = table.find(region);
        if (it != table.end()) return it->second;
        return reconfig_cost ? reconfig_cost(region, module) : kPaperReconfigCost;
      };
    }
    const Schedule schedule = adequation.run(options);
    const ScheduleAnalysis analysis(schedule, adequation.algorithm(), adequation.architecture());
    if (verifier) {
      std::string rejection = verifier(analysis, point);
      if (!rejection.empty()) {
        outcome.rejected = true;
        outcome.error = std::move(rejection);
        return outcome;
      }
    }
    validate_schedule(analysis);
    outcome.makespan = schedule.makespan;
    outcome.reconfig_exposed = schedule.reconfig_exposed;
    outcome.reconfig_count = schedule.reconfig_count;
    outcome.ok = true;
  } catch (const std::exception& e) {
    outcome.error = e.what();
  }
  return outcome;
}

std::vector<std::size_t> pareto_front(const std::vector<ExplorationOutcome>& outcomes) {
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    if (!outcomes[i].ok) continue;
    bool dominated = false;
    for (std::size_t j = 0; j < outcomes.size() && !dominated; ++j) {
      if (j == i || !outcomes[j].ok) continue;
      const bool no_worse = outcomes[j].makespan <= outcomes[i].makespan &&
                            outcomes[j].reconfig_exposed <= outcomes[i].reconfig_exposed;
      const bool better = outcomes[j].makespan < outcomes[i].makespan ||
                          outcomes[j].reconfig_exposed < outcomes[i].reconfig_exposed;
      // Of two identical outcomes the earlier enumeration index survives.
      const bool earlier_twin = outcomes[j].makespan == outcomes[i].makespan &&
                                outcomes[j].reconfig_exposed == outcomes[i].reconfig_exposed &&
                                j < i;
      dominated = (no_worse && better) || earlier_twin;
    }
    if (!dominated) front.push_back(i);
  }
  std::sort(front.begin(), front.end(), [&](std::size_t a, std::size_t b) {
    if (outcomes[a].makespan != outcomes[b].makespan)
      return outcomes[a].makespan < outcomes[b].makespan;
    if (outcomes[a].reconfig_exposed != outcomes[b].reconfig_exposed)
      return outcomes[a].reconfig_exposed < outcomes[b].reconfig_exposed;
    return a < b;
  });
  return front;
}

}  // namespace pdr::aaa
