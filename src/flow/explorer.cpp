#include "flow/explorer.hpp"

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "verify/verify.hpp"

namespace pdr::flow {

DesignSpaceExplorer::DesignSpaceExplorer(aaa::Project project, aaa::ExplorationSpace space,
                                         ExplorerOptions options)
    : project_(std::move(project)), space_(std::move(space)), options_(std::move(options)) {}

ExplorationReport DesignSpaceExplorer::run() const {
  PDR_CHECK(space_.point_count() <= options_.max_points, "DesignSpaceExplorer",
            strprintf("design space has %zu points, over the %zu-point ceiling — restrict an "
                      "axis or raise max_points",
                      space_.point_count(), options_.max_points));

  ExplorationReport report;
  report.space = space_.describe();
  report.points = space_.enumerate();
  report.outcomes.resize(report.points.size());

  aaa::ReconfigCost cost = options_.reconfig_cost_fn;
  if (!cost) {
    const TimeNs flat = options_.reconfig_cost;
    cost = [flat](const std::string&, const std::string&) { return flat; };
  }

  // The static feasibility oracle: pdr::verify's interval analysis over
  // the point's schedule (with the point's own preload assumptions), or
  // the caller's override. Rejected points are never simulated.
  aaa::ScheduleVerifier verifier;
  if (options_.static_pruning) {
    verifier = options_.verifier;
    if (!verifier) {
      verifier = [](const aaa::ScheduleAnalysis& analysis,
                    const aaa::DesignPoint& point) -> std::string {
        verify::VerifyOptions vo;
        vo.preloaded = point.to_options().preloaded;
        const verify::Certificate cert = verify::verify_schedule(analysis, vo);
        if (cert.certified()) return "";
        return "statically rejected: " + cert.first_error();
      };
    }
  }

  // One problem, built once: every worker runs its points on it.
  const aaa::Adequation adequation(project_.algorithm, project_.architecture, project_.durations);

  // One scenario per point; each body writes only its own outcome slot.
  std::vector<Scenario> scenarios;
  scenarios.reserve(report.points.size());
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const aaa::DesignPoint& point = report.points[i];
    aaa::ExplorationOutcome& slot = report.outcomes[i];
    scenarios.push_back(Scenario{
        point.name(),
        [&adequation, &cost, &verifier, &point, &slot](obs::Sinks sinks) -> std::string {
          slot = aaa::run_design_point(adequation, point, cost, verifier);
          sinks.count("explore.points");
          if (slot.rejected) sinks.count("explore.pruned");
          if (!slot.ok) throw Error(slot.error);
          sinks.gauge("explore.makespan_ns", static_cast<double>(slot.makespan));
          sinks.gauge("explore.reconfig_exposed_ns", static_cast<double>(slot.reconfig_exposed));
          return strprintf("makespan %.3f us, %d reconfigs (%.3f us exposed)\n",
                           to_us(slot.makespan), slot.reconfig_count,
                           to_us(slot.reconfig_exposed));
        }});
  }

  const ScenarioRunner runner(options_.jobs);
  report.sweep = runner.run(scenarios);
  report.pareto = aaa::pareto_front(report.outcomes);
  return report;
}

std::size_t ExplorationReport::failed_points() const {
  std::size_t n = 0;
  for (const auto& outcome : outcomes)
    if (!outcome.ok && !outcome.rejected) ++n;
  return n;
}

std::size_t ExplorationReport::pruned_points() const {
  std::size_t n = 0;
  for (const auto& outcome : outcomes)
    if (outcome.rejected) ++n;
  return n;
}

std::string ExplorationReport::to_string(std::size_t top) const {
  std::string out = strprintf("design space: %zu points (%s)\n", points.size(), space.c_str());
  const std::size_t shown = top == 0 ? pareto.size() : std::min(top, pareto.size());
  out += strprintf("pareto front: %zu of %zu points%s\n", pareto.size(),
                   points.size() - failed_points() - pruned_points(),
                   shown < pareto.size() ? strprintf(" (top %zu shown)", shown).c_str() : "");
  Table table({"#", "makespan (us)", "exposed (us)", "reconfigs", "point"});
  for (std::size_t rank = 0; rank < shown; ++rank) {
    const std::size_t i = pareto[rank];
    table.row()
        .add(static_cast<std::int64_t>(rank + 1))
        .add(to_us(outcomes[i].makespan), 3)
        .add(to_us(outcomes[i].reconfig_exposed), 3)
        .add(outcomes[i].reconfig_count)
        .add(points[i].name());
  }
  out += table.to_markdown();
  if (pruned_points() > 0)
    out += strprintf("%zu points statically rejected by pdr::verify (pruned, never simulated)\n",
                     pruned_points());
  if (failed_points() > 0)
    out += strprintf("%zu points failed to schedule (excluded from the front)\n",
                     failed_points());
  return out;
}

}  // namespace pdr::flow
