#include "verify/verify.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "aaa/macrocode.hpp"
#include "aaa/project_io.hpp"
#include "aaa/schedule_analysis.hpp"
#include "lint/lint.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::verify {

namespace {

using aaa::FindingKind;
using aaa::ItemKind;
using lint::Rule;
using lint::Severity;

/// One finding of the schedule analysis as a PDR1xx violation, if it is
/// one here.
std::optional<Violation> to_violation(const aaa::ScheduleAnalysis& a,
                                      const aaa::AlgorithmGraph& algorithm,
                                      const VerifyOptions& options, const aaa::Finding& f) {
  const aaa::Schedule& s = a.schedule();
  Violation v;
  v.resource = std::string(s.resource(f.item));
  v.pair = f.first != aaa::kNoItem;
  v.first = s.item(v.pair ? f.first : f.item);
  if (v.pair) v.second = s.item(f.item);
  const std::string& r = v.resource;
  const auto found = [&](Rule rule, std::string message, std::string hint) {
    v.rule = rule;
    v.message = std::move(message);
    v.hint = std::move(hint);
    return std::optional<Violation>(std::move(v));
  };
  // Two intervals overlap only if the later one has a positive extent.
  const bool extent = s.start(f.item) < s.end(f.item);
  const ItemKind earlier = v.pair ? s.kind(f.first) : s.kind(f.item);
  const ItemKind later = s.kind(f.item);
  switch (f.kind) {
    case FindingKind::Overlap:
      if (!extent || (earlier == ItemKind::Reconfig && later == ItemKind::Reconfig))
        return std::nullopt;  // a same-region load overlap is PDR105's witness
      if (earlier == ItemKind::Compute && later == ItemKind::Reconfig)
        return found(Rule::ReconfigDuringExecute,
                     "reconfiguration " + a.span(f.item) + " rewrites region '" + r + "' while " +
                         a.span(f.first) + " is still executing in it",
                     "hoist the load no earlier than the instant the region is idle");
      if (earlier == ItemKind::Reconfig && later == ItemKind::Compute)
        return found(Rule::ExecuteDuringReconfig,
                     "operation " + a.span(f.item) + " starts while region '" + r +
                         "' is still being rewritten by " + a.span(f.first),
                     "delay the operation until the load completes");
      if (a.is_operator(s.resource_sym(f.item)))
        return found(Rule::OperatorOverlap,
                     "items " + a.span(f.first) + " and " + a.span(f.item) +
                         " overlap on operator '" + r + "'",
                     "operators have no internal parallelism (paper section 3)");
      return found(Rule::MediumTransferOverlap,
                   "transfers " + a.span(f.first) + " and " + a.span(f.item) +
                       " overlap on exclusive medium '" + r + "'",
                   "media carry one transfer at a time; serialize or reroute");
    case FindingKind::PortOverlap:
      if (!extent) return std::nullopt;
      v.resource = "configuration port";
      return found(Rule::PortDoubleBooking,
                   "loads " + a.span(f.first) + " (region '" + std::string(s.resource(f.first)) +
                       "') and " + a.span(f.item) + " (region '" +
                       std::string(s.resource(f.item)) + "') overlap on the configuration port",
                   "the device has one ICAP/SelectMAP port; loads must serialize");
    case FindingKind::Unconfigured:
      return found(Rule::UseBeforeConfigure,
                   "operation " + a.span(f.item) + " executes variant '" +
                       std::string(s.variant(f.item)) + "' but region '" + r +
                       "' was never configured",
                   "schedule a load (or declare the module preloaded) before first use");
    case FindingKind::WrongModule:
      return found(Rule::StaleModuleExecution,
                   "operation " + a.span(f.item) + " needs variant '" +
                       std::string(s.variant(f.item)) + "' but region '" + r + "' holds module '" +
                       std::string(f.module) + "'" +
                       (v.pair ? ", resident since " + a.span(f.first) : ""),
                   "reconfigure the region before the operation starts");
    case FindingKind::ForeignModule: {
      const std::string module(s.module_name(f.item));
      return found(Rule::ForeignModuleLoad,
                   "load " + a.span(f.item) + " configures module '" + module + "' into region '" +
                       r + "', but the constraints declare it for region '" +
                       options.constraints->find_module(module)->region + "'",
                   "a partial bitstream only fits the region it was implemented for");
    }
    case FindingKind::DataCrossing: {
      v.severity = Severity::Warning;
      const auto& g = algorithm.digraph();
      const char* hint = "the executive must buffer the edge in the static part across the load";
      if (earlier == ItemKind::Compute)  // the producer's output waits for its transfer
        return found(Rule::DataCrossesReconfig,
                     "output of " + a.span(f.first) + " for '" + g[g.edge_to(f.edge)].name +
                         "' is still in region '" + r + "' when load " + a.span(f.item) +
                         " rewrites it",
                     hint);
      return found(Rule::DataCrossesReconfig,
                   "input of " + a.span(f.item) + " from '" + g[g.edge_from(f.edge)].name +
                       "' arrives in region '" + r + "' before load " + a.span(f.first) +
                       " rewrites it",
                   hint);
    }
    default: return std::nullopt;  // structural: validate_schedule's and lint's
  }
}

}  // namespace

TimeNs Violation::overlap_from() const {
  return pair ? std::max(first.start, second.start) : first.start;
}

TimeNs Violation::overlap_to() const {
  return pair ? std::min(first.end, second.end) : first.end;
}

std::string Violation::to_string() const {
  return strprintf("%s [%s]: %s", lint::rule_id(rule), resource.c_str(), message.c_str());
}

bool Certificate::certified() const { return error_count() == 0; }

std::size_t Certificate::error_count() const {
  return static_cast<std::size_t>(
      std::count_if(violations.begin(), violations.end(),
                    [](const Violation& v) { return v.severity == Severity::Error; }));
}

std::string Certificate::first_error() const {
  for (const auto& v : violations)
    if (v.severity == Severity::Error) return v.to_string();
  return "";
}

lint::Report Certificate::to_report() const {
  lint::Report report;
  for (const auto& v : violations) {
    const std::string where =
        v.resource == "configuration port" ? v.resource : "resource " + v.resource;
    report.add(v.rule, v.severity, where, v.message, v.hint);
  }
  return report;
}

std::map<std::string, std::vector<std::string>> Certificate::expected_loads() const {
  std::map<std::string, std::vector<std::string>> loads;
  for (const auto& booking : port_bookings) loads[booking.resource].push_back(booking.module);
  return loads;
}

std::string Certificate::summary() const {
  if (!certified()) return strprintf("REJECTED (%zu errors): ", error_count()) + first_error();
  return strprintf("certified: %zu residency intervals, %zu port bookings, %zu warning(s)",
                   residencies.size(), port_bookings.size(),
                   violations.size() - error_count());
}

Certificate verify_schedule(const aaa::Schedule& schedule, const aaa::AlgorithmGraph& algorithm,
                            const aaa::ArchitectureGraph& architecture,
                            const VerifyOptions& options) {
  return verify_schedule(aaa::ScheduleAnalysis(schedule, algorithm, architecture), options);
}

Certificate verify_schedule(const aaa::ScheduleAnalysis& analysis, const VerifyOptions& options) {
  const aaa::Schedule& schedule = analysis.schedule();
  const aaa::AlgorithmGraph& algorithm = analysis.algorithm();
  const aaa::ArchitectureGraph& architecture = analysis.architecture();
  std::vector<aaa::Finding> findings;
  analysis.overlaps(findings);
  analysis.port_overlaps(findings);
  analysis.residency_walk(options.preloaded, /*infer_preload=*/false, options.constraints,
                          findings);
  analysis.data_crossings(findings);

  Certificate cert;
  for (const aaa::Finding& f : findings)
    if (auto v = to_violation(analysis, algorithm, options, f))
      cert.violations.push_back(std::move(*v));

  std::vector<std::size_t> loads = analysis.reconfigs();
  std::stable_sort(loads.begin(), loads.end(), [&](std::size_t a, std::size_t b) {
    if (schedule.start(a) != schedule.start(b)) return schedule.start(a) < schedule.start(b);
    if (schedule.end(a) != schedule.end(b)) return schedule.end(a) < schedule.end(b);
    return schedule.resource(a) < schedule.resource(b);
  });
  for (const std::size_t i : loads) cert.port_bookings.push_back(schedule.item(i));

  for (const aaa::NodeId w : architecture.operators_of_kind(aaa::OperatorKind::FpgaRegion)) {
    const std::string& region = architecture.op(w).name;
    for (const aaa::Residency& stay : analysis.residencies(region, options.preloaded))
      if (!stay.module.empty())
        cert.residencies.push_back(
            ResidencyInterval{region, std::string(stay.module), stay.from, stay.to});
  }
  return cert;
}

lint::Report deep_check_text(const std::string& text) {
  if (lint::sniff_input(text) == lint::InputKind::Constraints)
    return lint::check_constraints_text(text);

  aaa::Project project;
  try {
    project = aaa::parse_project(text);
  } catch (const Error& e) {
    lint::Report report;
    report.add(Rule::ParseError, Severity::Error, "project file",
               std::string("parse failed: ") + e.what(), "");
    return report;
  }

  lint::Report report;
  try {
    const aaa::Adequation adequation(project.algorithm, project.architecture,
                                     project.durations);
    const aaa::Schedule schedule = adequation.run();
    report.merge(lint::check_schedule(schedule, project.algorithm, project.architecture));
    report.merge(
        verify_schedule(schedule, project.algorithm, project.architecture).to_report());
    const aaa::Executive executive =
        aaa::generate_executive(schedule, project.algorithm, project.architecture);
    report.merge(lint::check_executive(executive));
  } catch (const Error& e) {
    report.add(Rule::ParseError, Severity::Error, "adequation",
               std::string("adequation failed: ") + e.what(),
               "every operation needs a feasible operator and a duration entry");
  }
  return report;
}

}  // namespace pdr::verify
