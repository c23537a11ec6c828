#include "lint/schedule_rules.hpp"

#include <algorithm>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "aaa/schedule_analysis.hpp"
#include "util/strings.hpp"

namespace pdr::lint {

namespace {

using aaa::FindingKind;
using aaa::ItemKind;

/// One structural finding as a PDR040-047 diagnostic.
void report_finding(Report& report, const aaa::ScheduleAnalysis& a,
                    const aaa::AlgorithmGraph& algorithm,
                    const aaa::ArchitectureGraph& architecture, const aaa::Finding& f) {
  const aaa::Schedule& s = a.schedule();
  const auto& g = algorithm.digraph();
  const std::string r = f.item == aaa::kNoItem ? "" : std::string(s.resource(f.item));
  const std::string producer = f.edge == graph::kNoEdge ? "" : g[g.edge_from(f.edge)].name;
  const std::string consumer = f.edge == graph::kNoEdge ? "" : g[g.edge_to(f.edge)].name;
  const auto add = [&](Rule rule, std::string where, std::string message, std::string hint) {
    report.add(rule, Severity::Error, std::move(where), std::move(message), std::move(hint));
  };
  switch (f.kind) {
    case FindingKind::NegativeDuration:
      return add(Rule::NegativeDuration, "resource " + r,
                 "item " + a.span(f.item) + " ends before it starts", "");
    case FindingKind::Overlap:  // `first` starts no later than `item`
      if (s.kind(f.first) == ItemKind::Compute && s.kind(f.item) == ItemKind::Reconfig)
        return add(Rule::PrefetchIntoBusyRegion, "resource " + r,
                   "reconfiguration " + a.span(f.item) + " starts while " + a.span(f.first) +
                       " still occupies region '" + r + "'",
                   "a prefetch may only be hoisted to an instant the region is free");
      if (s.kind(f.first) == ItemKind::Reconfig && s.kind(f.item) == ItemKind::Compute)
        return add(Rule::ComputeDuringReconfig, "resource " + r,
                   "operation " + a.span(f.item) + " starts while region '" + r +
                       "' is still reconfiguring (" + a.span(f.first) + ")",
                   "delay the operation until the reconfiguration completes");
      return add(Rule::ResourceOverlap, "resource " + r,
                 "items " + a.span(f.first) + " and " + a.span(f.item) +
                     " overlap on resource '" + r + "'",
                 "every operator and medium executes sequentially (paper section 3)");
    case FindingKind::PortOverlap:
      return add(Rule::PortOverlap, "configuration port",
                 "reconfigurations " + a.span(f.first) + " and " + a.span(f.item) +
                     " overlap on the configuration port",
                 "the device has one configuration port; loads must serialize");
    case FindingKind::WrongModule: {
      const std::string& region = architecture.op(f.node).name;
      const std::string variant(s.variant(f.item));
      if (f.first == aaa::kNoItem)
        return add(Rule::WrongModuleLoaded, "resource " + region,
                   "region '" + region + "' computes variant '" + variant + "' and variant '" +
                       std::string(f.module) + "' with no reconfiguration between",
                   "insert a reconfiguration or fix the variant selection");
      return add(Rule::WrongModuleLoaded, "resource " + region,
                 "region '" + region + "' computes variant '" + variant + "' while module '" +
                     std::string(f.module) + "' is loaded",
                 "reconfigure the region to '" + variant + "' first");
    }
    case FindingKind::Unscheduled:
      return add(Rule::DependencyViolation, "operation " + g[f.node].name,
                 "operation '" + g[f.node].name + "' was never scheduled",
                 "every algorithm vertex must appear in the schedule");
    case FindingKind::Precedence:
      return add(Rule::DependencyViolation, "operation " + consumer,
                 "operation '" + consumer + "' starts at " + std::to_string(s.start(f.item)) +
                     " ns, before its input '" + producer + "' finishes at " +
                     std::to_string(s.end(f.first)) + " ns",
                 "");
    case FindingKind::MissingTransfer:
      return add(Rule::DependencyViolation, "operation " + consumer,
                 "dependency '" + producer + "' -> '" + consumer +
                     "' crosses operators with no transfer scheduled",
                 "route the buffer over a connecting medium");
    case FindingKind::WrongPayload:
      return add(Rule::DependencyViolation, "operation " + consumer,
                 strprintf("transfer %s carries %lld bytes, but dependency '%s' -> '%s' carries "
                           "%lld",
                           a.span(f.item).c_str(), static_cast<long long>(s.bytes(f.item)),
                           producer.c_str(), consumer.c_str(),
                           static_cast<long long>(g.edge(f.edge).bytes)),
                 "a transfer moves its dependency's whole buffer");
    case FindingKind::TransferWindow:
      return add(Rule::DependencyViolation, "operation " + consumer,
                 "transfer " + a.span(f.item) + " is not between producer '" + producer +
                     "' and consumer '" + consumer + "'",
                 "a transfer starts after its producer ends and ends before its consumer starts");
    default: return;  // verify's kinds
  }
}

}  // namespace

Report check_schedule(const aaa::Schedule& schedule, const aaa::AlgorithmGraph& algorithm,
                      const aaa::ArchitectureGraph& architecture,
                      const aaa::ConstraintSet* constraints) {
  Report report;
  const aaa::ScheduleAnalysis analysis(schedule, algorithm, architecture);
  for (const aaa::Finding& f : analysis.structural())
    report_finding(report, analysis, algorithm, architecture, f);
  if (constraints == nullptr) return report;

  // PDR044: mutually-exclusive modules resident at the same time in two
  // regions.
  if (!constraints->exclusions.empty()) {
    std::vector<std::pair<std::string_view, aaa::Residency>> residencies;
    for (const util::SymbolId r : analysis.resources())
      for (const aaa::Residency& stay : analysis.residencies(schedule.name(r), {}))
        residencies.emplace_back(schedule.name(r), stay);
    for (const auto& [a, b] : constraints->exclusions) {
      for (const auto& [region_a, ra] : residencies) {
        if (ra.module != a) continue;
        for (const auto& [region_b, rb] : residencies) {
          if (rb.module != b || region_a == region_b) continue;
          const TimeNs lo = std::max(ra.from, rb.from);
          const TimeNs hi = std::min(ra.to, rb.to);
          if (lo < hi)
            report.add(Rule::ExclusionOverlap, Severity::Error, "exclude " + a + " " + b,
                       strprintf("excluded modules '%s' (region %s) and '%s' (region %s) are "
                                 "both resident during [%lld..%lld ns]",
                                 a.c_str(), std::string(region_a).c_str(), b.c_str(),
                                 std::string(region_b).c_str(), static_cast<long long>(lo),
                                 static_cast<long long>(hi)),
                       "serialize their residency or drop the exclusion");
        }
      }
    }
  }

  // PDR048: a region with an SEU-exposure budget must be rewritten (by a
  // scheduled reconfiguration, which rewrites every frame and thus acts
  // as a scrub) at least once per budget interval over the whole
  // schedule. A longer gap leaves upsets unrepaired past the budget.
  for (const auto& rc : constraints->regions) {
    if (rc.seu_budget_ms < 0) continue;
    std::vector<TimeNs> rewrites;
    for (const aaa::Residency& stay : analysis.residencies(rc.name, {}))
      rewrites.push_back(stay.from);
    std::sort(rewrites.begin(), rewrites.end());
    // The longest stretch without a rewrite: before the first, between two
    // or after the last.
    TimeNs last = 0;
    TimeNs worst = 0;
    TimeNs worst_from = 0;
    const auto gap_to = [&](TimeNs t) {
      if (t - last > worst) {
        worst = t - last;
        worst_from = last;
      }
      last = std::max(last, t);
    };
    for (const TimeNs t : rewrites) gap_to(t);
    gap_to(std::max(schedule.makespan, last));
    if (worst > static_cast<TimeNs>(rc.seu_budget_ms) * 1'000'000)
      report.add(Rule::ScrubPeriodExceedsBudget, Severity::Warning, "region " + rc.name,
                 strprintf("region '%s' goes %.3f ms without a rewrite (starting at "
                           "%lld ns); its SEU-exposure budget is %d ms",
                           rc.name.c_str(), static_cast<double>(worst) / 1e6,
                           static_cast<long long>(worst_from), rc.seu_budget_ms),
                 "shorten the scrub period or schedule a reconfiguration inside the window");
  }

  return report;
}

}  // namespace pdr::lint
