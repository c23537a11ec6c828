#include "aaa/adequation.hpp"

#include "aaa/schedule_analysis.hpp"
#include "aaa/scheduler.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::aaa {

const char* mapping_strategy_name(MappingStrategy strategy) {
  switch (strategy) {
    case MappingStrategy::SynDExList: return "syndex_list";
    case MappingStrategy::RoundRobin: return "round_robin";
    case MappingStrategy::FirstFeasible: return "first_feasible";
  }
  return "?";
}

void validate_schedule(const Schedule& schedule, const AlgorithmGraph& algorithm,
                       const ArchitectureGraph& architecture) {
  validate_schedule(ScheduleAnalysis(schedule, algorithm, architecture));
}

void validate_schedule(const ScheduleAnalysis& analysis) {
  const std::vector<Finding> findings = analysis.structural();
  if (findings.empty()) return;
  const Schedule& schedule = analysis.schedule();
  const AlgorithmGraph& algorithm = analysis.algorithm();
  const ArchitectureGraph& architecture = analysis.architecture();
  const Finding& f = findings.front();
  const auto& g = algorithm.digraph();
  const std::string item = f.item == kNoItem ? "" : schedule.label(f.item);
  const char* producer = f.edge == graph::kNoEdge ? "" : g[g.edge_from(f.edge)].name.c_str();
  const char* consumer = f.edge == graph::kNoEdge ? "" : g[g.edge_to(f.edge)].name.c_str();
  std::string message;
  switch (f.kind) {
    case FindingKind::NegativeDuration:
      message = strprintf("item '%s' ends before it starts", item.c_str());
      break;
    case FindingKind::Overlap:
      message = strprintf("items '%s' and '%s' overlap on resource '%s'",
                          schedule.label(f.first).c_str(), item.c_str(),
                          std::string(schedule.resource(f.item)).c_str());
      break;
    case FindingKind::Unscheduled: message = "an operation was never scheduled"; break;
    case FindingKind::Precedence:
      message = strprintf("operation '%s' starts before its input '%s' finishes", consumer, producer);
      break;
    case FindingKind::MissingTransfer:
      message = strprintf("missing transfer for dependency '%s' -> '%s'", producer, consumer);
      break;
    case FindingKind::WrongPayload:
      message = strprintf("transfer '%s' carries the wrong payload for its edge", item.c_str());
      break;
    case FindingKind::TransferWindow:
      message = strprintf("transfer '%s' not between producer and consumer", item.c_str());
      break;
    case FindingKind::WrongModule: {
      const char* region = architecture.op(f.node).name.c_str();
      message = f.first == kNoItem
                    ? strprintf("region '%s' computes two variants with no reconfiguration between",
                                region)
                    : strprintf("region '%s' computes variant '%s' while module '%s' is loaded",
                                region, std::string(schedule.variant(f.item)).c_str(),
                                std::string(f.module).c_str());
      break;
    }
    case FindingKind::PortOverlap:
      message = "two reconfigurations overlap on the configuration port";
      break;
    default: break;  // not structural
  }
  raise("validate_schedule", message);
}

Adequation::Adequation(const AlgorithmGraph& algorithm, const ArchitectureGraph& architecture,
                       const DurationTable& durations)
    : algorithm_(algorithm), architecture_(architecture), durations_(durations) {
  algorithm_.validate();
  architecture_.validate();
  problem_ = std::make_shared<const Problem>(algorithm_, architecture_, durations_);
  pinned_.assign(problem_->algo_cap, graph::kNoNode);
}

void Adequation::pin(const std::string& op_name, const std::string& operator_name) {
  const NodeId w = architecture_.by_name(operator_name);  // by_name throws on unknown names
  PDR_CHECK(architecture_.is_operator(w), "Adequation::pin",
            strprintf("'%s' is a medium, not an operator", operator_name.c_str()));
  pinned_[algorithm_.by_name(op_name)] = w;
}

void Adequation::apply_constraints(const ConstraintSet& constraints) {
  const auto& g = algorithm_.digraph();
  for (graph::NodeId n : g.node_ids()) {
    const Operation& op = g[n];
    if (!op.conditioned()) continue;
    std::string region;
    for (const auto& alt : op.alternatives) {
      const ModuleConstraint* m = constraints.find_module(alt.name);
      if (m == nullptr) continue;
      PDR_CHECK(region.empty() || region == m->region, "Adequation::apply_constraints",
                "alternatives of '" + op.name + "' are declared in two regions");
      region = m->region;
    }
    if (region.empty()) continue;
    // Pin to the architecture operator representing that region.
    for (NodeId w : architecture_.operators_of_kind(OperatorKind::FpgaRegion)) {
      if (architecture_.op(w).region == region) {
        pinned_[n] = w;
        break;
      }
    }
  }
}

Schedule Adequation::run(const AdequationOptions& options) const {
  Scheduler scheduler(*this, options);
  scheduler.place_ready_set();
  return scheduler.finish();
}

}  // namespace pdr::aaa
