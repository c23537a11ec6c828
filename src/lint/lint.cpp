#include "lint/lint.hpp"

#include <utility>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/macrocode.hpp"
#include "aaa/project_io.hpp"
#include "synth/flow.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::lint {

InputKind sniff_input(const std::string& text) {
  for (const std::string& line : split(text, '\n')) {
    std::string raw = line;
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.resize(hash);
    const std::vector<std::string> words = split_ws(raw);
    if (words.empty()) continue;
    const std::string& head = words.front();
    if (head == "project" || head == "algorithm" || head == "architecture" ||
        head == "durations")
      return InputKind::Project;
    return InputKind::Constraints;
  }
  return InputKind::Constraints;
}

Report check_constraints_text(const std::string& text) {
  aaa::ConstraintSet set;
  try {
    set = aaa::parse_constraints(text);
  } catch (const Error& e) {
    Report report;
    report.add(Rule::ParseError, Severity::Error, "constraints file",
               std::string("parse failed: ") + e.what(), "");
    return report;
  }

  Report report = check_constraints(set);
  if (report.errors() > 0) return report;  // the flow below would only re-throw

  // Run the Modular Design flow (no static modules: lint audits the
  // dynamic-region plan, not a full system) and check its output.
  try {
    synth::ModularDesignFlow flow(fabric::device_by_name(set.device));
    for (const auto& region : set.regions) {
      std::vector<synth::ModuleSpec> variants;
      for (const auto* m : set.modules_of(region.name))
        variants.push_back(synth::ModuleSpec{m->name, m->kind, m->params});
      flow.add_region(region.name, std::move(variants), region.margin, region.width);
    }
    report.merge(check_bundle(flow.run()));
  } catch (const Error& e) {
    report.add(Rule::ParseError, Severity::Error, "flow",
               std::string("Modular Design flow failed: ") + e.what(),
               "fix the constraints so every module elaborates and fits its region");
  }
  return report;
}

Report check_project_text(const std::string& text) {
  aaa::Project project;
  try {
    project = aaa::parse_project(text);
  } catch (const Error& e) {
    Report report;
    report.add(Rule::ParseError, Severity::Error, "project file",
               std::string("parse failed: ") + e.what(), "");
    return report;
  }

  Report report;
  try {
    const aaa::Adequation adequation(project.algorithm, project.architecture,
                                     project.durations);
    const aaa::Schedule schedule = adequation.run();
    report.merge(check_schedule(schedule, project.algorithm, project.architecture));
    const aaa::Executive executive =
        aaa::generate_executive(schedule, project.algorithm, project.architecture);
    report.merge(check_executive(executive));
  } catch (const Error& e) {
    report.add(Rule::ParseError, Severity::Error, "adequation",
               std::string("adequation failed: ") + e.what(),
               "every operation needs a feasible operator and a duration entry");
  }
  return report;
}

Report check_text(const std::string& text) {
  return sniff_input(text) == InputKind::Project ? check_project_text(text)
                                                 : check_constraints_text(text);
}

}  // namespace pdr::lint
