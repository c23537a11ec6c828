#include "lint/constraint_rules.hpp"

#include <set>
#include <string>
#include <utility>

#include "fabric/device.hpp"
#include "fabric/floorplan.hpp"
#include "lint/diagnostic.hpp"
#include "synth/elaborate.hpp"
#include "util/error.hpp"

namespace pdr::lint {

Report check_constraints(const aaa::ConstraintSet& set) {
  using aaa::LoadPolicy;
  using aaa::UnloadPolicy;

  Report report;
  try {
    (void)fabric::device_by_name(set.device);
  } catch (const Error&) {
    report.add(Rule::UnknownDevice, Severity::Error, "device " + set.device,
               "unknown device '" + set.device + "'",
               "supported devices: XC2V1000, XC2V2000, XC2V3000, XC2V6000");
  }

  std::set<std::string> region_names;
  for (const auto& r : set.regions) {
    if (!region_names.insert(r.name).second)
      report.add(Rule::DuplicateRegion, Severity::Error, "region " + r.name,
                 "duplicate region '" + r.name + "'", "rename or remove one declaration");
    if (!(r.width == -1 || r.width >= 1))
      report.add(Rule::InvalidRegionWidth, Severity::Error, "region " + r.name,
                 "region '" + r.name + "' has invalid width " + std::to_string(r.width),
                 "use 'auto' or a positive CLB column count");
    // Widths authored in slice-columns (`width Nsc`) are checked in the
    // authored unit: the parser rounds them up to whole CLB columns, so
    // without this check a 3-slice-column spec would silently become a
    // legal 2-CLB-column (4-slice) region — or, before the rounding fix,
    // half the intended width.
    if (r.width_slice_cols >= 0 && r.width_slice_cols < fabric::kMinReconfigSliceCols)
      report.add(Rule::RegionTooNarrow, Severity::Error, "region " + r.name,
                 "region '" + r.name + "' is declared " + std::to_string(r.width_slice_cols) +
                     " slice-columns wide; the Modular Design minimum is " +
                     std::to_string(fabric::kMinReconfigSliceCols) + " slice-columns (" +
                     std::to_string(fabric::kMinReconfigClbCols) + " CLB columns)",
                 "widen the region to at least " + std::to_string(fabric::kMinReconfigSliceCols) +
                     " slice-columns");
    else if (r.width_slice_cols >= 0 && r.width_slice_cols % fabric::kSliceColsPerClbCol != 0)
      report.add(Rule::InvalidRegionWidth, Severity::Error, "region " + r.name,
                 "region '" + r.name + "' is declared " + std::to_string(r.width_slice_cols) +
                     " slice-columns wide, which is not a whole number of CLB columns",
                 "Virtex-II regions sit on CLB-column boundaries (1 CLB column = " +
                     std::to_string(fabric::kSliceColsPerClbCol) + " slice-columns)");
    // A width authored in CLB columns below the minimum was previously
    // widened silently by the flow; flag it here instead.
    if (r.width_slice_cols < 0 && r.width >= 1 && r.width < fabric::kMinReconfigClbCols)
      report.add(Rule::RegionTooNarrow, Severity::Error, "region " + r.name,
                 "region '" + r.name + "' is declared " + std::to_string(r.width) +
                     " CLB column(s) wide; the Modular Design minimum is " +
                     std::to_string(fabric::kMinReconfigClbCols) + " CLB columns (" +
                     std::to_string(fabric::kMinReconfigSliceCols) + " slice-columns)",
                 "widen the region to at least " + std::to_string(fabric::kMinReconfigClbCols) +
                     " CLB columns");
    if (r.margin < 0)
      report.add(Rule::NegativeRegionMargin, Severity::Error, "region " + r.name,
                 "region '" + r.name + "' has negative margin " + std::to_string(r.margin),
                 "margins add spare columns and must be >= 0");
  }

  const auto known_kind = [](const std::string& kind) {
    for (const std::string& k : synth::known_operator_kinds())
      if (k == kind) return true;
    return false;
  };

  std::set<std::string> module_names;
  for (const auto& m : set.modules) {
    if (!module_names.insert(m.name).second)
      report.add(Rule::DuplicateModule, Severity::Error, "module " + m.name,
                 "duplicate dynamic module '" + m.name + "'", "rename or remove one declaration");
    if (region_names.count(m.region) == 0)
      report.add(Rule::UndeclaredRegion, Severity::Error, "module " + m.name,
                 "module '" + m.name + "' names undeclared region '" + m.region + "'",
                 "declare 'region " + m.region + " { ... }' or fix the name");
    if (m.kind.empty())
      report.add(Rule::MissingModuleKind, Severity::Error, "module " + m.name,
                 "module '" + m.name + "' has no kind", "add 'kind <operator-kind>'");
    else if (!known_kind(m.kind))
      report.add(Rule::UnknownOperatorKind, Severity::Warning, "module " + m.name,
                 "module '" + m.name + "' has kind '" + m.kind + "' the elaborator cannot build",
                 "see synth::known_operator_kinds() for the supported kinds");
    if (m.load == LoadPolicy::Startup && m.unload == UnloadPolicy::Eager)
      report.add(Rule::ContradictoryPolicy, Severity::Warning, "module " + m.name,
                 "module '" + m.name + "' is loaded at startup but unloaded eagerly",
                 "a startup-resident module with eager unload is evicted after first use; "
                 "use 'unload lazy' or 'load on_demand'");
  }

  for (const auto& r : set.regions)
    if (set.modules_of(r.name).empty())
      report.add(Rule::EmptyRegion, Severity::Error, "region " + r.name,
                 "region '" + r.name + "' has no dynamic modules",
                 "declare at least one 'dynamic <name> { region " + r.name + " ... }'");

  std::set<std::pair<std::string, std::string>> seen_exclusions;
  for (const auto& [a, b] : set.exclusions) {
    const bool known = module_names.count(a) != 0 && module_names.count(b) != 0;
    if (!known)
      report.add(Rule::ExclusionUnknownModule, Severity::Error, "exclude " + a + " " + b,
                 "exclusion names unknown module ('" + a + "', '" + b + "')",
                 "exclusions may only name declared dynamic modules");
    if (a == b) {
      report.add(Rule::SelfExclusion, Severity::Error, "exclude " + a + " " + b,
                 "module '" + a + "' excluded with itself", "remove the self-exclusion");
      continue;
    }
    const auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    if (!seen_exclusions.insert(key).second)
      report.add(Rule::DuplicateExclusion, Severity::Warning, "exclude " + a + " " + b,
                 "exclusion ('" + a + "', '" + b + "') declared more than once",
                 "exclusions are symmetric; keep a single declaration");
  }

  std::set<std::pair<std::string, std::string>> seen_relations;
  for (const auto& [a, b] : set.relations) {
    if (module_names.count(a) == 0 || module_names.count(b) == 0)
      report.add(Rule::RelationUnknownModule, Severity::Error, "relation " + a + " then " + b,
                 "relation names unknown module ('" + a + "', '" + b + "')",
                 "relations may only name declared dynamic modules");
    if (a == b)
      report.add(Rule::SelfRelation, Severity::Warning, "relation " + a + " then " + b,
                 "relation from module '" + a + "' to itself",
                 "a module never follows itself; remove the relation");
    else if (!seen_relations.insert({a, b}).second)
      report.add(Rule::DuplicateRelation, Severity::Warning, "relation " + a + " then " + b,
                 "relation ('" + a + "' then '" + b + "') declared more than once",
                 "keep a single declaration");
  }
  return report;
}

void validate_constraints(const aaa::ConstraintSet& set) {
  const Report report = check_constraints(set);
  std::string violations;
  std::size_t count = 0;
  for (const Diagnostic& d : report.diagnostics()) {
    if (d.severity != Severity::Error) continue;
    if (count > 0) violations += "\n  ";
    violations += std::string(rule_id(d.rule)) + ": " + d.message;
    ++count;
  }
  if (count == 1) raise("ConstraintSet", violations);
  if (count > 1)
    raise("ConstraintSet",
          std::to_string(count) + " constraint violations:\n  " + violations);
}

}  // namespace pdr::lint
