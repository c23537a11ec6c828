// Stable design-rule identifiers for pdr::lint.
//
// Every static check the linter performs carries one of these codes;
// codes are append-only and never renumbered so that suppression lists,
// CI baselines and docs/lint_rules.md stay valid across releases.
//
// Families (mirrors the paper's artifacts):
//   PDR000           internal / parse failures
//   PDR001..PDR019   constraints file (§4: loading, unloading, area
//                    sharing, dynamic relations, exclusion)
//   PDR020..PDR039   floorplan / Modular Design placement rules (§5)
//   PDR040..PDR059   schedule / reconfiguration hazards (§3, §6)
//   PDR060..PDR079   synchronized executive (§3 macro-code)
//   PDR100..PDR119   pdr::verify interval analysis (static race
//                    certification over per-resource timelines)
//   PDR120..PDR139   fleet service request logs (pdr::svc; rules
//                    implemented in src/svc/service_rules.cpp so lint
//                    stays dependency-free)
#pragma once

#include <cstdint>

namespace pdr::lint {

enum class Severity : std::uint8_t { Info, Warning, Error };

inline const char* severity_name(Severity s) {
  switch (s) {
    case Severity::Info: return "info";
    case Severity::Warning: return "warning";
    case Severity::Error: return "error";
  }
  return "?";
}

enum class Rule : std::uint16_t {
  // Internal.
  ParseError = 0,  ///< the input does not parse / the flow aborted

  // Constraints family.
  DuplicateRegion = 1,        ///< two `region` blocks share a name
  InvalidRegionWidth = 2,     ///< width is neither 'auto' nor >= 1
  NegativeRegionMargin = 3,   ///< margin < 0
  DuplicateModule = 4,        ///< two `dynamic` blocks share a name
  UndeclaredRegion = 5,       ///< module names a region never declared
  MissingModuleKind = 6,      ///< module has no `kind`
  EmptyRegion = 7,            ///< region declares no dynamic modules
  ExclusionUnknownModule = 8, ///< `exclude` names an undeclared module
  SelfExclusion = 9,          ///< `exclude m m`
  DuplicateExclusion = 10,    ///< same pair excluded twice (either order)
  // PDR011 retired before release: same-region exclusion is the paper's
  // canonical area-sharing idiom (case study §6), not a defect.
  RelationUnknownModule = 12, ///< `relation` names an undeclared module
  SelfRelation = 13,          ///< `relation m then m`
  DuplicateRelation = 14,     ///< same ordered relation declared twice
  ContradictoryPolicy = 15,   ///< load startup + unload eager
  UnknownDevice = 16,         ///< device name not in the device library
  UnknownOperatorKind = 17,   ///< module kind the elaborator cannot build

  // Floorplan family.
  RegionOverlap = 20,         ///< two regions share CLB columns
  RegionTooNarrow = 21,       ///< reconfigurable region under the 4-slice rule
  RegionOutOfBounds = 22,     ///< region columns outside the device array
  BusMacroOffBoundary = 23,   ///< bus macro not on a static/dynamic boundary
  VariantOverflow = 24,       ///< dynamic variant exceeds region capacity
  StaticOverflow = 25,        ///< static modules exceed remaining device area

  // Schedule family.
  ResourceOverlap = 40,       ///< two items overlap on one resource
  DependencyViolation = 41,   ///< consumer starts before producer ends
  WrongModuleLoaded = 42,     ///< compute runs a variant its region never loaded
  ComputeDuringReconfig = 43, ///< operation starts mid-reconfiguration
  ExclusionOverlap = 44,      ///< excluded modules resident simultaneously
  PrefetchIntoBusyRegion = 45,///< reconfiguration starts while region computes
  PortOverlap = 46,           ///< two reconfigurations share the config port
  NegativeDuration = 47,      ///< item ends before it starts
  ScrubPeriodExceedsBudget = 48, ///< region unscrubbed longer than its SEU budget

  // Executive family.
  SendWithoutRecv = 60,       ///< no matching recv on the same medium
  RecvWithoutSend = 61,       ///< no matching send on the same medium
  OrphanMove = 62,            ///< medium carries a buffer no operator touches
  SyncCycle = 63,             ///< cross-program synchronization deadlock
  RecvBeforeSend = 64,        ///< buffer read before it is written
  BufferOverwrite = 65,       ///< buffer re-sent before the previous value is read

  // Verify family (pdr::verify interval analysis). Each diagnostic
  // carries a witness: the two scheduled items, the shared resource and
  // the overlapping [start..end) intervals.
  ReconfigDuringExecute = 100, ///< region frames rewritten while an op executes
  ExecuteDuringReconfig = 101, ///< op starts while its region is being rewritten
  UseBeforeConfigure = 102,    ///< variant executed with no prior load at all
  StaleModuleExecution = 103,  ///< a different module is resident at op start
  MediumTransferOverlap = 104, ///< two transfers overlap on an exclusive medium
  PortDoubleBooking = 105,     ///< two loads overlap on the ICAP/SelectMAP port
  DataCrossesReconfig = 106,   ///< producer->consumer data spans a region rewrite
  OperatorOverlap = 107,       ///< two computations overlap on one operator
  ForeignModuleLoad = 108,     ///< region loads a module declared for another region

  // Service family (request logs drained by pdr::svc).
  UnknownServiceRegion = 120,   ///< request names a region the design lacks
  UnknownServiceModule = 121,   ///< request names a module its region lacks
  ServiceDeadlineTooTight = 122,///< deadline under the best-case (staged) load latency
  ServicePriorityInversion = 123,///< maintenance outranks same-region demand traffic
  ServiceDeviceOutOfRange = 124,///< request pins a device outside the declared fleet
};

/// "PDR042"-style stable identifier.
inline const char* rule_id(Rule rule) {
  switch (rule) {
    case Rule::ParseError: return "PDR000";
    case Rule::DuplicateRegion: return "PDR001";
    case Rule::InvalidRegionWidth: return "PDR002";
    case Rule::NegativeRegionMargin: return "PDR003";
    case Rule::DuplicateModule: return "PDR004";
    case Rule::UndeclaredRegion: return "PDR005";
    case Rule::MissingModuleKind: return "PDR006";
    case Rule::EmptyRegion: return "PDR007";
    case Rule::ExclusionUnknownModule: return "PDR008";
    case Rule::SelfExclusion: return "PDR009";
    case Rule::DuplicateExclusion: return "PDR010";
    case Rule::RelationUnknownModule: return "PDR012";
    case Rule::SelfRelation: return "PDR013";
    case Rule::DuplicateRelation: return "PDR014";
    case Rule::ContradictoryPolicy: return "PDR015";
    case Rule::UnknownDevice: return "PDR016";
    case Rule::UnknownOperatorKind: return "PDR017";
    case Rule::RegionOverlap: return "PDR020";
    case Rule::RegionTooNarrow: return "PDR021";
    case Rule::RegionOutOfBounds: return "PDR022";
    case Rule::BusMacroOffBoundary: return "PDR023";
    case Rule::VariantOverflow: return "PDR024";
    case Rule::StaticOverflow: return "PDR025";
    case Rule::ResourceOverlap: return "PDR040";
    case Rule::DependencyViolation: return "PDR041";
    case Rule::WrongModuleLoaded: return "PDR042";
    case Rule::ComputeDuringReconfig: return "PDR043";
    case Rule::ExclusionOverlap: return "PDR044";
    case Rule::PrefetchIntoBusyRegion: return "PDR045";
    case Rule::PortOverlap: return "PDR046";
    case Rule::NegativeDuration: return "PDR047";
    case Rule::ScrubPeriodExceedsBudget: return "PDR048";
    case Rule::SendWithoutRecv: return "PDR060";
    case Rule::RecvWithoutSend: return "PDR061";
    case Rule::OrphanMove: return "PDR062";
    case Rule::SyncCycle: return "PDR063";
    case Rule::RecvBeforeSend: return "PDR064";
    case Rule::BufferOverwrite: return "PDR065";
    case Rule::ReconfigDuringExecute: return "PDR100";
    case Rule::ExecuteDuringReconfig: return "PDR101";
    case Rule::UseBeforeConfigure: return "PDR102";
    case Rule::StaleModuleExecution: return "PDR103";
    case Rule::MediumTransferOverlap: return "PDR104";
    case Rule::PortDoubleBooking: return "PDR105";
    case Rule::DataCrossesReconfig: return "PDR106";
    case Rule::OperatorOverlap: return "PDR107";
    case Rule::ForeignModuleLoad: return "PDR108";
    case Rule::UnknownServiceRegion: return "PDR120";
    case Rule::UnknownServiceModule: return "PDR121";
    case Rule::ServiceDeadlineTooTight: return "PDR122";
    case Rule::ServicePriorityInversion: return "PDR123";
    case Rule::ServiceDeviceOutOfRange: return "PDR124";
  }
  return "PDR???";
}

}  // namespace pdr::lint
