// The pdr::flow pipeline: the paper's top-down flow as an explicit stage
// graph over cached artifacts.
//
// Stages and their data flow (docs/pipeline.md has the full picture):
//
//   constraints_text ──> ParseConstraints ──> Lint ──> Synth ─┬─> FaultCampaign
//   project_text ──────> ParseProject ──> Adequation ──> Codegen
//
// Every stage is keyed in the ArtifactStore by a content fingerprint of
// its transitive inputs, so re-running a pipeline whose upstream inputs
// are unchanged (the same constraints file across a prefetch sweep, say)
// serves the cached schedule/bundle instead of recomputing it — and
// editing one input byte re-runs exactly the stages downstream of that
// input, nothing else.
//
// A Pipeline instance is cheap: it holds the input text and a shared
// ArtifactStore, and each accessor materialises (or fetches) one stage's
// artifact. Stage artifacts are immutable and shared; two pipelines with
// the same inputs and store alias the same artifacts.
//
// The Simulate stage (the seeded MC-CDMA transmitter run) lives in
// mccdma::flow_presets — it sits above this library in the dependency
// order. FaultCampaign is hosted here since pdr::fault is below flow.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/constraints.hpp"
#include "aaa/macrocode.hpp"
#include "aaa/project_io.hpp"
#include "fault/campaign.hpp"
#include "flow/artifact_store.hpp"
#include "lint/lint.hpp"
#include "obs/sinks.hpp"
#include "synth/flow.hpp"
#include "util/units.hpp"

namespace pdr::flow {

/// Stable stage names: ArtifactStore keys, flow.cache.* metric suffixes.
namespace stage {
inline constexpr const char* kParseConstraints = "parse_constraints";
inline constexpr const char* kLint = "lint";
inline constexpr const char* kSynth = "synth";
inline constexpr const char* kParseProject = "parse_project";
inline constexpr const char* kAdequation = "adequation";
inline constexpr const char* kCodegen = "codegen";
inline constexpr const char* kFaultCampaign = "fault_campaign";
}  // namespace stage

struct PipelineOptions {
  // --- constraints side (ParseConstraints -> Lint -> Synth) -------------
  std::string constraints_text;
  std::vector<synth::ModuleSpec> statics;

  // --- project side (ParseProject -> Adequation -> Codegen) -------------
  std::string project_text;
  /// Constant reconfiguration cost for the adequation…
  TimeNs reconfig_cost = aaa::kPaperReconfigCost;
  /// …or a callback overriding it (e.g. per-variant cost from the synth
  /// bundle). Callbacks are opaque to the cache: a non-empty
  /// `reconfig_cost_tag` naming the callback's identity is mandatory so
  /// two different cost models never alias one cache key.
  aaa::ReconfigCost reconfig_cost_fn;
  std::string reconfig_cost_tag;
  bool prefetch = true;
  /// Modules assumed resident per region at t=0.
  std::map<std::string, std::string> preloaded;
  /// Apply the constraints' region pinnings/exclusions to the adequation
  /// (requires constraints_text).
  bool apply_constraints = false;

  /// Lint gate: refuse (throw pdr::Error carrying the report) to run
  /// Synth/Adequation when the input fails the design-rule check.
  bool lint_gate = true;
};

/// Adequation-stage artifact: schedule + synchronized executive + the
/// (non-blocking) diagnostics the schedule/executive rule families found.
struct AdequationArtifacts {
  aaa::Schedule schedule;
  aaa::Executive executive;
  lint::Report report;
};

/// Codegen-stage artifact: filename -> generated source.
struct CodegenArtifacts {
  std::map<std::string, std::string> files;
};

/// FaultCampaign-stage inputs beyond the spec text; all of them key the
/// cache. The manager runs rtr::sundance_manager_config().
struct FaultCampaignOptions {
  std::uint64_t seed = 0;  ///< 0 = the spec's own seed
  bool recovery = true;
  TimeNs scrub_period = 10'000'000;
  fault::ScrubScheduler::Mode scrub_mode = fault::ScrubScheduler::Mode::Blind;
  TimeNs demand_period = 5'000'000;
  Bytes cache_capacity = 0;  ///< on-chip bitstream cache (0 = off)
  double store_bandwidth = 16.7e6;  ///< external bitstream memory model
  TimeNs store_latency = 10'000;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineOptions options,
                    std::shared_ptr<ArtifactStore> store = default_store());

  /// Stages that run record their spans/counters through `sinks`; cache
  /// hits emit an instant event instead. Every stage call also counts
  /// into "flow.cache.<stage>.runs" or ".hits": this pipeline's own
  /// calls, whatever other pipelines share the store.
  void set_sinks(obs::Sinks sinks) { sinks_ = sinks; }

  // --- constraints side -------------------------------------------------
  std::shared_ptr<const aaa::ConstraintSet> constraints();
  /// Constraint-rule diagnostics (always computed, never throws).
  std::shared_ptr<const lint::Report> lint_report();
  /// The Modular Design flow output. Throws when the lint gate rejects.
  std::shared_ptr<const synth::DesignBundle> bundle();

  // --- project side -----------------------------------------------------
  std::shared_ptr<const aaa::Project> project();
  std::shared_ptr<const AdequationArtifacts> adequation();
  std::shared_ptr<const CodegenArtifacts> codegen();

  // --- fault campaign ---------------------------------------------------
  /// Seeded campaign on bundle(); cached by (bundle, spec, options), so
  /// repeating a seed in a sweep is a cache hit.
  std::shared_ptr<const fault::CampaignReport> fault_campaign(const std::string& spec_text,
                                                              const FaultCampaignOptions& opts);

  const PipelineOptions& options() const { return options_; }
  ArtifactStore& store() { return *store_; }
  std::shared_ptr<ArtifactStore> store_ptr() const { return store_; }

 private:
  Fingerprint constraints_key() const;
  Fingerprint synth_key() const;
  Fingerprint project_key() const;
  Fingerprint adequation_key() const;

  /// store_->get_or_build plus the stage's flow.cache.* count and, on a
  /// hit, its "(cached)" instant. Whether this call ran the builder comes
  /// from the builder itself, never from the shared store's counters.
  template <typename T, typename Build>
  std::shared_ptr<const T> cached(const char* stage, const Fingerprint& key, Build&& build);

  PipelineOptions options_;
  std::shared_ptr<ArtifactStore> store_;
  obs::Sinks sinks_;
};

/// Fingerprint helper shared with presets: mixes a ModuleSpec list.
Fingerprint fingerprint_statics(const std::vector<synth::ModuleSpec>& statics);

}  // namespace pdr::flow
