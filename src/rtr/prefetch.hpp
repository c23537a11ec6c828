// Configuration prefetch policies.
//
// "The run-time reconfiguration manager ... uses prefetching technic to
// minimize reconfiguration latency of runtime reconfiguration."
// (abstract). Three policies are provided and benchmarked:
//
//  - NonePrefetch: on-demand loading only (the baseline).
//  - ScheduleLookahead: the adequation schedule (or any known request
//    sequence) tells the manager which module each region needs next;
//    prefetch it the moment the port and region are free.
//  - HistoryPredictor: first-order Markov predictor over the observed
//    module sequence per region, optionally seeded by the constraints
//    file's `relation a then b` hints.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aaa/constraints.hpp"
#include "obs/sinks.hpp"

namespace pdr::rtr {

class PrefetchPolicy {
 public:
  virtual ~PrefetchPolicy() = default;

  /// Module to speculatively load into `region` after `current` finished
  /// being the active module; nullopt = do not prefetch.
  virtual std::optional<std::string> predict(const std::string& region,
                                             const std::string& current) = 0;

  /// Observes an actual (demanded) module activation.
  virtual void observe(const std::string& region, const std::string& module) = 0;

  virtual const char* name() const = 0;

  /// Mirrors observation/prediction counts into `sinks` under
  /// "rtr.prefetch.".
  void set_sinks(obs::Sinks sinks) { sinks_ = sinks; }

 protected:
  /// Increments "rtr.prefetch.<event>".
  void count_event(const char* event) const { sinks_.count({"rtr.prefetch.", event}); }

 private:
  obs::Sinks sinks_;
};

/// Baseline: never prefetch.
class NonePrefetch final : public PrefetchPolicy {
 public:
  std::optional<std::string> predict(const std::string&, const std::string&) override {
    return std::nullopt;
  }
  void observe(const std::string&, const std::string&) override {}
  const char* name() const override { return "none"; }
};

/// Follows a known future request sequence per region (fed by the static
/// schedule or by the application driver).
class ScheduleLookahead final : public PrefetchPolicy {
 public:
  /// Appends the known upcoming demands of a region, in order.
  void feed(const std::string& region, const std::vector<std::string>& upcoming);

  std::optional<std::string> predict(const std::string& region, const std::string& current) override;
  void observe(const std::string& region, const std::string& module) override;
  const char* name() const override { return "schedule"; }

  std::size_t pending(const std::string& region) const;

 private:
  std::map<std::string, std::vector<std::string>> queue_;
  std::map<std::string, std::size_t> head_;
};

/// First-order Markov predictor: counts module -> next-module transitions
/// per region; predicts the argmax successor of the current module.
class HistoryPredictor final : public PrefetchPolicy {
 public:
  HistoryPredictor() = default;

  /// Seeds transition counts from `relation a then b` constraint hints.
  explicit HistoryPredictor(const aaa::ConstraintSet& constraints);

  std::optional<std::string> predict(const std::string& region, const std::string& current) override;
  void observe(const std::string& region, const std::string& module) override;
  const char* name() const override { return "history"; }

  int transition_count(const std::string& from, const std::string& to) const;

 private:
  std::map<std::string, std::string> last_;                    ///< region -> last module
  std::map<std::pair<std::string, std::string>, int> counts_;  ///< (from, to) -> count
};

/// Factory from the constraints file's `prefetch` directive.
std::unique_ptr<PrefetchPolicy> make_prefetch_policy(const aaa::ConstraintSet& constraints);

}  // namespace pdr::rtr
