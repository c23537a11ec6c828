#include "flow/scenario.hpp"

#include <chrono>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace pdr::flow {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

std::string SweepResult::combined_report() const {
  std::string out;
  for (const ScenarioResult& r : results) {
    out += "=== " + r.name + " ===\n";
    out += r.ok() ? r.report : "ERROR: " + r.error + "\n";
  }
  return out;
}

std::size_t SweepResult::failures() const {
  std::size_t n = 0;
  for (const ScenarioResult& r : results)
    if (!r.ok()) ++n;
  return n;
}

ScenarioRunner::ScenarioRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

SweepResult ScenarioRunner::run(const std::vector<Scenario>& scenarios) const {
  const auto sweep_start = std::chrono::steady_clock::now();
  const std::size_t n = scenarios.size();

  // Per-scenario isolation: each worker touches only index-owned slots.
  std::vector<obs::Recorder> recorders(n);
  std::vector<ScenarioResult> results(n);
  for (std::size_t i = 0; i < n; ++i) results[i].name = scenarios[i].name;

  const auto run_one = [&](std::size_t i) {
    PDR_CHECK(scenarios[i].body != nullptr, "ScenarioRunner", "scenario without a body");
    const auto start = std::chrono::steady_clock::now();
    try {
      results[i].report = scenarios[i].body(obs::Sinks(recorders[i]));
    } catch (const std::exception& e) {
      results[i].error = e.what();
    } catch (...) {
      results[i].error = "unknown exception";
    }
    results[i].wall_ms = elapsed_ms(start);
  };
  util::parallel_for(jobs_, n, run_one);

  // Deterministic merge: strictly scenario-list order, after the barrier.
  SweepResult sweep;
  sweep.results = std::move(results);
  for (std::size_t i = 0; i < n; ++i) sweep.recorder.merge(recorders[i], scenarios[i].name + "/");
  sweep.wall_ms = elapsed_ms(sweep_start);
  return sweep;
}

}  // namespace pdr::flow
