// pdrbench harness: wall-clock spans around the calls into each pdrflow
// module, the workload interface, and the small statistics the report
// needs.
//
// The benchmark drives the libraries from outside: every span wraps one
// call into a module's public function, so the per-layer numbers come
// from the benchmark's own files and need no instrumentation inside the
// program.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/units.hpp"

namespace pdrbench {

using pdr::TimeNs;

/// Records named [start, end] wall-clock spans with their parent span and
/// iteration id, in memory. While disabled, every call is a no-op apart
/// from running the wrapped function.
class Spans {
 public:
  struct Record {
    std::string module;  ///< layer; exported on track "wall/<module>"
    std::string name;    ///< e.g. "aaa.adequation.run"
    TimeNs start = 0;    ///< ns since the recorder was created
    TimeNs end = 0;
    int parent = -1;     ///< index into records(), -1 for a root
    int iteration = -1;  ///< -1 for set-up spans
  };

  Spans();

  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_iteration(int iteration) { iteration_ = iteration; }

  /// Opens a span; close it with end(). Returns -1 while disabled.
  int begin(const char* module, const char* name);
  void end(int index);

  /// Runs `f` inside a span and returns its result.
  template <typename F>
  auto call(const char* module, const char* name, F&& f) {
    struct Closer {
      Spans& spans;
      int index;
      ~Closer() { spans.end(index); }
    } closer{*this, begin(module, name)};
    return f();
  }

  const std::vector<Record>& records() const { return records_; }

  /// Writes every span as Chrome trace JSON through pdr::obs::Tracer, on
  /// "wall/<module>" tracks, with id/parent/iteration args.
  void write_chrome_json(const std::string& path) const;

 private:
  TimeNs now() const;

  bool enabled_ = false;
  int iteration_ = -1;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

/// Per span name over the recorded iterations: calls, total time and self
/// time (total minus the part covered by child spans).
struct LayerRow {
  std::string name;
  std::string module;
  int calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};

/// Aggregates the spans of iterations >= 0, in first-seen order.
std::vector<LayerRow> layer_rows(const std::vector<Spans::Record>& records);

/// The calls, total, self and share-of-iteration-wall table.
std::string layer_table(const std::vector<LayerRow>& rows, double iteration_wall_ms);

/// Outputs of one iteration's checks.
struct CheckResult {
  std::string error;         ///< "" when every output check passed
  std::uint64_t digest = 0;  ///< hash of the simulated output
};

/// One benchmark workload. The harness calls setup() several times (each
/// call replaces the inputs and is timed as set-up), then iterate() in a
/// closed loop, checking every iteration's outputs outside the timed
/// region.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs from `seed`.
  virtual void setup(std::uint64_t seed, Spans& spans) = 0;
  /// One timed iteration: the calls a user of the tool waits on.
  virtual void iterate(Spans& spans) = 0;
  /// Checks the outputs of the last iteration (untimed).
  virtual CheckResult check() const = 0;

  /// Checked work units per iteration (the `attempted` increment).
  virtual int units_per_iteration() const { return 1; }
  /// Work the throughput metric counts per iteration.
  virtual double work_per_iteration() const = 0;
  /// The workload's headline simulated time, in ms.
  virtual double sim_ms() const = 0;
  /// Share of the work that met its goal.
  virtual double success_frac() const = 0;

  /// Per-layer counts of the last iteration, by metric name.
  virtual void counts(std::map<std::string, double>& out) const = 0;
  /// Lines naming the workload's own end-to-end figures for the report.
  virtual std::vector<std::string> summary(double iteration_s) const = 0;
};

/// "design", "codesign", "fleet" or "campaigns"; throws on other names.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// 64-bit FNV-1a, chained through `h`.
std::uint64_t fnv1a(const std::string& text, std::uint64_t h = 0xcbf29ce484222325ull);

double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> values, double q);

}  // namespace pdrbench
