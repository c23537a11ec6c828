// The canonical BENCH_*.json schema and its emitter.
//
// Perf only counts when it is tracked: every suite in `bench_suite` emits
// one BENCH_<suite>.json so CI can archive per-commit numbers and a later
// PR's regression is a diff, not an anecdote. Schema (version 1):
//
//   {
//     "schema_version": 1,
//     "suite": "adequation",
//     "git_sha": "abc123def456",          // "unknown" outside a git repo
//     "smoke": false,
//     "records": [
//       {
//         "name": "adequation/layered/10000/w20/f2",
//         "config": {"shape": "layered", "n_ops": "10000", ...},
//         "repeats": 3,
//         "warmup": {"runs": 1, "ms": 12.5},   // cold runs, reported
//                                              // separately — never folded
//                                              // into the sample stats
//         "wall_ms": {"count": 3, "mean": ..., "stddev": ...,
//                     "min": ..., "max": ...},
//         "extra": {"ops_per_sec": ...}        // derived scalars
//       }
//     ]
//   }
//
// An empty accumulator emits only {"count": 0} — mean/stddev/min/max are
// count-gated so a zero-sample record can never masquerade as a measured
// 0.0 (see util/stats.hpp). stddev is additionally gated on count >= 2.
// All numbers are finite by construction; the CI validator
// (tools/check_bench_json.py) re-checks key presence and finiteness.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace pdr::bench {

/// One benchmark measurement: a named config, cold warm-up runs, and the
/// Welford-accumulated warm samples.
struct BenchRecord {
  std::string name;
  /// Ordered key/value config pairs, serialized as the "config" object.
  std::vector<std::pair<std::string, std::string>> config;
  int repeats = 0;       ///< warm repeats requested
  int warmup_runs = 0;   ///< cold runs executed before sampling
  double warmup_ms = 0;  ///< total wall-clock of the warm-up runs
  Stats wall_ms;         ///< warm samples only
  /// Derived scalar metrics (ops_per_sec, points_per_sec, speedup, ...).
  std::vector<std::pair<std::string, double>> extra;
};

/// Runs `fn` `warmup_runs` times untimed-into-warmup, then `repeats`
/// timed repetitions, and returns the filled record.
BenchRecord measure(std::string name, int warmup_runs, int repeats,
                    const std::function<void()>& fn);

/// Commit of the source tree the binary was built from, short form, via
/// `git -C <source dir> rev-parse`, whatever the current directory;
/// "unknown" when that tree is not a git checkout (or git is unavailable).
std::string git_sha();

/// Serializes one suite document (schema above). Deterministic field
/// order, '.'-decimal doubles, LF line endings.
std::string bench_json(const std::string& suite, bool smoke,
                       const std::vector<BenchRecord>& records);

/// Writes bench_json() to `path` and logs one line.
void write_bench_json(const std::string& path, const std::string& suite, bool smoke,
                      const std::vector<BenchRecord>& records);

/// Human-readable companion table: name, repeats, mean/min/max, extras.
std::string bench_table(const std::vector<BenchRecord>& records);

}  // namespace pdr::bench
