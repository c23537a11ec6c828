#include "bench/report.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace pdr::bench {

namespace {

double elapsed_ms(std::chrono::steady_clock::time_point from) {
  const auto d = std::chrono::steady_clock::now() - from;
  return std::chrono::duration<double, std::milli>(d).count();
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON number: finite, '.'-decimal, round-trippable double precision.
std::string json_number(double v) {
  PDR_CHECK(std::isfinite(v), "bench_json", "non-finite number in benchmark record");
  std::string s = strprintf("%.17g", v);
  // %g never emits locale decimal commas here because we format with the C
  // locale snprintf; keep integers recognizable as numbers ("3" is valid JSON).
  return s;
}

void append_stats(std::string& out, const Stats& s) {
  out += "{\"count\": " + std::to_string(s.count());
  // Count-gated: an empty accumulator must not serialize a fake 0.0 sample.
  if (const auto mean = s.opt_mean()) out += ", \"mean\": " + json_number(*mean);
  if (const auto sd = s.opt_stddev()) out += ", \"stddev\": " + json_number(*sd);
  if (const auto mn = s.opt_min()) out += ", \"min\": " + json_number(*mn);
  if (const auto mx = s.opt_max()) out += ", \"max\": " + json_number(*mx);
  out += "}";
}

}  // namespace

BenchRecord measure(std::string name, int warmup_runs, int repeats,
                    const std::function<void()>& fn) {
  BenchRecord rec;
  rec.name = std::move(name);
  rec.repeats = repeats;
  rec.warmup_runs = warmup_runs;
  const auto warm_start = std::chrono::steady_clock::now();
  for (int i = 0; i < warmup_runs; ++i) fn();
  rec.warmup_ms = warmup_runs > 0 ? elapsed_ms(warm_start) : 0.0;
  for (int i = 0; i < repeats; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    rec.wall_ms.add(elapsed_ms(start));
  }
  return rec;
}

std::string git_sha() {
  // Ask the source tree the binary was built from, not the current
  // directory: the suite is often run from a scratch output directory.
  FILE* pipe = ::popen("git -C '" PDR_SOURCE_DIR "' rev-parse --short=12 HEAD 2>/dev/null", "r");
  if (pipe == nullptr) return "unknown";
  char buf[64] = {};
  std::string out;
  while (std::fgets(buf, sizeof(buf), pipe) != nullptr) out += buf;
  const int status = ::pclose(pipe);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  if (status != 0 || out.empty()) return "unknown";
  return out;
}

std::string bench_json(const std::string& suite, bool smoke,
                       const std::vector<BenchRecord>& records) {
  std::string out;
  out += "{\n";
  out += "  \"schema_version\": 1,\n";
  out += "  \"suite\": \"" + json_escape(suite) + "\",\n";
  out += "  \"git_sha\": \"" + json_escape(git_sha()) + "\",\n";
  out += std::string("  \"smoke\": ") + (smoke ? "true" : "false") + ",\n";
  out += "  \"records\": [";
  for (std::size_t r = 0; r < records.size(); ++r) {
    const BenchRecord& rec = records[r];
    out += r == 0 ? "\n" : ",\n";
    out += "    {\n";
    out += "      \"name\": \"" + json_escape(rec.name) + "\",\n";
    out += "      \"config\": {";
    for (std::size_t i = 0; i < rec.config.size(); ++i) {
      if (i > 0) out += ", ";
      // Appended piecewise: `"\"" + std::string` trips GCC 12's -O3
      // -Werror=restrict false positive (GCC bug 105329).
      out += '"';
      out += json_escape(rec.config[i].first);
      out += "\": \"";
      out += json_escape(rec.config[i].second);
      out += '"';
    }
    out += "},\n";
    out += "      \"repeats\": " + std::to_string(rec.repeats) + ",\n";
    out += "      \"warmup\": {\"runs\": " + std::to_string(rec.warmup_runs) +
           ", \"ms\": " + json_number(rec.warmup_ms) + "},\n";
    out += "      \"wall_ms\": ";
    append_stats(out, rec.wall_ms);
    out += ",\n";
    out += "      \"extra\": {";
    for (std::size_t i = 0; i < rec.extra.size(); ++i) {
      if (i > 0) out += ", ";
      out += '"';
      out += json_escape(rec.extra[i].first);
      out += "\": " + json_number(rec.extra[i].second);
    }
    out += "}\n";
    out += "    }";
  }
  out += records.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

void write_bench_json(const std::string& path, const std::string& suite, bool smoke,
                      const std::vector<BenchRecord>& records) {
  const auto parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  std::ofstream f(path, std::ios::binary);
  PDR_CHECK(f.good(), "write_bench_json", "cannot open " + path);
  f << bench_json(suite, smoke, records);
  PDR_CHECK(f.good(), "write_bench_json", "short write to " + path);
  std::printf("wrote %s (%zu records)\n", path.c_str(), records.size());
}

std::string bench_table(const std::vector<BenchRecord>& records) {
  Table t({"benchmark", "reps", "warmup ms", "mean ms", "min ms", "max ms", "extra"});
  for (const BenchRecord& rec : records) {
    std::string extra;
    for (std::size_t i = 0; i < rec.extra.size(); ++i) {
      if (i > 0) extra += "  ";
      extra += rec.extra[i].first + "=" + strprintf("%.4g", rec.extra[i].second);
    }
    t.row()
        .add(rec.name)
        .add(rec.repeats)
        .add(rec.warmup_ms, 2)
        .add(rec.wall_ms.empty() ? std::string("-") : strprintf("%.2f", rec.wall_ms.mean()))
        .add(rec.wall_ms.empty() ? std::string("-") : strprintf("%.2f", rec.wall_ms.min()))
        .add(rec.wall_ms.empty() ? std::string("-") : strprintf("%.2f", rec.wall_ms.max()))
        .add(extra);
  }
  return t.to_markdown();
}

}  // namespace pdr::bench
