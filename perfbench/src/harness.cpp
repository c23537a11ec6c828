#include "harness.hpp"

#include <algorithm>
#include <cmath>

#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdrbench {

Spans::Spans() : origin_(std::chrono::steady_clock::now()) {}

TimeNs Spans::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                              origin_)
      .count();
}

int Spans::begin(const char* module, const char* name) {
  if (!enabled_) return -1;
  Record rec;
  rec.module = module;
  rec.name = name;
  rec.parent = open_.empty() ? -1 : open_.back();
  rec.iteration = iteration_;
  rec.start = now();
  records_.push_back(std::move(rec));
  const int index = static_cast<int>(records_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Spans::end(int index) {
  if (index < 0) return;
  records_[static_cast<std::size_t>(index)].end = now();
  PDR_CHECK(!open_.empty() && open_.back() == index, "Spans::end", "spans closed out of order");
  open_.pop_back();
}

void Spans::write_chrome_json(const std::string& path) const {
  pdr::obs::Tracer tracer;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    tracer.span("wall/" + r.module, r.name, "wall", r.start, r.end,
                {{"id", std::to_string(i)},
                 {"parent", std::to_string(r.parent)},
                 {"iteration", std::to_string(r.iteration)}});
  }
  tracer.write_chrome_json(path);
}

std::vector<LayerRow> layer_rows(const std::vector<Spans::Record>& records) {
  std::vector<double> child_ms(records.size(), 0.0);
  for (const auto& r : records)
    if (r.parent >= 0) child_ms[static_cast<std::size_t>(r.parent)] += pdr::to_ms(r.end - r.start);

  std::vector<LayerRow> rows;
  std::map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto& r = records[i];
    if (r.iteration < 0) continue;
    auto [it, fresh] = index_of.emplace(r.name, rows.size());
    if (fresh) rows.push_back(LayerRow{r.name, r.module, 0, 0.0, 0.0});
    LayerRow& row = rows[it->second];
    const double ms = pdr::to_ms(r.end - r.start);
    ++row.calls;
    row.total_ms += ms;
    row.self_ms += ms - child_ms[i];
  }
  return rows;
}

std::string layer_table(const std::vector<LayerRow>& rows, double iteration_wall_ms) {
  // Self shares partition the iteration wall (the iteration span's own
  // self time is the harness glue between calls).
  const auto share = [iteration_wall_ms](double ms) {
    return iteration_wall_ms > 0 ? 100.0 * ms / iteration_wall_ms : 0.0;
  };
  std::string out = pdr::strprintf("%-28s %-8s %7s %12s %12s %8s %8s\n", "span", "layer", "calls",
                                   "total_ms", "self_ms", "total_%", "self_%");
  for (const auto& row : rows)
    out += pdr::strprintf("%-28s %-8s %7d %12.3f %12.3f %7.2f%% %7.2f%%\n", row.name.c_str(),
                          row.module.c_str(), row.calls, row.total_ms, row.self_ms,
                          share(row.total_ms), share(row.self_ms));
  return out;
}

std::uint64_t fnv1a(const std::string& text, std::uint64_t h) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

double quantile(std::vector<double> values, double q) {
  PDR_CHECK(!values.empty(), "quantile", "no samples");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

}  // namespace pdrbench
