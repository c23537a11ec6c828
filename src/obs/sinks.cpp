#include "obs/sinks.hpp"

#include <cstdio>

namespace pdr::obs {

void Recorder::write(const std::string& trace_path, const std::string& metrics_path) const {
  if (!trace_path.empty()) {
    tracer.write_chrome_json(trace_path);
    std::printf("  wrote trace with %zu events to %s\n", tracer.size(), trace_path.c_str());
  }
  if (!metrics_path.empty()) {
    metrics.write_json(metrics_path);
    std::printf("  wrote %zu metrics to %s\n", metrics.names().size(), metrics_path.c_str());
  }
}

}  // namespace pdr::obs
