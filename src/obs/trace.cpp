#include "obs/trace.hpp"

#include <fstream>
#include <map>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::obs {

void Tracer::span(std::string track, std::string name, std::string category, TimeNs start,
                  TimeNs end, std::vector<TraceArg> args) {
  PDR_CHECK(end >= start, "Tracer::span", "span '" + name + "' ends before it starts");
  TraceEvent ev;
  ev.phase = TracePhase::Complete;
  ev.track = std::move(track);
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.ts = start;
  ev.dur = end - start;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void Tracer::instant(std::string track, std::string name, std::string category, TimeNs at,
                     std::vector<TraceArg> args) {
  TraceEvent ev;
  ev.phase = TracePhase::Instant;
  ev.track = std::move(track);
  ev.name = std::move(name);
  ev.category = std::move(category);
  ev.ts = at;
  ev.args = std::move(args);
  events_.push_back(std::move(ev));
}

void Tracer::counter(std::string track, std::string name, TimeNs at, double value) {
  TraceEvent ev;
  ev.phase = TracePhase::Counter;
  ev.track = std::move(track);
  ev.name = std::move(name);
  ev.category = "counter";
  ev.ts = at;
  ev.value = value;
  events_.push_back(std::move(ev));
}

void Tracer::append(const Tracer& other, const std::string& track_prefix) {
  events_.reserve(events_.size() + other.events_.size());
  for (const TraceEvent& ev : other.events_) {
    TraceEvent copy = ev;
    copy.track = track_prefix + copy.track;
    events_.push_back(std::move(copy));
  }
}

TimeNs Tracer::total_duration(const std::string& category) const {
  TimeNs total = 0;
  for (const auto& ev : events_)
    if (ev.phase == TracePhase::Complete && ev.category == category) total += ev.dur;
  return total;
}

std::size_t Tracer::count(const std::string& category) const {
  std::size_t n = 0;
  for (const auto& ev : events_)
    if (ev.category == category) ++n;
  return n;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20)
          out += strprintf("\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c)));
        else
          out += c;
    }
  }
  return out;
}

std::string Tracer::to_chrome_json() const {
  // Stable track -> tid mapping in order of first appearance; tid 0 is
  // reserved for events without a track.
  std::map<std::string, int> tids;
  for (const auto& ev : events_)
    if (!tids.count(ev.track)) tids.emplace(ev.track, static_cast<int>(tids.size()) + 1);

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& piece) {
    if (!first) out += ',';
    first = false;
    out += piece;
  };

  for (const auto& [track, tid] : tids)
    append(strprintf(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":\"%s\"}}",
        tid, json_escape(track).c_str()));

  for (const auto& ev : events_) {
    const int tid = ev.track.empty() ? 0 : tids.at(ev.track);
    // Chrome trace timestamps are microseconds; emit 3 decimals to keep
    // the nanosecond resolution of TimeNs.
    std::string piece = strprintf("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"pid\":1,"
                                  "\"tid\":%d,\"ts\":%.3f",
                                  json_escape(ev.name).c_str(), json_escape(ev.category).c_str(),
                                  static_cast<char>(ev.phase), tid, to_us(ev.ts));
    if (ev.phase == TracePhase::Complete) piece += strprintf(",\"dur\":%.3f", to_us(ev.dur));
    if (ev.phase == TracePhase::Instant) piece += ",\"s\":\"t\"";
    if (ev.phase == TracePhase::Counter) {
      piece += strprintf(",\"args\":{\"value\":%g}", ev.value);
    } else if (!ev.args.empty()) {
      piece += ",\"args\":{";
      for (std::size_t i = 0; i < ev.args.size(); ++i) {
        if (i > 0) piece += ',';
        piece += strprintf("\"%s\":\"%s\"", json_escape(ev.args[i].key).c_str(),
                           json_escape(ev.args[i].value).c_str());
      }
      piece += '}';
    }
    piece += '}';
    append(piece);
  }
  out += "]}";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  PDR_CHECK(out.good(), "Tracer::write_chrome_json", "cannot open '" + path + "'");
  const std::string json = to_chrome_json();
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
  PDR_CHECK(out.good(), "Tracer::write_chrome_json", "write to '" + path + "' failed");
}

}  // namespace pdr::obs
