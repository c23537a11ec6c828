// Schedule-findings golden: every case of the schedule corpus (see
// schedule_corpus.hpp) run through the three schedule checks, one line
// per (case, pass, code), compared with
// tests/fixtures/schedule_findings.txt.
//
// Line formats:
//   <case> validate ok
//   <case> validate threw <message>
//   <case> <pass> <code> n=<count> h=<hash>
//   <case> verify certificate h=<hash> <summary>
// Passes: `lint` (no constraints), `lint+constraints` (only the rules
// that need constraints: PDR044, PDR048), `verify` (the scheduler's
// preload assumptions) and `verify+constraints` (only PDR108). For lint
// the hash covers the code's diagnostic lines in canonical order, for
// verify the violations in certificate order with their witness items,
// and the certificate line covers the residency timeline and the port
// bookings.
//
// On a mismatch the computed findings are written to
// schedule_findings.actual.txt in the test's build directory and the
// first differing lines are printed. The golden may change only with a
// CHANGES.md line naming each changed line and why.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/schedule_rules.hpp"
#include "schedule_corpus.hpp"
#include "util/error.hpp"
#include "verify/verify.hpp"

namespace pdr {
namespace {

std::uint64_t fnv1a(const std::string& text, std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string item_text(const aaa::ScheduledItem& i) {
  return strprintf("%s|%s|%s|%lld|%lld|%s|%s", aaa::item_kind_name(i.kind), i.label.c_str(),
                   i.resource.c_str(), static_cast<long long>(i.start),
                   static_cast<long long>(i.end), i.variant.c_str(), i.module.c_str());
}

void lint_lines(std::string& out, const std::string& prefix, const lint::Report& report,
                const std::vector<lint::Rule>& only = {}) {
  std::map<std::string, std::vector<std::string>> by_code;
  for (const auto& d : report.diagnostics())
    if (only.empty() || std::find(only.begin(), only.end(), d.rule) != only.end())
      by_code[lint::rule_id(d.rule)].push_back(d.to_string());
  for (auto& [code, lines] : by_code) {
    std::sort(lines.begin(), lines.end());
    std::uint64_t h = fnv1a("");
    for (const auto& line : lines) h = fnv1a(line + "\n", h);
    out += strprintf("%s %s n=%zu h=%016llx\n", prefix.c_str(), code.c_str(), lines.size(),
                     static_cast<unsigned long long>(h));
  }
}

void verify_lines(std::string& out, const std::string& prefix, const verify::Certificate& cert,
                  const std::vector<lint::Rule>& only = {}) {
  std::map<std::string, std::pair<std::size_t, std::uint64_t>> by_code;
  for (const auto& v : cert.violations) {
    if (!only.empty() && std::find(only.begin(), only.end(), v.rule) == only.end()) continue;
    auto [it, inserted] = by_code.try_emplace(lint::rule_id(v.rule), 0, fnv1a(""));
    it->second.first += 1;
    it->second.second =
        fnv1a(strprintf("%s|%s|%d|%s|%s\n", v.to_string().c_str(), v.hint.c_str(),
                        static_cast<int>(v.severity), item_text(v.first).c_str(),
                        v.pair ? item_text(v.second).c_str() : "-"),
              it->second.second);
  }
  for (const auto& [code, entry] : by_code)
    out += strprintf("%s %s n=%zu h=%016llx\n", prefix.c_str(), code.c_str(), entry.first,
                     static_cast<unsigned long long>(entry.second));
}

std::string certificate_line(const std::string& prefix, const verify::Certificate& cert) {
  std::uint64_t h = fnv1a("");
  for (const auto& r : cert.residencies)
    h = fnv1a(strprintf("%s|%s|%lld|%lld\n", r.region.c_str(), r.module.c_str(),
                        static_cast<long long>(r.from), static_cast<long long>(r.to)),
              h);
  for (const auto& b : cert.port_bookings) h = fnv1a(item_text(b) + "\n", h);
  return strprintf("%s certificate h=%016llx %s\n", prefix.c_str(),
                   static_cast<unsigned long long>(h), cert.summary().c_str());
}

std::string findings(const corpus::Case& c) {
  const corpus::Problem& p = *c.problem;
  const aaa::Schedule& s = c.schedule;
  std::string out;
  try {
    aaa::validate_schedule(s, p.algorithm, p.architecture);
    out += c.name + " validate ok\n";
  } catch (const Error& e) {
    out += c.name + " validate threw " + e.what() + "\n";
  }
  lint_lines(out, c.name + " lint", lint::check_schedule(s, p.algorithm, p.architecture));
  lint_lines(out, c.name + " lint+constraints",
             lint::check_schedule(s, p.algorithm, p.architecture, &p.constraints),
             {lint::Rule::ExclusionOverlap, lint::Rule::ScrubPeriodExceedsBudget});

  verify::VerifyOptions vo;
  vo.preloaded = p.options.preloaded;
  const verify::Certificate cert = verify::verify_schedule(s, p.algorithm, p.architecture, vo);
  verify_lines(out, c.name + " verify", cert);
  out += certificate_line(c.name + " verify", cert);
  vo.constraints = &p.constraints;
  verify_lines(out, c.name + " verify+constraints",
               verify::verify_schedule(s, p.algorithm, p.architecture, vo),
               {lint::Rule::ForeignModuleLoad});
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(ScheduleFindings, MatchGolden) {
  std::string computed;
  for (const corpus::Case& c : corpus::schedule_corpus()) computed += findings(c);

  std::ifstream in(PDR_FINDINGS_GOLDEN);
  std::stringstream golden;
  golden << in.rdbuf();
  if (computed == golden.str()) return;

  const std::string actual = std::string(PDR_FINDINGS_OUT_DIR) + "/schedule_findings.actual.txt";
  std::ofstream(actual) << computed;
  const std::vector<std::string> want = split_lines(golden.str());
  const std::vector<std::string> got = split_lines(computed);
  const std::set<std::string> want_set(want.begin(), want.end());
  const std::set<std::string> got_set(got.begin(), got.end());
  std::string diff;
  int shown = 0;
  for (const auto& line : want)
    if (got_set.count(line) == 0 && shown++ < 20) diff += "- " + line + "\n";
  for (const auto& line : got)
    if (want_set.count(line) == 0 && shown++ < 40) diff += "+ " + line + "\n";
  ADD_FAILURE() << "schedule findings differ from " << PDR_FINDINGS_GOLDEN << " ("
                << want.size() << " golden lines, " << got.size() << " computed); wrote "
                << actual << "\n"
                << diff;
}

}  // namespace
}  // namespace pdr
