#include "aaa/constraints.hpp"

#include "fabric/floorplan.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace pdr::aaa {

const char* to_keyword(PortChoice v) {
  switch (v) {
    case PortChoice::Icap: return "icap";
    case PortChoice::SelectMap: return "selectmap";
    case PortChoice::Jtag: return "jtag";
  }
  return "?";
}

const char* to_keyword(Placement v) { return v == Placement::Fpga ? "fpga" : "cpu"; }

const char* to_keyword(PrefetchChoice v) {
  switch (v) {
    case PrefetchChoice::None: return "none";
    case PrefetchChoice::Schedule: return "schedule";
    case PrefetchChoice::History: return "history";
  }
  return "?";
}

const char* to_keyword(LoadPolicy v) { return v == LoadPolicy::Startup ? "startup" : "on_demand"; }

const char* to_keyword(UnloadPolicy v) { return v == UnloadPolicy::Lazy ? "lazy" : "eager"; }

const RegionConstraint* ConstraintSet::find_region(const std::string& name) const {
  for (const auto& r : regions)
    if (r.name == name) return &r;
  return nullptr;
}

const ModuleConstraint* ConstraintSet::find_module(const std::string& name) const {
  for (const auto& m : modules)
    if (m.name == name) return &m;
  return nullptr;
}

std::vector<const ModuleConstraint*> ConstraintSet::modules_of(const std::string& region) const {
  std::vector<const ModuleConstraint*> out;
  for (const auto& m : modules)
    if (m.region == region) out.push_back(&m);
  return out;
}

namespace {

/// Token-stream parser: comments stripped per line, braces split into
/// their own tokens, so `region D1 { width 2 }` and the multi-line form
/// parse identically. Errors carry the token's source line.
class Parser {
 public:
  explicit Parser(const std::string& text) { tokenize(text); }

  ConstraintSet parse() {
    while (!at_end()) {
      const std::string head = next("directive");
      if (head == "device") {
        set_.device = next("device <name>");
      } else if (head == "port") {
        set_.port = parse_port(next("port icap|selectmap|jtag"));
      } else if (head == "manager") {
        set_.manager = parse_placement(next("manager fpga|cpu"));
      } else if (head == "builder") {
        set_.builder = parse_placement(next("builder fpga|cpu"));
      } else if (head == "prefetch") {
        set_.prefetch = parse_prefetch(next("prefetch none|schedule|history"));
      } else if (head == "region") {
        parse_region();
      } else if (head == "dynamic") {
        parse_module();
      } else if (head == "exclude") {
        const std::string a = next("exclude <a> <b>");
        set_.exclusions.emplace_back(a, next("exclude <a> <b>"));
      } else if (head == "relation") {
        const std::string a = next("relation <a> then <b>");
        fail_unless(next("relation <a> then <b>") == "then", "expected 'then' in relation");
        set_.relations.emplace_back(a, next("relation <a> then <b>"));
      } else {
        fail("unknown directive '" + head + "'");
      }
    }
    return std::move(set_);
  }

 private:
  struct Token {
    std::string text;
    std::size_t line;
  };

  void tokenize(const std::string& text) {
    const auto lines = split(text, '\n');
    for (std::size_t i = 0; i < lines.size(); ++i) {
      std::string raw = lines[i];
      const auto hash = raw.find('#');
      if (hash != std::string::npos) raw.resize(hash);
      for (const std::string& word : split_ws(raw)) {
        // Split leading/trailing braces off words like "{width" or "2}".
        std::size_t start = 0;
        for (std::size_t c = 0; c <= word.size(); ++c) {
          if (c == word.size() || word[c] == '{' || word[c] == '}') {
            if (c > start) tokens_.push_back(Token{word.substr(start, c - start), i + 1});
            if (c < word.size()) tokens_.push_back(Token{std::string(1, word[c]), i + 1});
            start = c + 1;
          }
        }
      }
    }
  }

  bool at_end() const { return pos_ >= tokens_.size(); }

  [[noreturn]] void fail(const std::string& msg) const {
    const std::size_t line = pos_ < tokens_.size() ? tokens_[pos_ > 0 ? pos_ - 1 : 0].line
                                                   : (tokens_.empty() ? 0 : tokens_.back().line);
    raise("constraints", "line " + std::to_string(line) + ": " + msg);
  }
  void fail_unless(bool cond, const std::string& msg) const {
    if (!cond) fail(msg);
  }

  std::string next(const std::string& usage) {
    if (at_end()) fail("missing token; usage: " + usage);
    return tokens_[pos_++].text;
  }

  std::string peek() const { return at_end() ? std::string() : tokens_[pos_].text; }

  void expect_open_brace() { fail_unless(next("'{'") == "{", "expected '{' to open a block"); }

  PortChoice parse_port(const std::string& s) const {
    if (s == "icap") return PortChoice::Icap;
    if (s == "selectmap") return PortChoice::SelectMap;
    if (s == "jtag") return PortChoice::Jtag;
    fail("unknown port '" + s + "'");
  }
  Placement parse_placement(const std::string& s) const {
    if (s == "fpga") return Placement::Fpga;
    if (s == "cpu") return Placement::Cpu;
    fail("unknown placement '" + s + "'");
  }
  PrefetchChoice parse_prefetch(const std::string& s) const {
    if (s == "none") return PrefetchChoice::None;
    if (s == "schedule") return PrefetchChoice::Schedule;
    if (s == "history") return PrefetchChoice::History;
    fail("unknown prefetch policy '" + s + "'");
  }
  int parse_int(const std::string& s) const {
    try {
      std::size_t idx = 0;
      const int v = std::stoi(s, &idx);
      if (idx != s.size()) fail("trailing characters in integer '" + s + "'");
      return v;
    } catch (const Error&) {
      throw;
    } catch (const std::exception&) {
      fail("expected an integer, got '" + s + "'");
    }
  }

  void parse_region() {
    RegionConstraint r;
    r.name = next("region <name> { ... }");
    expect_open_brace();
    while (peek() != "}") {
      fail_unless(!at_end(), "unterminated block (missing '}')");
      const std::string key = next("region attribute");
      if (key == "width") {
        const std::string v = next("width auto|<clb-cols>|<slice-cols>sc");
        if (v == "auto") {
          r.width = -1;
        } else if (v.size() > 2 && v.compare(v.size() - 2, 2, "sc") == 0) {
          // Slice-column form: remember the authored count (lint checks it
          // against the four-slice-column rule) and round up to whole CLB
          // columns for every downstream consumer.
          r.width_slice_cols = parse_int(v.substr(0, v.size() - 2));
          r.width = (r.width_slice_cols + fabric::kSliceColsPerClbCol - 1) /
                    fabric::kSliceColsPerClbCol;
        } else {
          r.width = parse_int(v);
        }
      } else if (key == "margin") {
        r.margin = parse_int(next("margin <cols>"));
      } else if (key == "seu_budget") {
        r.seu_budget_ms = parse_int(next("seu_budget <ms>"));
        fail_unless(r.seu_budget_ms > 0, "seu_budget must be positive");
      } else {
        fail("unknown region attribute '" + key + "'");
      }
    }
    next("'}'");  // consume closing brace
    set_.regions.push_back(std::move(r));
  }

  void parse_module() {
    ModuleConstraint m;
    m.name = next("dynamic <name> { ... }");
    expect_open_brace();
    while (peek() != "}") {
      fail_unless(!at_end(), "unterminated block (missing '}')");
      const std::string key = next("dynamic-module attribute");
      if (key == "region") {
        m.region = next("region <name>");
      } else if (key == "kind") {
        m.kind = next("kind <operator-kind>");
      } else if (key == "param") {
        const std::string pkey = next("param <key> <int>");
        m.params[pkey] = parse_int(next("param <key> <int>"));
      } else if (key == "load") {
        const std::string v = next("load startup|on_demand");
        if (v == "startup")
          m.load = LoadPolicy::Startup;
        else if (v == "on_demand")
          m.load = LoadPolicy::OnDemand;
        else
          fail("unknown load policy '" + v + "'");
      } else if (key == "unload") {
        const std::string v = next("unload lazy|eager");
        if (v == "lazy")
          m.unload = UnloadPolicy::Lazy;
        else if (v == "eager")
          m.unload = UnloadPolicy::Eager;
        else
          fail("unknown unload policy '" + v + "'");
      } else {
        fail("unknown dynamic-module attribute '" + key + "'");
      }
    }
    next("'}'");
    set_.modules.push_back(std::move(m));
  }

  ConstraintSet set_;
  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

ConstraintSet parse_constraints(const std::string& text) { return Parser(text).parse(); }

std::string write_constraints(const ConstraintSet& set) {
  std::string out;
  out += "device " + set.device + "\n";
  out += std::string("port ") + to_keyword(set.port) + "\n";
  out += std::string("manager ") + to_keyword(set.manager) + "\n";
  out += std::string("builder ") + to_keyword(set.builder) + "\n";
  out += std::string("prefetch ") + to_keyword(set.prefetch) + "\n";
  for (const auto& r : set.regions) {
    out += "\nregion " + r.name + " {\n";
    if (r.width_slice_cols >= 0)
      out += "  width " + std::to_string(r.width_slice_cols) + "sc\n";
    else
      out += "  width " + (r.width == -1 ? std::string("auto") : std::to_string(r.width)) + "\n";
    if (r.margin != 0) out += "  margin " + std::to_string(r.margin) + "\n";
    if (r.seu_budget_ms >= 0) out += "  seu_budget " + std::to_string(r.seu_budget_ms) + "\n";
    out += "}\n";
  }
  for (const auto& m : set.modules) {
    out += "\ndynamic " + m.name + " {\n";
    out += "  region " + m.region + "\n";
    out += "  kind " + m.kind + "\n";
    for (const auto& [k, v] : m.params) out += "  param " + k + " " + std::to_string(v) + "\n";
    out += std::string("  load ") + to_keyword(m.load) + "\n";
    out += std::string("  unload ") + to_keyword(m.unload) + "\n";
    out += "}\n";
  }
  if (!set.exclusions.empty()) out += "\n";
  for (const auto& [a, b] : set.exclusions) out += "exclude " + a + " " + b + "\n";
  for (const auto& [a, b] : set.relations) out += "relation " + a + " then " + b + "\n";
  return out;
}

}  // namespace pdr::aaa
