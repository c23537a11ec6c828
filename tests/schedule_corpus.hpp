// A corpus of scheduler-produced schedules and seeded mutants of each,
// shared by the schedule-findings golden and the validate/lint property.
//
// Sources, each scheduled under all three mapping strategies:
//  - the differential oracle's generator configurations (54 seeds over
//    bench::bench_architecture(2, 2)), which verify_test also replays;
//  - the strategy-fuzz layered DAGs (10 seeds, one CPU, one static FPGA
//    and one dynamic region on a bus), which property_test also runs.
// Mutants of each schedule: one item shifted in time, two items' resources
// swapped, one item dropped, one load's module changed, one load pulled
// back onto the previous load's port time, every load dropped. A mutant
// that does not apply (no load to change) is skipped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aaa/adequation.hpp"
#include "aaa/constraints.hpp"
#include "bench/generators.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace pdr::corpus {

/// One problem instance: the graphs, the scheduler's preload assumptions
/// and a constraint set that declares each variant in a region.
struct Problem {
  aaa::AlgorithmGraph algorithm;
  aaa::ArchitectureGraph architecture;
  aaa::DurationTable durations;
  aaa::AdequationOptions options;
  aaa::ConstraintSet constraints;
};

struct Case {
  std::string name;
  std::shared_ptr<const Problem> problem;
  aaa::Schedule schedule;
};

inline aaa::ConstraintSet declare(const std::vector<std::pair<std::string, std::string>>& modules,
                                  const std::vector<std::string>& regions) {
  aaa::ConstraintSet c;
  for (const auto& r : regions) {
    aaa::RegionConstraint rc;
    rc.name = r;
    rc.seu_budget_ms = 0;  // every gap between rewrites exceeds it: PDR048 reports the worst
    c.regions.push_back(rc);
  }
  for (const auto& [module, region] : modules) {
    aaa::ModuleConstraint mc;
    mc.name = module;
    mc.region = region;
    c.modules.push_back(mc);
  }
  c.exclusions.emplace_back(modules.front().first, modules.back().first);
  return c;
}

/// The differential oracle's configuration for one seed.
inline std::shared_ptr<Problem> oracle_problem(std::uint64_t seed) {
  using namespace pdr::literals;
  const bench::GraphShape shapes[] = {bench::GraphShape::Layered, bench::GraphShape::Random,
                                      bench::GraphShape::Streaming};
  bench::GeneratorConfig cfg;
  cfg.shape = shapes[seed % 3];
  cfg.n_ops = 40 + static_cast<int>(seed % 5) * 10;
  cfg.width = 6;
  cfg.fanout = 3;
  cfg.conditioned_every = 3;
  cfg.seed = seed;
  auto p = std::make_shared<Problem>();
  p->algorithm = bench::generate_graph(cfg);
  p->architecture = bench::bench_architecture(2, 2);
  p->durations = bench::bench_durations();
  p->options.prefetch = seed % 2 == 0;
  if (seed % 4 == 0) p->options.preloaded["D1"] = "filt_a";
  p->constraints = declare({{"filt_a", "D1"}, {"filt_b", "D2"}}, {"D1", "D2"});
  return p;
}

/// The strategy-fuzz problem for one seed.
inline std::shared_ptr<Problem> fuzz_problem(int seed) {
  Rng rng(static_cast<std::uint64_t>(seed) * 211 + 17);
  auto p = std::make_shared<Problem>();
  aaa::AlgorithmGraph& g = p->algorithm;
  const int layers = 3 + static_cast<int>(rng.uniform_int(0, 3));
  std::vector<std::vector<std::string>> names(static_cast<std::size_t>(layers));
  int made = 0;
  for (int l = 0; l < layers; ++l) {
    const int width = 2 + static_cast<int>(rng.uniform_int(0, 3));
    for (int i = 0; i < width; ++i, ++made) {
      const std::string name = strprintf("n%d", made);
      if (l == 0)
        g.add_operation({name, "src", {}, aaa::OpClass::Sensor, {}});
      else if (made % 4 == 3)
        g.add_conditioned(name, {{"va", "alt_a", {}}, {"vb", "alt_b", {}}});
      else
        g.add_compute(name, "work");
      names[static_cast<std::size_t>(l)].push_back(name);
      if (l > 0) {
        const auto& prev = names[static_cast<std::size_t>(l - 1)];
        const int fan_in = 1 + static_cast<int>(rng.uniform_int(0, 2));
        for (int e = 0; e < fan_in; ++e)
          g.add_dependency(
              prev[static_cast<std::size_t>(
                  rng.uniform_int(0, static_cast<std::int64_t>(prev.size()) - 1))],
              name, static_cast<Bytes>(rng.uniform_int(16, 512)));
      }
    }
  }
  aaa::ArchitectureGraph& arch = p->architecture;
  arch.add_operator(aaa::OperatorNode{"CPU", aaa::OperatorKind::Processor, 1.0, "", ""});
  arch.add_operator(aaa::OperatorNode{"F1", aaa::OperatorKind::FpgaStatic, 1.0, "XC2V2000", ""});
  arch.add_operator(aaa::OperatorNode{"D1", aaa::OperatorKind::FpgaRegion, 1.0, "XC2V2000", "D1"});
  arch.add_medium(aaa::MediumNode{"BUS", rng.uniform(50e6, 400e6), 100});
  for (aaa::NodeId op : arch.operators()) arch.connect(op, arch.by_name("BUS"));
  for (const char* kind : {"src", "work", "alt_a", "alt_b"}) {
    p->durations.set(kind, aaa::OperatorKind::Processor,
                     static_cast<TimeNs>(rng.uniform_int(5'000, 50'000)));
    p->durations.set(kind, aaa::OperatorKind::FpgaStatic,
                     static_cast<TimeNs>(rng.uniform_int(1'000, 10'000)));
    p->durations.set(kind, aaa::OperatorKind::FpgaRegion,
                     static_cast<TimeNs>(rng.uniform_int(1'000, 10'000)));
  }
  // vb is declared for a region the architecture lacks: every load of it
  // into D1 is a foreign-module load.
  p->constraints = declare({{"va", "D1"}, {"vb", "D9"}}, {"D1"});
  return p;
}

/// Appends the schedule and its applicable mutants.
inline void add_cases(std::vector<Case>& out, const std::string& name,
                      const std::shared_ptr<const Problem>& problem, aaa::Schedule base,
                      std::uint64_t seed) {
  Rng rng(seed * 7919 + 1);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  out.push_back({name, problem, base});
  if (base.empty()) return;

  {
    aaa::Schedule s = base;
    const std::size_t i = pick(s.size());
    const TimeNs len = s.end(i) - s.start(i);
    TimeNs delta = static_cast<TimeNs>(rng.uniform_int(-2 * len - 1, 2 * len + 1));
    if (delta == 0) delta = 1;
    if (s.start(i) + delta < 0) delta = -s.start(i);
    s.set_start(i, s.start(i) + delta);
    s.set_end(i, s.end(i) + delta);
    out.push_back({strprintf("%s/shift%zu", name.c_str(), i), problem, std::move(s)});
  }
  {
    aaa::Schedule s = base;
    const std::size_t i = pick(s.size());
    std::size_t j = pick(s.size());
    for (std::size_t tries = 0; tries < s.size() && s.resource_sym(j) == s.resource_sym(i); ++tries)
      j = (j + 1) % s.size();
    const std::string ri(s.resource(i));
    const std::string rj(s.resource(j));
    s.set_resource(i, rj);
    s.set_resource(j, ri);
    out.push_back({strprintf("%s/swap%zu,%zu", name.c_str(), i, j), problem, std::move(s)});
  }
  {
    aaa::Schedule s = base;
    const std::size_t i = pick(s.size());
    s.erase_item(i);
    out.push_back({strprintf("%s/drop%zu", name.c_str(), i), problem, std::move(s)});
  }
  std::vector<std::size_t> loads;
  for (std::size_t i = 0; i < base.size(); ++i)
    if (base.kind(i) == aaa::ItemKind::Reconfig) loads.push_back(i);
  if (loads.empty()) return;
  {
    aaa::Schedule s = base;
    const std::size_t i = loads[pick(loads.size())];
    const std::string module(s.module_name(i));
    const std::map<std::string, std::string> other = {
        {"filt_a", "filt_b"}, {"filt_b", "filt_a"}, {"va", "vb"}, {"vb", "va"}};
    const auto it = other.find(module);
    s.set_module(i, it == other.end() ? "bogus" : it->second);
    out.push_back({strprintf("%s/module%zu", name.c_str(), i), problem, std::move(s)});
  }
  if (loads.size() > 1) {
    // Pull a later load back to the middle of the previous one: the two
    // now share the configuration port.
    aaa::Schedule s = base;
    std::sort(loads.begin(), loads.end(),
              [&](std::size_t a, std::size_t b) { return s.start(a) < s.start(b); });
    const std::size_t k = 1 + pick(loads.size() - 1);
    const std::size_t prev = loads[k - 1];
    const std::size_t i = loads[k];
    const TimeNs delta = s.start(prev) + (s.end(prev) - s.start(prev)) / 2 - s.start(i);
    s.set_start(i, s.start(i) + delta);
    s.set_end(i, s.end(i) + delta);
    out.push_back({strprintf("%s/port%zu", name.c_str(), i), problem, std::move(s)});
  }
  {
    aaa::Schedule s = base;
    s.erase_items_if([](const aaa::ScheduledItem& item) {
      return item.kind == aaa::ItemKind::Reconfig;
    });
    out.push_back({name + "/noloads", problem, std::move(s)});
  }
}

/// The whole corpus, in a fixed order.
inline std::vector<Case> schedule_corpus() {
  using namespace pdr::literals;
  std::vector<Case> out;
  const aaa::MappingStrategy strategies[] = {aaa::MappingStrategy::SynDExList,
                                             aaa::MappingStrategy::RoundRobin,
                                             aaa::MappingStrategy::FirstFeasible};
  const auto run = [&](const std::string& name, const std::shared_ptr<Problem>& problem,
                       TimeNs reconfig_cost, std::uint64_t seed) {
    const aaa::Adequation adequation(problem->algorithm, problem->architecture,
                                     problem->durations);
    for (const auto strategy : strategies) {
      aaa::AdequationOptions options = problem->options;
      options.strategy = strategy;
      options.reconfig_cost = [reconfig_cost](const std::string&, const std::string&) {
        return reconfig_cost;
      };
      add_cases(out, name + "/" + aaa::mapping_strategy_name(strategy), problem,
                adequation.run(options), seed * 3 + static_cast<std::uint64_t>(strategy));
    }
  };
  for (std::uint64_t seed = 1; seed <= 54; ++seed)
    run(strprintf("oracle%llu", static_cast<unsigned long long>(seed)), oracle_problem(seed),
        100_us, seed);
  for (int seed = 0; seed < 10; ++seed)
    run(strprintf("fuzz%d", seed), fuzz_problem(seed), 500_us,
        1000 + static_cast<std::uint64_t>(seed));
  return out;
}

}  // namespace pdr::corpus
