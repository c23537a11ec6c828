// Paper Figure 1: modeling runtime-reconfigurable parts of an FPGA as
// operators of the architecture graph (D1, D2 next to the fixed part F1,
// joined by the internal link IL).
//
// The figure itself is a model; what we regenerate is its consequence:
// how the adequation behaves when dynamic regions are added to the
// architecture. The series show, for random layered data-flow graphs with
// conditioned vertices,
//   - makespan vs. number of dynamic regions (regions add exploitable
//     parallelism for conditioned operations),
//   - reconfigurations inserted and latency exposed (prefetch on/off),
//   - makespan and placements vs. graph size,
//   - the SynDEx list heuristic against naive mapping baselines.

#include <cstdio>

#include "aaa/adequation.hpp"
#include "aaa/durations.hpp"
#include "util/arg_parser.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace pdr;
using namespace pdr::literals;

namespace {

aaa::DurationTable generic_durations() {
  aaa::DurationTable t;
  for (const char* kind : {"src", "work"}) {
    t.set(kind, aaa::OperatorKind::Processor, 20'000);
    t.set(kind, aaa::OperatorKind::FpgaStatic, 4'000);
  }
  // The conditioned alternatives are hardware modules: fast in a dynamic
  // region, an order of magnitude slower in software, with no fixed-part
  // implementation (both alternatives at once would not fit).
  for (const char* kind : {"alt_a", "alt_b"}) {
    t.set(kind, aaa::OperatorKind::Processor, 40'000);
    t.set(kind, aaa::OperatorKind::FpgaRegion, 4'000);
  }
  return t;
}

/// Random layered DAG with `n_ops` operations, every 5th being a
/// conditioned vertex. All conditioned vertices share the same two module
/// alternatives (filt_a / filt_b), so a region that already holds the
/// right module serves later vertices without reloading — the reuse that
/// makes dynamic regions worthwhile.
aaa::AlgorithmGraph random_graph(int n_ops, std::uint64_t seed) {
  Rng rng(seed);
  aaa::AlgorithmGraph g;
  const int width = 5;
  std::vector<std::string> prev_layer;
  std::vector<std::string> layer;
  int made = 0;
  int layer_index = 0;
  while (made < n_ops) {
    layer.clear();
    for (int i = 0; i < width && made < n_ops; ++i, ++made) {
      const std::string name = "op" + std::to_string(made);
      if (layer_index == 0) {
        g.add_operation({name, "src", {}, aaa::OpClass::Sensor, {}});
      } else if (made % 5 == 0) {
        g.add_conditioned(name, {{"filt_a", "alt_a", {}}, {"filt_b", "alt_b", {}}});
      } else {
        g.add_compute(name, "work");
      }
      if (layer_index > 0) {
        const auto& from = prev_layer[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(prev_layer.size()) - 1))];
        g.add_dependency(from, name, 128);
      }
      layer.push_back(name);
    }
    prev_layer = layer;
    ++layer_index;
  }
  return g;
}

/// Names of the conditioned vertices of a graph.
std::vector<std::string> conditioned_names(const aaa::AlgorithmGraph& g) {
  std::vector<std::string> out;
  for (auto n : g.digraph().node_ids())
    if (g.op(n).conditioned()) out.push_back(g.op(n).name);
  return out;
}

void print_region_series() {
  std::puts("=== Figure 1 consequence: adequation vs. number of dynamic regions ===");
  std::puts("(random 60-op graph, 12 conditioned vertices, reconfig 1 ms)\n");
  const aaa::DurationTable durations = generic_durations();
  Table t({"regions", "makespan (us)", "reconfigs", "exposed (us)",
           "makespan no-prefetch (us)"});
  for (int regions : {0, 1, 2, 4}) {
    aaa::ArchitectureGraph arch = aaa::make_figure1_architecture(regions, 200e6);
    // Add a processor: the fallback implementation of conditioned vertices
    // when no region exists (regions = 0 row).
    arch.add_operator(aaa::OperatorNode{"CPU", aaa::OperatorKind::Processor, 1.0, "", ""});
    arch.connect("CPU", "IL");
    const aaa::AlgorithmGraph g = random_graph(60, 7);
    aaa::Adequation adequation(g, arch, durations);

    // The constraints file pins dynamic modules to regions: module
    // filt_a lives in D1, filt_b in D2 (wrapping when fewer regions).
    aaa::AdequationOptions options;
    options.reconfig_cost = [](const std::string&, const std::string&) { return 1_ms; };
    int idx = 0;
    for (const auto& name : conditioned_names(g)) {
      const bool use_a = (idx % 2) == 0;
      options.selection[name] = use_a ? "filt_a" : "filt_b";
      if (regions > 0)
        adequation.pin(name, strprintf("D%d", 1 + (use_a ? 0 : 1) % regions));
      ++idx;
    }
    const aaa::Schedule with = adequation.run(options);
    aaa::AdequationOptions off = options;
    off.prefetch = false;
    const aaa::Schedule without = adequation.run(off);
    t.row()
        .add(regions)
        .add(to_us(with.makespan), 1)
        .add(with.reconfig_count)
        .add(to_us(with.reconfig_exposed), 1)
        .add(to_us(without.makespan), 1);
  }
  t.print();
  std::puts("\n(regions = 0: software fallback. One region ping-pongs between the");
  std::puts(" two modules, paying a reconfiguration per alternation; with D1 and D2");
  std::puts(" each module keeps its own region — two loads total, as in Figure 1)\n");
}

void print_size_series() {
  std::puts("=== adequation scaling: makespan and placements vs. graph size ===\n");
  const aaa::DurationTable durations = generic_durations();
  Table t({"operations", "makespan (us)", "ops on FPGA", "ops on CPU", "transfers"});
  for (int n : {20, 50, 100, 200}) {
    aaa::ArchitectureGraph arch = aaa::make_figure1_architecture(2, 200e6);
    arch.add_operator(aaa::OperatorNode{"CPU", aaa::OperatorKind::Processor, 1.0, "", ""});
    arch.connect("CPU", "IL");
    const aaa::AlgorithmGraph g = random_graph(n, 11);
    aaa::AdequationOptions options;
    options.reconfig_cost = [](const std::string&, const std::string&) { return 1_ms; };
    const aaa::Schedule s = aaa::Adequation(g, arch, durations).run(options);
    int on_cpu = 0;
    int transfers = 0;
    for (const auto sym : s.placement)
      if (sym != util::kNoSymbol && s.name(sym) == "CPU") ++on_cpu;
    for (std::size_t i = 0; i < s.size(); ++i)
      if (s.kind(i) == aaa::ItemKind::Transfer) ++transfers;
    t.row()
        .add(n)
        .add(to_us(s.makespan), 1)
        .add(static_cast<int>(s.placement_count()) - on_cpu)
        .add(on_cpu)
        .add(transfers);
  }
  t.print();
  std::puts("");
}

void print_strategy_series() {
  std::puts("=== heuristic quality: SynDEx list scheduling vs naive baselines ===\n");
  const aaa::DurationTable durations = generic_durations();
  Table t({"operations", "syndex (us)", "round robin (us)", "first feasible (us)",
           "naive/syndex"});
  for (int n : {20, 50, 100}) {
    aaa::ArchitectureGraph arch = aaa::make_figure1_architecture(2, 200e6);
    arch.add_operator(aaa::OperatorNode{"CPU", aaa::OperatorKind::Processor, 1.0, "", ""});
    arch.connect("CPU", "IL");
    const aaa::AlgorithmGraph g = random_graph(n, 23);
    const aaa::Adequation adequation(g, arch, durations);

    double per_strategy[3] = {0, 0, 0};
    const aaa::MappingStrategy strategies[3] = {aaa::MappingStrategy::SynDExList,
                                                aaa::MappingStrategy::RoundRobin,
                                                aaa::MappingStrategy::FirstFeasible};
    for (int s = 0; s < 3; ++s) {
      aaa::AdequationOptions options;
      options.reconfig_cost = [](const std::string&, const std::string&) { return 1_ms; };
      options.strategy = strategies[s];
      per_strategy[s] = to_us(adequation.run(options).makespan);
    }
    t.row()
        .add(n)
        .add(per_strategy[0], 1)
        .add(per_strategy[1], 1)
        .add(per_strategy[2], 1)
        .add(per_strategy[1] / per_strategy[0], 2);
  }
  t.print();
  std::puts("\n(the adequation's whole value is this gap: naive mapping pays slow");
  std::puts(" software operators and avoidable transfers)\n");
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::ArgParser("fig1_modeling_adequation", argc - 1, argv + 1, {}, 0);  // takes no flags
    print_region_series();
    print_size_series();
    print_strategy_series();
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "fig1_modeling_adequation: %s\n", e.what());
    return 1;
  }
}
