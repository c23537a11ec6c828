// Cross-cutting property and fuzz tests:
//  - any single-bit corruption of a partial bitstream is detected,
//  - randomly generated constraints files round-trip through write/parse,
//  - random conditioned algorithm graphs schedule validly on random
//    multi-region platforms,
//  - random request/announce sequences keep the reconfiguration manager's
//    invariants (monotone port time, verified residency, non-negative
//    stalls).
#include <gtest/gtest.h>

#include "aaa/adequation.hpp"
#include "aaa/constraints.hpp"
#include "aaa/durations.hpp"
#include "bench/rescan_reference.hpp"
#include "fabric/bitstream.hpp"
#include "lint/schedule_rules.hpp"
#include "rtr/manager.hpp"
#include "schedule_corpus.hpp"
#include "synth/bitgen.hpp"
#include "synth/flow.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace pdr {
namespace {

using namespace pdr::literals;

// --- bitstream corruption fuzz ----------------------------------------------------

class BitstreamFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(BitstreamFuzzTest, AnySingleBitFlipIsDetected) {
  const fabric::DeviceModel device = fabric::xc2v2000();
  const fabric::FrameMap map(device);
  const auto frames = map.frames_for_clb_range(44, 45);
  const auto stream = synth::generate_partial_bitstream(device, frames, 0xfeed);

  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  for (int trial = 0; trial < 40; ++trial) {
    auto corrupted = stream;
    const auto byte = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(stream.size()) - 1));
    corrupted[byte] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    EXPECT_THROW(fabric::ValidatedStream::parse(device, corrupted), pdr::Error)
        << "flip at byte " << byte << " went undetected";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitstreamFuzzTest, ::testing::Range(0, 5));

TEST(BitstreamFuzz, TruncationAtEveryWordBoundaryDetected) {
  const fabric::DeviceModel device = fabric::xc2v2000();
  const fabric::FrameMap map(device);
  const auto stream =
      synth::generate_partial_bitstream(device, map.clb_column_frames(10), 0xbeef);
  for (std::size_t keep = 4; keep < stream.size(); keep += 616) {
    std::vector<std::uint8_t> cut(stream.begin(),
                                  stream.begin() + static_cast<std::ptrdiff_t>(keep));
    EXPECT_THROW(fabric::ValidatedStream::parse(device, cut), pdr::Error) << keep;
  }
}

// --- constraints round-trip fuzz ---------------------------------------------------

aaa::ConstraintSet random_constraints(Rng& rng) {
  aaa::ConstraintSet set;
  set.device = rng.chance(0.5) ? "XC2V2000" : "XC2V1000";
  set.port = static_cast<aaa::PortChoice>(rng.uniform_int(0, 2));
  set.manager = static_cast<aaa::Placement>(rng.uniform_int(0, 1));
  set.builder = static_cast<aaa::Placement>(rng.uniform_int(0, 1));
  set.prefetch = static_cast<aaa::PrefetchChoice>(rng.uniform_int(0, 2));
  const int regions = 1 + static_cast<int>(rng.uniform_int(0, 2));
  for (int r = 0; r < regions; ++r) {
    aaa::RegionConstraint rc;
    rc.name = "R" + std::to_string(r);
    rc.width = rng.chance(0.5) ? -1 : static_cast<int>(rng.uniform_int(2, 8));
    rc.margin = static_cast<int>(rng.uniform_int(0, 2));
    set.regions.push_back(rc);
  }
  int module_id = 0;
  for (int r = 0; r < regions; ++r) {
    const int modules = 1 + static_cast<int>(rng.uniform_int(0, 2));
    for (int m = 0; m < modules; ++m) {
      aaa::ModuleConstraint mc;
      mc.name = "m" + std::to_string(module_id++);
      mc.region = "R" + std::to_string(r);
      mc.kind = rng.chance(0.5) ? "qpsk_mapper" : "fir";
      if (rng.chance(0.5)) mc.params["taps"] = static_cast<int>(rng.uniform_int(2, 32));
      mc.load = rng.chance(0.3) ? aaa::LoadPolicy::Startup : aaa::LoadPolicy::OnDemand;
      mc.unload = rng.chance(0.3) ? aaa::UnloadPolicy::Eager : aaa::UnloadPolicy::Lazy;
      set.modules.push_back(mc);
    }
  }
  if (set.modules.size() >= 2) {
    set.exclusions.emplace_back(set.modules[0].name, set.modules[1].name);
    set.relations.emplace_back(set.modules[0].name, set.modules[1].name);
  }
  return set;
}

class ConstraintsFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ConstraintsFuzzTest, WriteParseRoundTripExact) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 13);
  for (int trial = 0; trial < 20; ++trial) {
    const aaa::ConstraintSet a = random_constraints(rng);
    const aaa::ConstraintSet b = aaa::parse_constraints(aaa::write_constraints(a));
    EXPECT_EQ(b.device, a.device);
    EXPECT_EQ(b.port, a.port);
    EXPECT_EQ(b.manager, a.manager);
    EXPECT_EQ(b.builder, a.builder);
    EXPECT_EQ(b.prefetch, a.prefetch);
    ASSERT_EQ(b.regions.size(), a.regions.size());
    for (std::size_t i = 0; i < a.regions.size(); ++i) {
      EXPECT_EQ(b.regions[i].name, a.regions[i].name);
      EXPECT_EQ(b.regions[i].width, a.regions[i].width);
      EXPECT_EQ(b.regions[i].margin, a.regions[i].margin);
    }
    ASSERT_EQ(b.modules.size(), a.modules.size());
    for (std::size_t i = 0; i < a.modules.size(); ++i) {
      EXPECT_EQ(b.modules[i].name, a.modules[i].name);
      EXPECT_EQ(b.modules[i].kind, a.modules[i].kind);
      EXPECT_EQ(b.modules[i].params, a.modules[i].params);
      EXPECT_EQ(b.modules[i].load, a.modules[i].load);
      EXPECT_EQ(b.modules[i].unload, a.modules[i].unload);
    }
    EXPECT_EQ(b.exclusions, a.exclusions);
    EXPECT_EQ(b.relations, a.relations);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstraintsFuzzTest, ::testing::Range(0, 5));

// --- adequation on random platforms -------------------------------------------------

class PlatformFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(PlatformFuzzTest, ConditionedGraphsScheduleOnRandomPlatforms) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 3);

  // Random platform: 1-2 CPUs, one static part, 0-3 regions, one bus.
  aaa::ArchitectureGraph arch;
  const int cpus = 1 + static_cast<int>(rng.uniform_int(0, 1));
  for (int c = 0; c < cpus; ++c)
    arch.add_operator(aaa::OperatorNode{"CPU" + std::to_string(c), aaa::OperatorKind::Processor,
                                        rng.uniform(0.5, 2.0), "", ""});
  arch.add_operator(aaa::OperatorNode{"F1", aaa::OperatorKind::FpgaStatic, 1.0, "XC2V2000", ""});
  const int regions = static_cast<int>(rng.uniform_int(0, 3));
  for (int r = 0; r < regions; ++r) {
    const std::string name = "D" + std::to_string(r + 1);
    arch.add_operator(aaa::OperatorNode{name, aaa::OperatorKind::FpgaRegion, 1.0, "XC2V2000", name});
  }
  arch.add_medium(aaa::MediumNode{"BUS", rng.uniform(50e6, 400e6), 100});
  for (aaa::NodeId op : arch.operators()) arch.connect(op, arch.by_name("BUS"));

  aaa::DurationTable durations;
  for (const char* kind : {"src", "work", "alt_a", "alt_b"}) {
    durations.set(kind, aaa::OperatorKind::Processor,
                  static_cast<TimeNs>(rng.uniform_int(5'000, 50'000)));
    durations.set(kind, aaa::OperatorKind::FpgaStatic,
                  static_cast<TimeNs>(rng.uniform_int(1'000, 10'000)));
    durations.set(kind, aaa::OperatorKind::FpgaRegion,
                  static_cast<TimeNs>(rng.uniform_int(1'000, 10'000)));
  }

  // Random chain with a couple of conditioned vertices.
  aaa::AlgorithmGraph g;
  const int length = 6 + static_cast<int>(rng.uniform_int(0, 6));
  std::string prev;
  for (int i = 0; i < length; ++i) {
    const std::string name = "n" + std::to_string(i);
    if (i == 0) {
      g.add_operation({name, "src", {}, aaa::OpClass::Sensor, {}});
    } else if (i % 4 == 2) {
      g.add_conditioned(name, {{"va", "alt_a", {}}, {"vb", "alt_b", {}}});
    } else {
      g.add_compute(name, "work");
    }
    if (i > 0) g.add_dependency(prev, name, static_cast<Bytes>(rng.uniform_int(16, 512)));
    prev = name;
  }

  const aaa::Adequation adequation(g, arch, durations);
  for (const bool prefetch : {true, false}) {
    aaa::AdequationOptions options;
    options.reconfig_cost = [](const std::string&, const std::string&) { return 500_us; };
    options.prefetch = prefetch;
    const aaa::Schedule s = adequation.run(options);
    aaa::validate_schedule(s, g, arch);
    EXPECT_EQ(s.placement_count(), g.size());
    EXPECT_GE(s.makespan, s.period_lower_bound());
    EXPECT_GE(s.reconfig_exposed, 0);
    EXPECT_LE(s.reconfig_exposed, s.reconfig_total + 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlatformFuzzTest, ::testing::Range(0, 15));

// --- randomized layered DAGs across every mapping strategy --------------------------

class StrategyFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(StrategyFuzzTest, LayeredDagsScheduleValidlyUnderEveryStrategy) {
  // Random layered DAG: 3-6 layers, 2-5 ops per layer, fan-in 1-3, a
  // conditioned vertex roughly every fourth op (schedule_corpus.hpp).
  const auto problem = corpus::fuzz_problem(GetParam());
  const aaa::AlgorithmGraph& g = problem->algorithm;
  const aaa::ArchitectureGraph& arch = problem->architecture;
  const aaa::DurationTable& durations = problem->durations;

  const aaa::Adequation adequation(g, arch, durations);
  for (const auto strategy :
       {aaa::MappingStrategy::SynDExList, aaa::MappingStrategy::RoundRobin,
        aaa::MappingStrategy::FirstFeasible}) {
    aaa::AdequationOptions options;
    options.reconfig_cost = [](const std::string&, const std::string&) { return 500_us; };
    options.strategy = strategy;
    const aaa::Schedule s = adequation.run(options);
    aaa::validate_schedule(s, g, arch);
    EXPECT_EQ(s.placement_count(), g.size()) << aaa::mapping_strategy_name(strategy);
    EXPECT_GE(s.makespan, s.period_lower_bound());

    // The indexed ready-queue must agree with the rescanning reference
    // byte for byte, whatever the strategy and graph shape.
    EXPECT_EQ(s.to_csv(), bench::schedule_rescan_reference(adequation, options).to_csv())
        << aaa::mapping_strategy_name(strategy);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StrategyFuzzTest, ::testing::Range(0, 10));

// --- validate_schedule and lint agree --------------------------------------------------

// Over the schedule corpus (strategy-fuzz and differential-oracle graphs
// under every strategy, plus seeded mutants), validate_schedule throws
// exactly when lint without constraints reports an error: both are views
// of the same schedule analysis.
TEST(ScheduleCorpus, ValidateThrowsExactlyWhenLintReportsAnError) {
  int threw = 0;
  const std::vector<corpus::Case> cases = corpus::schedule_corpus();
  for (const corpus::Case& c : cases) {
    const corpus::Problem& p = *c.problem;
    std::string error;
    try {
      aaa::validate_schedule(c.schedule, p.algorithm, p.architecture);
    } catch (const Error& e) {
      error = e.what();
      ++threw;
    }
    const lint::Report report = lint::check_schedule(c.schedule, p.algorithm, p.architecture);
    EXPECT_EQ(!error.empty(), report.errors() > 0)
        << c.name << ": validate " << (error.empty() ? "passed" : error) << "\n"
        << report.to_text();
  }
  // Both sides of the equivalence are exercised.
  EXPECT_GT(threw, 0);
  EXPECT_LT(threw, static_cast<int>(cases.size()));
}

// --- manager request-sequence fuzz --------------------------------------------------

class ManagerFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ManagerFuzzTest, RandomRequestSequencesKeepInvariants) {
  synth::ModularDesignFlow flow(fabric::xc2v2000());
  flow.add_region("D1", {{"a", "qpsk_mapper", {}}, {"b", "qam16_mapper", {}},
                         {"c", "qam64_mapper", {}}});
  const synth::DesignBundle bundle = flow.run();
  rtr::BitstreamStore store(30e6, 2000);
  rtr::HistoryPredictor policy;
  rtr::ReconfigManager manager(bundle, rtr::ManagerConfig{}, store, policy);

  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 1);
  const char* modules[] = {"a", "b", "c"};
  TimeNs now = 0;
  TimeNs last_port_free = 0;
  for (int step = 0; step < 60; ++step) {
    now += static_cast<TimeNs>(rng.uniform_int(0, 8'000'000));
    const std::string module = modules[rng.uniform_int(0, 2)];
    if (rng.chance(0.4)) {
      manager.announce("D1", module, now);
    } else {
      const auto outcome = manager.request("D1", module, now);
      EXPECT_GE(outcome.stall, 0);
      EXPECT_GE(outcome.ready_at, now);
      EXPECT_EQ(manager.loaded("D1"), module);
      // Residency is physically real after every demand.
      EXPECT_EQ(manager.verify_resident("D1"), 0);
      now = outcome.ready_at;
    }
    // The port never travels back in time.
    EXPECT_GE(manager.port_free_at(), last_port_free);
    last_port_free = manager.port_free_at();
  }
  const auto& stats = manager.stats();
  EXPECT_EQ(stats.requests, stats.already_loaded + stats.prefetch_hits + stats.prefetch_inflight +
                                stats.cache_hits + stats.misses);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ManagerFuzzTest, ::testing::Range(0, 10));

}  // namespace
}  // namespace pdr
